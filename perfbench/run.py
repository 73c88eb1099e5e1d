"""Benchmark for the ``cho`` command line, driven in-process.

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One client sends one request at a time (closed loop, no
concurrency): ``cho.cli.main(argv)`` on a freshly generated model file,
with stdout captured in memory.  Every output is checked against a
numpy.linalg oracle (``oracle.py``).  Requests run in whole blocks
until the time spent inside requests reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
block twice, untraced and traced, and prints per-layer metrics from the
traced pass (``tracer.py``).  After timing, an untimed probe
(``workloads.defect_probe``) reports which known defects of the program
still show; its requests are not counted as attempted.  The last line
of stdout is the result; the line before it records the environment.
Spans and results are written under ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from calibrate import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
SETUP_SAMPLES = 15  # kernel runs on each side of a setup probe


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit(root: Path) -> str:
    """HEAD's commit when the checkout carries a .git directory."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def warmup_argvs(path: str) -> list[list[str]]:
    """One request of each kind, run before measuring."""
    return [
        ["analyze", path],
        ["analyze", path, "--format", "json", "--mass-norm", "geometric"],
        ["check", path],
        ["sweep", path, "--param", "D:1,2", "--from", "0", "--to", "0.5",
         "--steps", "2", "--format", "json"],
    ]


class SetupProbe:
    """Times a fresh interpreter importing cho and running the warm-up
    requests, scaled to nominal machine speed by the reference kernel
    run just before and after it on the same (pinned) CPU.  Probes are
    spread over the run."""

    def __init__(self, root: Path, model_path: str, speed: Speed):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.speed = speed
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"),
                    json.dumps(warmup_argvs(model_path))]
        self.times: list[float] = []  # measured seconds
        self.nominal: list[float] = []
        self._run()  # fills the bytecode cache; not counted

    def _run(self) -> tuple[float, float]:
        first, _ = self.speed.sample(SETUP_SAMPLES)
        proc = subprocess.run(self.cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120, check=True)
        _, end = self.speed.sample(SETUP_SAMPLES)
        seconds = float(proc.stdout)
        return seconds, seconds * self.speed.scale(first, end)

    def probe(self) -> None:
        seconds, nominal = self._run()
        self.times.append(seconds)
        self.nominal.append(nominal)

    def median(self) -> float:
        return statistics.median(self.nominal)


def call_main(cli, argv):
    """Run one request; returns exit code, stdout, stderr and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 3
        seconds = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


class Run:
    """Requests, checks and failures of one benchmark run."""

    def __init__(self):
        # (measured seconds, correct work, kernel sample range after it)
        self.requests: list[tuple[float, int, tuple[int, int]]] = []
        self.attempted = 0
        self.failed = 0
        self.unexplained: list[str] = []
        self.known: dict[str, int] = {}

    def record(self, request, result) -> int:
        """Check one result; returns the work it completed correctly."""
        self.attempted += 1
        outcome = request.check(*result)
        if outcome.ok:
            return request.work
        self.failed += 1
        if outcome.known_defect:
            self.known[outcome.known_defect] = self.known.get(outcome.known_defect, 0) + 1
        else:
            self.unexplained.append(f"{' '.join(request.argv)}: {outcome.reason}")
        return 0

    def merge_counts(self, other: "Run") -> None:
        """Add another run's checks, but not its times, to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexplained += other.unexplained
        for name, count in other.known.items():
            self.known[name] = self.known.get(name, 0) + count

    def measured(self) -> np.ndarray:
        return np.array([seconds for seconds, _, _ in self.requests])

    def nominal(self, speed: Speed) -> np.ndarray:
        """Request seconds scaled to nominal machine speed."""
        return np.array([seconds * speed.scale(*marks)
                         for seconds, _, marks in self.requests])

    def work_rate(self, speed: Speed) -> float:
        """Correct work per nominal second inside requests."""
        done = sum(work for _, work, _ in self.requests)
        return done / float(np.sum(self.nominal(speed)))


def run_block(cli, requests, run: Run, speed: Speed,
              tracer: Tracer | None = None) -> float:
    """Run and check one block, with the reference kernel between
    requests; returns the seconds spent inside requests."""
    spent = 0.0
    with tracer or contextlib.nullcontext():
        for req in requests:
            if tracer is None:
                rc, out, err, seconds = call_main(cli, req.argv)
            else:
                (rc, out, err, _), seconds = tracer.request(
                    lambda: call_main(cli, req.argv), run.attempted)
            marks = speed.after_request(seconds)
            run.requests.append((seconds, run.record(req, (rc, out, err)), marks))
            spent += seconds
    return spent


def run_defect_probe(cli, workdir: Path) -> tuple[dict, list[str]]:
    """Run the fixed probe once; returns, per known defect, how many of
    its probe requests showed it, and any unexplained mismatches."""
    report: dict[str, dict] = {}
    unexplained = []
    for defect, request in workloads.defect_probe(workdir):
        rc, out, err, _ = call_main(cli, request.argv)
        outcome = request.check(rc, out, err)
        entry = report.setdefault(defect, {"reproduced": 0, "probed": 0,
                                           "what": oracle.KNOWN_DEFECTS[defect]})
        entry["probed"] += 1
        if outcome.known_defect == defect:
            entry["reproduced"] += 1
        elif not outcome.ok and outcome.known_defect is None:
            unexplained.append(f"probe {' '.join(request.argv)}: {outcome.reason}")
    return report, unexplained


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cho" / "__init__.py").is_file():
        return _fail(f"no program source at {src / 'cho'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import cho.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "cho").resolve():
        return _fail(f"imported cho from {cli.__file__}, not from {src}")

    workdir = root / ".perfbench_work"
    modeldir = workdir / "models"
    modeldir.mkdir(parents=True, exist_ok=True)
    env = environment(root)
    # one CPU for the benchmark, the program and the setup probes, so the
    # reference kernel measures the speed of the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    warm_path = str(modeldir / "warmup.json")
    Path(warm_path).write_text(json.dumps(
        {"masses": [1, 1, 1], "omegas": [1, 1, 1],
         "couplings": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0]]}))
    speed = Speed()
    setup = SetupProbe(root, warm_path, speed) if not args.trace else None
    for warm in warmup_argvs(warm_path):
        call_main(cli, warm)

    make_block = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    # one unmeasured block of the workload itself, from its own stream
    run_block(cli, make_block(np.random.default_rng([args.seed, 1]), 0, modeldir),
              Run(), speed)

    run = Run()
    tracer = Tracer() if args.trace else None
    plain = Run()  # the untraced pass of a traced run
    spent = 0.0
    block = 0
    while spent < args.seconds:
        if setup and len(setup.times) < SETUP_REPEATS * spent / args.seconds:
            setup.probe()
        requests = make_block(rng, block, modeldir)
        gc.collect()
        if tracer is None:
            spent += run_block(cli, requests, run, speed)
        else:
            # same requests both ways, alternating which goes first
            for traced_pass in ((True, False) if block % 2 else (False, True)):
                if traced_pass:
                    spent += run_block(cli, requests, run, speed, tracer)
                else:
                    spent += run_block(cli, requests, plain, speed)
        block += 1

    if tracer is None:
        while len(setup.times) < SETUP_REPEATS:
            setup.probe()
        times_ms = run.nominal(speed) * 1e3
        tail = workloads.TAIL_PERCENTILE[args.workload]
        metrics = {
            "setup_s": (setup.median(), "s"),
            "request_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
            "request_ms_tail": (float(np.percentile(times_ms, tail)), "ms"),
            "work_per_s": (run.work_rate(speed), "1/s"),
        }
    else:
        overhead = float(np.sum(run.nominal(speed)) / np.sum(plain.nominal(speed))) - 1.0
        metrics = tracer.layer_metrics(len(run.requests), overhead)
        tracer.write(workdir / f"spans_{args.workload}_seed{args.seed}.csv")
        run.merge_counts(plain)

    probe, probe_unexplained = run_defect_probe(cli, modeldir)
    run.unexplained += probe_unexplained
    correct = not run.unexplained
    detail = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blocks": block,
        "known_defects": {name: {"count": count, "what": oracle.KNOWN_DEFECTS[name]}
                          for name, count in run.known.items()},
        "defect_probe": probe,
        "unexplained_failures": run.unexplained[:20],
    }
    if tracer is None:
        detail["tail_percentile"] = workloads.TAIL_PERCENTILE[args.workload]
        detail["measured"] = {
            "kernel_ms": float(np.median(speed.samples)) * 1e3,
            "setup_probes_s": setup.times,
            "request_ms_p50": float(np.median(run.measured())) * 1e3,
        }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (workdir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**detail, **result}, indent=1))
    for line in run.unexplained[:20]:
        print(f"perfbench: unexplained failure: {line}", file=sys.stderr)
    for name, entry in probe.items():
        print(f"perfbench: known defect {name}: shown by {entry['reproduced']} of "
              f"{entry['probed']} untimed probe requests", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
