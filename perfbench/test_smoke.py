"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a fraction of a second with and without tracing,
checks that the oracle rejects corrupted outputs, and that the traced
call counts match what the program does per request.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import call_main  # noqa: E402
from tracer import Tracer  # noqa: E402

import cho.cli as cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".perfbench_work" / "smoke"


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


def test_refuses_to_run_without_the_program():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("analyze_mix", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _one(request):
    rc, out, err, _ = call_main(cli, request.argv)
    return rc, out, err


def _requests(make_block):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    return make_block(np.random.default_rng(11), 0, WORKDIR)


def _other(verdict: str) -> str:
    return "Unbound" if verdict == "Bound" else "Bound"


def _corruptions(out: str):
    """Outputs that differ from a correct one in a single answer."""
    text = out.strip()
    if text in ("Bound", "Unbound", "Marginal"):
        yield _other(text) + "\n"
        return
    if text.startswith("{"):
        doc = json.loads(out)
        if "steps" in doc:
            lam = json.loads(out)
            lam["steps"][-1]["lambdas"][0] *= 1.001
            yield json.dumps(lam)
            doc["steps"][0]["verdict"] = _other(doc["steps"][0]["verdict"])
            yield json.dumps(doc)
            return
        lam = json.loads(out)
        lam["modes"]["lambdas"][-1] *= 1.0 + 1e-6
        yield json.dumps(lam)
        flip = json.loads(out)
        flip["bound_state"]["verdict"] = _other(doc["bound_state"]["verdict"])
        yield json.dumps(flip)
        if "spectrum" in doc:
            drop = json.loads(out)
            del drop["spectrum"]["levels"][3]
            yield json.dumps(drop)
            shifted = json.loads(out)
            shifted["spectrum"]["levels"][-1]["energy"] *= 1.001
            yield json.dumps(shifted)
        return
    if text.startswith("SWEEP"):
        yield out.replace("  Bound", "Unbound", 1)
        return
    yield re.sub(r"(?m)^  verdict  (\w+)$",
                 lambda m: "  verdict  " + _other(m.group(1)), out)
    lines = out.split("\n")
    start = lines.index("NORMAL MODES")
    last = max(i for i in range(start, len(lines)) if lines[i].startswith("    ")
               and lines[i][4:5].isdigit() and i < lines.index("", start))
    lam = lines[last].split()[1]
    lines[last] = lines[last].replace(lam, repr(float(lam) * 1.001), 1)
    yield "\n".join(lines)


@pytest.mark.parametrize("make_block", [workloads.analyze_mix_block,
                                        workloads.sweep_n16_block,
                                        workloads.levels_deep_block])
def test_oracle_flags_corrupted_output(make_block):
    flagged = 0
    for request in _requests(make_block):
        rc, out, err = _one(request)
        outcome = request.check(rc, out, err)
        if not outcome.ok:
            assert outcome.known_defect, outcome.reason
            continue
        if not out.strip() or rc == 3:
            continue
        for bad in _corruptions(out):
            outcome = request.check(rc, bad, err)
            assert not outcome.ok and outcome.known_defect is None, bad[:200]
            flagged += 1
    assert flagged >= 3


def test_defect_probe_mismatches_are_known_defects():
    WORKDIR.mkdir(parents=True, exist_ok=True)
    probe = workloads.defect_probe(WORKDIR)
    assert {defect for defect, _ in probe} <= set(oracle.KNOWN_DEFECTS)
    for _, request in probe:
        outcome = request.check(*_one(request))
        assert outcome.ok or outcome.known_defect, outcome.reason


def test_timed_models_avoid_predicted_defects():
    checked = 0
    for make_block in (workloads.analyze_mix_block, workloads.levels_deep_block):
        for request in _requests(make_block):
            spec = request.spec
            if spec is not None and not spec.edge:
                assert oracle.predicted_defect(spec, oracle.expect(spec)) is None
                checked += 1
    assert checked >= 20


def _traced(argv_list):
    tracer = Tracer()
    with tracer:
        for k, argv in enumerate(argv_list):
            tracer.request(lambda: call_main(cli, argv), k)
    return tracer.layer_metrics(len(argv_list), 0.0)


def test_traced_call_counts_per_request():
    path = str(ROOT / "demos" / "models" / "identical_triple.json")
    geo = _traced([["analyze", path, "--mass-norm", "geometric"]])
    assert geo["linalg.jacobi_eigh.calls"][0] == 3
    assert geo["linalg.jacobi_eigh.distinct_ratio"][0] == pytest.approx(1 / 3)
    assert geo["model.validate.calls"][0] == 11
    plain = _traced([["analyze", path]])
    assert plain["linalg.jacobi_eigh.calls"][0] == 2
    assert plain["model.validate.calls"][0] == 7
    check = _traced([["check", path]])
    assert check["linalg.jacobi_eigh.calls"][0] == 1
    sweep = _traced([["sweep", path, "--param", "D:1,2", "--from", "0", "--to", "1",
                      "--steps", "5"]])
    assert sweep["linalg.jacobi_eigh.calls"][0] == 10
    assert sweep["linalg.jacobi_eigh.distinct_ratio"][0] == 0.5
    assert sweep["cli.dumps_json.calls"][0] == 0
    json_sweep = _traced([["sweep", path, "--param", "D:1,2", "--from", "0",
                           "--to", "1", "--steps", "5", "--format", "json"]])
    assert json_sweep["cli.dumps_json.calls"][0] == 1


def test_self_times_add_up_to_request_time():
    requests = _requests(workloads.analyze_mix_block)
    metrics = _traced([r.argv for r in requests])
    self_ms = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
    total = self_ms + metrics["trace.remainder_ms"][0]
    assert total == pytest.approx(metrics["trace.request_ms"][0], rel=1e-9)
    shares = sum(metrics[f"{m}.self_share"][0] for m in ("cli", "model", "diagonalize",
                                                          "linalg", "boundstate", "spectrum"))
    assert 0.9 < shares <= 1.0
