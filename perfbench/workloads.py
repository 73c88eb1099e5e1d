"""Seeded request streams for the three workloads.

Every request gets its own freshly generated model file, so no two
requests of a run share any work except inside one ``sweep``, where
consecutive steps differ in one entry of V.  Requests come in blocks
whose composition is fixed (sizes, commands, formats and unit scales
rotate by block and slot); the seed draws the models and the order
inside each block.  Fixed composition keeps medians and tails from
drifting with the share of expensive requests a seed happens to draw.

Timed requests use only models on which the program should answer
right: a model the oracle predicts to trip a known defect of the program
(``oracle.predicted_defect``) is redrawn.  ``defect_probe`` runs a fixed
few such models on purpose, so each known defect still shows in every
result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from oracle import BOUND, UNBOUND, ModelSpec

# (stiffness exponent a, mass exponent b): stiffness and couplings are
# multiplied by 10**a and masses by 10**b, so S scales by 10**(a - b).
# Half the scales change only the units of mass (a == b, S unchanged).
# A scale on which a model would trip a known defect (small S, heavy
# masses at larger n) passes the slot on to the next scale.  S is never
# more than 100 times V: far lighter masses can trip the potential
# residual, which has no sharp predictor.
UNIT_SCALES = [(0, 0), (3, 3), (-3, -3), (6, 6), (2, 0), (0, -2), (0, 2), (-4, 0)]
# Mass units clear of the singularity bound at n = 16, for the workloads
# that measure solver and spectrum work.
SAME_S_SCALES = [(0, 0), (-3, -3), (-6, -6)]
# Kinetic matrices stay below the condition (1e3) from which the
# program's symmetry check can reject valid models (kinetic-skew).
KINETIC_COND_EXP = 3.0
# Redraws allowed before a generator gives up on a clean model.
MAX_DRAWS = 200

ANALYZE_OPTIONS = [("text", "none"), ("json", "none"),
                   ("text", "geometric"), ("json", "geometric")]


@dataclass
class Request:
    argv: list[str]
    check: Callable[[int, str, str], oracle.Outcome]
    work: int = 1  # requests, sweep steps or energy levels
    spec: ModelSpec | None = None  # the model of analyze and check requests


def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def random_spec(rng: np.random.Generator, n: int, verdict: str,
                scale: tuple[int, int] = (0, 0), kinetic_cond: float | None = None,
                omega_sq: np.ndarray | None = None) -> ModelSpec:
    """A model whose verdict is ``verdict`` and whose smallest eigenvalue
    of S is at least oracle.CLEARANCE of the largest away from zero.

    The target is W = G^(1/2) (I + C) G^(1/2) with G the on-site
    stiffnesses and C_ij ~ N(0, s^2 / n); the spread of C's spectrum,
    about 4 s, decides the verdict.  Without a kinetic matrix V = W.
    With one, T is a random SPD matrix of condition ``kinetic_cond`` and
    V = T^(-1/2) W T^(-1/2), so S = W stays as well separated from zero
    while T and V are ill-conditioned.  ``omega_sq`` fixes the squared
    on-site frequencies up to a 2% jitter and weakens the couplings.
    """
    a, b = scale
    lo, hi = (0.05, 0.35) if verdict == BOUND else (0.6, 1.0)
    if omega_sq is not None:
        lo, hi = 0.02, 0.08
    while True:
        masses = rng.uniform(0.5, 2.0, n)
        if omega_sq is None:
            g = masses * rng.uniform(0.5, 2.0, n) ** 2
        else:
            g = masses * rng.permutation(omega_sq) * (1.0 + 0.02 * rng.standard_normal(n))
        c = np.triu(rng.normal(0.0, rng.uniform(lo, hi) / np.sqrt(n), (n, n)), 1)
        w = np.sqrt(np.outer(g, g)) * (np.eye(n) + c + c.T)
        s = w if kinetic_cond is not None else w / np.sqrt(np.outer(masses, masses))
        lam = np.linalg.eigvalsh(s)
        if oracle.clearance(lam) >= oracle.CLEARANCE and (lam[0] > 0.0) == (verdict == BOUND):
            break
    kinetic = None
    v = w
    if kinetic_cond is not None:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        kinetic = (q * np.geomspace(1.0, 1.0 / kinetic_cond, n)) @ q.T
        kinetic = 0.5 * (kinetic + kinetic.T)
        t_eig, t_vec = np.linalg.eigh(kinetic)
        inv_root = (t_vec / np.sqrt(t_eig)) @ t_vec.T
        v = inv_root @ w @ inv_root
        v = 0.5 * (v + v.T)
    return ModelSpec(
        masses=masses * 10.0**b,
        stiffness=np.diagonal(v) * 10.0**a,
        couplings={(i, j): 2.0 * v[i, j] * 10.0**a
                   for i in range(n) for j in range(i + 1, n)},
        kinetic=None if kinetic is None else kinetic * 10.0**-b,
    )


def clean_spec(rng: np.random.Generator, n: int, verdict: str,
               scales: list[tuple[int, int]], first: int = 0, **kwargs) -> ModelSpec:
    """``random_spec`` on the first of ``scales``, cycling from ``first``,
    whose draw the oracle predicts to trip no known defect."""
    for attempt in range(MAX_DRAWS):
        spec = random_spec(rng, n, verdict, scales[(first + attempt) % len(scales)], **kwargs)
        if oracle.predicted_defect(spec, oracle.expect(spec)) is None:
            return spec
    raise RuntimeError(f"no n={n} {verdict} model clear of known defects "
                       f"in {MAX_DRAWS} draws")


def edge_spec(variant: int, scale: tuple[int, int]) -> ModelSpec:
    """Exact bound-window edges, expected Marginal: the identical triple
    at d = -1 and d = 2 and the pair with C3^2 = 4 C1 C2."""
    a, b = scale
    g, m = 10.0**a, 10.0**b
    if variant == 2:
        return ModelSpec(np.array([m, 2.0 * m]), np.array([g, 4.0 * g]),
                         {(0, 1): 4.0 * g}, edge=True)
    d = -1.0 if variant == 0 else 2.0
    return ModelSpec(np.full(3, m), np.full(3, g),
                     {(0, 1): d * g, (0, 2): d * g, (1, 2): d * g}, edge=True)


# Malformed model files; each must end in exit 3 with an error line.
MALFORMED = [
    '{"masses": [1, 2], "c": [3, 2, 1]',
    '{"c": [3, 2, 1]}',
    '{"masses": [1, -2], "c": [3, 2, 1]}',
    '{"masses": [1, 2], "c": [3, 2, 1], "spin": 1}',
    '{"masses": [1, 2, 3], "omegas": [1, 1]}',
    '{"masses": [1, 1, 1], "omegas": [1, 1, 1], "couplings": [[1, 2, 0.1], [2, 1, 0.2]]}',
    json.dumps({"masses": [1.0] * 17, "omegas": [1.0] * 17}),
    '{"masses": [1, 1], "stiffness_diag": [1, 1], "kinetic": [[1, 0.5], [0.2, 1]]}',
    '{"masses": [1, 1], "stiffness_diag": [1, 1], "omegas": [1, 1]}',
    '{"masses": [1, 1], "omegas": [1, 1], "couplings": [[1, 3, 0.1]]}',
    '{"masses": [1, 1], "stiffness_diag": [1, 1], "kinetic": [[1, 2], [2, 1]]}',
    '{"masses": [1, 1], "omegas": [1, 1], "couplings": [[1, 1, 0.5]]}',
]


def _cycle(block: int, slot: int, k: int) -> int:
    return (block + 3 * slot) % k


def _analyze_request(path: str, spec: ModelSpec, fmt: str, mass_norm: str,
                     levels: int | None = None) -> Request:
    argv = ["analyze", path, "--format", fmt, "--mass-norm", mass_norm]
    if levels is not None:
        argv += ["--levels", str(levels)]
    exp = oracle.expect(spec)
    k = 10 if levels is None else levels

    def check(rc, out, err):
        return oracle.check_analyze(spec, exp, fmt, k, mass_norm, rc, out, err)

    work = k if levels is not None else 1
    return Request(argv, check, work, spec)


def _check_request(path: str, spec: ModelSpec) -> Request:
    exp = oracle.expect(spec)
    return Request(["check", path],
                   lambda rc, out, err: oracle.check_check(exp, rc, out), spec=spec)


# n, command and how many slots of each per block of 20 requests
MIX_SLOTS = ([("analyze", 2)] * 2 + [("analyze", 3)] * 3 + [("analyze", 4)] * 2
             + [("analyze", 5)] * 2 + [("analyze", 8)] * 3 + [("analyze", 16)]
             + [("check", 2), ("check", 3), ("check", 4), ("check", 5)]
             + [("kinetic", 0), ("edge", 0), ("malformed", 0)])


def analyze_mix_block(rng: np.random.Generator, block: int, workdir: Path) -> list[Request]:
    out = []
    for slot, (kind, n) in enumerate(MIX_SLOTS):
        path = workdir / f"mix{slot}.json"
        if kind == "malformed":
            text = MALFORMED[block % len(MALFORMED)]
            cmd = "analyze" if block % 2 else "check"
            out.append(Request([cmd, _write(path, text)],
                               lambda rc, o, e: oracle.check_malformed(rc, o, e)))
            continue
        if kind == "edge":
            scale = [(0, 0), (3, 0), (2, 2), (-2, -2)][block % 4]
            spec = edge_spec(block % 3, scale)
            form = "c" if spec.n == 2 else "stiffness_diag"
            path = _write(path, spec.doc(form))
            out.append(_check_request(path, spec) if block % 2 else
                       _analyze_request(path, spec, *ANALYZE_OPTIONS[block // 2 % 4]))
            continue
        verdict = UNBOUND if _cycle(block, slot, 10) < 3 else BOUND
        if kind == "kinetic":
            n = 2 + block % 3
            cond = 10.0 ** rng.uniform(0, KINETIC_COND_EXP)
            spec = clean_spec(rng, n, verdict, [(0, 0)], kinetic_cond=cond)
            path = _write(path, spec.doc())
            out.append(_analyze_request(path, spec, *ANALYZE_OPTIONS[block % 2]))
            continue
        spec = clean_spec(rng, n, verdict, UNIT_SCALES,
                          _cycle(block, slot, len(UNIT_SCALES)))
        form = "c" if n == 2 and rng.random() < 0.5 else "stiffness_diag"
        path = _write(path, spec.doc(form))
        if kind == "check":
            out.append(_check_request(path, spec))
        else:
            out.append(_analyze_request(path, spec, *ANALYZE_OPTIONS[_cycle(block, slot, 4)]))
    rng.shuffle(out)
    return out


SWEEP_N = 16
SWEEP_STEPS = 4


def _lambda_min(spec: ModelSpec, pair, value: float) -> float:
    return float(np.linalg.eigvalsh(spec.with_coupling(pair, value).s_matrix())[0])


def _window_edge(spec: ModelSpec, pair, inside: float, direction: float) -> float:
    """Bisect for the coupling value where lambda_min(S) crosses zero."""
    step = 1.0 + abs(inside)
    outside = inside + direction * step
    while _lambda_min(spec, pair, outside) > 0.0:
        step *= 2.0
        outside = inside + direction * step
    for _ in range(80):
        mid = 0.5 * (inside + outside)
        if _lambda_min(spec, pair, mid) > 0.0:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def sweep_request(rng: np.random.Generator, path: Path, fmt: str) -> Request:
    """A sweep of one coupling over SWEEP_STEPS values, with the bound
    window's edge between the middle two steps and every step clearly
    on one side of it and clear of known defects."""
    while True:
        scale = SAME_S_SCALES[int(rng.integers(len(SAME_S_SCALES)))]
        spec = random_spec(rng, SWEEP_N, BOUND, scale)
        i, j = sorted(rng.choice(SWEEP_N, size=2, replace=False))
        pair = (int(i), int(j))
        current = spec.couplings[pair]
        lo = _window_edge(spec, pair, current, -1.0)
        hi = _window_edge(spec, pair, current, +1.0)
        edge = hi if rng.random() < 0.5 else lo
        h = (hi - lo) * rng.uniform(0.1, 0.2)
        start = edge - 1.5 * h + rng.uniform(-0.25, 0.25) * h
        stop = start + (SWEEP_STEPS - 1) * h
        values = np.linspace(start, stop, SWEEP_STEPS)
        steps = [(float(v), oracle.expect(spec.with_coupling(pair, float(v))))
                 for v in values]
        if all(oracle.clearance(e.lambdas) >= oracle.CLEARANCE
               and oracle.predicted_defect(spec.with_coupling(pair, v), e) is None
               for v, e in steps):
            break
    argv = ["sweep", _write(path, spec.doc()), "--param", f"D:{i + 1},{j + 1}",
            f"--from={float(start)!r}", f"--to={float(stop)!r}",
            "--steps", str(SWEEP_STEPS), "--format", fmt]
    return Request(argv, lambda rc, o, e: oracle.check_sweep(spec, steps, fmt, rc, o, e),
                   work=SWEEP_STEPS)


def sweep_n16_block(rng: np.random.Generator, block: int, workdir: Path) -> list[Request]:
    return [sweep_request(rng, workdir / f"sweep{k}.json", fmt)
            for k, fmt in enumerate(("json", "text"))]


# (n, format, levels K) per block, in rising order of request time.
# Seven slots, so the median request falls mid-way through the fourth
# slot's requests and the tail (p78) through the sixth's; a percentile
# on a slot boundary would sit between the slowest request of one slot
# and the fastest of the next.
LEVELS_SLOTS = [(3, "text", 10_000), (3, "json", 10_000), (8, "text", 10_000),
                (3, "text", 40_000), (16, "text", 10_000), (8, "json", 20_000),
                (16, "json", 10_000)]
# The lattice walk's cost depends on the ratios of the mode frequencies,
# so levels_deep fixes their spread and lets the seed draw the rest.
LEVELS_OMEGA_SQ = {n: np.geomspace(0.5, 2.0, n) for n in (3, 8, 16)}
HBARS = [1.0, 0.5, 2.0]


def levels_deep_block(rng: np.random.Generator, block: int, workdir: Path) -> list[Request]:
    out = []
    for slot, (n, fmt, k) in enumerate(LEVELS_SLOTS):
        spec = clean_spec(rng, n, BOUND, SAME_S_SCALES, _cycle(block, slot, 3),
                          omega_sq=LEVELS_OMEGA_SQ[n])
        spec.hbar = HBARS[_cycle(block, slot, 3)]
        path = _write(workdir / f"levels{slot}.json", spec.doc())
        out.append(_analyze_request(path, spec, fmt, "none", levels=k))
    rng.shuffle(out)
    return out


PROBE_SEED = 20200312
# (known defect, n, verdict, unit scale, kinetic condition, argv options)
PROBE_CASES = [
    (oracle.KNOWN_DEAD_ZONE_MARGINAL, 3, BOUND, (-4, 0), None, ("json", "none")),
    (oracle.KNOWN_DEAD_ZONE_MARGINAL, 4, UNBOUND, (-4, 0), None, None),
    (oracle.KNOWN_SINGULAR_INVERSE, 5, BOUND, (6, 6), None, ("text", "none")),
    (oracle.KNOWN_KINETIC_SKEW, 4, BOUND, (0, 0), 1e7, ("json", "none")),
    (oracle.KNOWN_KINETIC_SKEW, 5, BOUND, (0, 0), 1e7, ("text", "geometric")),
]


def defect_probe(workdir: Path) -> list[tuple[str, Request]]:
    """The same few requests in every run, each on a model that trips a
    known defect of the seed program (``None`` options: ``check``)."""
    rng = np.random.default_rng(PROBE_SEED)
    out = []
    for k, (defect, n, verdict, scale, cond, options) in enumerate(PROBE_CASES):
        spec = random_spec(rng, n, verdict, scale, kinetic_cond=cond)
        path = _write(workdir / f"probe{k}.json", spec.doc())
        request = (_check_request(path, spec) if options is None
                   else _analyze_request(path, spec, *options))
        out.append((defect, request))
    return out


WORKLOADS = {
    "analyze_mix": analyze_mix_block,
    "sweep_n16": sweep_n16_block,
    "levels_deep": levels_deep_block,
}

# Tail percentile per workload: the highest with at least ten requests
# beyond it in one run of the length BENCHMARK.json sets.  On
# levels_deep p78 falls mid-way through the sixth of its seven slots.
TAIL_PERCENTILE = {"analyze_mix": 99.0, "sweep_n16": 90.0, "levels_deep": 78.0}
