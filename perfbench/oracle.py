"""Reference answers for the benchmark, computed with numpy.linalg only.

The oracle never imports the program.  It rebuilds T, V and
S = T^(1/2) V T^(1/2) from the same numbers the benchmark wrote into the
model file, takes the expected verdict from the sign of the smallest
eigenvalue of S (``numpy.linalg.eigvalsh``), and enumerates energy
levels on its own by walking the occupation lattice below an energy cap.
It then parses what the program printed (JSON or the text report) and
compares.

A mismatch is a failed request.  Mismatches that a documented defect of
the program explains are labelled with that defect's name, so the
benchmark can tell a known defect, which it reports and leaves standing,
from a new one, which makes the run incorrect.  ``predicted_defect``
tells the generators which models would trip a known defect: timed
requests avoid them, and a fixed probe (``workloads.defect_probe``)
runs a few on purpose and reports whether each defect still shows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

BOUND, UNBOUND, MARGINAL = "Bound", "Unbound", "Marginal"
EXIT_BY_VERDICT = {BOUND: 0, UNBOUND: 1, MARGINAL: 2}

# A generated model is kept only when |lambda_min| / max|lambda| is at
# least this far from zero, so its verdict does not hang on rounding.
CLEARANCE = 1e-2
# Eigenvalues agree when within this share of max|lambda|.  The text
# report prints 10 significant digits, so the share must stay above 1e-9.
LAMBDA_RTOL = 1e-8
ENERGY_RTOL = 1e-8
# With a kinetic matrix T, rounding the stored V alone moves S by about
# eps * cond(T) * |S|, so the eigenvalue tolerance grows with cond(T).
COND_RTOL = 1e-14

# The program's documented dead zone: minor k is Marginal when
# |minor_k| <= 1e-10 * (1 + max|S|^k).  It is absolute for small S, so a
# clearly bound model in small units reads Marginal (known defect below).
PROGRAM_MARGIN_SCALE = 1e-10

KNOWN_DEAD_ZONE_MARGINAL = "dead-zone-marginal"
KNOWN_KINETIC_SKEW = "kinetic-skew"
KNOWN_KINETIC_RESIDUAL = "kinetic-residual"
KNOWN_POTENTIAL_RESIDUAL = "unit-potential-residual"
KNOWN_SINGULAR_INVERSE = "unit-singular-inverse"
KNOWN_DEFECTS = {
    KNOWN_DEAD_ZONE_MARGINAL: "the minor dead zone 1e-10 * (1 + max|S|^k) is "
    "not relative to the minor, so a clearly bound or unbound model reads "
    "Marginal in small units, or at n = 16 when max|S| is 2 to 4",
    KNOWN_KINETIC_SKEW: "the symmetry check on T^(1/2) V T^(1/2) is relative "
    "to eps, not to cond(T), so it rejects valid models whose kinetic matrix "
    "is ill-conditioned (from about 1e4) with exit 3",
    KNOWN_KINETIC_RESIDUAL: "the kinetic residual, computed through a "
    "Gauss-Jordan inverse of C, rejects a valid ill-conditioned kinetic "
    "matrix with exit 3",
    KNOWN_POTENTIAL_RESIDUAL: "the potential residual of C^T V C is bounded "
    "by 1e-8 * (1 + max|V|) although it grows with max|S|, so light masses "
    "(S much larger than V) make decompose exit 3",
    KNOWN_SINGULAR_INVERSE: "absolute determinant threshold of the inverse "
    "used by the kinetic residual rejects C = T^(1/2) U in large mass units",
}
# The program's inverse() refuses a matrix with
# |det| <= 1e-14 * (1 + max|a|^n), an absolute bound.
PROGRAM_SINGULAR_SCALE = 1e-14
# Timed requests avoid models this many times inside a bound above, so
# rounding in the program cannot carry them into a known defect.
PREDICTION_SAFETY = 100.0


@dataclass
class ModelSpec:
    """The numbers of one generated model, as the program will read them."""

    masses: np.ndarray
    stiffness: np.ndarray
    couplings: dict  # (i, j) zero-based, i < j -> D_ij
    kinetic: np.ndarray | None = None
    hbar: float = 1.0
    edge: bool = False  # exact bound-window edge: expected verdict Marginal

    @property
    def n(self) -> int:
        return len(self.masses)

    def with_coupling(self, pair, value: float) -> "ModelSpec":
        couplings = dict(self.couplings)
        couplings[pair] = value
        return ModelSpec(self.masses, self.stiffness, couplings, self.kinetic,
                         self.hbar)

    def doc(self, form: str = "stiffness_diag") -> dict:
        """JSON model document; ``form`` picks the stiffness key."""
        doc = {"masses": [float(m) for m in self.masses]}
        if form == "c":
            doc["c"] = [float(self.stiffness[0]), float(self.stiffness[1]),
                        float(self.couplings.get((0, 1), 0.0))]
        else:
            doc["stiffness_diag"] = [float(g) for g in self.stiffness]
            doc["couplings"] = [[i + 1, j + 1, float(d)]
                                for (i, j), d in sorted(self.couplings.items())]
        if self.kinetic is not None:
            doc["kinetic"] = self.kinetic.tolist()
        if self.hbar != 1.0:
            doc["hbar"] = self.hbar
        return doc

    def t_matrix(self) -> np.ndarray:
        if self.kinetic is not None:
            return np.array(self.kinetic, dtype=float)
        return np.diag(1.0 / self.masses)

    def v_matrix(self) -> np.ndarray:
        v = np.diag(np.asarray(self.stiffness, dtype=float))
        for (i, j), d in self.couplings.items():
            v[i, j] = v[j, i] = 0.5 * d
        return v

    def s_matrix(self) -> np.ndarray:
        t = self.t_matrix()
        w, q = np.linalg.eigh(t)
        root = (q * np.sqrt(w)) @ q.T
        s = root @ self.v_matrix() @ root
        return 0.5 * (s + s.T)


@dataclass
class Expected:
    """What the oracle says about one model."""

    lambdas: np.ndarray
    verdict: str
    s: np.ndarray
    rtol: float = LAMBDA_RTOL  # eigenvalue tolerance, a share of max|lambda|

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.lambdas)))


def expect(spec: ModelSpec) -> Expected:
    s = spec.s_matrix()
    lam = np.linalg.eigvalsh(s)
    if spec.edge:
        verdict = MARGINAL
    else:
        verdict = BOUND if lam[0] > 0.0 else UNBOUND
    rtol = LAMBDA_RTOL
    if spec.kinetic is not None:
        rtol += COND_RTOL * np.linalg.cond(spec.kinetic)
    return Expected(lambdas=lam, verdict=verdict, s=s, rtol=rtol)


def clearance(lambdas: np.ndarray) -> float:
    """|lambda_min| / max|lambda|: how far a model is from the bound edge."""
    return abs(float(lambdas[0])) / float(np.max(np.abs(lambdas)))


def program_dead_zone_hit(s: np.ndarray, safety: float = 1.0) -> bool:
    """True when an exact leading minor of S is nonzero but inside the
    program's absolute dead zone widened ``safety`` times."""
    smax = float(np.max(np.abs(s)))
    for k in range(1, s.shape[0] + 1):
        minor = float(np.linalg.det(s[:k, :k]))
        if abs(minor) <= safety * PROGRAM_MARGIN_SCALE * (1.0 + smax**k):
            return True
    return False


# ---------------------------------------------------------------------------
# energy levels
# ---------------------------------------------------------------------------


def excitation_energies(freqs: np.ndarray, cap: float, limit: int) -> np.ndarray | None:
    """Every sum_i f_i n_i <= cap over occupations n_i >= 0, unsorted.

    Returns None when more than ``limit`` values lie below the cap.  Each
    partial set is a projection of the final one, so no intermediate set
    is larger than the result.
    """
    sums = np.zeros(1)
    for f in sorted(freqs, reverse=True):
        parts = [sums]
        k = 1
        while True:
            grown = sums[sums <= cap - k * f] + k * f
            if grown.size == 0:
                break
            parts.append(grown)
            k += 1
        sums = np.concatenate(parts)
        if sums.size > limit:
            return None
    return sums


def check_levels(exp: Expected, hbar: float, energies: list[float],
                 occupations: list[tuple[int, ...]], k: int) -> str | None:
    """Compare reported levels with the lowest k of an independent
    enumeration; returns a reason on mismatch, None when they agree."""
    if len(energies) != k or len(occupations) != k:
        return f"expected {k} levels, got {len(energies)}"
    freqs = np.sqrt(exp.lambdas)
    ground = 0.5 * hbar * float(np.sum(freqs))
    top = max(energies)
    tol = ENERGY_RTOL * abs(top)
    if len(set(occupations)) != k:
        return "repeated occupation tuple"
    occ = np.array(occupations, dtype=float)
    if occ.shape != (k, len(freqs)) or np.any(occ < 0):
        return "malformed occupation tuple"
    recomputed = ground + hbar * occ @ freqs
    bad = np.flatnonzero(np.abs(recomputed - np.asarray(energies)) > tol)
    if bad.size:
        i = int(bad[0])
        return f"level {i + 1}: energy {energies[i]!r} != {recomputed[i]!r} for its occupations"
    cap = (top - ground) / hbar + 2.0 * tol / hbar
    sums = excitation_energies(freqs, cap, limit=20 * k + 1000)
    if sums is None:
        return "reported top level is far above the k-th level"
    if sums.size < k:
        return f"only {sums.size} states lie below the reported top level"
    ref = ground + hbar * np.sort(sums)[:k]
    got = np.sort(np.asarray(energies))
    bad = np.flatnonzero(np.abs(ref - got) > tol)
    if bad.size:
        i = int(bad[0])
        return f"sorted level {i + 1}: {got[i]!r}, enumeration gives {ref[i]!r}"
    return None


# ---------------------------------------------------------------------------
# parsing the program's output
# ---------------------------------------------------------------------------


@dataclass
class Report:
    verdict: str
    lambdas: list[float]
    mass_norm_lambdas: list[float] | None
    energies: list[float] | None
    occupations: list[tuple[int, ...]] | None


def parse_json_report(text: str) -> Report:
    doc = json.loads(text)
    modes = doc["modes"]
    mn = modes.get("mass_normalized")
    spectrum = doc.get("spectrum")
    levels = spectrum["levels"] if spectrum else None
    return Report(
        verdict=doc["bound_state"]["verdict"],
        lambdas=[float(x) for x in modes["lambdas"]],
        mass_norm_lambdas=[float(x) for x in mn["lambdas"]] if mn else None,
        energies=[float(lv["energy"]) for lv in levels] if levels is not None else None,
        occupations=[tuple(lv["occupations"]) for lv in levels]
        if levels is not None else None,
    )


def parse_text_report(text: str) -> Report:
    lines = text.split("\n")
    verdict = None
    lambdas: list[float] = []
    mass_norm = None
    energies = occupations = None
    section = None
    for line in lines:
        if line and not line.startswith(" "):
            section = line
            continue
        table_row = line.startswith("    ") and line[4:5].isdigit()
        if section == "NORMAL MODES":
            if table_row:
                lambdas.append(float(line.split()[1]))
        elif section == "MASS-NORMALIZED" and line.startswith("  lambdas"):
            mass_norm = [float(x) for x in line.split()[1:]]
        elif section == "BOUND STATE" and line.startswith("  verdict"):
            verdict = line.split()[1]
        elif section == "SPECTRUM":
            if line.startswith("    #"):
                energies, occupations = [], []
            elif energies is not None and table_row:
                head, _, occ = line.partition("(")
                energies.append(float(head.split()[1]))
                occupations.append(tuple(int(x) for x in occ.rstrip(")").split(",")))
    if verdict is None:
        raise ValueError("no verdict line")
    return Report(verdict, lambdas, mass_norm, energies, occupations)


def parse_sweep(text: str, fmt: str) -> list[tuple[float, str, list[float]]]:
    if fmt == "json":
        doc = json.loads(text)
        return [(float(s["value"]), s["verdict"], [float(x) for x in s["lambdas"]])
                for s in doc["steps"]]
    rows = []
    for line in text.split("\n")[2:]:
        parts = line.split()
        if parts:
            rows.append((float(parts[0]), parts[1], [float(x) for x in parts[2:]]))
    return rows


# ---------------------------------------------------------------------------
# checking one request
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    known_defect: str | None = None


OK = Outcome(True)


def _lambda_mismatch(exp: Expected, got) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != exp.lambdas.shape:
        return f"expected {exp.lambdas.size} eigenvalues, got {got.size}"
    err = float(np.max(np.abs(got - exp.lambdas)))
    if not err <= exp.rtol * exp.scale:
        return f"eigenvalues off by {err:.3e} (scale {exp.scale:.3e})"
    return None


def _verdict_outcome(exp: Expected, verdict: str) -> Outcome:
    if verdict == exp.verdict:
        return OK
    reason = f"verdict {verdict}, expected {exp.verdict}"
    if verdict == MARGINAL and program_dead_zone_hit(exp.s):
        return Outcome(False, reason, KNOWN_DEAD_ZONE_MARGINAL)
    return Outcome(False, reason)


def program_singular_c(spec: ModelSpec, exp: Expected, safety: float = 1.0) -> bool:
    """True when C = T^(1/2) U falls under the program's absolute
    singularity bound, widened ``safety`` times, although T is positive
    definite."""
    t = spec.t_matrix()
    w, q = np.linalg.eigh(t)
    if w[0] <= 0.0:
        return False
    _, u = np.linalg.eigh(exp.s)
    c = ((q * np.sqrt(w)) @ q.T) @ u
    bound = safety * PROGRAM_SINGULAR_SCALE * (1.0 + float(np.max(np.abs(c))) ** spec.n)
    return abs(float(np.linalg.det(c))) <= bound


def predicted_defect(spec: ModelSpec, exp: Expected) -> str | None:
    """The known defect the program is expected to show on this model,
    with a margin of PREDICTION_SAFETY; None when it should answer right.

    The two residual defects and kinetic-skew have no sharp predictor:
    the generators stay out of their ranges instead (light masses with S
    far larger than V, kinetic matrices of condition 1e3 and more).
    """
    if program_dead_zone_hit(exp.s, PREDICTION_SAFETY):
        return KNOWN_DEAD_ZONE_MARGINAL
    if program_singular_c(spec, exp, PREDICTION_SAFETY):
        return KNOWN_SINGULAR_INVERSE
    return None


def check_analyze(spec: ModelSpec, exp: Expected, fmt: str, levels: int,
                  mass_norm: str, rc: int, out: str, err: str) -> Outcome:
    if rc == 3 and "skew" in err and spec.kinetic is not None \
            and np.linalg.cond(spec.kinetic) >= 1e3:
        return Outcome(False, err.strip(), KNOWN_KINETIC_SKEW)
    if rc == 3 and "kinetic residual" in err and spec.kinetic is not None:
        return Outcome(False, err.strip(), KNOWN_KINETIC_RESIDUAL)
    if rc == 3 and "numerically singular" in err and program_singular_c(spec, exp):
        return Outcome(False, err.strip(), KNOWN_SINGULAR_INVERSE)
    if rc == 3 and "potential residual" in err \
            and exp.scale >= 10.0 * (1.0 + float(np.max(np.abs(spec.v_matrix())))):
        return Outcome(False, err.strip(), KNOWN_POTENTIAL_RESIDUAL)
    try:
        rep = parse_json_report(out) if fmt == "json" else parse_text_report(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, f"exit {rc}, unreadable report: {exc}; {err.strip()}")
    verdict = _verdict_outcome(exp, rep.verdict)
    if not verdict.ok:
        return verdict
    if rc != EXIT_BY_VERDICT[exp.verdict]:
        return Outcome(False, f"exit {rc} for verdict {exp.verdict}")
    bad = _lambda_mismatch(exp, rep.lambdas)
    if bad:
        return Outcome(False, bad)
    if mass_norm != "none":
        if rep.mass_norm_lambdas is None:
            return Outcome(False, "mass-normalized block missing")
        bad = _lambda_mismatch(exp, rep.mass_norm_lambdas)
        if bad:
            return Outcome(False, "mass-normalized " + bad)
    if exp.verdict == BOUND and levels > 0:
        if rep.energies is None:
            return Outcome(False, "spectrum missing")
        bad = check_levels(exp, spec.hbar, rep.energies, rep.occupations, levels)
        if bad:
            return Outcome(False, bad)
    elif rep.energies:
        return Outcome(False, f"spectrum printed for a {exp.verdict} model")
    return OK


def check_check(exp: Expected, rc: int, out: str) -> Outcome:
    verdict = _verdict_outcome(exp, out.strip())
    if verdict.ok and rc != EXIT_BY_VERDICT[exp.verdict]:
        return Outcome(False, f"exit {rc} for verdict {exp.verdict}")
    return verdict


def check_sweep(spec: ModelSpec, steps: list[tuple[float, Expected]], fmt: str,
                rc: int, out: str, err: str) -> Outcome:
    if rc == 3 and "numerically singular" in err and program_singular_c(spec, steps[0][1]):
        return Outcome(False, err.strip(), KNOWN_SINGULAR_INVERSE)
    if rc != 0:
        return Outcome(False, f"sweep exit {rc}: {err.strip()}")
    try:
        rows = parse_sweep(out, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, f"unreadable sweep output: {exc}")
    if len(rows) != len(steps):
        return Outcome(False, f"{len(rows)} sweep rows, expected {len(steps)}")
    known = None
    for (value, exp), (got_value, verdict, lambdas) in zip(steps, rows):
        if not math.isclose(got_value, value, rel_tol=1e-9, abs_tol=1e-12):
            return Outcome(False, f"sweep value {got_value!r}, expected {value!r}")
        outcome = _verdict_outcome(exp, verdict)
        if not outcome.ok:
            if outcome.known_defect is None:
                return outcome
            known = outcome
        bad = _lambda_mismatch(exp, lambdas)
        if bad:
            return Outcome(False, f"step {value!r}: {bad}")
    return known or OK


def check_malformed(rc: int, out: str, err: str) -> Outcome:
    if rc != 3:
        return Outcome(False, f"malformed model gave exit {rc}, expected 3")
    if out or not err.startswith("error: "):
        return Outcome(False, "malformed model: expected only an error line on stderr")
    return OK
