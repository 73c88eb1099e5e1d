"""Bound-state classification via positive definiteness of S.

All normal-mode frequencies are real and positive exactly when
S = T^(1/2) V T^(1/2) is positive definite, which by Sylvester's
criterion is equivalent to all leading principal minors of S being
positive.  For n <= 5 with diagonal kinetic matrices the same
conditions are integer polynomials in the stiffness constants
k_i = m_i w_i^2 and the couplings D_ij.  Their term lists are derived at
import from the exact Leibniz expansion of the scaled minor, which the
tests check against an exact determinant.  Every closed form runs on the
exact integer values of the floats and is rounded once.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diagonalize import Analysis, analyse
from .errors import ConsistencyError, WrongDimension
from .linalg import leading_principal_minors, max_abs
from .model import OscillatorModel

__all__ = [
    "BOUND",
    "UNBOUND",
    "MARGINAL",
    "MinorStatus",
    "ClosedFormCheck",
    "BoundStateReport",
    "CoefficientConditions",
    "CONDITION_TERMS",
    "bound_state",
    "classify",
    "n2_conditions",
    "n2_closed_eigenvalues",
    "n3_charpoly",
    "n3_discriminant",
    "n3_conditions",
    "n4_condition",
    "n5_condition",
    "necessary_coefficient_conditions",
    "verify_condition_terms",
]

BOUND = "Bound"
UNBOUND = "Unbound"
MARGINAL = "Marginal"

_MARGIN_SCALE = 1e-10

# ---------------------------------------------------------------------------
# the polynomial conditions, expanded exactly
# ---------------------------------------------------------------------------
# A monomial is the sorted tuple of its factor names, ("D12", "D12", "k3")
# for D12^2 k3, so equal products get equal keys and print in order.


def _monomial(pairs, sites) -> tuple:
    return tuple(sorted([f"D{i}{j}" for i, j in pairs] + [f"k{i}" for i in sites]))


def _format_monomial(key: tuple) -> str:
    powers = Counter(key)
    return "*".join(f + (f"^{e}" if e > 1 else "") for f, e in powers.items()) or "1"


def _expand_scaled_minor(n: int) -> dict:
    """Exact expansion of 4^floor(n/2) * m_1..m_n * minor_n(S).

    Equals det(W) with W_ii = 2 k_i and W_ij = D_ij, halved for odd n,
    summed by the Leibniz formula over the n! permutations.
    """
    expansion: dict = {}
    for perm in itertools.permutations(range(n)):
        sites = [i + 1 for i, j in enumerate(perm) if i == j]
        pairs = [(min(i, j) + 1, max(i, j) + 1) for i, j in enumerate(perm) if i != j]
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        key = _monomial(pairs, sites)
        expansion[key] = expansion.get(key, 0) + (-1) ** inversions * 2 ** len(sites)
    if n % 2 == 1:
        if any(coeff % 2 for coeff in expansion.values()):
            raise ConsistencyError("odd coefficient in halved expansion")
        expansion = {k: v // 2 for k, v in expansion.items()}
    return {k: v for k, v in expansion.items() if v}


# Each term of CONDITION_TERMS[k] is (coefficient, D-factors, stiffness-factors):
# D-factors is a sorted tuple of 1-based (i, j) pairs, repeated for powers,
# and stiffness-factors a sorted tuple of 1-based sites contributing one
# k_i = m_i w_i^2 each.  The sum equals 4^floor(k/2) * m_1..m_k * minor_k(S).
# Factor names carry one digit per index, which holds for k <= 5.
CONDITION_TERMS = {
    k: tuple((coeff, tuple((int(f[1]), int(f[2])) for f in key if f[0] == "D"),
              tuple(int(f[1]) for f in key if f[0] == "k"))
             for key, coeff in _expand_scaled_minor(k).items())
    for k in range(2, 6)
}


def verify_condition_terms(n: int, terms=None) -> list[str]:
    """Check a condition term list against the exact scaled-minor expansion.

    Returns a list of human-readable mismatch descriptions, ordered so the
    first entry points at the first offending term; an empty list means
    the transcription is exact.
    """
    if n not in CONDITION_TERMS:
        raise ValueError(f"no condition term list for n={n}")
    if terms is None:
        terms = CONDITION_TERMS[n]
    expansion = _expand_scaled_minor(n)

    transcribed: dict = {}
    first_pos: dict = {}
    for pos, (coeff, pairs, sites) in enumerate(terms):
        key = _monomial(pairs, sites)
        transcribed[key] = transcribed.get(key, 0) + coeff
        first_pos.setdefault(key, pos)

    problems = []
    for key in sorted(transcribed, key=first_pos.get):
        expected = expansion.get(key, 0)
        if transcribed[key] != expected:
            problems.append(
                f"term {first_pos[key] + 1} ({_format_monomial(key)}): "
                f"transcribed coefficient {transcribed[key]}, expected {expected}"
            )
    for key in sorted(set(expansion) - set(transcribed)):
        problems.append(
            f"missing term {_format_monomial(key)} with coefficient {expansion[key]}"
        )
    return problems


def _require_n(model: OscillatorModel, n: int) -> None:
    if model.n != n:
        raise WrongDimension(n, model.n)
    if model.kinetic_override is not None:
        raise ValueError(
            "closed-form conditions require a diagonal kinetic matrix"
        )


def _dyadic(xs) -> tuple[list[int], int]:
    """Integers n_i and one shift s >= 0 with x_i = n_i / 2**s exactly.

    Every finite float is a dyadic rational, so nothing is rounded.
    """
    ratios = [float(x).as_integer_ratio() for x in xs]
    shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


def _rounded(num: int, den: int, shift: int = 0) -> float:
    """num / (den * 2**shift) for den > 0, rounded once.

    int / int true division is correctly rounded, subnormals included;
    past the float range the result is +-inf.
    """
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact(model: OscillatorModel, n: int):
    """(M, sm, K, D, sk) with m_i = M[i] / 2**sm, k_i = K[i] / 2**sk and
    D_ij = D[(i, j)] / 2**sk for the first n oscillators, in integers.
    Stiffnesses and couplings share one shift because every condition is
    homogeneous in them."""
    masses, sm = _dyadic(model.masses[:n].tolist())
    pairs = [pair for pair in model.couplings if pair[1] < n]
    kd, sk = _dyadic(model.stiffness_diag[:n].tolist() + [model.couplings[p] for p in pairs])
    return masses, sm, kd[:n], dict(zip(pairs, kd[n:])), sk


def _condition_num(k: int, stiffness: list[int], couplings: dict) -> int:
    """A term list of CONDITION_TERMS evaluated on integers."""
    total = 0
    for coeff, pairs, sites in CONDITION_TERMS[k]:
        for i, j in pairs:
            coeff *= couplings.get((i - 1, j - 1), 0)
        for i in sites:
            coeff *= stiffness[i - 1]
        total += coeff
    return total


def _condition_value(model: OscillatorModel, k: int) -> float:
    _, _, stiffness, couplings, sk = _exact(model, k)
    return _rounded(_condition_num(k, stiffness, couplings), 1, k * sk)


# ---------------------------------------------------------------------------
# closed forms for n = 2 and n = 3, on exact integers, each rounded once
# ---------------------------------------------------------------------------


def n2_conditions(model: OscillatorModel) -> tuple[float, float]:
    """Bound-state pair for two oscillators.

    Returns (m2*C1 + m1*C2, 4*C1*C2 - C3**2); both must be positive for a
    bound state.  The first is m1*m2 times the trace of S, the second is
    4*m1*m2 times its determinant.  Each is exact, rounded once.
    """
    _require_n(model, 2)
    (m1, m2), sm, (c1, c2), _, sk = _exact(model, 2)
    return _rounded(m2 * c1 + m1 * c2, 1, sm + sk), _condition_value(model, 2)


def n2_closed_eigenvalues(model: OscillatorModel) -> tuple[float, float]:
    """Squared mode frequencies of two oscillators in closed form.

    lambda_{1,2} = (m1*C2 + m2*C1 -+ R) / (2 m1 m2) with
    R = sqrt((m2*C1 - m1*C2)**2 + m1*m2*C3**2); returned ascending.  On
    exact integers: R is taken by ``math.isqrt`` with 64 guard bits, the
    root that would cancel is the exact product of the roots,
    (4*C1*C2 - C3**2) / (4 m1 m2), over the other, and each root is
    rounded once.
    """
    _require_n(model, 2)
    (m1, m2), sm, (c1, c2), couplings, sk = _exact(model, 2)
    c3 = couplings.get((0, 1), 0)
    base, guard = m2 * c1 + m1 * c2, 64
    r = math.isqrt(((m2 * c1 - m1 * c2) ** 2 + m1 * m2 * c3 * c3) << 2 * guard)
    far = (base << guard) + (r if base >= 0 else -r)  # (base +- R) * 2**guard
    if far == 0:  # every stiffness and coupling is zero
        return 0.0, 0.0
    det = 4 * c1 * c2 - c3 * c3
    far_root = _rounded(far, 2 * m1 * m2, guard + sk - sm)
    near_root = _rounded(det if far > 0 else -det, 2 * abs(far), sk - sm - guard)
    return (near_root, far_root) if base >= 0 else (far_root, near_root)


def n3_charpoly(model: OscillatorModel) -> tuple[float, float, float]:
    """(a, b, c) of lambda^3 - a lambda^2 + b lambda - c for three oscillators.

    Each is a ratio of integer polynomials in m, k and D over the one
    denominator 4 m1 m2 m3, evaluated exactly and rounded once.
    """
    route = necessary_coefficient_conditions(model)
    return route.a, route.b, route.c


def _discriminant_num(a: int, b: int, c: int, den: int) -> int:
    """Numerator over den**4 of the discriminant of
    lambda^3 - a lambda^2 + b lambda - c, for a, b, c given over den."""
    return a * a * b * b - 4 * a**3 * c + (18 * a * b * c - 4 * b**3 - 27 * c * c * den) * den


def n3_discriminant(a: float, b: float, c: float) -> float:
    """Discriminant of lambda^3 - a lambda^2 + b lambda - c.

    Equals the product of squared root differences, so it is non-negative
    exactly when all three roots are real.  Exact in the float arguments,
    rounded once.
    """
    (a, b, c), shift = _dyadic((a, b, c))
    return _rounded(_discriminant_num(a, b, c, 1 << shift), 1, 4 * shift)


def n3_conditions(model: OscillatorModel) -> tuple[float, float]:
    """Nontrivial bound-state pair for three oscillators.

    cond1 = 4 k1 k2 - D12^2 and cond2 = 4 k1 k2 k3 + D12 D13 D23
    - k1 D23^2 - k2 D13^2 - k3 D12^2, with k_i = m_i w_i^2.  Together with
    k1 > 0 these are positive exactly when the system is bound.
    """
    _require_n(model, 3)
    return (_condition_value(model, 2), _condition_value(model, 3))


def n4_condition(model: OscillatorModel) -> float:
    """Fourth-order bound-state polynomial, 16 m1..m4 times minor 4 of S."""
    _require_n(model, 4)
    return _condition_value(model, 4)


def n5_condition(model: OscillatorModel) -> float:
    """Fifth-order bound-state polynomial, 16 m1..m5 times minor 5 of S."""
    _require_n(model, 5)
    return _condition_value(model, 5)


@dataclass(frozen=True)
class CoefficientConditions:
    """Polynomial-route test for three oscillators.

    With all on-site stiffness positive (so a > 0 is automatic), the
    system is bound exactly when b > 0, c > 0 and the discriminant is
    non-negative: the discriminant forces three real roots and the sign
    pattern of the coefficients then forces them positive.  The three
    flags are exact signs of the integer numerators, so the discriminant
    of a symmetric S is never negative; the floats are rounded once.
    """

    a: float
    b: float
    c: float
    discriminant: float
    b_positive: bool
    c_positive: bool
    discriminant_nonneg: bool

    @property
    def all_pass(self) -> bool:
        return self.b_positive and self.c_positive and self.discriminant_nonneg


def necessary_coefficient_conditions(model: OscillatorModel) -> CoefficientConditions:
    _require_n(model, 3)
    masses, sm, k, d, sk = _exact(model, 3)
    m1, m2, m3 = masses
    # a, b and c are these integers over den times 2**t, 2**(2t) and 2**(3t)
    den, t = 4 * m1 * m2 * m3, sm - sk
    a = 4 * (k[0] * m2 * m3 + k[1] * m1 * m3 + k[2] * m1 * m2)
    b = sum((4 * k[i] * k[j] - d.get((i, j), 0) ** 2) * masses[3 - i - j]
            for i, j in ((0, 1), (0, 2), (1, 2)))
    c = _condition_num(3, k, d)
    disc = _discriminant_num(a, b, c, den)
    return CoefficientConditions(
        a=_rounded(a, den, -t),
        b=_rounded(b, den, -2 * t),
        c=_rounded(c, den, -3 * t),
        discriminant=_rounded(disc, den**4, -6 * t),
        b_positive=b > 0,
        c_positive=c > 0,
        discriminant_nonneg=disc >= 0,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorStatus:
    k: int
    value: float
    margin: float
    status: str  # "positive", "negative" or "marginal"


@dataclass(frozen=True)
class ClosedFormCheck:
    name: str
    value: float
    reference: float
    passed: bool


@dataclass(frozen=True)
class BoundStateReport:
    minors: np.ndarray
    verdict: str
    per_minor: tuple[MinorStatus, ...]
    closed_form_checks: tuple[ClosedFormCheck, ...]
    discriminant: float | None


def _agreement(name: str, value: float, reference: float,
               rtol: float = 1e-8) -> ClosedFormCheck:
    passed = abs(value - reference) <= rtol * (1.0 + max(abs(value), abs(reference)))
    return ClosedFormCheck(name=name, value=value, reference=reference, passed=passed)


def _minor_statuses(minors: np.ndarray, smax: float) -> tuple[MinorStatus, ...]:
    out = []
    for k, value in enumerate(minors, start=1):
        margin = _MARGIN_SCALE * (1.0 + smax**k)
        if value > margin:
            status = "positive"
        elif value < -margin:
            status = "negative"
        else:
            status = "marginal"
        out.append(MinorStatus(k=k, value=float(value), margin=margin, status=status))
    return tuple(out)


def _verdict(per_minor: tuple[MinorStatus, ...]) -> str:
    statuses = [m.status for m in per_minor]
    if "negative" in statuses:
        return UNBOUND
    if "marginal" in statuses:
        return MARGINAL
    return BOUND


def classify(model: OscillatorModel) -> BoundStateReport:
    """Bound / Unbound / Marginal verdict from the minors of S.

    A minor within +-margin of zero (margin = 1e-10 * (1 + max|S|^k)) is
    marginal; a definitely negative minor anywhere makes the system
    Unbound regardless of marginal ones, since it rules positive
    definiteness out on its own.  For n <= 5 models with diagonal kinetic
    matrices the report also carries the closed-form cross-checks.
    """
    return bound_state(analyse(model))


def bound_state(an: Analysis) -> BoundStateReport:
    """``classify`` read from an existing analysis: its S and eigenpairs."""
    model, s, eig = an.model, an.s, an.eig
    minors = leading_principal_minors(s)
    per_minor = _minor_statuses(minors, max_abs(s.mat))
    verdict = _verdict(per_minor)

    if verdict == BOUND and float(eig.values[0]) <= 0.0:
        raise ConsistencyError(
            "minors say positive definite but the smallest eigenvalue is "
            f"{eig.values[0]:.6e}"
        )

    checks: list[ClosedFormCheck] = []
    discriminant = None
    if model.kinetic_override is None:
        checks, discriminant = _closed_form_checks(model, s, minors, eig, verdict)

    return BoundStateReport(
        minors=minors,
        verdict=verdict,
        per_minor=per_minor,
        closed_form_checks=tuple(checks),
        discriminant=discriminant,
    )


def _minor_scale(masses: np.ndarray, k: int, base: float = 4.0) -> float:
    return base ** (k // 2) * math.prod(masses[:k].tolist())


def _closed_form_checks(model, s, minors, eig, verdict):
    # Each closed form is an exact integer numerator over a power of two.
    # It is compared with its reference in the units of the model where
    # both are normal floats, and otherwise in the units of S: divided by
    # the exact product of the masses, against the reference without them.
    checks = []
    discriminant = None
    n = model.n
    masses = model.masses
    mass_ints, sm, stiffness, couplings, sk = _exact(model, min(n, 5))

    def compare(name, num, shift, k, quantity, base=4.0):
        value, reference = _rounded(num, 1, shift), _minor_scale(masses, k, base) * quantity
        if not all(sys.float_info.min <= abs(x) < math.inf for x in (value, reference)):
            value = _rounded(num, math.prod(mass_ints[:k]), shift - k * sm)
            reference = base ** (k // 2) * quantity
        checks.append(_agreement(name, value, reference))

    names = {2: "pair_condition", 3: "triple_condition",
             4: "quartic_condition", 5: "quintic_condition"}
    for k in range(2, min(n, 5) + 1):
        compare(names[k], _condition_num(k, stiffness, couplings), k * sk, k,
                float(minors[k - 1]))

    if n == 2:
        (m1, m2), (c1, c2) = mass_ints, stiffness
        compare("stiffness_sum_condition", m2 * c1 + m1 * c2, sm + sk, 2,
                float(np.trace(s.mat)), base=1.0)
        lo, hi = n2_closed_eigenvalues(model)
        checks.append(_agreement("closed_eigenvalue_low", lo, float(eig.values[0]), 1e-10))
        checks.append(_agreement("closed_eigenvalue_high", hi, float(eig.values[1]), 1e-10))

    if n == 3:
        route = necessary_coefficient_conditions(model)
        discriminant = route.discriminant
        lam = eig.values
        l0, l1, l2 = lam.tolist()
        prod_disc = math.prod(d * d for d in (l0 - l1, l0 - l2, l1 - l2))
        checks.append(_agreement("charpoly_trace", route.a, float(np.sum(lam))))
        checks.append(_agreement("charpoly_pair_sum", route.b, l0 * l1 + l0 * l2 + l1 * l2))
        checks.append(_agreement("charpoly_det", route.c, float(np.prod(lam))))
        checks.append(ClosedFormCheck(
            name="discriminant_nonnegative", value=discriminant,
            reference=prod_disc, passed=route.discriminant_nonneg,
        ))
        if np.all(model.stiffness_diag > 0.0) and verdict != MARGINAL:
            checks.append(ClosedFormCheck(
                name="coefficient_route_agrees",
                value=float(route.all_pass),
                reference=float(verdict == BOUND),
                passed=route.all_pass == (verdict == BOUND),
            ))
    return checks, discriminant

