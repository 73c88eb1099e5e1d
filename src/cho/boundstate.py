"""Bound-state classification via positive definiteness of S.

All normal-mode frequencies are real and positive exactly when
S = T^(1/2) V T^(1/2) is positive definite, which by Sylvester's
criterion is equivalent to all leading principal minors of S being
positive.  For n <= 5 with diagonal kinetic matrices the same
conditions have explicit polynomial forms in the stiffness constants
k_i = m_i w_i^2 and the couplings D_ij; those polynomials are kept
here as literal term lists so they can be checked term by term against
an exact expansion of the scaled minors.
"""

from __future__ import annotations

import itertools
import math
import sys
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
# Polynomial conditions as literal term lists.
#
# Each term is (coefficient, D-factors, stiffness-factors): D-factors is a
# tuple of 1-based (i, j) pairs, repeated for powers, and stiffness-factors
# is a tuple of 1-based site indices contributing one k_i = m_i w_i^2 each.
# The condition for size k equals 4^floor(k/2) * m_1...m_k * minor_k(S);
# verify_condition_terms() re-derives every list from that identity.
# ---------------------------------------------------------------------------

CONDITION_TERMS = {
    2: (
        (4, (), (1, 2)),
        (-1, ((1, 2), (1, 2)), ()),
    ),
    3: (
        (4, (), (1, 2, 3)),
        (1, ((1, 2), (1, 3), (2, 3)), ()),
        (-1, ((2, 3), (2, 3)), (1,)),
        (-1, ((1, 3), (1, 3)), (2,)),
        (-1, ((1, 2), (1, 2)), (3,)),
    ),
    4: (
        (1, ((1, 2), (1, 2), (3, 4), (3, 4)), ()),
        (-4, ((1, 2), (1, 2)), (3, 4)),
        (4, ((1, 2), (1, 3), (2, 3)), (4,)),
        (-2, ((1, 2), (1, 3), (2, 4), (3, 4)), ()),
        (-2, ((1, 2), (1, 4), (2, 3), (3, 4)), ()),
        (4, ((1, 2), (1, 4), (2, 4)), (3,)),
        (1, ((1, 3), (1, 3), (2, 4), (2, 4)), ()),
        (-4, ((1, 3), (1, 3)), (2, 4)),
        (-2, ((1, 3), (1, 4), (2, 3), (2, 4)), ()),
        (4, ((1, 3), (1, 4), (3, 4)), (2,)),
        (1, ((1, 4), (1, 4), (2, 3), (2, 3)), ()),
        (-4, ((1, 4), (1, 4)), (2, 3)),
        (-4, ((2, 3), (2, 3)), (1, 4)),
        (4, ((2, 3), (2, 4), (3, 4)), (1,)),
        (-4, ((2, 4), (2, 4)), (1, 3)),
        (-4, ((3, 4), (3, 4)), (1, 2)),
        (16, (), (1, 2, 3, 4)),
    ),
    5: (
        (1, ((1, 2), (1, 2), (3, 4), (3, 4)), (5,)),
        (-1, ((1, 2), (1, 2), (3, 4), (3, 5), (4, 5)), ()),
        (1, ((1, 2), (1, 2), (3, 5), (3, 5)), (4,)),
        (1, ((1, 2), (1, 2), (4, 5), (4, 5)), (3,)),
        (-4, ((1, 2), (1, 2)), (3, 4, 5)),
        (-1, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 5)), ()),
        (4, ((1, 2), (1, 3), (2, 3)), (4, 5)),
        (-2, ((1, 2), (1, 3), (2, 4), (3, 4)), (5,)),
        (1, ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5)), ()),
        (1, ((1, 2), (1, 3), (2, 5), (3, 4), (4, 5)), ()),
        (-2, ((1, 2), (1, 3), (2, 5), (3, 5)), (4,)),
        (-2, ((1, 2), (1, 4), (2, 3), (3, 4)), (5,)),
        (1, ((1, 2), (1, 4), (2, 3), (3, 5), (4, 5)), ()),
        (-1, ((1, 2), (1, 4), (2, 4), (3, 5), (3, 5)), ()),
        (4, ((1, 2), (1, 4), (2, 4)), (3, 5)),
        (1, ((1, 2), (1, 4), (2, 5), (3, 4), (3, 5)), ()),
        (-2, ((1, 2), (1, 4), (2, 5), (4, 5)), (3,)),
        (1, ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5)), ()),
        (-2, ((1, 2), (1, 5), (2, 3), (3, 5)), (4,)),
        (1, ((1, 2), (1, 5), (2, 4), (3, 4), (3, 5)), ()),
        (-2, ((1, 2), (1, 5), (2, 4), (4, 5)), (3,)),
        (-1, ((1, 2), (1, 5), (2, 5), (3, 4), (3, 4)), ()),
        (4, ((1, 2), (1, 5), (2, 5)), (3, 4)),
        (1, ((1, 3), (1, 3), (2, 4), (2, 4)), (5,)),
        (-1, ((1, 3), (1, 3), (2, 4), (2, 5), (4, 5)), ()),
        (1, ((1, 3), (1, 3), (2, 5), (2, 5)), (4,)),
        (1, ((1, 3), (1, 3), (4, 5), (4, 5)), (2,)),
        (-4, ((1, 3), (1, 3)), (2, 4, 5)),
        (-2, ((1, 3), (1, 4), (2, 3), (2, 4)), (5,)),
        (1, ((1, 3), (1, 4), (2, 3), (2, 5), (4, 5)), ()),
        (1, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)), ()),
        (-1, ((1, 3), (1, 4), (2, 5), (2, 5), (3, 4)), ()),
        (4, ((1, 3), (1, 4), (3, 4)), (2, 5)),
        (-2, ((1, 3), (1, 4), (3, 5), (4, 5)), (2,)),
        (1, ((1, 3), (1, 5), (2, 3), (2, 4), (4, 5)), ()),
        (-2, ((1, 3), (1, 5), (2, 3), (2, 5)), (4,)),
        (-1, ((1, 3), (1, 5), (2, 4), (2, 4), (3, 5)), ()),
        (1, ((1, 3), (1, 5), (2, 4), (2, 5), (3, 4)), ()),
        (-2, ((1, 3), (1, 5), (3, 4), (4, 5)), (2,)),
        (4, ((1, 3), (1, 5), (3, 5)), (2, 4)),
        (1, ((1, 4), (1, 4), (2, 3), (2, 3)), (5,)),
        (-1, ((1, 4), (1, 4), (2, 3), (2, 5), (3, 5)), ()),
        (1, ((1, 4), (1, 4), (2, 5), (2, 5)), (3,)),
        (1, ((1, 4), (1, 4), (3, 5), (3, 5)), (2,)),
        (-4, ((1, 4), (1, 4)), (2, 3, 5)),
        (-1, ((1, 4), (1, 5), (2, 3), (2, 3), (4, 5)), ()),
        (1, ((1, 4), (1, 5), (2, 3), (2, 4), (3, 5)), ()),
        (1, ((1, 4), (1, 5), (2, 3), (2, 5), (3, 4)), ()),
        (-2, ((1, 4), (1, 5), (2, 4), (2, 5)), (3,)),
        (-2, ((1, 4), (1, 5), (3, 4), (3, 5)), (2,)),
        (4, ((1, 4), (1, 5), (4, 5)), (2, 3)),
        (1, ((1, 5), (1, 5), (2, 3), (2, 3)), (4,)),
        (-1, ((1, 5), (1, 5), (2, 3), (2, 4), (3, 4)), ()),
        (1, ((1, 5), (1, 5), (2, 4), (2, 4)), (3,)),
        (1, ((1, 5), (1, 5), (3, 4), (3, 4)), (2,)),
        (-4, ((1, 5), (1, 5)), (2, 3, 4)),
        (1, ((2, 3), (2, 3), (4, 5), (4, 5)), (1,)),
        (-4, ((2, 3), (2, 3)), (1, 4, 5)),
        (4, ((2, 3), (2, 4), (3, 4)), (1, 5)),
        (-2, ((2, 3), (2, 4), (3, 5), (4, 5)), (1,)),
        (-2, ((2, 3), (2, 5), (3, 4), (4, 5)), (1,)),
        (4, ((2, 3), (2, 5), (3, 5)), (1, 4)),
        (1, ((2, 4), (2, 4), (3, 5), (3, 5)), (1,)),
        (-4, ((2, 4), (2, 4)), (1, 3, 5)),
        (-2, ((2, 4), (2, 5), (3, 4), (3, 5)), (1,)),
        (4, ((2, 4), (2, 5), (4, 5)), (1, 3)),
        (1, ((2, 5), (2, 5), (3, 4), (3, 4)), (1,)),
        (-4, ((2, 5), (2, 5)), (1, 3, 4)),
        (-4, ((3, 4), (3, 4)), (1, 2, 5)),
        (4, ((3, 4), (3, 5), (4, 5)), (1, 2)),
        (-4, ((3, 5), (3, 5)), (1, 2, 4)),
        (-4, ((4, 5), (4, 5)), (1, 2, 3)),
        (16, (), (1, 2, 3, 4, 5)),
    ),
}


def _require_n(model: OscillatorModel, n: int) -> None:
    if model.n != n:
        raise WrongDimension(n, model.n)
    if model.kinetic_override is not None:
        raise ValueError(
            "closed-form conditions require a diagonal kinetic matrix"
        )


def _eval_terms(terms, stiffness: list[float], couplings) -> float:
    """Evaluate a term list on Python floats with compensated summation.

    A term beyond the float range makes the value inf, or nan when such
    terms of both signs meet; nothing raises or warns.
    """
    vals = []
    for coeff, pairs, sites in terms:
        x = float(coeff)
        for i, j in pairs:
            x *= couplings.get((i - 1, j - 1), 0.0)
        for i in sites:
            x *= stiffness[i - 1]
        vals.append(x)
    try:
        return math.fsum(vals)
    except (ValueError, OverflowError):  # inf - inf, or a sum past the range
        return math.nan


def _condition_value(model: OscillatorModel, k: int) -> float:
    return _eval_terms(CONDITION_TERMS[k], model.stiffness_diag.tolist(), model.couplings)


def _per_unit_mass(model: OscillatorModel) -> tuple[list[float], dict]:
    """k_i / m_i and D_ij / sqrt(m_i m_j) on Python floats.

    These are the diagonal of S and twice its off-diagonal entries, so
    they stay in range whenever S does.  Each index occurs twice in every
    term of a condition (k_i counting twice), so its term list on them
    gives the condition for size k divided by m_1...m_k.
    """
    masses = model.masses.tolist()
    roots = [math.sqrt(m) for m in masses]
    stiffness = [c / m for c, m in zip(model.stiffness_diag.tolist(), masses)]
    couplings = {(i, j): d / (roots[i] * roots[j]) for (i, j), d in model.couplings.items()}
    return stiffness, couplings


# ---------------------------------------------------------------------------
# closed forms for n = 2 and n = 3
# ---------------------------------------------------------------------------


def n2_conditions(model: OscillatorModel) -> tuple[float, float]:
    """Bound-state pair for two oscillators.

    Returns (m2*C1 + m1*C2, 4*C1*C2 - C3**2); both must be positive for a
    bound state.  The first is m1*m2 times the trace of S, the second is
    4*m1*m2 times its determinant.
    """
    _require_n(model, 2)
    m1, m2 = model.masses.tolist()
    c1, c2 = model.stiffness_diag.tolist()
    c3 = model.couplings.get((0, 1), 0.0)
    return (m2 * c1 + m1 * c2, 4.0 * c1 * c2 - c3 * c3)


def n2_closed_eigenvalues(model: OscillatorModel) -> tuple[float, float]:
    """Squared mode frequencies of two oscillators in closed form.

    lambda_{1,2} = (m1*C2 + m2*C1 -+ R) / (2 m1 m2) with
    R = sqrt((m2*C1 - m1*C2)**2 + m1*m2*C3**2); returned ascending.
    Where a square or product of that form leaves the float range, or a
    nonzero one falls below its normal range and loses digits, the same
    roots come from the per-mass form
    (w1 + w2 -+ hypot(w1 - w2, C3 / sqrt(m1 m2))) / 2 with w_i = C_i / m_i.
    """
    _require_n(model, 2)
    m1, m2 = model.masses.tolist()
    c1, c2 = model.stiffness_diag.tolist()
    c3 = model.couplings.get((0, 1), 0.0)
    try:
        diff = m2 * c1 - m1 * c2
        square, cross = diff**2, m1 * m2 * c3 * c3
        r = math.sqrt(square + cross)
        base = m1 * c2 + m2 * c1
        lo, hi = (base - r) / (2.0 * m1 * m2), (base + r) / (2.0 * m1 * m2)
        tiny = sys.float_info.min
        underflow = m1 * m2 < tiny or any(
            abs(product) < tiny
            for product, factor in ((m2 * c1, c1), (m1 * c2, c2), (square, diff), (cross, c3))
            if factor
        )
    except (OverflowError, ZeroDivisionError):
        lo = hi = math.inf
        underflow = True
    if math.isfinite(lo) and math.isfinite(hi) and not underflow:
        return lo, hi
    (w1, w2), unit = _per_unit_mass(model)
    half = 0.5 * math.hypot(w1 - w2, unit.get((0, 1), 0.0))
    mid = 0.5 * (w1 + w2)
    return mid - half, mid + half


def n3_charpoly(model: OscillatorModel) -> tuple[float, float, float]:
    """(a, b, c) of lambda^3 - a lambda^2 + b lambda - c for three oscillators.

    Where D_ij^2 / (4 m_i m_j) or D12 D13 D23 / (4 m1 m2 m3) leave the
    float range, the same form runs per unit mass: on unit masses, w_i
    and D_ij / sqrt(m_i m_j) (``_per_unit_mass``).
    """
    _require_n(model, 3)
    (w1, w2, w3), unit = _per_unit_mass(model)
    for masses, couplings in ((model.masses.tolist(), model.couplings), ([1.0] * 3, unit)):
        m1, m2, m3 = masses
        d12, d13, d23 = (couplings.get(pair, 0.0) for pair in ((0, 1), (0, 2), (1, 2)))
        try:
            a = w1 + w2 + w3
            b = (
                w1 * w2 + w1 * w3 + w2 * w3
                - d12 * d12 / (4.0 * m1 * m2)
                - d13 * d13 / (4.0 * m1 * m3)
                - d23 * d23 / (4.0 * m2 * m3)
            )
            c = (
                w1 * w2 * w3
                - d12 * d12 * w3 / (4.0 * m1 * m2)
                - d13 * d13 * w2 / (4.0 * m1 * m3)
                - d23 * d23 * w1 / (4.0 * m2 * m3)
                + d12 * d13 * d23 / (4.0 * m1 * m2 * m3)
            )
        except ZeroDivisionError:  # a mass product underflowed to zero
            continue
        if math.isfinite(b) and math.isfinite(c):
            break
    return a, b, c


def _power(x: float, k: int) -> float:
    """x**k on Python floats, or the infinity numpy gives where Python
    raises OverflowError."""
    try:
        return x**k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def n3_discriminant(a: float, b: float, c: float) -> float:
    """Discriminant of lambda^3 - a lambda^2 + b lambda - c.

    Equals the product of squared root differences, so it is non-negative
    exactly when all three roots are real.
    """
    a, b, c = float(a), float(b), float(c)
    return (
        a * a * b * b
        - 4.0 * _power(a, 3) * c
        + 18.0 * a * b * c
        - 4.0 * _power(b, 3)
        - 27.0 * c * c
    )


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
    pattern of the coefficients then forces them positive.  The
    discriminant flag tolerates -1e-9 * (1 + |a|^6) of rounding.
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
    a, b, c = n3_charpoly(model)
    disc = n3_discriminant(a, b, c)
    return CoefficientConditions(
        a=a,
        b=b,
        c=c,
        discriminant=disc,
        b_positive=b > 0.0,
        c_positive=c > 0.0,
        discriminant_nonneg=disc >= -1e-9 * (1.0 + _power(abs(a), 6)),
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


def _minor_scale(masses: np.ndarray, k: int) -> float:
    return 4.0 ** (k // 2) * math.prod(masses[:k].tolist())


def _closed_form_checks(model, s, minors, eig, verdict):
    # Each polynomial condition is compared with its scaled minor in the
    # units of the model; where either side leaves the float range, both
    # are divided by the product of the masses.
    checks = []
    discriminant = None
    n = model.n
    masses = model.masses

    names = {2: "pair_condition", 3: "triple_condition",
             4: "quartic_condition", 5: "quintic_condition"}
    for k in range(2, min(n, 5) + 1):
        minor = float(minors[k - 1])
        value = _condition_value(model, k)
        reference = _minor_scale(masses, k) * minor
        if not (math.isfinite(value) and math.isfinite(reference)):
            value = _eval_terms(CONDITION_TERMS[k], *_per_unit_mass(model))
            reference = 4.0 ** (k // 2) * minor
        checks.append(_agreement(names[k], value, reference))

    if n == 2:
        cond1, _ = n2_conditions(model)
        trace = float(np.trace(s.mat))
        m1, m2 = masses.tolist()
        trace_ref = m1 * m2 * trace
        if not (math.isfinite(cond1) and math.isfinite(trace_ref)):
            c1, c2 = model.stiffness_diag.tolist()
            cond1, trace_ref = c1 / m1 + c2 / m2, trace
        checks.append(_agreement("stiffness_sum_condition", cond1, trace_ref))
        lo, hi = n2_closed_eigenvalues(model)
        checks.append(_agreement("closed_eigenvalue_low", lo, float(eig.values[0]), 1e-10))
        checks.append(_agreement("closed_eigenvalue_high", hi, float(eig.values[1]), 1e-10))

    if n == 3:
        route = necessary_coefficient_conditions(model)
        discriminant = route.discriminant
        lam = eig.values
        l0, l1, l2 = lam.tolist()
        prod_disc = _power(l0 - l1, 2) * _power(l0 - l2, 2) * _power(l1 - l2, 2)
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


# ---------------------------------------------------------------------------
# exact verification of the term lists
# ---------------------------------------------------------------------------
# Minimal integer polynomials: {(stiffness_exponents, coupling_exponents):
# coefficient} with tuple keys, enough to expand a small determinant.


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (g1, d1), c1 in p.items():
        for (g2, d2), c2 in q.items():
            key = (
                tuple(a + b for a, b in zip(g1, g2)),
                tuple(a + b for a, b in zip(d1, d2)),
            )
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _det_poly(rows: list[list[dict]]) -> dict:
    if len(rows) == 1:
        return rows[0][0]
    total: dict = {}
    for col, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        sub = _det_poly(minor)
        sign = 1 if col % 2 == 0 else -1
        for key, coeff in _poly_mul(entry, sub).items():
            total[key] = total.get(key, 0) + sign * coeff
    return {k: v for k, v in total.items() if v}


def _pair_index(n: int) -> dict:
    return {p: i for i, p in enumerate(itertools.combinations(range(1, n + 1), 2))}


def _term_key(n: int, pairs, sites, pair_pos) -> tuple:
    g = [0] * n
    for i in sites:
        g[i - 1] += 1
    d = [0] * len(pair_pos)
    for p in pairs:
        d[pair_pos[p]] += 1
    return (tuple(g), tuple(d))


def _format_monomial(n: int, key: tuple, pair_pos: dict) -> str:
    g_exp, d_exp = key
    pairs = sorted(pair_pos, key=pair_pos.get)
    parts = []
    for pos, e in enumerate(d_exp):
        if e:
            i, j = pairs[pos]
            parts.append(f"D{i}{j}" + (f"^{e}" if e > 1 else ""))
    for i, e in enumerate(g_exp):
        if e:
            parts.append(f"k{i + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"


def _expand_scaled_minor(n: int) -> dict:
    """Exact expansion of 4^floor(n/2) * m_1..m_n * minor_n(S).

    Equals det(W) with W_ii = 2 k_i and W_ij = D_ij, halved for odd n.
    """
    pair_pos = _pair_index(n)
    npairs = len(pair_pos)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                key = _term_key(n, (), (i,), pair_pos)
                row.append({key: 2})
            else:
                p = (min(i, j), max(i, j))
                key = _term_key(n, (p,), (), pair_pos)
                row.append({key: 1})
        rows.append(row)
    expansion = _det_poly(rows)
    if n % 2 == 1:
        for key, coeff in expansion.items():
            if coeff % 2 != 0:
                raise ConsistencyError("odd coefficient in halved expansion")
        expansion = {k: v // 2 for k, v in expansion.items()}
    return expansion


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
    pair_pos = _pair_index(n)
    expansion = _expand_scaled_minor(n)

    transcribed: dict = {}
    first_pos: dict = {}
    for pos, (coeff, pairs, sites) in enumerate(terms):
        key = _term_key(n, pairs, sites, pair_pos)
        transcribed[key] = transcribed.get(key, 0) + coeff
        first_pos.setdefault(key, pos)

    problems = []
    for key in sorted(transcribed, key=first_pos.get):
        expected = expansion.get(key, 0)
        if transcribed[key] != expected:
            problems.append(
                f"term {first_pos[key] + 1} ({_format_monomial(n, key, pair_pos)}): "
                f"transcribed coefficient {transcribed[key]}, expected {expected}"
            )
    missing = sorted(set(expansion) - set(transcribed))
    for key in missing:
        problems.append(
            f"missing term {_format_monomial(n, key, pair_pos)} "
            f"with coefficient {expansion[key]}"
        )
    return problems
