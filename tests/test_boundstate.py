"""Bound-state classification: Sylvester minors, closed-form polynomial
conditions for n = 2..5, and the cubic-coefficient route."""

import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cho import (
    BOUND,
    MARGINAL,
    UNBOUND,
    OscillatorModel,
    classify,
    decompose,
    n2_closed_eigenvalues,
    n2_conditions,
    n3_charpoly,
    n3_conditions,
    n3_discriminant,
    n4_condition,
    n5_condition,
    necessary_coefficient_conditions,
    verify_condition_terms,
)
from cho.boundstate import (
    CONDITION_TERMS,
    _condition_num,
    _condition_value,
    _expand_scaled_minor,
    _minor_scale,
)
from cho.errors import WrongDimension
from cho.linalg import SymMatrix, leading_principal_minors
from cho.model import build_T, build_V

from conftest import random_model


# --- verdicts -----------------------------------------------------------------


def test_identical_triple_is_bound_with_known_minors():
    rep = classify(OscillatorModel.identical(3, d=1.0))
    assert rep.verdict == BOUND
    assert np.allclose(rep.minors, [1.0, 0.75, 0.5], atol=1e-12)
    assert all(m.status == "positive" for m in rep.per_minor)


def test_strong_coupling_is_unbound():
    rep = classify(OscillatorModel.identical(3, d=3.0))
    assert rep.verdict == UNBOUND
    assert rep.per_minor[1].status == "negative"


def test_zero_minor_is_marginal():
    # C3^2 = 4 C1 C2 puts the pair exactly on the boundary
    rep = classify(OscillatorModel.two_coupled(1.0, 1.0, 1.0, 1.0, 2.0))
    assert rep.verdict == MARGINAL
    assert rep.per_minor[1].status == "marginal"


def test_negative_beats_marginal():
    # minor_2 = 0 but minor_1 < 0: Unbound wins over Marginal
    m = OscillatorModel(
        masses=[1.0, 1.0],
        stiffness_diag=[-1.0, -1.0],
        couplings={(0, 1): 2.0},
    )
    rep = classify(m)
    assert rep.per_minor[0].status == "negative"
    assert rep.per_minor[1].status == "marginal"
    assert rep.verdict == UNBOUND


def test_bound_window_of_identical_triple():
    for d, expected in [(-1.5, UNBOUND), (-0.5, BOUND), (1.9, BOUND), (2.1, UNBOUND)]:
        assert classify(OscillatorModel.identical(3, d=d)).verdict == expected


def test_classify_checks_pass_on_bound_models():
    rng = np.random.default_rng(40)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            rep = classify(random_model(rng, n, coupling_scale=0.5))
            if rep.verdict == MARGINAL:
                continue
            for check in rep.closed_form_checks:
                assert check.passed, check


def test_classify_skips_closed_forms_with_kinetic_override():
    m = OscillatorModel(
        masses=[1.0, 1.0],
        stiffness_diag=[1.0, 1.0],
        kinetic_override=SymMatrix(np.array([[1.0, 0.2], [0.2, 1.0]])),
    )
    rep = classify(m)
    assert rep.closed_form_checks == ()
    assert rep.verdict == BOUND


# --- closed forms, n = 2 and 3 -------------------------------------------------


def test_n2_conditions_known_case():
    m = OscillatorModel.two_coupled(1.0, 1.0, 1.0, 1.0, 1.0)
    assert n2_conditions(m) == pytest.approx((2.0, 3.0))
    m = OscillatorModel.two_coupled(1.0, 2.0, 3.0, 2.0, 1.0)
    assert n2_conditions(m) == pytest.approx((8.0, 23.0))


def _decimal_n2_roots(model):
    """The closed form at 60 digits, on the exact decimal values of the floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m1, m2, c1, c2 = map(Decimal, (*model.masses.tolist(), *model.stiffness_diag.tolist()))
        c3 = Decimal(model.couplings.get((0, 1), 0.0))
        r = ((m2 * c1 - m1 * c2) ** 2 + m1 * m2 * c3 * c3).sqrt()
        base = m1 * c2 + m2 * c1
        return (base - r) / (2 * m1 * m2), (base + r) / (2 * m1 * m2)


def _n2_draws():
    # (m2 C1 - m1 C2)^2 = 1e-524 is below the float range
    yield OscillatorModel.two_coupled(1e-131, 2e-131, 1e-131, 3e-131, 1e-131)
    rng = np.random.default_rng(43)
    for _ in range(400):
        mass_unit = 10.0 ** rng.uniform(-200, 200)
        stiffness_unit = mass_unit * 10.0 ** rng.uniform(-5, 5)
        yield OscillatorModel.two_coupled(
            rng.uniform(0.1, 10) * mass_unit,
            rng.uniform(0.1, 10) * mass_unit,
            rng.uniform(0.1, 5) * stiffness_unit,
            rng.uniform(0.1, 5) * stiffness_unit,
            rng.uniform(-5, 5) * stiffness_unit,
        )
    # near-singular: 4 C1 C2 - C3^2 is about 1e-8 to 1e-15 of 4 C1 C2
    for _ in range(100):
        unit = 10.0 ** rng.uniform(-100, 100)
        c1, c2 = rng.uniform(0.1, 5, size=2) * unit
        c3 = 2.0 * math.sqrt(c1 * c2) * (1.0 - 10.0 ** rng.uniform(-15, -8))
        yield OscillatorModel.two_coupled(rng.uniform(0.1, 10), rng.uniform(0.1, 10),
                                          c1, c2, rng.choice([-1.0, 1.0]) * c3)


@pytest.mark.filterwarnings("error")
def test_n2_closed_eigenvalues_within_one_ulp_of_exact():
    for m in _n2_draws():
        lo, hi = n2_closed_eigenvalues(m)
        for got, exact in zip((lo, hi), _decimal_n2_roots(m)):
            assert abs(Decimal(got) - exact) <= Decimal(math.ulp(float(exact))), (m, got, exact)
        m1, m2 = m.masses
        off = m.couplings[(0, 1)] / (2.0 * math.sqrt(m1) * math.sqrt(m2))
        s = np.array([[m.stiffness_diag[0] / m1, off], [off, m.stiffness_diag[1] / m2]])
        want = np.linalg.eigvalsh(s)
        assert (lo, hi) == pytest.approx(tuple(want), rel=1e-12, abs=1e-12 * max(abs(want)))


def test_n2_conditions_match_sylvester():
    rng = np.random.default_rng(41)
    for _ in range(500):
        m = OscillatorModel.two_coupled(
            rng.uniform(0.1, 10),
            rng.uniform(0.1, 10),
            rng.uniform(-5, 5),
            rng.uniform(-5, 5),
            rng.uniform(-5, 5),
        )
        off = m.couplings[(0, 1)] / (2 * np.sqrt(m.masses[0] * m.masses[1]))
        s = SymMatrix(
            np.array(
                [
                    [m.stiffness_diag[0] / m.masses[0], off],
                    [off, m.stiffness_diag[1] / m.masses[1]],
                ]
            )
        )
        minors = leading_principal_minors(s)
        if min(abs(x) for x in minors) < 1e-9:
            continue
        cond_a, cond_b = n2_conditions(m)
        # both positive <=> positive definite; the pair (sum, product form)
        assert (cond_a > 0 and cond_b > 0) == all(x > 0 for x in minors)


def test_n3_charpoly_known_cases():
    m = OscillatorModel.from_frequencies(
        [1.0, 1.0, 1.0],
        np.sqrt([1.0, 2.0, 3.0]),
        couplings={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
    )
    assert n3_charpoly(m) == pytest.approx((6.0, 10.25, 4.75))
    assert n3_charpoly(OscillatorModel.identical(3, d=1.0)) == pytest.approx(
        (3.0, 2.25, 0.5)
    )


def test_n3_charpoly_matches_eigenvalues():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = random_model(rng, 3)
        a, b, c = n3_charpoly(m)
        lam = decompose(m).lambdas
        assert a == pytest.approx(np.sum(lam), rel=1e-9, abs=1e-9)
        assert b == pytest.approx(
            lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2], rel=1e-9, abs=1e-9
        )
        assert c == pytest.approx(np.prod(lam), rel=1e-9, abs=1e-9)


def test_n3_discriminant_known_values():
    # roots 1, 2, 3: prod of squared differences is 4
    assert n3_discriminant(6.0, 11.0, 6.0) == pytest.approx(4.0)
    # repeated roots collapse it to zero
    assert n3_discriminant(3.0, 2.25, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_n3_discriminant_equals_root_spread():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = random_model(rng, 3)
        a, b, c = n3_charpoly(m)
        lam = decompose(m).lambdas
        spread = (
            (lam[0] - lam[1]) ** 2 * (lam[0] - lam[2]) ** 2 * (lam[1] - lam[2]) ** 2
        )
        assert n3_discriminant(a, b, c) == pytest.approx(
            spread, rel=1e-6, abs=1e-6 * (1 + abs(a)) ** 6
        )


def _fraction_charpoly(model):
    """a, b and c of the cubic on the exact rational values of the floats."""
    m = [Fraction(x) for x in model.masses.tolist()]
    k = [Fraction(x) for x in model.stiffness_diag.tolist()]
    d = {pair: Fraction(x) for pair, x in model.couplings.items()}
    a = sum(k[i] / m[i] for i in range(3))
    b = sum((4 * k[i] * k[j] - d.get((i, j), 0) ** 2) / (4 * m[i] * m[j])
            for i, j in ((0, 1), (0, 2), (1, 2)))
    c = _fraction_condition_value(model, 3) / (4 * m[0] * m[1] * m[2])
    return a, b, c


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("masses,stiffness,couplings", [
    # 4 m1 m2 m3 is subnormal: charpoly_det read 0.86454 against 0.86458
    ([1e-107, 2e-107, 3e-107], [1e-107, 3e-107, 2e-107],
     {(0, 1): 1e-107, (0, 2): 0.5e-107, (1, 2): 1e-107}),
    # D_ij^2 and m_i m_j overflow
    ([1e200] * 3, [1e200, 3e200, 2e200], {(0, 1): 1e200, (1, 2): 1e200}),
    # the discriminant, about 1e360, is past the float range
    ([1.0] * 3, [1e60, 3e60, 2e60], {(0, 1): 1e60, (1, 2): 1e60}),
], ids=["masses-1e-107", "masses-1e200", "stiffness-1e60"])
def test_cubic_route_correctly_rounded_on_named_models(masses, stiffness, couplings):
    m = OscillatorModel(masses, stiffness, couplings)
    a, b, c = _fraction_charpoly(m)
    route = necessary_coefficient_conditions(m)
    assert n3_charpoly(m) == (route.a, route.b, route.c) == tuple(map(float, (a, b, c)))
    exact = a * a * b * b - 4 * a**3 * c + 18 * a * b * c - 4 * b**3 - 27 * c * c
    assert route.discriminant == _rounded_fraction(exact)
    assert route.discriminant_nonneg and exact >= 0
    assert all(check.passed for check in classify(m).closed_form_checks)


def test_coefficient_route_agrees_with_verdict():
    rng = np.random.default_rng(44)
    agreements = 0
    while agreements < 300:
        m = random_model(rng, 3, omega2_range=(0.3, 3.0))
        rep = classify(m)
        if rep.verdict == MARGINAL:
            continue
        route = necessary_coefficient_conditions(m)
        assert route.discriminant_nonneg  # symmetric S has a real spectrum
        assert route.all_pass == (rep.verdict == BOUND)
        agreements += 1


def test_wrong_dimension_raises():
    m = OscillatorModel.identical(4)
    with pytest.raises(WrongDimension) as err:
        n3_charpoly(m)
    assert "n=3" in str(err.value) and "n=4" in str(err.value)
    with pytest.raises(WrongDimension):
        n2_conditions(OscillatorModel.identical(3))
    with pytest.raises(WrongDimension):
        n5_condition(OscillatorModel.identical(4))


def test_closed_forms_require_diagonal_kinetic():
    m = OscillatorModel(
        masses=[1.0, 1.0],
        stiffness_diag=[1.0, 1.0],
        kinetic_override=SymMatrix(np.eye(2)),
    )
    with pytest.raises(ValueError):
        n2_conditions(m)


# --- explicit polynomials vs scaled minors -------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_condition_equals_scaled_minor(n):
    rng = np.random.default_rng(45 + n)
    fn = {2: lambda m: n2_conditions(m)[1],
          3: lambda m: n3_conditions(m)[1],
          4: n4_condition,
          5: n5_condition}[n]
    for _ in range(200):
        m = random_model(rng, n, mass_range=(0.6, 1.6), omega2_range=(0.4, 2.5),
                         coupling_scale=1.2)
        s = SymMatrix(
            np.asarray(build_T(m)) ** 0.5 @ np.asarray(build_V(m))
            @ np.asarray(build_T(m)) ** 0.5
        )
        minor = leading_principal_minors(s)[-1]
        expect = _minor_scale(np.asarray(m.masses), n) * minor
        got = fn(m)
        assert got == pytest.approx(expect, rel=1e-8, abs=1e-8)


def _rounded_fraction(x: Fraction) -> float:
    """x correctly rounded to a float, or +-inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _fraction_condition_value(model, k):
    """The term list of size k on the exact rational values of the floats."""
    total = Fraction(0)
    for coeff, pairs, sites in CONDITION_TERMS[k]:
        x = Fraction(coeff)
        for i, j in pairs:
            x *= Fraction(model.couplings.get((i - 1, j - 1), 0.0))
        for i in sites:
            x *= Fraction(float(model.stiffness_diag[i - 1]))
        total += x
    return total


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_condition_values_correctly_rounded(n):
    rng = np.random.default_rng(60 + n)
    beyond = 0
    for _ in range(300):
        m = random_model(rng, n, coupling_scale=1.2)
        f = 10.0 ** rng.uniform(-200, 200)  # a unit of mass and stiffness
        m = OscillatorModel(
            masses=f * np.asarray(m.masses),
            stiffness_diag=f * np.asarray(m.stiffness_diag),
            couplings={key: f * d for key, d in m.couplings.items()},
        )
        want = _rounded_fraction(_fraction_condition_value(m, n))
        assert _condition_value(m, n) == want
        beyond += math.isinf(want)
    assert 10 < beyond < 250


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_checks_pass_beyond_the_float_range(n):
    # S stays put while the polynomial conditions, the N=2 closed form and
    # the N=3 cubic coefficients scale with powers of f and leave the float
    # range; the checks then compare per unit mass.
    rng = np.random.default_rng(70 + n)
    for _ in range(60):
        m = random_model(rng, n, coupling_scale=0.5)
        f = 10.0 ** rng.uniform(-200, 200)
        m = OscillatorModel(
            masses=f * np.asarray(m.masses),
            stiffness_diag=f * np.asarray(m.stiffness_diag),
            couplings={key: f * d for key, d in m.couplings.items()},
        )
        rep = classify(m)
        if rep.verdict == MARGINAL:
            continue
        assert rep.closed_form_checks
        for check in rep.closed_form_checks:
            assert check.passed, (f, check)
            assert math.isfinite(check.value) and math.isfinite(check.reference)


def test_uncoupled_n4_condition_factorizes():
    m = OscillatorModel.from_frequencies([1.0, 2.0, 0.5, 3.0], [1.0, 0.5, 2.0, 1.5])
    g = np.asarray(m.stiffness_diag)
    assert n4_condition(m) == pytest.approx(16.0 * np.prod(g), rel=1e-12)


def test_n3_condition_factorizes_when_third_site_detaches():
    rng = np.random.default_rng(46)
    for _ in range(50):
        m = random_model(rng, 3, coupling_prob=1.0)
        m = m.with_coupling(0, 2, 0.0).with_coupling(1, 2, 0.0)
        pair, triple = (
            n2_conditions(
                OscillatorModel(
                    masses=m.masses[:2],
                    stiffness_diag=m.stiffness_diag[:2],
                    couplings={(0, 1): m.couplings[(0, 1)]},
                )
            )[1],
            n3_conditions(m)[1],
        )
        assert triple == pytest.approx(m.stiffness_diag[2] * pair, rel=1e-10, abs=1e-12)


# --- transcription self-check ---------------------------------------------------


def _fraction_det(w):
    """Determinant by Gaussian elimination on Fractions, exact."""
    w = [[Fraction(x) for x in row] for row in w]
    det = Fraction(1)
    for c in range(len(w)):
        piv = next((r for r in range(c, len(w)) if w[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            det = -det
        det *= w[c][c]
        for r in range(c + 1, len(w)):
            f = w[r][c] / w[c][c]
            w[r] = [x - f * y for x, y in zip(w[r], w[c])]
    return det


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expansion_equals_exact_determinant(n):
    # the expansion, and the literal list it verifies, evaluated at integer
    # points against det(W), W_ii = 2 k_i and W_ij = D_ij, halved for odd n
    rng = random.Random(n)
    expansion = _expand_scaled_minor(n)
    for _ in range(40):
        k = [rng.randint(-6, 6) for _ in range(n)]
        d = {pair: rng.randint(-6, 6) for pair in itertools.combinations(range(n), 2)}
        w = [[2 * k[i] if i == j else d[min(i, j), max(i, j)] for j in range(n)]
             for i in range(n)]
        expected = _fraction_det(w) / (2 if n % 2 else 1)
        value = {f"k{i + 1}": x for i, x in enumerate(k)}
        value.update({f"D{i + 1}{j + 1}": x for (i, j), x in d.items()})
        got = sum(c * math.prod(value[f] for f in key) for key, c in expansion.items())
        assert got == expected
        assert _condition_num(n, k, d) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_condition_terms_verify_clean(n):
    assert verify_condition_terms(n) == []


def test_corrupted_coefficient_is_pinpointed():
    terms = list(CONDITION_TERMS[4])
    coeff, pairs, sites = terms[6]
    terms[6] = (coeff + 1.0, pairs, sites)
    problems = verify_condition_terms(4, terms)
    assert problems
    assert problems[0].startswith("term 7 ")
    assert f"transcribed coefficient {coeff + 1.0:g}" in problems[0]


def test_dropped_term_is_reported_missing():
    terms = list(CONDITION_TERMS[5])
    dropped = terms.pop(10)
    problems = verify_condition_terms(5, terms)
    assert problems
    assert any("missing" in p for p in problems)


def test_duplicated_term_detected():
    terms = list(CONDITION_TERMS[4])
    terms.append(terms[0])
    assert verify_condition_terms(4, terms)
