"""Normal-mode decomposition: A and S routes, residuals, mass normalization."""

import numpy as np
import pytest

from cho import (
    OscillatorModel,
    compute_A,
    compute_S,
    decompose,
    decompose_mass_normalized,
    n2_closed_eigenvalues,
)
from cho.diagonalize import _KINETIC_TOL
from cho.errors import ConsistencyError, ValidationError
from cho.linalg import max_abs
from cho.model import build_T, build_V

from conftest import random_model


def test_compute_A_known_case():
    m = OscillatorModel.two_coupled(1.0, 2.0, 1.0, 1.0, 1.0)
    a = compute_A(build_T(m).mat, build_V(m).mat)
    assert np.array_equal(a, np.array([[1.0, 0.5], [0.25, 0.5]]))


def test_S_symmetric_and_similar_to_A():
    rng = np.random.default_rng(30)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 6)))
        t, v = build_T(m), build_V(m)
        a = compute_A(t.mat, v.mat)
        s = compute_S(t, v.mat)
        # similar matrices share the characteristic polynomial
        assert np.allclose(
            np.poly(a),
            np.poly(s.mat),
            rtol=1e-8,
            atol=1e-8 * (1 + max_abs(a)) ** m.n,
        )


def test_identical_triple_normal_modes():
    dec = decompose(OscillatorModel.identical(3, d=1.0))
    assert np.allclose(dec.lambdas, [0.5, 0.5, 2.0], atol=1e-12)
    # the symmetric stretch picks up the doubled frequency
    assert np.allclose(np.abs(dec.u[:, 2]), 1 / np.sqrt(3), atol=1e-12)


def test_two_site_closed_form_agreement():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = OscillatorModel.two_coupled(
            rng.uniform(0.1, 10),
            rng.uniform(0.1, 10),
            rng.uniform(0.1, 10),
            rng.uniform(0.1, 10),
            rng.uniform(-5, 5),
        )
        lo, hi = n2_closed_eigenvalues(m)
        assert np.allclose(decompose(m).lambdas, [lo, hi], rtol=1e-10, atol=1e-12)


def test_uncoupled_modes_are_squared_frequencies():
    m = OscillatorModel.from_frequencies([1.0, 2.0, 0.5], [3.0, 1.0, 2.0])
    dec = decompose(m)
    assert np.allclose(dec.lambdas, sorted([9.0, 1.0, 4.0]), atol=1e-12)


def test_decompose_residuals_and_diagonalization():
    rng = np.random.default_rng(32)
    for _ in range(40):
        m = random_model(rng, int(rng.integers(1, 7)))
        dec = decompose(m)
        t, v = build_T(m).mat, build_V(m).mat
        c = dec.c
        cvc = c.T @ v @ c
        assert max_abs(cvc - np.diag(dec.lambdas)) < 1e-9 * (1 + max_abs(v))
        cinv = np.linalg.inv(c)
        assert max_abs(cinv @ t @ cinv.T - np.eye(m.n)) < 1e-9 * (1 + max_abs(t))
        assert dec.residual_orth < 1e-10
        assert dec.residual_kinetic < 1e-9 * (1 + max_abs(t))
        assert dec.residual_potential < 1e-9 * (1 + max_abs(v))


def test_kinetic_residual_is_relative_and_independent_of_the_mass_unit():
    # a change of mass unit scales T by 1/f and V by f and leaves S alone
    rng = np.random.default_rng(34)
    for _ in range(40):
        m = random_model(rng, int(rng.integers(1, 17)))
        for f in (1e-6, 1.0, 1e6):
            scaled = OscillatorModel(
                masses=f * np.asarray(m.masses),
                stiffness_diag=f * np.asarray(m.stiffness_diag),
                couplings={k: f * v for k, v in m.couplings.items()},
            )
            dec = decompose(scaled)
            t = build_T(scaled).mat
            assert dec.residual_kinetic < _KINETIC_TOL
            direct = max_abs(dec.c @ dec.c.T - t) / max_abs(t)
            assert dec.residual_kinetic == pytest.approx(direct, rel=0.0, abs=1e-15)


def test_unit_masses_give_orthogonal_C():
    m = OscillatorModel.identical(4, d=0.4)
    dec = decompose(m)
    assert max_abs(dec.c - dec.u) < 1e-14
    assert max_abs(dec.c.T @ dec.c - np.eye(4)) < 1e-12


def test_potential_scaling_scales_lambdas():
    m = OscillatorModel.identical(3, d=0.5)
    scaled = OscillatorModel(
        masses=m.masses,
        stiffness_diag=4.0 * np.asarray(m.stiffness_diag),
        couplings={k: 4.0 * v for k, v in m.couplings.items()},
    )
    assert np.allclose(decompose(scaled).lambdas, 4.0 * decompose(m).lambdas, rtol=1e-12)


def test_decompose_validates_model():
    with pytest.raises(ValidationError):
        decompose(OscillatorModel(masses=[0.0], stiffness_diag=[1.0]))


def test_mass_normalized_default_reference():
    m = OscillatorModel.two_coupled(1.0, 2.0, 3.0, 2.0, 1.0)
    mn = decompose_mass_normalized(m)
    assert mn.m_ref == pytest.approx(np.sqrt(2.0), rel=1e-14)  # geometric mean
    assert np.allclose(mn.k, mn.m_ref * np.asarray(mn.lambdas), rtol=1e-12)


def test_mass_normalized_lambdas_independent_of_reference():
    rng = np.random.default_rng(33)
    m = random_model(rng, 4)
    base = decompose(m).lambdas
    for m_ref in (1e-3, 1.0, 7.5, 1e3):
        mn = decompose_mass_normalized(m, m_ref=m_ref)
        assert np.allclose(mn.lambdas, base, rtol=1e-9)
        assert np.allclose(mn.c, np.sqrt(m_ref) * decompose(m).c, rtol=1e-12)


def test_mass_normalized_rejects_bad_reference():
    m = OscillatorModel.identical(2)
    with pytest.raises(ValueError):
        decompose_mass_normalized(m, m_ref=-1.0)


def test_compute_S_rejects_asymmetric_product():
    t = build_T(OscillatorModel.identical(2))
    with pytest.raises(ConsistencyError):
        compute_S(t, np.array([[1.0, 2.0], [0.0, 1.0]]))
