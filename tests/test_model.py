"""Model construction, validation and the T/V matrices."""

import dataclasses
import math

import numpy as np
import pytest

from cho import OscillatorModel, ValidationError, build_T, build_V
from cho.linalg import SymMatrix
from cho.model import validate

from conftest import random_model


def test_two_coupled_builds_expected_matrices():
    m = OscillatorModel.two_coupled(1.0, 2.0, 3.0, 2.0, 1.0)
    assert np.array_equal(build_T(m).mat, np.diag([1.0, 0.5]))
    assert np.array_equal(build_V(m).mat, np.array([[3.0, 0.5], [0.5, 2.0]]))


def test_identical_builds_all_pairs():
    m = OscillatorModel.identical(4, m=2.0, omega=3.0, d=0.5)
    assert m.n == 4
    assert np.allclose(m.stiffness_diag, 18.0)
    assert set(m.couplings) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    v = build_V(m).mat
    assert np.allclose(v - np.diag(v.diagonal()), 0.25 * (1 - np.eye(4)))


def test_from_frequencies_stiffness():
    m = OscillatorModel.from_frequencies([1.0, 4.0], [2.0, 0.5])
    assert np.allclose(m.stiffness_diag, [4.0, 1.0])
    assert np.allclose(m.omega_squared(), [4.0, 0.25])


@pytest.mark.filterwarnings("error")
def test_from_frequencies_overflow_raises_without_warning():
    # m * w**2 = 1e400 is past the float range; validate names it, numpy is quiet
    with pytest.raises(ValidationError, match="stiffness_diag entries must be finite"):
        OscillatorModel.from_frequencies([1.0, 1.0], [1e200, 1.0])


def test_coupling_keys_canonicalized():
    m = OscillatorModel(
        masses=[1.0, 1.0, 1.0],
        stiffness_diag=[1.0, 1.0, 1.0],
        couplings={(2, 0): 0.7},
    )
    assert m.couplings == {(0, 2): 0.7}
    v = build_V(m).mat
    assert v[0, 2] == v[2, 0] == 0.35


def test_with_coupling_returns_new_model():
    m = OscillatorModel.identical(2, d=1.0)
    m2 = m.with_coupling(0, 1, 2.0)
    assert m.couplings[(0, 1)] == 1.0
    assert m2.couplings[(0, 1)] == 2.0


def test_model_is_frozen():
    m = OscillatorModel.identical(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.hbar = 2.0
    with pytest.raises(ValueError):
        m.masses[0] = 5.0


def test_validate_reports_each_violation():
    with pytest.raises(ValidationError) as err:
        OscillatorModel(
            masses=[0.0, 1.0],
            stiffness_diag=[1.0, 1.0],
            couplings={(1, 1): 2.0},
            hbar=-1.0,
        )
    assert err.value.violations == [
        "masses[0] must be > 0",
        "coupling (1, 1): self-coupling forbidden",
        "hbar must be > 0",
    ]


def test_validate_flags_out_of_range_coupling():
    with pytest.raises(ValidationError) as err:
        OscillatorModel(
            masses=[1.0, 1.0],
            stiffness_diag=[1.0, 1.0],
            couplings={(0, 5): 1.0},
        )
    assert err.value.violations == ["coupling (0, 5) out of range for n=2"]


def test_validate_clean_model_is_empty():
    assert validate(OscillatorModel.identical(3, d=0.3)) == []


def test_with_coupling_rejects_non_finite_value():
    m = OscillatorModel.identical(2, d=1.0)
    with pytest.raises(ValidationError) as err:
        m.with_coupling(0, 1, math.inf)
    assert err.value.violations == ["coupling (0, 1) must be finite"]


def test_kinetic_override_replaces_diagonal_T():
    k = SymMatrix(np.array([[1.0, 0.1], [0.1, 2.0]]))
    m = OscillatorModel(
        masses=[1.0, 1.0],
        stiffness_diag=[1.0, 1.0],
        kinetic_override=k,
    )
    assert np.array_equal(build_T(m).mat, k.mat)


def test_kinetic_override_dimension_checked():
    k = SymMatrix(np.eye(3))
    with pytest.raises(ValidationError) as err:
        OscillatorModel(masses=[1.0], stiffness_diag=[1.0], kinetic_override=k)
    assert err.value.violations == ["kinetic_override is 3x3, expected 1x1"]


def test_potential_quadratic_form_matches_sum():
    # (1/2) x^T V x = (1/2) sum g_i x_i^2 + (1/2) sum_{i<j} D_ij x_i x_j
    rng = np.random.default_rng(21)
    for _ in range(50):
        model = random_model(rng, int(rng.integers(2, 6)))
        v = build_V(model).mat
        x = rng.normal(size=model.n)
        direct = 0.5 * np.sum(model.stiffness_diag * x * x) + 0.5 * sum(
            d * x[i] * x[j] for (i, j), d in model.couplings.items()
        )
        assert 0.5 * x @ v @ x == pytest.approx(direct, rel=1e-12, abs=1e-12)
