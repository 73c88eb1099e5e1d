"""Dense symmetric linear algebra against numpy.linalg as the oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cho import linalg
from cho.errors import NonConvergence, NotPositiveDefinite, SingularMatrix
from cho.linalg import (
    SymMatrix,
    inverse,
    jacobi_eigh,
    leading_principal_minors,
    max_abs,
    spd_sqrt,
)

from conftest import random_spd, random_sym


# --- SymMatrix ---------------------------------------------------------------


def test_symmatrix_mirrors_lower_triangle():
    s = SymMatrix(np.array([[1.0, 5.0], [2.0, 3.0]]), skew_tol=10.0)
    assert s.mat[0, 1] == s.mat[1, 0] == 2.0


def test_symmatrix_rejects_skew_beyond_tolerance():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 5.0], [2.0, 3.0]]))


def test_symmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_symmatrix_diagonal_and_array_protocol():
    s = SymMatrix.diagonal([1.0, 2.0])
    assert np.array_equal(np.asarray(s), np.diag([1.0, 2.0]))
    assert s.n == 2
    with pytest.raises(ValueError):
        s.mat[0, 0] = 7.0  # frozen


# --- Jacobi ------------------------------------------------------------------


def test_jacobi_matches_numpy_eigvalsh():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(40):
            s = random_sym(rng, n)
            eig = jacobi_eigh(s)
            ref = np.linalg.eigvalsh(s.mat)
            assert np.allclose(eig.values, ref, rtol=0, atol=1e-11 * (1 + max_abs(s.mat)))


def test_jacobi_vectors_orthonormal_and_reconstruct():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_sym(rng, 5)
        eig = jacobi_eigh(s)
        u = eig.vectors
        assert max_abs(u.T @ u - np.eye(5)) < 1e-12
        assert max_abs(u @ np.diag(eig.values) @ u.T - s.mat) < 1e-11 * (1 + max_abs(s.mat))


def test_jacobi_values_ascending():
    rng = np.random.default_rng(9)
    for _ in range(30):
        eig = jacobi_eigh(random_sym(rng, 6))
        assert np.all(np.diff(eig.values) >= 0)


def test_jacobi_sign_convention():
    # largest-magnitude entry of each vector is non-negative
    rng = np.random.default_rng(10)
    for _ in range(30):
        eig = jacobi_eigh(random_sym(rng, 5))
        for col in eig.vectors.T:
            assert col[np.argmax(np.abs(col))] >= 0


def test_jacobi_degenerate_tie_order():
    eig = jacobi_eigh(SymMatrix(np.eye(4)))
    assert np.array_equal(eig.values, np.ones(4))
    assert np.array_equal(eig.vectors, np.eye(4))


def test_jacobi_diagonal_input_short_circuits():
    eig = jacobi_eigh(SymMatrix.diagonal([3.0, -1.0, 2.0]))
    assert np.array_equal(eig.values, [-1.0, 2.0, 3.0])


def test_jacobi_nonconvergence_reports_offdiag():
    s = random_sym(np.random.default_rng(11), 8)
    with pytest.raises(NonConvergence) as err:
        jacobi_eigh(s, max_sweeps=1)
    assert err.value.sweeps == 1
    assert err.value.offdiag > 0


# --- Jacobi: bit identity with the loop on numpy scalars ------------------------
#
# jacobi_eigh rotates nested lists of Python floats.  The reference below is
# the same algorithm run on numpy float64 scalars, entry by entry, as the
# library did before; the two must agree to the bit.


def _reference_tie_order(values):
    order = list(np.argsort(values, kind="stable"))
    out = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order):
            a = values[order[j]]
            b = values[order[j + 1]]
            if abs(b - a) <= 1e-12 * (1.0 + abs(a)):
                j += 1
            else:
                break
        out.extend(sorted(order[i:j + 1]))
        i = j + 1
    return np.array(out, dtype=int)


def _reference_fix_signs(vectors):
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            vectors[:, k] = -col
    return vectors


def _reference_jacobi(m, tol=1e-12, max_sweeps=50):
    a = np.array(m, dtype=float)
    n = a.shape[0]
    v = np.eye(n)

    def offdiag(m):
        return np.sqrt(np.sum(np.tril(m, -1) ** 2) * 2.0)

    def threshold(m):
        return tol * (1.0 + np.sqrt(np.sum(np.diagonal(m) ** 2)))

    sweeps = 0
    while offdiag(a) > threshold(a):
        if sweeps >= max_sweeps:
            raise NonConvergence(sweeps, offdiag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app, aqq = a[p, p], a[q, q]
                if abs(apq) < 1e-20 * (abs(app) + abs(aqq)):
                    a[p, q] = a[q, p] = 0.0
                    continue
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                for i in range(n):
                    if i != p and i != q:
                        aip, aiq = a[i, p], a[i, q]
                        a[i, p] = a[p, i] = c * aip - sn * aiq
                        a[i, q] = a[q, i] = c * aiq + sn * aip
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                for i in range(n):
                    vip, viq = v[i, p], v[i, q]
                    v[i, p] = c * vip - sn * viq
                    v[i, q] = c * viq + sn * vip
        sweeps += 1
    values = np.diagonal(a).copy()
    order = _reference_tie_order(values)
    return values[order], _reference_fix_signs(v[:, order].copy())


def _sym(a):
    return np.tril(a) + np.tril(a, -1).T


def _bit_identity_cases(kind, n, rng):
    """Seeded symmetric matrices of one kind and size."""
    a = _sym(rng.normal(size=(n, n)))
    k = n // 2
    if kind == "plain":
        return a
    if kind == "tiny_offdiag":
        # the two diagonal blocks stay coupled through entries far below
        # 1e-20 of the diagonal, which the solver zeroes instead of rotating
        a[k:, :k] *= 1e-24
        return _sym(a)
    if kind == "exact_zeros":
        a[k:, :k] = 0.0
        a[rng.random((n, n)) < 0.3] = 0.0
        return _sym(a)
    if kind == "ties":
        q = _sym(rng.normal(size=(n, n)))
        basis = np.linalg.eigh(q)[1]
        d = rng.integers(-1, 2, size=n).astype(float)
        return _sym((basis * d) @ basis.T)
    if kind == "ones":
        return np.ones((n, n)) + (rng.integers(0, 2) * 2.0) * np.eye(n)
    if kind == "graded":
        g = 10.0 ** np.linspace(-6, 6, n)
        return _sym(a * np.outer(g, g))
    if kind.startswith("scale"):
        return a * 10.0 ** float(kind[5:])
    raise ValueError(kind)


_KINDS = ["plain", "tiny_offdiag", "exact_zeros", "ties", "ones", "graded",
          "scale-150", "scale-6", "scale6", "scale150"]


@pytest.mark.parametrize("kind", _KINDS)
def test_jacobi_bit_identical_to_numpy_scalar_loop(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n in range(1, 17):
        for _ in range(2):
            m = _bit_identity_cases(kind, n, rng)
            values, vectors = _reference_jacobi(m)
            eig = jacobi_eigh(SymMatrix(m))
            assert np.array_equal(eig.values, values), (kind, n)
            assert np.array_equal(eig.vectors, vectors), (kind, n)


def test_jacobi_nonconvergence_matches_numpy_scalar_loop():
    rng = np.random.default_rng(17)
    for n in (3, 6, 11, 16):
        m = _bit_identity_cases("plain", n, rng)
        with pytest.raises(NonConvergence) as ref:
            _reference_jacobi(m, max_sweeps=1)
        with pytest.raises(NonConvergence) as err:
            jacobi_eigh(SymMatrix(m), max_sweeps=1)
        assert err.value.sweeps == ref.value.sweeps == 1
        assert err.value.offdiag == ref.value.offdiag


def test_jacobi_overflowing_entries_match_without_raising():
    # Python float arithmetic raises where numpy returns inf only for ** and
    # division by zero; entries near the float limit must still go through
    big = 1.5e308
    cases = [
        [[1.0, big, big], [big, 1.0, -big], [big, -big, 1.0]],
        [[1e-300, 0.25], [0.25, 1e300]],
        [[1.0, 1e200], [1e200, 1.0]],
    ]
    for m in cases:
        m = np.array(m)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            values, vectors = _reference_jacobi(m)
            eig = jacobi_eigh(SymMatrix(m))
        assert np.array_equal(eig.values, values, equal_nan=True)
        assert np.array_equal(eig.vectors, vectors, equal_nan=True)


@pytest.mark.parametrize("n, scale", [(2, 1e300), (3, 1e250), (8, 1e200), (16, 1e160)])
def test_jacobi_extreme_scale_without_warning(n, scale):
    # the stop test's norms must not overflow for entries near the float limit
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = _sym(rng.normal(size=(n, n))) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = jacobi_eigh(SymMatrix(m))
        expect = np.linalg.eigvalsh(m)
        assert np.max(np.abs(eig.values - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_jacobi_results_frozen():
    eig = jacobi_eigh(SymMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        eig.values[0] = 5.0


# --- square root -------------------------------------------------------------


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 5):
        for _ in range(25):
            s = random_spd(rng, n)
            root = spd_sqrt(s)
            assert max_abs(root.mat @ root.mat - s.mat) < 1e-10 * (1 + max_abs(s.mat))


def test_spd_sqrt_diagonal_fast_path_is_exact():
    root = spd_sqrt(SymMatrix.diagonal([4.0, 9.0, 0.25]))
    assert np.array_equal(root.mat, np.diag([2.0, 3.0, 0.5]))


def test_spd_sqrt_rejects_indefinite_with_witness():
    s = SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues -1, 3
    with pytest.raises(NotPositiveDefinite) as err:
        spd_sqrt(s)
    assert err.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


# --- determinants, minors, inverse -------------------------------------------


def test_minors_match_numpy_dets():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            s = random_sym(rng, n)
            minors = leading_principal_minors(s)
            ref = [np.linalg.det(s.mat[:k, :k]) for k in range(1, n + 1)]
            assert np.allclose(minors, ref, rtol=1e-10, atol=1e-10)


def test_det_and_inverse_against_numpy():
    rng = np.random.default_rng(14)
    for _ in range(40):
        a = rng.normal(size=(4, 4))
        assert max_abs(inverse(a) - np.linalg.inv(a)) < 1e-9 * max_abs(np.linalg.inv(a))


def test_inverse_raises_on_singular():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_minors_of_singular_leading_block():
    s = SymMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
    minors = leading_principal_minors(s)
    assert minors[0] == 0.0
    assert minors[1] == pytest.approx(-1.0)


# --- minors: bit identity with one numpy LU per leading block ------------------
#
# leading_principal_minors grows one LU on Python floats block by block.  The
# reference below is what the library did before: a fresh LU with partial
# pivoting on numpy arrays for every leading block.  The two must agree to the
# bit, signed zeros included.


def _reference_lu_det(a):
    a = np.array(a, dtype=float)
    n = a.shape[0]
    sign = 1.0
    for col in range(n - 1):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        mult = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col + 1 :] -= np.outer(mult, a[col, col + 1 :])
    return sign * float(np.prod(np.diagonal(a)))


def _reference_minors(m):
    with np.errstate(all="ignore"):  # products of 1e150 entries overflow
        return np.array([_reference_lu_det(m[:k, :k]) for k in range(1, m.shape[0] + 1)])


def _minor_cases(kind, n, rng):
    """Seeded symmetric matrices of one kind and size."""
    a = _sym(rng.normal(size=(n, n)))
    if kind == "plain":
        return a
    if kind == "bound_s":
        # S of a bound model, drawn the way the benchmark draws its models
        masses = rng.uniform(0.5, 2.0, n)
        g = masses * rng.uniform(0.5, 2.0, n) ** 2
        c = np.triu(rng.normal(0.0, rng.uniform(0.05, 0.35) / np.sqrt(n), (n, n)), 1)
        w = np.sqrt(np.outer(g, g)) * (np.eye(n) + c + c.T)
        return _sym(w / np.sqrt(np.outer(masses, masses)))
    if kind == "exact_zeros":
        # zero leading pivots and all-zero columns below them
        a[rng.random((n, n)) < 0.4] = 0.0
        a[0, 0] = 0.0
        if n > 2:
            a[2:, 1] = 0.0
        return _sym(a)
    if kind == "ones":
        return np.ones((n, n))
    if kind == "integers":
        # many pivot candidates of equal magnitude
        return _sym(rng.integers(-2, 3, size=(n, n)).astype(float))
    if kind == "graded":
        g = 10.0 ** np.linspace(-6, 6, n)
        return _sym(a * np.outer(g, g))
    if kind.startswith("scale"):
        return a * 10.0 ** float(kind[5:])
    raise ValueError(kind)


_MINOR_KINDS = ["plain", "bound_s", "exact_zeros", "ones", "integers", "graded",
                "scale-150", "scale150"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", _MINOR_KINDS)
def test_minors_bit_identical_to_one_numpy_lu_per_block(kind):
    rng = np.random.default_rng(sum(map(ord, kind)) + 1)
    for n in range(1, 17):
        for _ in range(4):
            m = _minor_cases(kind, n, rng)
            want = _reference_minors(m)
            got = leading_principal_minors(SymMatrix(m))
            assert np.array_equal(got, want, equal_nan=True), (kind, n)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (kind, n)


def test_minors_take_both_the_shared_and_the_restart_path(monkeypatch):
    # one elimination step over the last two rows extends the previous block;
    # a factorization from step 0 of a block of three or more is a restart
    steps = []
    original = linalg._lu_steps

    def recorded(a, start, stop, sign):
        steps.append((start, stop))
        return original(a, start, stop, sign)

    monkeypatch.setattr(linalg, "_lu_steps", recorded)
    rng = np.random.default_rng(18)
    for _ in range(10):
        m = _minor_cases("plain", 16, rng)
        assert np.array_equal(leading_principal_minors(SymMatrix(m)), _reference_minors(m))
    assert sum(1 for start, stop in steps if start >= 1) > 20
    assert sum(1 for start, stop in steps if start == 0 and stop >= 2) > 10


# --- properties ---------------------------------------------------------------


@st.composite
def sym_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
    rows = draw(
        st.lists(st.lists(vals, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    a = np.array(rows)
    return SymMatrix((a + a.T) / 2.0)


@given(sym_matrices())
@settings(max_examples=60, deadline=None)
def test_eigenvalues_conserve_trace_and_det(s):
    eig = jacobi_eigh(s)
    assert np.sum(eig.values) == pytest.approx(np.trace(s.mat), rel=1e-9, abs=1e-9)
    assert np.prod(eig.values) == pytest.approx(
        np.linalg.det(s.mat), rel=1e-7, abs=1e-7 * (1 + max_abs(s.mat)) ** s.n
    )


@given(sym_matrices())
@settings(max_examples=60, deadline=None)
def test_sylvester_criterion_matches_eigenvalues(s):
    minors = leading_principal_minors(s)
    eig = np.linalg.eigvalsh(s.mat)
    # stay out of the rounding dead zone
    if min(abs(m) for m in minors) < 1e-7 or np.min(np.abs(eig)) < 1e-7:
        return
    assert (np.min(eig) > 0) == all(m > 0 for m in minors)
