"""Dense linear algebra for small real matrices.

Everything here works on plain float64 arrays of modest size (n <= 16).
The eigensolver is a cyclic Jacobi iteration and determinants go through
LU with partial pivoting.  numpy.linalg is deliberately not used so that
the test suite can hold these routines against it as an independent
reference.

The Jacobi rotations and the LU eliminations run on nested lists of
Python floats rather than on the array: at n <= 16 indexing numpy scalars
costs far more than the arithmetic.  Python floats and float64 scalars
perform the same correctly rounded IEEE operations, so the results are the
same to the bit as those of the same loops on the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    NonConvergence,
    NotPositiveDefinite,
    SingularMatrix,
)

__all__ = [
    "MAX_DIM",
    "SymMatrix",
    "EigDecomposition",
    "jacobi_eigh",
    "spd_sqrt",
    "leading_principal_minors",
    "inverse",
    "max_abs",
]

MAX_DIM = 16

# relative spread below which two sorted eigenvalues count as degenerate
_TIE_RTOL = 1e-12
# Jacobi stops when off-diagonal Frobenius norm <= this * (1 + diagonal norm)
_JACOBI_TOL = 1e-12


def max_abs(a) -> float:
    """Largest absolute entry of an array (max norm)."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


class SymMatrix:
    """Real symmetric matrix with exact entrywise symmetry.

    The constructor mirrors the lower triangle, so ``mat[i, j] == mat[j, i]``
    holds bit for bit.  Input that is skewed beyond ``skew_tol`` relative to
    its largest entry is rejected rather than silently averaged.
    """

    __slots__ = ("mat",)

    def __init__(self, entries, skew_tol: float = 1e-12):
        a = _as_square(entries)
        n = a.shape[0]
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
        skew = max_abs(a - a.T)
        if skew > skew_tol * (1.0 + max_abs(a)):
            raise ValueError(f"matrix is not symmetric (max skew {skew:.3e})")
        m = np.tril(a) + np.tril(a, -1).T
        m.setflags(write=False)
        self.mat = m

    @classmethod
    def diagonal(cls, d) -> "SymMatrix":
        d = np.asarray(d, dtype=float)
        return cls(np.diag(d))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype)

    def __repr__(self) -> str:
        return f"SymMatrix({self.mat.tolist()!r})"


def _as_sym(s) -> SymMatrix:
    return s if isinstance(s, SymMatrix) else SymMatrix(s)


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _tie_sorted_order(values: list) -> list:
    """Ascending order; near-degenerate runs keep original column order."""
    order = sorted(range(len(values)), key=values.__getitem__)
    out = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order):
            a = values[order[j]]
            b = values[order[j + 1]]
            if abs(b - a) <= _TIE_RTOL * (1.0 + abs(a)):
                j += 1
            else:
                break
        out.extend(sorted(order[i:j + 1]))
        i = j + 1
    return out


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Negate each column whose largest-magnitude entry is negative."""
    lead = np.abs(vectors).argmax(axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    return np.negative(vectors, out=vectors, where=flip)


def jacobi_eigh(s, max_sweeps: int = 50) -> EigDecomposition:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    s : SymMatrix or array_like
        Matrix to diagonalize.  Arrays are symmetry-checked first.
    max_sweeps : int
        Upper bound on full row-cyclic sweeps.

    Returns
    -------
    EigDecomposition
        Eigenvalues sorted ascending.  Degenerate values (relative spread
        below 1e-12) keep the order of their pre-sort columns, and each
        eigenvector has its largest-magnitude entry non-negative.

    Raises
    ------
    NonConvergence
        If the off-diagonal norm is still above threshold after
        ``max_sweeps`` sweeps.

    Notes
    -----
    The rotations work on nested lists of Python floats, which is several
    times faster than indexing the array entry by entry.  Each operation
    is the same correctly rounded IEEE operation on the same operands in
    the same order, so values and vectors are bit-identical to running
    the loop on the array.  The stop test takes both norms of the same
    lists with ``math.hypot``, which scales instead of squaring, so no
    entry in the float range makes it overflow.  Every division has a
    divisor that is nonzero or at least 1, and no power operator is used,
    so Python's float arithmetic never raises where numpy's would return
    inf or nan.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    a = _as_sym(s).mat.tolist()
    n = len(a)
    v = np.eye(n).tolist()

    def offdiag():
        return math.sqrt(2.0) * math.hypot(*[x for i, row in enumerate(a) for x in row[:i]])

    sweeps = 0
    while offdiag() > _JACOBI_TOL * (1.0 + math.hypot(*[a[i][i] for i in range(n)])):
        if sweeps >= max_sweeps:
            raise NonConvergence(sweeps, offdiag())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                app, aqq = a[p][p], a[q][q]
                if abs(apq) < 1e-20 * (abs(app) + abs(aqq)):
                    a[p][q] = a[q][p] = 0.0
                    continue
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sn = t * c
                # Rotate columns p and q in place, overwrite the four entries
                # where they cross, then copy the columns into rows p and q.
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - sn * y
                    row[q] = c * y + sn * x
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                a[p] = [row[p] for row in a]
                a[q] = [row[q] for row in a]
                for row in v:
                    x, y = row[p], row[q]
                    row[p] = c * x - sn * y
                    row[q] = c * y + sn * x
        sweeps += 1

    diag = [a[i][i] for i in range(n)]
    order = _tie_sorted_order(diag)
    values = np.array([diag[i] for i in order])
    vectors = _fix_signs(np.array(v)[:, order])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigDecomposition(values=values, vectors=vectors)


def spd_sqrt(s) -> SymMatrix:
    """Symmetric positive definite square root.

    Diagonal input takes the entrywise square root exactly; anything else
    goes through the Jacobi eigendecomposition.  Raises
    NotPositiveDefinite (carrying the smallest eigenvalue) otherwise.
    """
    s = _as_sym(s)
    a = s.mat
    if np.count_nonzero(a - np.diag(np.diagonal(a))) == 0:
        d = np.diagonal(a)
        lo = float(np.min(d))
        if lo <= 0.0:
            raise NotPositiveDefinite(lo)
        return SymMatrix(np.diag(np.sqrt(d)))
    eig = jacobi_eigh(s)
    lo = float(eig.values[0])
    if lo <= 0.0:
        raise NotPositiveDefinite(lo)
    r = (eig.vectors * np.sqrt(eig.values)) @ eig.vectors.T
    root = SymMatrix(r)
    if max_abs(root.mat @ root.mat - a) > 1e-10 * (1.0 + max_abs(a)):
        raise ConsistencyError("square root residual above tolerance")
    return root


def _lu_steps(a: list, start: int, stop: int, sign: float) -> tuple[float, int | None]:
    """Elimination steps ``start..stop-1`` of an LU with partial pivoting.

    ``a`` is a list of rows (lists of Python floats), reduced in place over
    their full width.  The pivot of a step is the first row of largest
    magnitude, a nan counting as largest, as ``np.argmax`` picks it.
    Returns the determinant sign and the step whose column is all zero
    (the factorization stops there), or None.
    """
    for col in range(start, stop):
        piv = col
        best = abs(a[col][col])
        if best == best:
            for i in range(col + 1, len(a)):
                x = abs(a[i][col])
                if not x <= best:
                    piv, best = i, x
                    if x != x:
                        break
        p = a[piv]
        d = p[col]
        if d == 0.0:
            return sign, col
        if piv != col:
            a[piv] = a[col]
            a[col] = p
            sign = -sign
        tail = p[col + 1:]
        for r in a[col + 1:]:
            m = r[col] / d
            r[col + 1:] = [x - m * y for x, y in zip(r[col + 1:], tail)]
    return sign, None


def leading_principal_minors(s) -> np.ndarray:
    """Determinants of the top-left k-by-k blocks for k = 1..n.

    One LU factorization with partial pivoting grows block by block on
    Python floats.  Block k+1 keeps block k's reduced rows and pivot
    order, reduces only its new row through the earlier steps and adds
    one step; if the new row would win the pivot of an earlier step, the
    block is factorized again from its rows of ``s``.  Every minor is thus
    the product of the pivots a separate LU of its own block would have,
    computed by the same operations in the same order.  A block whose
    factorization meets an all-zero column has minor 0.0; the k = 1 minor
    is the (0, 0) entry exactly.
    """
    src = _as_sym(s).mat.tolist()
    n = len(src)
    a: list = []
    sign = 1.0
    zero = None  # step at which the current factorization stopped
    minors = []
    for k in range(n):
        new = src[k][:]
        steps = len(a) - 1 if zero is None else zero + 1
        for col in range(steps):
            p = a[col]
            d = p[col]
            if not abs(new[col]) <= abs(d) and d == d:
                # the new row takes this step's pivot: factorize anew
                a = [row[:] for row in src[:k + 1]]
                sign, zero = _lu_steps(a, 0, k, 1.0)
                break
            if col == zero:
                a.append(new)
                break
            m = new[col] / d
            new[col + 1:] = [x - m * y for x, y in zip(new[col + 1:], p[col + 1:])]
        else:
            a.append(new)
            if k:
                sign, zero = _lu_steps(a, k - 1, k, sign)
        minors.append(0.0 if zero is not None
                      else sign * math.prod([a[i][i] for i in range(k + 1)]))
    return np.array(minors)


def frozen(a) -> np.ndarray:
    """Read-only float copy of an array."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def inverse(a) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Raises SingularMatrix when |det| <= 1e-14 * (1 + max|a|^n).  Nothing
    in the package calls it since the kinetic residual became C C^T - T;
    the benchmark's tracer (perfbench/tracer.py) still wraps it by name.
    """
    a = _as_square(a)
    n = a.shape[0]
    rows = a.tolist()
    sign, zero = _lu_steps(rows, 0, n - 1, 1.0)
    d = 0.0 if zero is not None else sign * math.prod([rows[i][i] for i in range(n)])
    if abs(d) <= 1e-14 * (1.0 + max_abs(a) ** n):
        raise SingularMatrix(f"matrix is numerically singular (det {d:.3e})")
    aug = np.hstack([np.array(a), np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]
