"""Normal-mode decomposition of the quadratic Hamiltonian.

The point transformation x = C x', p = (C^T)^-1 p' with C = T^(1/2) U
turns H = (1/2) p^T T p + (1/2) x^T V x into n independent modes whose
squared frequencies are the eigenvalues of S = T^(1/2) V T^(1/2).  S is
symmetric and similar to A = T V, so both carry the same spectrum; only
S is handed to the eigensolver.

``analyse`` makes the one pass over a model: it builds T, V, T^(1/2), S
and the eigendecomposition of S once.  The modes (``modes``), their
mass-normalized variant (``mass_normalize``) and the bound-state verdict
(``boundstate.bound_state``) are views that read that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NotPositiveDefinite, ValidationError
from .linalg import EigDecomposition, SymMatrix, frozen, jacobi_eigh, max_abs, spd_sqrt
from .model import OscillatorModel, build_T, build_V

__all__ = [
    "Analysis",
    "ModeDecomposition",
    "MassNormalizedDecomposition",
    "analyse",
    "compute_A",
    "compute_S",
    "decompose",
    "decompose_mass_normalized",
    "mass_normalize",
    "modes",
]

# residual budgets, relative to the max entry of the matrix they test
_ORTH_TOL = 1e-9
_KINETIC_TOL = 1e-8
_POTENTIAL_TOL = 1e-8


def compute_A(t, v) -> np.ndarray:
    """Product T V.  Not symmetric in general, but similar to S."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    return t @ v


def _sandwich(r: np.ndarray, v: np.ndarray) -> SymMatrix:
    with np.errstate(all="ignore"):
        s = r @ v @ r
    if not np.isfinite(s).all():
        raise ValidationError([
            "S = T^(1/2) V T^(1/2) overflows: an entry is beyond the float range"
        ])
    skew = max_abs(s - s.T)
    if skew > 1e-12 * (1.0 + max_abs(s)):
        raise ConsistencyError(f"T^(1/2) V T^(1/2) skew {skew:.3e} above tolerance")
    return SymMatrix(s)


def compute_S(t, v) -> SymMatrix:
    """Symmetrized T^(1/2) V T^(1/2).

    The product is symmetric up to rounding; skew beyond 1e-12 relative
    to the largest entry means the inputs were inconsistent and raises
    ConsistencyError instead of being averaged away.  A product that
    overflows the float range raises ValidationError.
    """
    return _sandwich(spd_sqrt(t).mat, np.asarray(v, dtype=float))


@dataclass(frozen=True)
class Analysis:
    """One pass over a model: T, V, root = T^(1/2), S and the eigenpairs of S."""

    model: OscillatorModel
    t: SymMatrix
    v: SymMatrix
    root: np.ndarray
    s: SymMatrix
    eig: EigDecomposition


def analyse(model: OscillatorModel) -> Analysis:
    """Compute each matrix of an Analysis of a (valid) model once.

    Raises NotPositiveDefinite naming the kinetic matrix when T is not
    positive definite, and ValidationError when S overflows or when
    max|S|^n does, since the dead zone of the n-th leading minor
    (boundstate) cannot be represented then.
    """
    t, v = build_T(model), build_V(model)
    try:
        root = spd_sqrt(t).mat
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(exc.min_eigenvalue, "kinetic matrix T") from None
    s = _sandwich(root, v.mat)
    smax = max_abs(s.mat)
    try:
        smax**model.n
    except OverflowError:
        raise ValidationError([
            f"max|S| = {smax:.3e} is too large for the minor margin "
            f"(max|S|^{model.n} overflows)"
        ]) from None
    return Analysis(model, t, v, root, s, jacobi_eigh(s))


@dataclass(frozen=True)
class ModeDecomposition:
    """Normal modes of one model.

    Attributes
    ----------
    lambdas : ndarray
        Squared mode frequencies, ascending.
    u : ndarray
        Orthogonal eigenvector matrix of S (columns follow lambdas).
    c : ndarray
        Transformation matrix T^(1/2) U.
    residual_orth, residual_kinetic, residual_potential : float
        Max-norm residuals of U^T U - I, of C C^T - T relative to max|T|,
        and of the off-diagonal part of C^T V C, computed eagerly at
        construction.  C C^T = T is the kinetic identity C^-1 T C^-T = I
        without an inverse, and relative to max|T| it does not depend on
        the mass unit.
    """

    lambdas: np.ndarray
    u: np.ndarray
    c: np.ndarray
    residual_orth: float
    residual_kinetic: float
    residual_potential: float


@dataclass(frozen=True)
class MassNormalizedDecomposition:
    """Mass-normalized variant: C^-1 T C^-T = (1/m_ref) I, C^T V C = diag(k)."""

    m_ref: float
    k: np.ndarray
    c: np.ndarray
    lambdas: np.ndarray


def modes(an: Analysis) -> ModeDecomposition:
    """The normal modes of an analysis, after the eager residual checks.

    Raises ConsistencyError if any transformation residual exceeds its
    budget; results would be silently wrong physics otherwise.
    """
    n = an.model.n
    eig = an.eig
    c = an.root @ eig.vectors

    residual_orth = max_abs(eig.vectors.T @ eig.vectors - np.eye(n))
    # C C^T - T, with C scaled by sqrt(max|T|) so that no product overflows
    t_max = max_abs(an.t.mat)
    c_unit = c / math.sqrt(t_max)
    residual_kinetic = max_abs(c_unit @ c_unit.T - an.t.mat / t_max)
    cvc = c.T @ an.v.mat @ c
    residual_potential = max_abs(cvc - np.diag(np.diagonal(cvc)))

    checks = [
        (residual_orth, _ORTH_TOL, "orthogonality"),
        (residual_kinetic, _KINETIC_TOL, "kinetic"),
        (residual_potential, _POTENTIAL_TOL * (1.0 + max_abs(an.v.mat)), "potential"),
    ]
    for value, bound, name in checks:
        if value > bound:
            raise ConsistencyError(f"{name} residual {value:.3e} exceeds {bound:.3e}")
    lam = eig.values
    for i in range(n):
        if abs(cvc[i, i] - lam[i]) > 1e-8 * (1.0 + abs(lam[i])):
            raise ConsistencyError(
                f"diag(C^T V C)[{i}] = {cvc[i, i]:.12e} disagrees with "
                f"eigenvalue {lam[i]:.12e}"
            )
    return ModeDecomposition(
        lambdas=frozen(lam),
        u=frozen(eig.vectors),
        c=frozen(c),
        residual_orth=residual_orth,
        residual_kinetic=residual_kinetic,
        residual_potential=residual_potential,
    )


def mass_normalize(an: Analysis, dec: ModeDecomposition,
                   m_ref: float | None = None) -> MassNormalizedDecomposition:
    """The modes of an analysis scaled to a reference mass.

    C = sqrt(m_ref) T^(1/2) U is dimensionless; the diagonal stiffness
    k_i = m_ref * lambda_i depends on the (arbitrary) m_ref, while
    lambdas = k / m_ref does not.  The default m_ref is the geometric
    mean of the masses, so identical masses give C = U exactly up to
    rounding.  The kinetic identity is the one ``modes`` checked,
    scaled by m_ref, so it is not checked again.
    """
    if m_ref is None:
        m_ref = float(np.exp(np.mean(np.log(an.model.masses))))
    m_ref = float(m_ref)
    if not math.isfinite(m_ref):
        raise ValueError(f"m_ref must be finite, got {m_ref}")
    if m_ref <= 0.0:
        raise ValueError(f"m_ref must be > 0, got {m_ref}")
    c = np.sqrt(m_ref) * dec.c
    k = np.diagonal(c.T @ an.v.mat @ c)
    return MassNormalizedDecomposition(m_ref=m_ref, k=frozen(k), c=frozen(c),
                                       lambdas=frozen(k / m_ref))


def decompose(model: OscillatorModel) -> ModeDecomposition:
    """Full normal-mode decomposition with eager residual checks.

    Raises
    ------
    NotPositiveDefinite
        If the kinetic matrix is not positive definite.
    ConsistencyError
        If any transformation residual exceeds its budget.
    """
    return modes(analyse(model))


def decompose_mass_normalized(model: OscillatorModel,
                              m_ref: float | None = None) -> MassNormalizedDecomposition:
    """``decompose`` scaled to a reference mass; see ``mass_normalize``."""
    an = analyse(model)
    return mass_normalize(an, modes(an), m_ref)
