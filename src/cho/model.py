"""System description: masses, on-site stiffness and pair couplings.

The Hamiltonian is H = (1/2) p^T T p + (1/2) x^T V x with T = diag(1/m_i)
unless a full kinetic matrix is supplied.  V carries the on-site stiffness
k_i = m_i w_i^2 on the diagonal and half of each coupling constant D_ij
off the diagonal, so that x^T V x reproduces sum_ij D_ij x_i x_j once over
each unordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .linalg import MAX_DIM, SymMatrix, frozen

__all__ = ["OscillatorModel", "build_T", "build_V", "validate"]


@dataclass(frozen=True)
class OscillatorModel:
    """Immutable description of n coupled oscillators.

    Parameters
    ----------
    masses : array_like of float
        Particle masses, one per oscillator.
    stiffness_diag : array_like of float
        Diagonal of V; equals m_i * w_i**2 in the frequency picture.
    couplings : mapping (i, j) -> D_ij, optional
        Zero-based index pairs with i < j.  Missing pairs are uncoupled.
    hbar : float
        Action scale used by the energy spectrum.
    kinetic_override : SymMatrix, optional
        Full kinetic matrix T; replaces diag(1/m_i) when given.  Positive
        definiteness is checked at decomposition time, not here.

    Construction runs ``validate`` and raises ValidationError listing
    every violation, so a model that exists is valid and nothing
    downstream checks it again.
    """

    masses: np.ndarray
    stiffness_diag: np.ndarray
    couplings: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    hbar: float = 1.0
    kinetic_override: SymMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "masses", frozen(np.atleast_1d(self.masses)))
        object.__setattr__(
            self, "stiffness_diag", frozen(np.atleast_1d(self.stiffness_diag))
        )
        pairs = {}
        for key, value in dict(self.couplings).items():
            i, j = (int(key[0]), int(key[1]))
            if i > j:
                i, j = j, i
            pairs[(i, j)] = float(value)
        object.__setattr__(self, "couplings", MappingProxyType(pairs))
        object.__setattr__(self, "hbar", float(self.hbar))
        bad = validate(self)
        if bad:
            raise ValidationError(bad)

    @property
    def n(self) -> int:
        return self.masses.shape[0]

    @classmethod
    def from_frequencies(cls, masses, omegas, couplings=None, hbar: float = 1.0,
                         ) -> "OscillatorModel":
        """Build from angular frequencies: stiffness_diag = m_i * w_i**2."""
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if masses.shape != omegas.shape:
            raise ValueError("masses and omegas must have the same length")
        with np.errstate(all="ignore"):  # validate names an overflow
            stiffness = masses * omegas**2
        return cls(masses, stiffness, couplings or {}, hbar)

    @classmethod
    def two_coupled(cls, m1: float, m2: float, c1: float, c2: float, c3: float,
                    hbar: float = 1.0) -> "OscillatorModel":
        """Two oscillators with V = [[c1, c3/2], [c3/2, c2]]."""
        return cls([m1, m2], [c1, c2], {(0, 1): c3}, hbar)

    @classmethod
    def identical(cls, n: int, m: float = 1.0, omega: float = 1.0,
                  d: float = 0.0, hbar: float = 1.0) -> "OscillatorModel":
        """n identical oscillators, every pair coupled with the same D."""
        pairs = {(i, j): d for i in range(n) for j in range(i + 1, n)}
        return cls.from_frequencies([m] * n, [omega] * n, pairs, hbar)

    def with_coupling(self, i: int, j: int, value: float) -> "OscillatorModel":
        """Copy of the model with one pair coupling replaced."""
        if i > j:
            i, j = j, i
        pairs = dict(self.couplings)
        pairs[(i, j)] = value
        return replace(self, couplings=MappingProxyType(pairs))

    def omega_squared(self) -> np.ndarray:
        """Squared on-site frequencies stiffness_diag / masses."""
        return self.stiffness_diag / self.masses


def validate(model: OscillatorModel) -> list[str]:
    """Collect constraint violations; an empty list means the model is usable."""
    bad = []
    n = model.n
    if not 1 <= n <= MAX_DIM:
        bad.append(f"number of oscillators must be in [1, {MAX_DIM}], got {n}")
    for i, m in enumerate(model.masses.tolist()):
        if not np.isfinite(m) or m <= 0.0:
            bad.append(f"masses[{i}] must be > 0")
        elif model.kinetic_override is None and not np.isfinite(1.0 / m):
            bad.append(f"masses[{i}] = {m:.3g} is too small: 1/m overflows")
    if model.stiffness_diag.shape[0] != n:
        bad.append(
            f"stiffness_diag has length {model.stiffness_diag.shape[0]}, expected {n}"
        )
    elif not np.all(np.isfinite(model.stiffness_diag)):
        bad.append("stiffness_diag entries must be finite")
    for (i, j), value in model.couplings.items():
        if i == j:
            bad.append(f"coupling ({i}, {j}): self-coupling forbidden")
        elif not 0 <= i < j < n:
            bad.append(f"coupling ({i}, {j}) out of range for n={n}")
        if not np.isfinite(value):
            bad.append(f"coupling ({i}, {j}) must be finite")
    if not np.isfinite(model.hbar) or model.hbar <= 0.0:
        bad.append("hbar must be > 0")
    if model.kinetic_override is not None:
        if not isinstance(model.kinetic_override, SymMatrix):
            bad.append("kinetic_override must be a SymMatrix")
        elif model.kinetic_override.n != n:
            bad.append(
                f"kinetic_override is {model.kinetic_override.n}x"
                f"{model.kinetic_override.n}, expected {n}x{n}"
            )
    return bad


def build_T(model: OscillatorModel) -> SymMatrix:
    """Kinetic matrix: diag(1 / m_i), or the override verbatim."""
    if model.kinetic_override is not None:
        return model.kinetic_override
    return SymMatrix.diagonal(1.0 / model.masses)


def build_V(model: OscillatorModel) -> SymMatrix:
    """Potential matrix: stiffness on the diagonal, D_ij / 2 off it."""
    v = np.diag(model.stiffness_diag.astype(float))
    for (i, j), d in model.couplings.items():
        v[i, j] = v[j, i] = 0.5 * d
    return SymMatrix(v)
