"""Quantum energy levels of the decoupled modes.

Once the Hamiltonian splits into n independent oscillators with squared
frequencies lambda_i, the spectrum is
E(n_1..n_N) = hbar * sum_i sqrt(lambda_i) * (n_i + 1/2).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .diagonalize import ModeDecomposition
from .errors import UnboundSystem

__all__ = ["EnergyLevel", "ground_state_energy", "lowest_levels", "MAX_LEVELS"]

MAX_LEVELS = 100_000


@dataclass(frozen=True)
class EnergyLevel:
    occupations: tuple[int, ...]
    energy: float


def _mode_frequencies(dec: ModeDecomposition) -> np.ndarray:
    lam = np.asarray(dec.lambdas, dtype=float)
    for i, value in enumerate(lam):
        if value <= 0.0:
            raise UnboundSystem(i, float(value))
    return np.sqrt(lam)


def ground_state_energy(dec: ModeDecomposition, hbar: float = 1.0) -> float:
    """Zero-point energy (hbar/2) * sum_i sqrt(lambda_i), the lowest level."""
    return lowest_levels(dec, hbar, 1)[0].energy


def lowest_levels(dec: ModeDecomposition, hbar: float = 1.0,
                  k: int = 10) -> list[EnergyLevel]:
    """The k lowest energy eigenvalues with their occupation numbers.

    Levels come back sorted ascending; equal energies are ordered by
    lexicographic occupation tuple.  Enumeration walks the occupation
    lattice best-first from the ground state.  A level whose last
    non-zero occupation sits at index l (0 for the ground state) has one
    successor for each i >= l, with occupation i raised by one; this
    reaches each tuple exactly once and never needs a visited set.

    Each energy is hbar times the sum of the rounded terms
    f_i * (n_i + 1/2).  The walk keeps that sum exactly, as an integer
    count of 2**-shift (the finest step any term can have), updates it
    by one term per successor and rounds it once by integer division.
    Integer true division and ``math.fsum`` both round correctly, so the
    energies equal hbar * fsum(f_i * (n_i + 1/2)) bit for bit.

    Raises UnboundSystem if any squared frequency is non-positive, and
    ValueError for k outside [1, 100000].
    """
    if not 1 <= k <= MAX_LEVELS:
        raise ValueError(f"k must be in [1, {MAX_LEVELS}], got {k}")
    freqs = tuple(float(f) for f in _mode_frequencies(dec))
    n = len(freqs)
    hbar = float(hbar)

    # Every term f*(m + 1/2) >= f/2, so its last bit is no finer than that
    # of the smallest f/2 = x * 2**e (0.5 <= x < 1), which is 2**(e - 53);
    # with shift = 54 - e (a bit to spare) each term is an integer multiple
    # of 2**-shift.
    shift = max(0, 54 - min(math.frexp(f * 0.5)[1] for f in freqs))
    den = 1 << shift

    def term(f: float, m: int) -> int:
        num, d = (f * (m + 0.5)).as_integer_ratio()
        return num * (den // d)

    # steps[i][m] = term(i, m + 1) - term(i, m), extended as the walk climbs
    steps = [[term(f, 1) - term(f, 0)] for f in freqs]
    ground_sum = sum(term(f, 0) for f in freqs)
    heap = [(hbar * (ground_sum / den), (0,) * n, ground_sum, 0)]
    out: list[EnergyLevel] = []
    push, pop = heapq.heappush, heapq.heappop
    while heap and len(out) < k:
        energy, occ, s, last = pop(heap)
        out.append(EnergyLevel(occupations=occ, energy=energy))
        for i in range(last, n):
            m = occ[i]
            step = steps[i]
            if m == len(step):
                f = freqs[i]
                step.append(term(f, m + 1) - term(f, m))
            child = s + step[m]
            push(heap, (hbar * (child / den), occ[:i] + (m + 1,) + occ[i + 1:],
                        child, i))
    return out
