"""Quantum energy levels from the mode frequencies."""

import heapq
import itertools
import math

import numpy as np
import pytest

from cho import (
    OscillatorModel,
    UnboundSystem,
    decompose,
    ground_state_energy,
    lowest_levels,
)
from cho.diagonalize import ModeDecomposition
from cho.spectrum import MAX_LEVELS

from conftest import random_bound_model


def test_identical_triple_ground_state():
    dec = decompose(OscillatorModel.identical(3, d=1.0))
    # (1/2)(sqrt(1/2) + sqrt(1/2) + sqrt(2)) = sqrt(2)
    assert ground_state_energy(dec) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_identical_triple_ladder():
    dec = decompose(OscillatorModel.identical(3, d=1.0))
    levels = lowest_levels(dec, k=6)
    root2 = math.sqrt(2.0)
    expected = [root2, 1.5 * root2, 1.5 * root2, 2 * root2, 2 * root2, 2 * root2]
    assert [lv.energy for lv in levels] == pytest.approx(expected, rel=1e-12)
    assert levels[0].occupations == (0, 0, 0)
    # the doubled mode costs two quanta of the soft modes
    assert levels[3].occupations in {(0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)}


def test_levels_sorted_and_unique():
    rng = np.random.default_rng(50)
    for _ in range(20):
        dec = decompose(random_bound_model(rng, int(rng.integers(1, 5))))
        levels = lowest_levels(dec, k=40)
        energies = [lv.energy for lv in levels]
        assert energies == sorted(energies)
        occs = [lv.occupations for lv in levels]
        assert len(set(occs)) == len(occs)


def test_degenerate_ties_resolve_lexicographically():
    m = OscillatorModel.from_frequencies([1.0, 1.0], [1.0, 1.0])
    levels = lowest_levels(decompose(m), k=4)
    assert [lv.occupations for lv in levels] == [(0, 0), (0, 1), (1, 0), (0, 2)]
    assert [lv.energy for lv in levels] == pytest.approx([1.0, 2.0, 2.0, 3.0])


def test_single_mode_is_arithmetic_ladder():
    m = OscillatorModel.from_frequencies([2.0], [3.0])
    levels = lowest_levels(decompose(m), k=5)
    assert [lv.energy for lv in levels] == pytest.approx(
        [3.0 * (n + 0.5) for n in range(5)], rel=1e-12
    )


def test_energy_scales_with_hbar():
    m = OscillatorModel.identical(2, d=0.5)
    dec = decompose(m)
    assert ground_state_energy(dec, hbar=3.0) == pytest.approx(
        3.0 * ground_state_energy(dec), rel=1e-14
    )


def test_exhaustive_enumeration_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        dec = decompose(random_bound_model(rng, n))
        k = 60
        levels = lowest_levels(dec, k=k)
        freqs = np.sqrt(dec.lambdas)
        e_max = levels[-1].energy
        caps = [int((e_max - 0.5 * freqs.sum()) / f) + 1 for f in freqs]
        grid = sorted(
            0.5 * freqs.sum() + float(np.dot(freqs, occ))
            for occ in itertools.product(*(range(c + 1) for c in caps))
        )
        assert [lv.energy for lv in levels] == pytest.approx(grid[:k], rel=1e-12)


def test_unbound_system_raises_with_witness():
    dec = decompose(OscillatorModel.identical(3, d=3.0))
    with pytest.raises(UnboundSystem) as err:
        ground_state_energy(dec)
    assert err.value.value < 0
    assert err.value.index == 0
    with pytest.raises(UnboundSystem):
        lowest_levels(dec, k=3)


def test_level_count_validated():
    dec = decompose(OscillatorModel.identical(2, d=0.5))
    with pytest.raises(ValueError):
        lowest_levels(dec, k=0)
    with pytest.raises(ValueError):
        lowest_levels(dec, k=10**9)


# --- bit-identity of the lattice walk -------------------------------------------


def reference_lowest_levels(lambdas, hbar, k):
    """The walk as first written: an n-term fsum per level and an O(n) scan
    of the trailing occupations per successor.  Returns (occupations,
    energy) pairs."""
    freqs = tuple(float(f) for f in np.sqrt(np.asarray(lambdas, dtype=float)))
    n = len(freqs)

    def energy(occ):
        return hbar * math.fsum(f * (m + 0.5) for f, m in zip(freqs, occ))

    ground = (0,) * n
    heap = [(energy(ground), ground)]
    out = []
    while heap and len(out) < k:
        e, occ = heapq.heappop(heap)
        out.append((occ, e))
        for i in range(n):
            if all(occ[j] == 0 for j in range(i + 1, n)):
                succ = occ[:i] + (occ[i] + 1,) + occ[i + 1:]
                heapq.heappush(heap, (energy(succ), succ))
    return out


def modes_with(lambdas) -> ModeDecomposition:
    n = len(lambdas)
    eye = np.eye(n)
    return ModeDecomposition(np.asarray(lambdas, dtype=float), eye, eye, 0.0, 0.0, 0.0)


def frequency_sets(n: int):
    """Squared frequencies of one size: spread, exact ties, near ties, wide spans."""
    rng = np.random.default_rng(70 + n)
    j = np.arange(1, n + 1, dtype=float)
    return {
        "geomspace-jitter": (np.geomspace(0.4, 2.5, n) * (1 + 0.01 * rng.random(n))) ** 2,
        "all-equal": np.full(n, 1.7),
        "integer-ratio": j**2,
        "tenths": (0.1 * j) ** 2,
        "span-1e-150..1e153": np.geomspace(1e-150, 1e153, n) ** 2,
    }


@pytest.mark.parametrize("n", range(1, 17))
def test_walk_matches_reference_bit_for_bit(n):
    k = 300 if n <= 8 else 150
    for name, lambdas in frequency_sets(n).items():
        dec = modes_with(lambdas)
        for hbar in (1e-34, 0.5, 1.0, 2.0, 1e300):
            got = [(lv.occupations, lv.energy) for lv in lowest_levels(dec, hbar, k)]
            assert got == reference_lowest_levels(lambdas, hbar, k), (name, hbar)


def test_walk_matches_reference_at_max_levels():
    lambdas = np.geomspace(0.6, 1.8, 3) ** 2
    got = lowest_levels(modes_with(lambdas), 1.0, MAX_LEVELS)
    want = reference_lowest_levels(lambdas, 1.0, MAX_LEVELS)
    assert [(lv.occupations, lv.energy) for lv in got] == want


@pytest.mark.filterwarnings("error")
def test_ground_state_energy_is_the_zero_point_sum():
    # the lowest level of the walk is hbar * fsum(f_i / 2), correctly rounded
    rng = np.random.default_rng(77)
    for _ in range(400):
        n = int(rng.integers(1, 17))
        lambdas = 10.0 ** rng.uniform(-300, 300, n)
        hbar = float(10.0 ** rng.uniform(-40, 40))
        want = hbar * math.fsum(float(f) * 0.5 for f in np.sqrt(lambdas))
        assert ground_state_energy(modes_with(lambdas), hbar) == want
