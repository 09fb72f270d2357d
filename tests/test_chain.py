import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from xxqst import (
    CouplingProfile,
    boundary_profile,
    dense_hamiltonian,
    perfect_profile,
)
from xxqst.chain import sector_blocks
from xxqst.oracle import evolve_columns

import reference


def test_perfect_profile_values():
    assert perfect_profile(5).couplings == pytest.approx(
        (2.0, math.sqrt(6), math.sqrt(6), 2.0)
    )
    assert perfect_profile(2).couplings == (1.0,)
    assert perfect_profile(8).couplings == pytest.approx(
        tuple(math.sqrt(i * (8 - i)) for i in range(1, 8))
    )


@pytest.mark.parametrize("n", range(2, 12))
def test_perfect_profile_centrosymmetric(n):
    assert perfect_profile(n).is_centrosymmetric()


def test_boundary_profile_values():
    assert boundary_profile(5, 0.815).couplings == (0.815, 1.0, 1.0, 0.815)
    assert boundary_profile(4, 1.0).couplings == (1.0, 1.0, 1.0)
    assert boundary_profile(6, 0.5).couplings == (0.5, 1.0, 1.0, 1.0, 0.5)
    assert boundary_profile(6, 0.5).is_centrosymmetric()


def test_profile_validation():
    with pytest.raises(ValueError):
        perfect_profile(1)
    with pytest.raises(ValueError):
        boundary_profile(3, 0.8)
    with pytest.raises(ValueError):
        boundary_profile(5, 0.0)
    with pytest.raises(ValueError):
        boundary_profile(5, -0.2)
    with pytest.raises(ValueError):
        CouplingProfile(4, (1.0, 2.0))
    with pytest.raises(ValueError):
        CouplingProfile(3, (1.0, math.inf))
    with pytest.raises(ValueError):
        CouplingProfile(3, (math.nan, 1.0))


def test_profile_reversal_and_json():
    profile = CouplingProfile(4, (1.0, 2.0, 3.0), label="ramp")
    assert not profile.is_centrosymmetric()
    assert profile.reversed().couplings == (3.0, 2.0, 1.0)
    restored = CouplingProfile.from_json(profile.to_json())
    assert restored == profile


def test_profile_rates_are_twice_the_couplings_read_only():
    assert perfect_profile(2).rates.tolist() == [2.0]
    assert perfect_profile(5).rates == pytest.approx(
        (4.0, 2 * math.sqrt(6), 2 * math.sqrt(6), 4.0)
    )
    assert boundary_profile(5, 0.815).rates == pytest.approx((1.63, 2.0, 2.0, 1.63))
    profile = CouplingProfile(5, (0.3, 1.1, 0.7, 2.0))
    # bit for bit the doubles 2.0 * c, one per bond
    assert profile.rates.dtype == float
    assert profile.rates.tolist() == [2.0 * c for c in profile.couplings]
    with pytest.raises(ValueError):
        profile.rates[0] = 1.0
    assert profile.rates.tolist() == [2.0 * c for c in profile.couplings]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_generator_rejects_non_finite_rates(bad):
    from xxqst import Propagator

    with pytest.raises(ValueError, match="finite"):
        Propagator([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Propagator([1.0, 2.0, bad])


def test_generator_matrix_antisymmetric():
    m = reference.staggered_generator(CouplingProfile(5, (0.3, 1.1, 0.7, 2.0)).rates)
    assert np.array_equal(m, -m.T)
    # off-tridiagonal entries vanish
    assert np.count_nonzero(m) == 2 * (5 - 1)


def test_generator_eigenvalues_imaginary_pairs(rng):
    couplings = tuple(rng.random(6) + 0.2)
    eigs = np.linalg.eigvals(reference.staggered_generator(CouplingProfile(7, couplings).rates))
    assert np.max(np.abs(eigs.real)) < 1e-10
    imag = np.sort(eigs.imag)
    assert np.allclose(imag, -imag[::-1], atol=1e-10)


@pytest.mark.parametrize("n", range(2, 33))
def test_perfect_spectrum_is_equally_spaced_ladder(n):
    # eigenvalues of i * generator: 2(n+1-2k) for k = 1..n, gap 4
    from xxqst import Propagator

    prop = Propagator(perfect_profile(n).rates)
    expected = np.array(sorted(2.0 * (n + 1 - 2 * k) for k in range(1, n + 1)))
    assert np.max(np.abs(np.sort(prop.eigenvalues) - expected)) < 1e-10


def test_action_flips_antialigned_pair():
    h = dense_hamiltonian(perfect_profile(2))
    out = h @ np.array([0, 1, 0, 0], dtype=complex)  # |01>
    assert np.allclose(out, [0, 0, 2, 0])            # 2 |10>
    assert np.allclose(h @ np.array([1, 0, 0, 0], dtype=complex), 0)


def test_action_three_site_example():
    h = dense_hamiltonian(perfect_profile(3))
    state = np.zeros(8, dtype=complex)
    state[0b010] = 1.0
    out = h @ state
    expected = np.zeros(8, dtype=complex)
    expected[0b100] = 2 * math.sqrt(2)
    expected[0b001] = 2 * math.sqrt(2)
    assert np.allclose(out, expected)


def test_action_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="expected 8 rows for 3 sites"):
        evolve_columns(np.zeros(4), perfect_profile(3), 0.1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_action_conserves_magnetization(n):
    h = dense_hamiltonian(perfect_profile(n))
    ones = np.array([bin(i).count("1") for i in range(2**n)])
    # no entry couples basis states with different excitation numbers
    assert not np.any(h[ones[:, None] != ones[None, :]])
    assert np.any(h)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_dense_hamiltonian_matches_reference(n, rng):
    couplings = tuple(rng.random(n - 1) + 0.3)
    ours = dense_hamiltonian(CouplingProfile(n, couplings))
    theirs = reference.chain_hamiltonian(couplings)
    assert np.max(np.abs(ours - theirs)) < 1e-12
    assert np.max(np.abs(ours - ours.conj().T)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
def test_sector_blocks_partition_by_excitations(n):
    seen = []
    for k, (idx, block) in enumerate(sector_blocks(perfect_profile(n))):
        assert all(bin(int(i)).count("1") == k for i in idx)
        assert block.shape == (len(idx), len(idx))
        assert np.array_equal(block, block.T)
        seen.extend(idx.tolist())
    assert k == n
    assert sorted(seen) == list(range(2**n))


def test_dense_agrees_with_action(rng):
    # the sector-block evolution against the exponential of the dense H
    profile = CouplingProfile(5, tuple(rng.random(4) + 0.5))
    t = 0.7
    propagator = expm(-1j * t * dense_hamiltonian(profile))
    psi = reference.random_pure(rng, 5)
    assert np.max(np.abs(propagator @ psi - evolve_columns(psi, profile, t))) < 1e-12
    assert np.max(np.abs(propagator - evolve_columns(np.eye(32), profile, t))) < 1e-12
