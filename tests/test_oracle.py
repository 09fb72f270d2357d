import math

import numpy as np
import pytest

from xxqst import (
    CouplingProfile,
    DensityMatrix,
    PauliString,
    ResourceLimitError,
    StateVector,
    ZeroProbabilityError,
    build_generator,
    conjugate_operator,
    evolve,
    extract_string_coefficients,
    fidelity,
    measure_site,
    oracle_cap,
    perfect_profile,
    project_site,
    propagate,
    reduced_state,
    string_basis,
    thermal_medium,
)
from xxqst.oracle import DENSE_SITE_LIMIT, check_size, evolve_columns

import reference


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

def test_state_vector_validation():
    StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1, 1, 0, 0], dtype=complex))  # unnormalized
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0], dtype=complex))


def test_state_vector_constructors():
    assert StateVector.from_bits("100").amplitudes[0b100] == 1.0
    assert StateVector.basis(2, 3).amplitudes[3] == 1.0
    normalized = StateVector.normalized(1, [3.0, 4.0])
    assert normalized.amplitudes == pytest.approx([0.6, 0.8])
    with pytest.raises(ValueError):
        StateVector.from_bits("102")
    with pytest.raises(ValueError):
        StateVector.basis(2, 4)


def test_density_matrix_validation(rng):
    DensityMatrix(1, np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(1, np.full((2, 2), bad))
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = complex(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(1, mat)


def test_density_matrix_helpers():
    mixed = DensityMatrix.maximally_mixed(2)
    assert mixed.purity() == pytest.approx(0.25)
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2)).density_matrix()
    assert plus.bloch_vector() == pytest.approx((1.0, 0.0, 0.0))
    assert plus.purity() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def test_pauli_string_single_site_products():
    x = PauliString(1, ("X",))
    y = PauliString(1, ("Y",))
    z = PauliString(1, ("Z",))
    assert (x * y).letters == ("Z",) and (x * y).phase == 1j
    assert (y * x).phase == -1j
    assert (z * z).letters == ("I",) and (z * z).phase == 1
    assert str(x * y) == "+iZ"


def test_pauli_string_matrix_products(rng):
    letters = np.array(list("IXYZ"))
    for n in (1, 3, 5):
        for _ in range(8):
            a = PauliString(n, tuple(rng.choice(letters, n)))
            b = PauliString(n, tuple(rng.choice(letters, n)))
            product = (a * b).to_matrix()
            direct = a.to_matrix() @ b.to_matrix()
            assert np.max(np.abs(product - direct)) < 1e-12


def test_pauli_string_matrix_matches_reference(rng):
    for n in (2, 4, 6):
        word = tuple(np.random.default_rng(n).choice(list("IXYZ"), n))
        ours = PauliString(n, word).to_matrix()
        theirs = reference.string_operator(n, word)
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, ("X",))
    with pytest.raises(ValueError):
        PauliString(2, ("X", "Q"))
    with pytest.raises(ValueError):
        PauliString(1, ("X",), phase=0.5)
    assert PauliString(1, ("Y",), phase=-1j).dagger().phase == 1j
    assert PauliString.single(3, 2, "Y").weight() == 1


def test_string_basis_families():
    forward = string_basis(4, "site1")
    assert [s.letters for s in forward] == [
        ("X", "I", "I", "I"),
        ("Z", "Y", "I", "I"),
        ("Z", "Z", "X", "I"),
        ("Z", "Z", "Z", "Y"),
    ]
    mirrored = string_basis(4, "siteN")
    assert [s.letters for s in mirrored] == [
        ("I", "I", "I", "X"),
        ("I", "I", "Y", "Z"),
        ("I", "X", "Z", "Z"),
        ("Y", "Z", "Z", "Z"),
    ]
    with pytest.raises(ValueError):
        string_basis(3, "middle")
    with pytest.raises(ValueError):
        string_basis(0, "bogus")


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_reduces_to_identity_at_time_zero(rng):
    state = StateVector(3, reference.random_pure(rng, 3))
    out = evolve(state, perfect_profile(3), 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_evolve_two_site_swap():
    out = evolve(StateVector.from_bits("10"), perfect_profile(2), math.pi / 4)
    assert abs(out.amplitudes[0b01]) == pytest.approx(1.0, abs=1e-10)


def test_evolve_five_site_transfer():
    out = evolve(StateVector.from_bits("10000"), perfect_profile(5), math.pi / 4)
    assert abs(out.amplitudes[0b00001]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_matches_reference(rng):
    for n in (2, 3, 5):
        couplings = tuple(rng.random(n - 1) + 0.3)
        profile = CouplingProfile(n, couplings)
        psi = reference.random_pure(rng, n)
        t = float(rng.uniform(0, 2))
        ours = evolve(StateVector(n, psi), profile, t).amplitudes
        theirs = reference.evolution_operator(couplings, t) @ psi
        assert np.max(np.abs(ours - theirs)) < 1e-10


@pytest.mark.parametrize("n", range(2, 10))
def test_evolve_kernel_matches_reference(rng, n):
    # both state types go through the one sector-block kernel
    couplings = tuple(rng.random(n - 1) + 0.3)
    profile = CouplingProfile(n, couplings)
    t = float(rng.uniform(0, 2))
    u = reference.evolution_operator(couplings, t)
    psi = reference.random_pure(rng, n)
    rho = reference.random_mixed(rng, n)
    vector = evolve(StateVector(n, psi), profile, t).amplitudes
    matrix = evolve(DensityMatrix(n, rho), profile, t).matrix
    assert np.max(np.abs(vector - u @ psi)) < 1e-10
    assert np.max(np.abs(matrix - u @ rho @ u.conj().T)) < 1e-10


def test_evolve_unitary_and_reversible(rng):
    profile = CouplingProfile(4, tuple(rng.random(3) + 0.2))
    state = StateVector(4, reference.random_pure(rng, 4))
    t = 1.37
    there = evolve(state, profile, t)
    assert np.linalg.norm(there.amplitudes) == pytest.approx(1.0, abs=1e-12)
    back = evolve(there, profile, -t)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10


def test_evolve_conserves_magnetization(rng):
    n = 5
    profile = perfect_profile(n)
    psi = reference.random_pure(rng, n)
    total_z = sum(reference.site_operator(n, s, "Z") for s in range(1, n + 1))
    before = np.real(psi.conj() @ total_z @ psi)
    out = evolve(StateVector(n, psi), profile, 2.1).amplitudes
    after = np.real(out.conj() @ total_z @ out)
    assert after == pytest.approx(before, abs=1e-10)


def test_evolve_density_matrix_consistent_with_vectors(rng):
    profile = perfect_profile(3)
    psi = reference.random_pure(rng, 3)
    t = 0.77
    via_vector = evolve(StateVector(3, psi), profile, t)
    via_matrix = evolve(StateVector(3, psi).density_matrix(), profile, t)
    expected = np.outer(via_vector.amplitudes, via_vector.amplitudes.conj())
    assert np.max(np.abs(via_matrix.matrix - expected)) < 1e-12


def test_sector_cache_holds_one_chain():
    # peak memory is bounded by one chain at the size cap, not by a cache length
    from xxqst.oracle import _sector_eigh

    evolve(StateVector.basis(4, 3), perfect_profile(4), 0.5)
    evolve(StateVector.basis(5, 3), perfect_profile(5), 0.5)
    assert _sector_eigh.cache_info().currsize == 1


def test_thermal_medium_keeps_the_evolved_chain_cached():
    # the exact protocol builds its medium between evolutions of one chain
    from xxqst.oracle import _sector_eigh

    profile = perfect_profile(6)
    state = StateVector.basis(6, 5)
    evolve(state, profile, 0.5)
    thermal_medium(profile, 1.0)
    misses = _sector_eigh.cache_info().misses
    evolve(state, profile, 0.5)
    assert _sector_eigh.cache_info().misses == misses


def test_evolve_respects_cap(monkeypatch):
    monkeypatch.setenv("XXQST_ORACLE_CAP", "4")
    assert oracle_cap() == 4
    with pytest.raises(ResourceLimitError):
        evolve(StateVector.basis(5, 0), perfect_profile(5), 0.1)
    monkeypatch.setenv("XXQST_ORACLE_CAP", "bogus")
    with pytest.raises(ValueError):
        oracle_cap()


def test_size_rule_separates_dense_work(monkeypatch):
    monkeypatch.delenv("XXQST_ORACLE_CAP", raising=False)
    assert DENSE_SITE_LIMIT == 12
    check_size(13)
    check_size(DENSE_SITE_LIMIT, dense=True)
    with pytest.raises(ResourceLimitError, match="limited to 12"):
        check_size(13, dense=True)
    with pytest.raises(ResourceLimitError, match="cap"):
        check_size(15)


def test_size_rule_follows_a_lower_cap(monkeypatch):
    monkeypatch.setenv("XXQST_ORACLE_CAP", "4")
    check_size(4, dense=True)
    for dense in (False, True):
        with pytest.raises(ResourceLimitError, match="cap of 4"):
            check_size(5, dense=dense)
    with pytest.raises(ResourceLimitError):
        evolve(DensityMatrix.maximally_mixed(5), perfect_profile(5), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolution_rejects_non_finite_time(bad):
    profile = perfect_profile(3)
    with pytest.raises(ValueError, match="finite"):
        evolve_columns(np.eye(8), profile, bad)
    with pytest.raises(ValueError, match="finite"):
        evolve(DensityMatrix.maximally_mixed(3), profile, bad)
    with pytest.raises(ValueError, match="finite"):
        conjugate_operator(PauliString.single(3, 1, "X"), profile, bad)


def test_evolve_mismatched_profile():
    with pytest.raises(ValueError):
        evolve(StateVector.basis(3, 0), perfect_profile(4), 0.1)


# ---------------------------------------------------------------------------
# conjugation and string extraction
# ---------------------------------------------------------------------------

def test_conjugate_time_zero_is_identity_map():
    op = PauliString.single(3, 2, "Y")
    out = conjugate_operator(op, perfect_profile(3), 0.0)
    assert np.max(np.abs(out - op.to_matrix())) < 1e-12


def test_conjugate_end_z_lands_on_front_z():
    n = 5
    out = conjugate_operator(
        PauliString.single(n, n, "Z"), perfect_profile(n), math.pi / 4
    )
    assert np.max(np.abs(out - reference.site_operator(n, 1, "Z"))) < 1e-8


def test_conjugate_two_end_product_odd_chain():
    n = 5
    op = PauliString(n, ("X", "I", "I", "I", "X"))
    out = conjugate_operator(op, perfect_profile(n), math.pi / 4)
    target = reference.string_operator(n, ("Y", "I", "I", "I", "Y"))
    assert np.max(np.abs(out - target)) < 1e-8


def test_conjugate_matches_reference(rng):
    couplings = tuple(rng.random(3) + 0.4)
    op = PauliString.single(4, 1, "X")
    ours = conjugate_operator(op, CouplingProfile(4, couplings), 0.52)
    theirs = reference.heisenberg_conjugate(
        reference.site_operator(4, 1, "X"), couplings, 0.52
    )
    assert np.max(np.abs(ours - theirs)) < 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_conjugate_kernel_matches_reference(rng, n):
    couplings = tuple(rng.random(n - 1) + 0.3)
    op = reference.random_mixed(rng, n) + 1j * reference.random_mixed(rng, n)
    ours = conjugate_operator(op, CouplingProfile(n, couplings), 0.83)
    theirs = reference.heisenberg_conjugate(op, couplings, 0.83)
    assert np.max(np.abs(ours - theirs)) < 1e-10


def test_conjugate_size_cap():
    with pytest.raises(ResourceLimitError):
        conjugate_operator(
            PauliString.single(9, 1, "X"), perfect_profile(9), 0.1
        )


def test_extract_coefficients_examples():
    assert extract_string_coefficients(perfect_profile(5), math.pi / 4) == pytest.approx(
        (0, 0, 0, 0, 1), abs=1e-8
    )
    assert extract_string_coefficients(perfect_profile(3), 0.0) == pytest.approx(
        (1, 0, 0), abs=1e-12
    )


def test_extract_coefficients_cross_engine():
    profile = perfect_profile(4)
    ours = extract_string_coefficients(profile, 0.37)
    fast = propagate(build_generator(profile), 0.37).values
    assert np.max(np.abs(ours - fast)) < 1e-8


def test_extract_coefficients_mirrored(rng):
    couplings = (0.9, 1.4, 0.6)
    profile = CouplingProfile(4, couplings)
    ours = extract_string_coefficients(profile, 1.1, origin="siteN")
    theirs = reference.string_coefficients(couplings, 1.1, origin="siteN")
    assert np.max(np.abs(ours - theirs)) < 1e-10


# ---------------------------------------------------------------------------
# measurement and reduction
# ---------------------------------------------------------------------------

def test_project_pole_state_on_equator():
    prob, post = project_site(
        StateVector.basis(1, 0), 1, phase=math.pi / 2, outcome=1
    )
    assert prob == pytest.approx(0.5)
    assert post.amplitudes == pytest.approx(np.array([1, 1j]) / math.sqrt(2))


def test_project_plus_on_x_axis():
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    prob, post = project_site(plus, 1, axis="x", outcome=1)
    assert prob == pytest.approx(1.0)
    assert np.allclose(post.amplitudes, plus.amplitudes)


def test_project_singlet_site_two():
    singlet = StateVector(2, np.array([0, 1, -1, 0]) / math.sqrt(2))
    prob, post = project_site(singlet, 2, axis="z", outcome=1)
    assert prob == pytest.approx(0.5)
    # post state is |10> up to global phase
    assert abs(post.amplitudes[0b10]) == pytest.approx(1.0)


def test_project_zero_probability():
    with pytest.raises(ZeroProbabilityError):
        project_site(StateVector.basis(1, 0), 1, axis="z", outcome=-1)


def test_project_validation():
    state = StateVector.basis(2, 0)
    with pytest.raises(ValueError):
        project_site(state, 3)
    with pytest.raises(ValueError):
        project_site(state, 1, axis="w")
    with pytest.raises(ValueError):
        project_site(state, 1, outcome=0)


@pytest.mark.parametrize("state", [StateVector.basis(2, 0), DensityMatrix.maximally_mixed(2)])
def test_project_rejects_non_finite_phase(state):
    with pytest.raises(ValueError, match="finite"):
        project_site(state, 1, phase=float("nan"))


def test_project_density_matrix_agrees_with_vector(rng):
    psi = reference.random_pure(rng, 3)
    state = StateVector(3, psi)
    for site, axis in ((1, "x"), (2, "z"), (3, "y")):
        p_vec, post_vec = project_site(state, site, axis=axis, outcome=-1)
        p_dm, post_dm = project_site(state.density_matrix(), site, axis=axis, outcome=-1)
        assert p_dm == pytest.approx(p_vec, abs=1e-12)
        expected = np.outer(post_vec.amplitudes, post_vec.amplitudes.conj())
        assert np.max(np.abs(post_dm.matrix - expected)) < 1e-10


def test_measure_site_seeded_and_consistent():
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    outcome, prob, post = measure_site(plus, 1, axis="z", seed=11)
    again = measure_site(plus, 1, axis="z", seed=11)
    assert (outcome, prob) == (again[0], again[1])
    assert prob == pytest.approx(0.5)
    assert np.allclose(post.amplitudes, again[2].amplitudes)
    outcomes = {measure_site(plus, 1, axis="z", seed=s)[0] for s in range(40)}
    assert outcomes == {1, -1}


@pytest.mark.parametrize("site", [0, 4])
def test_measure_site_validates_site(site):
    state = StateVector.from_bits("101")
    for candidate in (state, state.density_matrix()):
        with pytest.raises(ValueError, match="out of range"):
            measure_site(candidate, site, seed=1)


def test_reduced_state_product():
    plus = np.array([1, 1]) / math.sqrt(2)
    state = StateVector(2, np.kron([1, 0], plus).astype(complex))
    reduced = reduced_state(state, [2])
    assert np.max(np.abs(reduced.matrix - np.outer(plus, plus))) < 1e-12


def test_reduced_state_bell():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    reduced = reduced_state(bell, [1])
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12


def test_reduced_state_matches_reference(rng):
    psi = reference.random_pure(rng, 3)
    ours = reduced_state(StateVector(3, psi), [3]).matrix
    theirs = reference.reduce_to_last_site(np.outer(psi, psi.conj()), 3)
    assert np.max(np.abs(ours - theirs)) < 1e-12


def test_reduced_state_dm_path_and_multi_site(rng):
    psi = reference.random_pure(rng, 4)
    state = StateVector(4, psi)
    from_vec = reduced_state(state, [2, 4]).matrix
    from_dm = reduced_state(state.density_matrix(), [2, 4]).matrix
    assert np.max(np.abs(from_vec - from_dm)) < 1e-12
    with pytest.raises(ValueError):
        reduced_state(state, [])
    with pytest.raises(ValueError):
        reduced_state(state, [5])
    wide = StateVector(5, reference.random_pure(rng, 5))
    from_vec = reduced_state(wide, [1, 4, 5]).matrix
    from_dm = reduced_state(wide.density_matrix(), [1, 4, 5]).matrix
    assert np.max(np.abs(from_vec - from_dm)) < 1e-12
    with pytest.raises(TypeError):
        reduced_state(psi, [2])


# ---------------------------------------------------------------------------
# fidelity and thermal states
# ---------------------------------------------------------------------------

def test_fidelity_basic_values(rng):
    rho = DensityMatrix(2, reference.random_mixed(rng, 2))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    zero = StateVector.basis(1, 0)
    one = StateVector.basis(1, 1)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(zero, DensityMatrix.maximally_mixed(1)) == pytest.approx(0.5)


def test_fidelity_symmetric_and_bounded(rng):
    for _ in range(5):
        a = DensityMatrix(2, reference.random_mixed(rng, 2))
        b = DensityMatrix(2, reference.random_mixed(rng, 2))
        f_ab = fidelity(a, b)
        assert f_ab == pytest.approx(fidelity(b, a), abs=1e-9)
        assert -1e-12 <= f_ab <= 1 + 1e-12


def test_fidelity_qubit_closed_form(rng):
    a = DensityMatrix(1, reference.random_mixed(rng, 1))
    b = DensityMatrix(1, reference.random_mixed(rng, 1))
    assert fidelity(a, b) == pytest.approx(
        reference.qubit_fidelity(a.matrix, b.matrix), abs=1e-12
    )


def test_fidelity_pure_path_matches_overlap(rng):
    psi = reference.random_pure(rng, 2)
    rho = DensityMatrix(2, reference.random_mixed(rng, 2))
    direct = float(np.real(psi.conj() @ rho.matrix @ psi))
    assert fidelity(StateVector(2, psi), rho) == pytest.approx(direct, abs=1e-12)
    assert fidelity(rho, StateVector(2, psi)) == pytest.approx(direct, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(StateVector.basis(1, 0), StateVector.basis(2, 0))


def test_thermal_medium_infinite_temperature():
    med = thermal_medium(perfect_profile(5), 0.0)
    assert med.n_sites == 3
    assert np.max(np.abs(med.matrix - np.eye(8) / 8)) < 1e-12


def test_thermal_medium_ground_state_limit():
    med = thermal_medium(perfect_profile(4), 50.0)
    assert med.purity() > 1 - 1e-6
    interior = reference.chain_hamiltonian(perfect_profile(4).couplings[1:-1])
    ground_energy = float(np.linalg.eigvalsh(interior)[0])
    achieved = float(np.real(np.trace(med.matrix @ interior)))
    assert achieved == pytest.approx(ground_energy, abs=1e-6)


def test_thermal_medium_matches_reference_gibbs():
    profile = perfect_profile(5)
    ours = thermal_medium(profile, 1.3).matrix
    interior = reference.chain_hamiltonian(profile.couplings[1:-1])
    theirs = reference.gibbs_state(interior, 1.3)
    assert np.max(np.abs(ours - theirs)) < 1e-10


def test_thermal_medium_fullchain_variant():
    profile = perfect_profile(4)
    sub = thermal_medium(profile, 1.0, variant="subchain")
    full = thermal_medium(profile, 1.0, variant="fullchain")
    assert sub.n_sites == full.n_sites == 2
    # different boundary treatments give genuinely different states
    assert np.max(np.abs(sub.matrix - full.matrix)) > 1e-3
    with pytest.raises(ValueError):
        thermal_medium(profile, 1.0, variant="open")


@pytest.mark.parametrize("n", range(3, 11))
def test_thermal_medium_fullchain_matches_reference(n):
    profile = perfect_profile(n)
    hamiltonian = reference.chain_hamiltonian(profile.couplings)
    dim = 2 ** (n - 2)
    for beta in (0.0, 0.5, 3.0):
        ours = thermal_medium(profile, beta, variant="fullchain").matrix
        full = reference.gibbs_state(hamiltonian, beta)
        # trace out site 1 and site N
        theirs = np.einsum("iajibj->ab", full.reshape(2, dim, 2, 2, dim, 2))
        assert np.max(np.abs(ours - theirs)) < 1e-10


@pytest.mark.parametrize("n", range(3, 11))
def test_thermal_medium_subchain_matches_reference(n):
    profile = perfect_profile(n)
    interior = reference.chain_hamiltonian(profile.couplings[1:-1])
    for beta in (0.0, 0.5, 3.0):
        ours = thermal_medium(profile, beta, variant="subchain").matrix
        assert np.max(np.abs(ours - reference.gibbs_state(interior, beta))) < 1e-10


def test_thermal_medium_respects_cap(monkeypatch):
    # the cap bounds the chain whose Gibbs state is built
    monkeypatch.setenv("XXQST_ORACLE_CAP", "4")
    assert thermal_medium(perfect_profile(6), 1.0).n_sites == 4
    with pytest.raises(ResourceLimitError):
        thermal_medium(perfect_profile(7), 1.0)
    with pytest.raises(ResourceLimitError):
        thermal_medium(perfect_profile(5), 1.0, variant="fullchain")


def test_thermal_medium_validation():
    with pytest.raises(ValueError):
        thermal_medium(perfect_profile(2), 1.0)
    with pytest.raises(ValueError):
        thermal_medium(perfect_profile(4), -0.5)
