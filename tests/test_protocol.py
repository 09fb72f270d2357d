import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xxqst import (
    AXIAL_NAMES,
    REVIVAL_TIME,
    CouplingProfile,
    DensityMatrix,
    InternalConsistencyError,
    PauliString,
    Propagator,
    ProtocolConfig,
    ResourceLimitError,
    StateVector,
    average_fidelity,
    axial_state,
    bloch_state,
    boundary_profile,
    evolve,
    fidelity,
    perfect_profile,
    protocol,
    run_protocol,
    run_protocol_branches,
    thermal_medium,
    verify_protocol_identities,
    verify_transfer_condition,
)
from xxqst import errors, oracle

import reference


def branch_map(branches):
    return {(b.outcome_pre, b.outcome_post): b for b in branches}


# ---------------------------------------------------------------------------
# input state helpers
# ---------------------------------------------------------------------------

def test_axial_states():
    assert set(AXIAL_NAMES) == {"0", "1", "+x", "-x", "+y", "-y"}
    assert axial_state("0").amplitudes == pytest.approx([1, 0])
    assert axial_state("+x").amplitudes == pytest.approx(
        np.array([1, 1]) / math.sqrt(2)
    )
    assert axial_state("-y").amplitudes == pytest.approx(
        np.array([1, -1j]) / math.sqrt(2)
    )
    with pytest.raises(ValueError):
        axial_state("+z")


def test_bloch_state_parametrization():
    north = bloch_state(0.0, 0.0)
    assert north.density_matrix().bloch_vector() == pytest.approx((0, 0, 1), abs=1e-12)
    tilted = bloch_state(math.pi / 3, math.pi / 5)
    x, y, z = tilted.density_matrix().bloch_vector()
    assert z == pytest.approx(math.cos(math.pi / 3))
    assert math.atan2(y, x) == pytest.approx(math.pi / 5)


# ---------------------------------------------------------------------------
# perfect transfer across branches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["0", "1", "+x", "-y"])
def test_perfect_transfer_all_branches(n, name):
    config = ProtocolConfig(perfect_profile(n), axial_state(name))
    branches = run_protocol_branches(config)
    assert len(branches) >= 1
    total = 0.0
    for branch in branches:
        assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)
        total += branch.probability
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("medium", ["maximally-mixed", "random-pure", "thermal:1.0"])
def test_perfect_transfer_untouched_by_medium(medium):
    config = ProtocolConfig(
        perfect_profile(5), axial_state("+y"), medium=medium, seed=5
    )
    for branch in run_protocol_branches(config):
        assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)


def test_two_site_chain_every_medium():
    # no interior sites: each medium spec degenerates to the same protocol
    for medium in ("all-zero", "maximally-mixed", "random-pure", "thermal:0.7"):
        config = ProtocolConfig(
            perfect_profile(2), axial_state("+x"), medium=medium, seed=1
        )
        for branch in run_protocol_branches(config):
            assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)


def test_explicit_medium_state():
    interior = DensityMatrix.maximally_mixed(2)
    config = ProtocolConfig(perfect_profile(4), axial_state("1"), medium=interior)
    for branch in run_protocol_branches(config):
        assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)


def test_mixed_input_state():
    rho_in = DensityMatrix(1, np.array([[0.7, 0.2j], [-0.2j, 0.3]]))
    config = ProtocolConfig(perfect_profile(3), rho_in)
    for branch in run_protocol_branches(config):
        assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# against the brute force reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,t,medium_kind", [
    (3, 0.6, "zero"),
    (4, 1.9, "mixed"),
    (5, REVIVAL_TIME, "random"),
    (4, 0.45, "thermal"),
    (4, 0.45, "thermal-subchain"),
    (4, 1.9, "thermal-fullchain"),
])
def test_branches_match_reference(rng, n, t, medium_kind):
    profile = perfect_profile(n) if n % 2 else boundary_profile(n, 0.815)
    rho_in = reference.random_mixed(rng, 1)

    interior = 2 ** (n - 2)
    variant = "subchain"
    if medium_kind == "zero":
        medium = np.zeros((interior, interior), dtype=complex)
        medium[0, 0] = 1.0
        spec = "all-zero"
    elif medium_kind == "mixed":
        medium = np.eye(interior) / interior
        spec = DensityMatrix(n - 2, medium)
    elif medium_kind == "random":
        psi = reference.random_pure(rng, n - 2)
        medium = np.outer(psi, psi.conj())
        spec = DensityMatrix(n - 2, medium)
    elif medium_kind == "thermal":
        medium = thermal_medium(profile, 1.0).matrix
        spec = DensityMatrix(n - 2, medium)
    else:
        # the spec form: the protocol builds and factors the medium itself
        variant = medium_kind.split("-")[1]
        spec = "thermal:1.0"
        if variant == "subchain":
            medium = reference.gibbs_state(reference.chain_hamiltonian(profile.couplings[1:-1]), 1.0)
        else:
            full = reference.gibbs_state(reference.chain_hamiltonian(profile.couplings), 1.0)
            medium = np.einsum("iajibj->ab", full.reshape(2, interior, 2, 2, interior, 2))

    config = ProtocolConfig(
        profile, DensityMatrix(1, rho_in), medium=spec, evolution_time=t,
        thermal_variant=variant,
    )
    ours = branch_map(run_protocol_branches(config))
    theirs = {
        (a, b): (p, rho)
        for a, b, p, rho in reference.protocol_branches(
            profile.couplings, t, rho_in, medium
        )
    }

    assert set(ours) == set(theirs)
    for key, (prob, rho_out) in theirs.items():
        assert ours[key].probability == pytest.approx(prob, abs=1e-10)
        assert np.max(np.abs(ours[key].output_state.matrix - rho_out)) < 1e-10


def test_explicit_medium_with_negative_roundoff_eigenvalue(rng):
    # the factored protocol carries mixed-state weights as they are: a
    # clipped or square-rooted -1e-11 weight would miss the reference
    n = 5
    profile = perfect_profile(n)
    w, v = np.linalg.eigh(reference.random_mixed(rng, n - 2, terms=8))
    w[0] = -1e-11
    w[1:] *= (1.0 - w[0]) / np.sum(w[1:])
    medium = (v * w) @ v.conj().T
    medium = (medium + medium.conj().T) / 2.0
    rho_in = reference.random_mixed(rng, 1)
    config = ProtocolConfig(
        profile, DensityMatrix(1, rho_in), medium=DensityMatrix(n - 2, medium),
        evolution_time=1.1,
    )
    ours = branch_map(run_protocol_branches(config))
    theirs = reference.protocol_branches(profile.couplings, 1.1, rho_in, medium)
    assert set(ours) == {(a, b) for a, b, _, _ in theirs}
    for a, b, prob, rho_out in theirs:
        assert abs(ours[(a, b)].probability - prob) < 1e-12
        assert np.max(np.abs(ours[(a, b)].output_state.matrix - rho_out)) < 1e-12


def test_explicit_real_medium_takes_the_real_eigensolve(rng, monkeypatch):
    n, t = 6, 1.3
    profile = boundary_profile(n, 0.815)
    gibbs = reference.gibbs_state(reference.chain_hamiltonian(profile.couplings[1:-1]), 0.7)
    medium = DensityMatrix(n - 2, gibbs)
    assert np.isrealobj(protocol._factor(medium)[0])
    rho_in = reference.random_mixed(rng, 1)
    config = ProtocolConfig(profile, DensityMatrix(1, rho_in), medium=medium, evolution_time=t)
    ours = branch_map(run_protocol_branches(config))
    theirs = reference.protocol_branches(profile.couplings, t, rho_in, gibbs)
    assert set(ours) == {(a, b) for a, b, _, _ in theirs}
    for a, b, prob, rho_out in theirs:
        assert abs(ours[(a, b)].probability - prob) < 1e-10
        assert np.max(np.abs(ours[(a, b)].output_state.matrix - rho_out)) < 1e-10

    real_factor = protocol._factor

    def complex_factor(state):
        if isinstance(state, DensityMatrix):
            w, v = np.linalg.eigh(state.matrix)
            return v, w
        return real_factor(state)

    monkeypatch.setattr(protocol, "_factor", complex_factor)
    on_complex = branch_map(run_protocol_branches(config))
    assert set(on_complex) == set(ours)
    for key, branch in ours.items():
        assert abs(branch.probability - on_complex[key].probability) < 1e-12
        assert np.max(np.abs(branch.output_state.matrix - on_complex[key].output_state.matrix)) < 1e-12


@pytest.mark.parametrize("n", [11, 12])
def test_perfect_transfer_long_chains_every_medium(n):
    profile = perfect_profile(n)
    mediums = [("all-zero", "subchain"), ("maximally-mixed", "subchain"),
               ("random-pure", "subchain"), ("thermal:0.8", "subchain"),
               ("thermal:0.8", "fullchain")]
    for medium, variant in mediums:
        config = ProtocolConfig(
            profile, bloch_state(1.1, 0.4), medium=medium, seed=3,
            thermal_variant=variant,
        )
        branches = run_protocol_branches(config)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
        for branch in branches:
            assert branch.fidelity_out == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [13, 100, 101, 200, 201])
def test_perfect_transfer_past_the_dense_limit_on_gaussian_mediums(n):
    # the Gaussian mediums answer to the memory budget alone, so both entry
    # points run them at any length; odd lengths leave an odd interior with
    # an exact zero mode
    rng = np.random.default_rng(7700 + n)
    mediums = [("all-zero", "subchain"), ("maximally-mixed", "subchain"),
               ("thermal:1.0", "subchain"), ("thermal:1.0", "fullchain"),
               ("thermal:0.05", "subchain")]
    for medium, variant in mediums:
        config = ProtocolConfig(perfect_profile(n), bloch_state(*rng.uniform(0.0, 3.0, size=2)),
                                medium=medium, thermal_variant=variant, seed=n)
        branches = run_protocol_branches(config)
        assert len(branches) >= 2
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
        for branch in branches + (run_protocol(config),):
            assert branch.fidelity_out == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, eta, t", [(200, 0.7, 55.0), (201, 0.6, 61.0)])
def test_axial_average_on_long_boundary_chains_is_medium_independent(n, eta, t):
    # at beta = 0.05 nearly every medium pair has |delta| << 1; for any
    # medium the axial average is the coefficient engine's closed form
    profile = boundary_profile(n, eta)
    expected = Propagator(profile.rates).average_fidelity(t)
    mediums = [("thermal:0.05", "subchain"), ("all-zero", "subchain"),
               ("maximally-mixed", "subchain"), ("thermal:0.3", "fullchain")]
    for medium, variant in mediums:
        average = average_fidelity(profile, t, medium, variant)
        assert abs(average.mean - expected) < 1e-12


def _explicit_medium(profile, medium, variant):
    """The explicit state equal to a Gaussian medium spec; it takes the 2**n engine."""
    n = profile.n_sites
    if medium == "all-zero":
        return StateVector.basis(n - 2, 0)
    if medium == "maximally-mixed":
        return DensityMatrix.maximally_mixed(n - 2)
    return thermal_medium(profile, float(medium.split(":")[1]), variant)


@pytest.mark.parametrize("n", range(3, 11))
def test_gaussian_mediums_match_their_explicit_states(n):
    # the Wick evaluation against the 2**n engine on the same states
    rng = np.random.default_rng(9000 + n)
    profile = CouplingProfile(n, tuple(rng.uniform(0.3, 1.5, n - 1)))
    mediums = [("all-zero", "subchain"), ("maximally-mixed", "subchain")] + [
        (f"thermal:{beta}", variant)
        for beta in (0, 0.5, 3, 50) for variant in ("subchain", "fullchain")
    ]
    for i, (medium, variant) in enumerate(mediums):
        if i % 2:
            input_state = DensityMatrix(1, reference.random_mixed(rng, 1))
        else:
            input_state = bloch_state(*rng.uniform(0.0, 3.0, size=2))
        end_state = DensityMatrix(1, reference.random_mixed(rng, 1)) if i % 3 == 0 else None
        apply_correction = i % 4 != 1
        common = dict(profile=profile, input_state=input_state, end_state=end_state,
                      evolution_time=float(rng.uniform(0.1, 3.0)), seed=i)
        spec = ProtocolConfig(**common, medium=medium, thermal_variant=variant)
        explicit = ProtocolConfig(**common, medium=_explicit_medium(profile, medium, variant))
        ours = branch_map(run_protocol_branches(spec, apply_correction))
        theirs = branch_map(run_protocol_branches(explicit, apply_correction))
        assert set(ours) == set(theirs)
        for key, branch in theirs.items():
            assert abs(ours[key].probability - branch.probability) < 1e-12
            assert np.max(np.abs(ours[key].output_state.matrix - branch.output_state.matrix)) < 1e-12
        sample = run_protocol(spec, apply_correction)
        enumerated = ours[(sample.outcome_pre, sample.outcome_post)]
        assert abs(sample.probability - enumerated.probability) < 1e-12
        assert np.max(np.abs(sample.output_state.matrix - enumerated.output_state.matrix)) < 1e-12


def test_gaussian_mediums_never_touch_the_sector_engine():
    from xxqst.oracle import _sector_eigh

    # the one-chain cache holds another chain: any use of the 12-site one shows
    evolve(StateVector.basis(3, 1), perfect_profile(3), 0.1)
    before = _sector_eigh.cache_info()
    profile = perfect_profile(12)
    for medium, variant in (("all-zero", "subchain"), ("maximally-mixed", "subchain"),
                            ("thermal:0.8", "subchain"), ("thermal:0.8", "fullchain")):
        config = ProtocolConfig(profile, bloch_state(1.1, 0.4), medium=medium, seed=3,
                                thermal_variant=variant)
        run_protocol_branches(config)
        run_protocol(config)
    assert _sector_eigh.cache_info() == before


def test_gaussian_pair_bases_take_no_dense_eigh(monkeypatch):
    # the all-zero and maximally-mixed mediums have Q = I, and the subchain
    # thermal medium takes its pair basis from the interior's tridiagonal
    # solve; only the full-chain variant diagonalizes I - 2C.  A Gaussian
    # medium draws nothing, so run_protocol_branches builds no generator
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for n in (2, 3, 4, 12):
        for medium in ("all-zero", "maximally-mixed", "thermal:0.8"):
            config = ProtocolConfig(perfect_profile(n), bloch_state(1.1, 0.4), medium=medium,
                                    seed=3)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", refuse)
                branches = run_protocol_branches(config)
            assert all(b.fidelity_out == pytest.approx(1.0, abs=1e-12) for b in branches)
            assert run_protocol(config).fidelity_out == pytest.approx(1.0, abs=1e-12)
    config = ProtocolConfig(perfect_profile(12), bloch_state(1.1, 0.4), medium="thermal:0.8",
                            thermal_variant="fullchain")
    with pytest.raises(AssertionError, match="called"):
        run_protocol_branches(config)


@pytest.mark.parametrize("n", [200, 1000])
def test_medium_pair_bases_match_a_dense_eigh(n):
    # the pair basis each medium takes against the interior's I - 2C
    # diagonalized densely: C = 0, I/2 and the subchain Gibbs correlation
    # (1 - tanh(beta h / 2)) / 2 of the interior hopping matrix h
    from xxqst.heisenberg import gaussian_end_expectations
    from xxqst.protocol import _medium_pairs, _parse_medium

    rng = np.random.default_rng(8800 + n)
    profile = boundary_profile(n, 0.6)
    chain = Propagator(profile.rates)
    inner = profile.rates[1:-1]
    w, v = np.linalg.eigh(np.diag(inner, 1) + np.diag(inner, -1))
    correlations = {"all-zero": np.zeros((n - 2, n - 2)),
                    "maximally-mixed": np.eye(n - 2) / 2.0,
                    "thermal:0.8": (v * ((1.0 - np.tanh(0.4 * w)) / 2.0)) @ v.T}
    bloch = rng.normal(size=3)
    bloch *= 0.9 / np.linalg.norm(bloch)
    c, t = np.exp(2j * np.pi * rng.uniform()), n / 4 + 5.0
    for medium, correlation in correlations.items():
        kind, beta, _ = _parse_medium(medium)
        pairs = _medium_pairs(ProtocolConfig(profile, axial_state("0"), medium=medium),
                              kind, beta, chain)
        dense = np.linalg.eigh(np.eye(n - 2) - 2.0 * correlation)
        ours = gaussian_end_expectations(chain, t, bloch, pairs, c)
        theirs = gaussian_end_expectations(chain, t, bloch, dense, c)
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_finish_branch_bounds_its_cleanup():
    from xxqst.protocol import _finish_branch

    config = ProtocolConfig(perfect_profile(3), axial_state("+x"))
    plus_x = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    result = _finish_branch(config, plus_x, 1.0, 1, 1, 0.25, REVIVAL_TIME, False)
    assert result.fidelity_out == pytest.approx(1.0, abs=1e-12)
    off_hermitian = plus_x + np.array([[0.0, 1e-9j], [0.0, 0.0]])
    off_trace = plus_x * (1.0 + 1e-9)
    for corrupted in (off_hermitian, off_trace):
        with pytest.raises(InternalConsistencyError):
            _finish_branch(config, corrupted, 1.0, 1, 1, 0.25, REVIVAL_TIME, True)
    # normalizing a branch of probability p multiplies its roundoff by 1/p,
    # and the bound follows: 5e-13 / p below p = 1/2
    p = 1e-6
    for corrupted in (off_hermitian, off_trace):
        result = _finish_branch(config, p * corrupted, p, 1, 1, p, REVIVAL_TIME, False)
        assert result.fidelity_out == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(InternalConsistencyError):
            _finish_branch(config, 1e-2 * corrupted, 1e-2, 1, 1, 1e-2, REVIVAL_TIME, False)
    # a pure output whose smaller eigenvalue fell to -1e-9: inside the bound
    # its Bloch vector is scaled back onto the sphere, past it the branch raises
    past_sphere = plus_x + 1e-9 * np.array([[0.0, 1.0], [1.0, 0.0]])
    result = _finish_branch(config, p * past_sphere, p, 1, 1, p, REVIVAL_TIME, False)
    assert np.linalg.eigvalsh(result.output_state.matrix)[0] > -1e-15
    assert result.fidelity_out == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InternalConsistencyError):
        _finish_branch(config, past_sphere, 1.0, 1, 1, 0.25, REVIVAL_TIME, False)


def test_unlikely_branches_keep_their_roundoff_within_the_scaled_bound():
    # at t = 6.1e-5 the branches with o_post = -1 have probability 2.1e-9,
    # and the normalized matrix of one of them reads a smaller eigenvalue of
    # -3.3e-9: a fixed bound refused it (`xxqst transfer` exited 2)
    rng = np.random.default_rng(0)
    profile = CouplingProfile(3, tuple(rng.uniform(0.3, 1.5, 2)))
    config = ProtocolConfig(profile, axial_state("+x"), medium="random-pure",
                            evolution_time=6.103515625e-05, seed=0)
    branches = branch_map(run_protocol_branches(config))
    assert sum(b.probability for b in branches.values()) == pytest.approx(1.0, abs=1e-12)
    assert branches[(1, -1)].probability < 1e-8
    # the output of that branch is |+x>, up to the branch's roundoff
    assert branches[(1, -1)].fidelity_out == pytest.approx(1.0, abs=1e-6)


def test_single_qubit_states_are_never_diagonalized(monkeypatch):
    # the Gaussian pair basis and the sector blocks of a 6-site chain are
    # larger than 2 x 2, so only a single-qubit matrix reaches the refusal
    def refusing(solver):
        def solve(a, *args, **kwargs):
            if np.shape(a)[-2:] == (2, 2):
                raise AssertionError(f"{solver.__name__} called on a single-qubit matrix")
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigh", refusing(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", refusing(np.linalg.eigvalsh))
    for medium in ("all-zero", "random-pure"):
        config = ProtocolConfig(perfect_profile(6), bloch_state(1.1, 0.4), medium=medium, seed=5)
        for branch in run_protocol_branches(config):
            assert branch.fidelity_out == pytest.approx(1.0, abs=1e-12)
        assert run_protocol(config).fidelity_out == pytest.approx(1.0, abs=1e-12)
    psi = bloch_state(0.7, 2.0)
    rho = DensityMatrix(1, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    expected = float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
    assert fidelity(rho, psi) == expected
    assert fidelity(psi, rho) == expected


def test_correction_is_necessary():
    # without the conditional gate the odd parity branches land far away
    config = ProtocolConfig(perfect_profile(5), axial_state("+x"))
    raw = run_protocol_branches(config, apply_correction=False)
    corrected = branch_map(run_protocol_branches(config))
    degraded = 0
    for branch in raw:
        sign = branch.outcome_pre * branch.outcome_post
        if sign == -1:
            assert branch.fidelity_out < 0.51
            degraded += 1
        fixed = corrected[(branch.outcome_pre, branch.outcome_post)]
        assert fixed.fidelity_out == pytest.approx(1.0, abs=1e-10)
    assert degraded == 2


def test_protocol_linear_in_input():
    # each branch acts linearly on the unnormalized input matrix
    profile = perfect_profile(4)
    t = 0.9
    basis_inputs = {
        "p0": np.array([[1, 0], [0, 0]], dtype=complex),
        "p1": np.array([[0, 0], [0, 1]], dtype=complex),
        "px": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
        "py": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    }
    unnormalized = {}
    for name, rho in basis_inputs.items():
        config = ProtocolConfig(
            profile, DensityMatrix(1, rho), evolution_time=t
        )
        unnormalized[name] = {
            key: b.probability * b.output_state.matrix
            for key, b in branch_map(run_protocol_branches(config)).items()
        }
    # arbitrary state as a real combination: rho = a p0 + b p1 + c px + d py
    coeffs = {"p0": 0.28, "p1": 0.12, "px": 0.33, "py": 0.27}
    rho = sum(c * basis_inputs[k] for k, c in coeffs.items())
    config = ProtocolConfig(profile, DensityMatrix(1, rho), evolution_time=t)
    for key, branch in branch_map(run_protocol_branches(config)).items():
        combined = sum(c * unnormalized[k][key] for k, c in coeffs.items())
        direct = branch.probability * branch.output_state.matrix
        assert np.max(np.abs(direct - combined)) < 1e-10


# ---------------------------------------------------------------------------
# sampling, custom end states, serialization
# ---------------------------------------------------------------------------

def test_sampled_run_deterministic_with_seed():
    config = ProtocolConfig(perfect_profile(4), axial_state("+x"), seed=7)
    first = run_protocol(config)
    second = run_protocol(config)
    assert (first.outcome_pre, first.outcome_post) == (
        second.outcome_pre, second.outcome_post
    )
    assert first.fidelity_out == pytest.approx(second.fidelity_out, abs=1e-14)
    outcomes = set()
    for seed in range(30):
        result = run_protocol(
            ProtocolConfig(perfect_profile(4), axial_state("+x"), seed=seed)
        )
        outcomes.add((result.outcome_pre, result.outcome_post))
    assert len(outcomes) == 4


def test_equatorial_end_state_two_branches():
    end = StateVector(1, np.array([1, 1j]) / math.sqrt(2))
    config = ProtocolConfig(
        perfect_profile(3), axial_state("0"), end_state=end
    )
    branches = run_protocol_branches(config)
    # the pre measurement has only one viable outcome for an equatorial cap
    assert len(branches) == 2
    assert {b.outcome_post for b in branches} == {1, -1}
    for branch in branches:
        assert branch.probability == pytest.approx(0.5, abs=1e-10)
        assert branch.fidelity_out == pytest.approx(1.0, abs=1e-10)


def test_result_serialization_schema():
    config = ProtocolConfig(perfect_profile(3), axial_state("+x"), seed=3)
    result = run_protocol(config)
    payload = json.loads(json.dumps(result.to_dict()))
    assert set(payload) == {
        "outcome_pre", "outcome_post", "fidelity", "output_bloch", "correction",
    }
    assert payload["outcome_pre"] in (1, -1)
    assert payload["outcome_post"] in (1, -1)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert len(payload["output_bloch"]) == 3
    assert isinstance(payload["correction"], str)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(perfect_profile(3), StateVector.basis(2, 0))
    with pytest.raises(ValueError):
        ProtocolConfig(perfect_profile(3), axial_state("0"), medium="warm")
    with pytest.raises(ValueError):
        ProtocolConfig(perfect_profile(3), axial_state("0"), medium="thermal:-1")
    with pytest.raises(ValueError):
        ProtocolConfig(
            perfect_profile(4), axial_state("0"),
            medium=DensityMatrix.maximally_mixed(1),
        )
    config = ProtocolConfig(perfect_profile(3), axial_state("0"))
    assert config.effective_time == pytest.approx(REVIVAL_TIME)


def test_protocol_refuses_chains_past_the_dense_limit(monkeypatch):
    # the exact engine's mediums are refused from 15 sites, where their
    # sector eigensystems pass the memory budget (a mixed explicit one
    # sooner, by its columns, in test_resources), before any eigensolve or
    # large array; the Gaussian mediums by their own estimate
    monkeypatch.setattr(oracle, "_eigensystems", None)
    eigensystems = "sector eigensystems of 15 sites"
    refusals = [(15, "random-pure", eigensystems), (15, StateVector.basis(13, 0), eigensystems),
                (20000, "all-zero", "Gaussian protocol on 20000 sites"),
                (20000, "thermal:1.0", "Gaussian protocol on 20000 sites")]
    for n, medium, message in refusals:
        config = ProtocolConfig(perfect_profile(n), axial_state("+x"), medium=medium)
        for run in (run_protocol_branches, run_protocol):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=message):
                    run(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


def test_average_fidelity_refuses_a_random_pure_draw_past_the_cap():
    # the medium is drawn before any protocol run: 2**38 amplitudes at n = 40
    profile = perfect_profile(40)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="sector eigensystems of 40 sites"):
            average_fidelity(profile, medium="random-pure", seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_protocol_follows_a_lower_cap(monkeypatch):
    # a budget that holds the sector eigensystems of 4 sites refuses those of 5
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 5000)
    random_pure = ProtocolConfig(perfect_profile(4), axial_state("0"), medium="random-pure", seed=1)
    assert len(run_protocol_branches(random_pure)) > 0
    with pytest.raises(ResourceLimitError, match="sector eigensystems of 5 sites"):
        run_protocol_branches(dataclasses.replace(random_pure, profile=perfect_profile(5)))
    # the eigensystems are the exact engine's: a Gaussian medium runs past them
    assert len(run_protocol_branches(ProtocolConfig(perfect_profile(5), axial_state("0")))) > 0


def test_one_sided_end_state_prunes_branches():
    # end state equal to one measurement cap: the other cap has weight zero
    n = 3
    cap = StateVector(1, np.array([1, 1j ** n]) / math.sqrt(2))
    config = ProtocolConfig(
        perfect_profile(n), axial_state("0"), end_state=cap,
    )
    branches = run_protocol_branches(config)
    assert {b.outcome_pre for b in branches} == {1}
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# averaged fidelity
# ---------------------------------------------------------------------------

def test_average_fidelity_perfect_chain():
    result = average_fidelity(perfect_profile(4), REVIVAL_TIME, seed=0)
    assert result.mean == pytest.approx(1.0, abs=1e-10)
    assert len(result.values) == len(AXIAL_NAMES)
    assert all(v == pytest.approx(1.0, abs=1e-10) for v in result.values)


def test_average_fidelity_random_pure_medium_follows_its_seed():
    # one medium drawn from the seed and shared by the six inputs; the
    # branch sums move with it, their mean only within roundoff
    profile = boundary_profile(5, 0.815)
    a = average_fidelity(profile, 1.9, medium="random-pure", seed=21)
    b = average_fidelity(profile, 1.9, medium="random-pure", seed=21)
    c = average_fidelity(profile, 1.9, medium="random-pure", seed=22)
    assert a.values == b.values
    assert a.values != c.values
    assert a.mean == pytest.approx(c.mean, abs=1e-12)


def test_average_fidelity_axial_matches_reference_baseline():
    # with no evolution u = I and alpha_N = 0, so the mean over the six axial
    # inputs is 1/2 + (-1)^N / 6, not 1/2: at N = 3 the values are 1/2, 1/2,
    # 0, 0, 1/2, 1/2 and the mean is 1/3
    result = average_fidelity(perfect_profile(3), 0.0)
    zero_medium = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    expected = []
    for name in AXIAL_NAMES:
        rho_in = axial_state(name).density_matrix().matrix
        branches = reference.protocol_branches(
            perfect_profile(3).couplings, 0.0, rho_in, zero_medium
        )
        mean = sum(
            p * reference.qubit_fidelity(rho, rho_in)
            for _, _, p, rho in branches
        )
        expected.append(mean)
    assert result.values == pytest.approx(expected, abs=1e-10)
    assert result.mean == pytest.approx(1.0 / 3.0, abs=1e-12)
    for n in range(2, 7):
        closed = 0.5 + (-1) ** n / 6.0
        # the Gaussian engine, the 2**n engine and the coefficient engine
        for medium in ("all-zero", "random-pure"):
            assert average_fidelity(perfect_profile(n), 0.0, medium, seed=n).mean == \
                pytest.approx(closed, abs=1e-12)
        assert Propagator(perfect_profile(n).rates).average_fidelity(0.0) == \
            pytest.approx(closed, abs=1e-12)


def test_average_fidelity_boundary_chain_value():
    result = average_fidelity(boundary_profile(5, 0.815), 1.9)
    assert result.mean == pytest.approx(0.9990981442823057, abs=1e-9)


_MEDIUM_KINDS = ("all-zero", "maximally-mixed", "thermal-subchain", "thermal-fullchain",
                 "random-pure", "state-vector", "density-matrix")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(2, 10), t=st.floats(-5.0, 5.0), kind=st.sampled_from(_MEDIUM_KINDS),
       beta=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_average_fidelity_needs_only_the_end_correlations(n, t, kind, beta, seed):
    # the paper's claim: summed over its branches the protocol is a qubit
    # channel whose diagonal T_aa = F(+a) + F(-a) - 1 holds three entries of
    # u(t) and nothing of the medium, so the mean fidelity over inputs is the
    # coefficient engine's closed form on every medium kind
    assume(n >= 3 or kind not in ("state-vector", "density-matrix"))
    rng = np.random.default_rng(seed)
    profile = CouplingProfile(n, tuple(rng.uniform(0.3, 1.5, n - 1)))
    medium, variant = kind, "subchain"
    if kind.startswith("thermal"):
        medium, variant = f"thermal:{beta!r}", kind.split("-")[1]
    elif kind == "state-vector":
        medium = StateVector(n - 2, reference.random_pure(rng, n - 2))
    elif kind == "density-matrix":
        medium = DensityMatrix(n - 2, reference.random_mixed(rng, n - 2))
    result = average_fidelity(profile, t, medium, variant, seed)
    prop = Propagator(profile.rates)
    assert abs(prop.average_fidelity(t) - result.mean) < 1e-12
    weight = prop.end_weights(t)
    diagonal = weight + (-1) ** n * (prop.entries(t, 0, 0) * prop.entries(t, -1, -1)).real
    v = result.values
    for got, want in zip((v[2] + v[3], v[4] + v[5], v[0] + v[1]), (diagonal, weight, weight)):
        assert abs(got - 1.0 - want) < 1e-12


@pytest.mark.parametrize("n", [1000, 1001])
def test_average_fidelity_is_one_on_the_perfect_chain_at_revival(n):
    assert abs(Propagator(perfect_profile(n).rates).average_fidelity(REVIVAL_TIME) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# operator identities and the literal transfer condition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_identities_hold_at_revival(n):
    report = verify_protocol_identities(perfect_profile(n))
    assert len(report) == 3
    for check in report:
        assert check.passed, check.description
        assert check.deviation < 1e-8


def test_identities_fail_off_revival():
    report = verify_protocol_identities(perfect_profile(5), time=1.0)
    assert any(not check.passed for check in report)


def test_identity_descriptions_mention_sites():
    report = verify_protocol_identities(perfect_profile(6))
    joined = " ".join(check.description for check in report)
    assert "Z_6" in joined and "Z_1" in joined


def test_transfer_condition_even_chain_passes():
    report = verify_transfer_condition(perfect_profile(4))
    assert report.passed
    assert all(entry.deviation < 1e-8 for entry in report.entries)


def test_transfer_condition_odd_chain_fails():
    report = verify_transfer_condition(perfect_profile(5))
    assert not report.passed
    worst = max(entry.deviation for entry in report.entries)
    assert worst > 0.5  # not a tolerance issue: the letters genuinely differ


def test_transfer_condition_boundary_chain_detuned():
    report = verify_transfer_condition(boundary_profile(6, 0.815), time=1.9)
    assert not report.passed
    assert max(e.deviation for e in report.entries) > 1e-3


def test_transfer_condition_fixed_exponents():
    exponents = {"X": 1, "Y": 1, "Z": 0}
    report = verify_transfer_condition(
        perfect_profile(4),
        left_exponents=exponents,
        right_exponents=exponents,
    )
    assert report.passed
    free = verify_transfer_condition(perfect_profile(4))
    for fixed_entry, free_entry in zip(report.entries, free.entries):
        assert fixed_entry.deviation == pytest.approx(free_entry.deviation, abs=1e-12)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
def test_identity_checks_reject_a_bad_tolerance(tolerance):
    # a tolerance no deviation can pass (or every one) would say nothing of
    # the chain; refused before the 13-site chain's size is checked
    for n in (4, 13):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            verify_protocol_identities(perfect_profile(n), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            verify_transfer_condition(perfect_profile(n), tolerance=tolerance)


@pytest.mark.parametrize("n", [12, 13])
def test_identity_checks_refuse_long_chains_before_building_matrices(n, monkeypatch):
    # the transfer condition is refused from 12 sites (2.5 GiB estimated),
    # the identity checks from 13 (7 GiB; 1.75 GiB at 12 fits the budget)
    def no_dense_matrix(self):
        raise AssertionError("a dense 2**n matrix was built before the size check")

    monkeypatch.setattr(PauliString, "to_matrix", no_dense_matrix)
    with pytest.raises(ResourceLimitError, match=f"transfer condition on {n} sites"):
        verify_transfer_condition(perfect_profile(n), mid_op="Z")
    if n > 12:
        with pytest.raises(ResourceLimitError, match=f"identity checks on {n} sites"):
            verify_protocol_identities(perfect_profile(n))
