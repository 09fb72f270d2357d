import json
import math

import numpy as np
import pytest

from xxqst import (
    AXIAL_NAMES,
    REVIVAL_TIME,
    DensityMatrix,
    InternalConsistencyError,
    ProtocolConfig,
    ResourceLimitError,
    StateVector,
    average_fidelity,
    axial_state,
    bloch_state,
    boundary_profile,
    perfect_profile,
    run_protocol,
    run_protocol_branches,
    thermal_medium,
    verify_protocol_identities,
    verify_transfer_condition,
)

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
])
def test_branches_match_reference(rng, n, t, medium_kind):
    profile = perfect_profile(n) if n % 2 else boundary_profile(n, 0.815)
    rho_in = reference.random_mixed(rng, 1)

    interior = 2 ** (n - 2)
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
    else:
        medium = thermal_medium(profile, 1.0).matrix
        spec = DensityMatrix(n - 2, medium)

    config = ProtocolConfig(
        profile, DensityMatrix(1, rho_in), medium=spec, evolution_time=t,
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


def test_finish_branch_bounds_its_cleanup():
    from xxqst.protocol import _finish_branch

    config = ProtocolConfig(perfect_profile(3), axial_state("+x"))
    plus_x = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    result = _finish_branch(config, plus_x, 1, 1, 0.25, REVIVAL_TIME, False)
    assert result.fidelity_out == pytest.approx(1.0, abs=1e-12)
    off_hermitian = plus_x + np.array([[0.0, 1e-9j], [0.0, 0.0]])
    off_trace = plus_x * (1.0 + 1e-9)
    for corrupted in (off_hermitian, off_trace):
        with pytest.raises(InternalConsistencyError):
            _finish_branch(config, corrupted, 1, 1, 0.25, REVIVAL_TIME, True)


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
    # refused under the default cap of 14, before any eigensolve: the
    # 13-site chain's would take about a second
    monkeypatch.delenv("XXQST_ORACLE_CAP", raising=False)
    config = ProtocolConfig(perfect_profile(13), axial_state("+x"))
    with pytest.raises(ResourceLimitError):
        run_protocol_branches(config)
    with pytest.raises(ResourceLimitError):
        run_protocol(config)


def test_protocol_follows_a_lower_cap(monkeypatch):
    monkeypatch.setenv("XXQST_ORACLE_CAP", "4")
    assert len(run_protocol_branches(ProtocolConfig(perfect_profile(4), axial_state("0")))) > 0
    with pytest.raises(ResourceLimitError):
        run_protocol_branches(ProtocolConfig(perfect_profile(5), axial_state("0")))


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
    result = average_fidelity(perfect_profile(4), REVIVAL_TIME, n_input_samples=6,
                              inputs="axial", seed=0)
    assert result.mean == pytest.approx(1.0, abs=1e-10)
    assert result.stderr < 1e-10
    assert result.n_inputs == 6
    assert len(result.values) == 6


def test_average_fidelity_haar_sampling_deterministic():
    a = average_fidelity(boundary_profile(5, 0.815), 1.9, n_input_samples=8, seed=21)
    b = average_fidelity(boundary_profile(5, 0.815), 1.9, n_input_samples=8, seed=21)
    assert a.values == b.values
    c = average_fidelity(boundary_profile(5, 0.815), 1.9, n_input_samples=8, seed=22)
    assert a.values != c.values


def test_average_fidelity_axial_matches_reference_baseline(rng):
    # with no evolution the end site stays |0>, so transfer only succeeds
    # for the |0> input; the six axis states average to 1/2 exactly
    result = average_fidelity(perfect_profile(3), 0.0, n_input_samples=6,
                              inputs="axial")
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
    assert result.mean == pytest.approx(float(np.mean(expected)), abs=1e-10)


def test_average_fidelity_boundary_chain_value():
    result = average_fidelity(boundary_profile(5, 0.815), 1.9, n_input_samples=6,
                              inputs="axial")
    assert result.mean == pytest.approx(0.9990981442823057, abs=1e-9)


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
