"""The memory budget: each engine estimates its peak from its own shapes
and refuses past the budget before it allocates, and each estimate stays
between one and two times the tracemalloc peak it stands for."""
import gc
import tracemalloc

import numpy as np
import pytest

from xxqst import (
    DensityMatrix,
    PauliString,
    Propagator,
    ProtocolConfig,
    ResourceLimitError,
    StateVector,
    average_fidelity,
    axial_state,
    boundary_profile,
    coefficient_trace,
    conjugate_operator,
    dense_hamiltonian,
    evolve,
    perfect_profile,
    run_protocol_branches,
    sweep,
    thermal_medium,
    verify_protocol_identities,
    verify_transfer_condition,
)
from xxqst import chain, heisenberg, optimize, oracle, protocol
from xxqst.errors import MEMORY_BUDGET, check_memory


def _peak(call) -> int:
    """tracemalloc peak, in bytes, of call()."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stub_density_matrix(n_sites):
    """A DensityMatrix on n_sites that holds no 2**n x 2**n array: a
    read-only zero-stride view, past the type's checks, for calls that
    must refuse it by its size before reading an entry."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "n_sites", n_sites)
    dim = 2**n_sites
    object.__setattr__(state, "matrix", np.broadcast_to(np.complex128(0), (dim, dim)))
    return state


def test_budget_is_one_rule():
    assert MEMORY_BUDGET == 2**31
    check_memory(MEMORY_BUDGET, "at the budget")
    with pytest.raises(ResourceLimitError, match=r"^a call: about 2 GiB, past the memory budget of 2 GiB$"):
        check_memory(MEMORY_BUDGET + 1, "a call")
    with pytest.raises(ResourceLimitError, match="about 6 GiB"):
        check_memory(6 * 2**30, "a call")


# built once, outside the traced calls
_LONG = perfect_profile(20000)
_STACK = np.ones((2, 15000))
_PURE13 = StateVector.basis(13, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: coefficient_trace(_LONG, np.pi / 4, 3),
     "coefficient trace on 20000 sites at 3 times"),
    (lambda: Propagator(_LONG.rates), "coefficient engine on 20000 sites"),
    (lambda: Propagator(_STACK), "coefficient engine on 15001 sites"),
    (lambda: sweep(20000), "sweep on 20000 sites"),
    (lambda: sweep(12, resolution=(10**5, 10**5)), "sweep on 12 sites over 100000 x 100000"),
    (lambda: evolve(_stub_density_matrix(13), perfect_profile(13), 0.1),
     "density-matrix evolution on 13 sites"),
    (lambda: thermal_medium(perfect_profile(15), 1.0), "thermal medium on 13 sites"),
    (lambda: dense_hamiltonian(perfect_profile(16)), "dense Hamiltonian on 16 sites"),
    (lambda: run_protocol_branches(ProtocolConfig(
        perfect_profile(14), axial_state("+x"), medium=_stub_density_matrix(12))),
     "exact protocol on 14 sites"),
    (lambda: run_protocol_branches(ProtocolConfig(
        perfect_profile(15), axial_state("+x"), medium="random-pure", seed=1)),
     "sector eigensystems of 15 sites"),
    # an estimate past the float range
    (lambda: run_protocol_branches(ProtocolConfig(
        perfect_profile(1001), axial_state("+x"), medium="random-pure", seed=1)),
     "sector eigensystems of 1001 sites"),
    (lambda: average_fidelity(perfect_profile(40), medium="random-pure", seed=1),
     "sector eigensystems of 40 sites"),
    (lambda: DensityMatrix.maximally_mixed(13), "maximally mixed state on 13 sites"),
    (lambda: _PURE13.density_matrix(), "density matrix of a pure state on 13 sites"),
    (lambda: DensityMatrix(13, np.broadcast_to(np.complex128(0), (2**13, 2**13))),
     "density matrix on 13 sites"),
    (lambda: conjugate_operator(PauliString.single(13, 1, "X"), perfect_profile(13), 0.1),
     "dense operator conjugation on 13 sites"),
    (lambda: verify_protocol_identities(perfect_profile(13)), "identity checks on 13 sites"),
    (lambda: verify_transfer_condition(perfect_profile(12)), "transfer condition on 12 sites"),
])
def test_refused_before_allocating(monkeypatch, call, message):
    # no eigensolve and no large array before the refusal
    monkeypatch.setattr(oracle, "_eigensystems", None)
    monkeypatch.setattr(heisenberg, "_eigensystem", None)

    def refused():
        with pytest.raises(ResourceLimitError, match=message + ".*past the memory budget"):
            call()

    assert _peak(refused) < 2**20


def _pin(monkeypatch, module, call):
    """The first estimate `module` passes to check_memory during call(),
    checked to lie within one and two times the call's tracemalloc peak."""
    estimates = []
    monkeypatch.setattr(module, "check_memory", lambda nbytes, what: estimates.append(nbytes))
    peak = _peak(call)
    assert estimates, "no estimate was made"
    assert peak <= estimates[0] <= 2 * peak, (estimates[0], peak, estimates[0] / peak)


@pytest.mark.parametrize("n", [1000, 2000])
def test_coefficient_trace_estimate(monkeypatch, n):
    # a palindrome, solved in its two reflection sectors
    _pin(monkeypatch, heisenberg, lambda: coefficient_trace(perfect_profile(n), np.pi / 4, 257))


@pytest.mark.parametrize("rates", [
    np.full(999, 2.0), np.r_[1.0, np.full(998, 2.0)], np.full(1000, 2.0),
    np.full((8, 99), 2.0), np.full((3, 299), 1.5),
], ids=["palindrome", "one solve", "odd palindrome", "stack", "stack of palindromes"])
def test_propagator_estimate(monkeypatch, rates):
    _pin(monkeypatch, heisenberg, lambda: Propagator(rates))


@pytest.fixture(scope="module")
def chains():
    """One 1000-site chain and a stack of 16 palindromes of 200 sites."""
    return Propagator(np.r_[1.3, np.full(998, 2.0)]), Propagator(np.full((16, 199), 2.0))


@pytest.mark.parametrize("rows, cols", [(0, -1), (0, None), ([0, -1], None), ([0, -1], [0, 1, 2])])
@pytest.mark.parametrize("grid", [True, False])
def test_entries_estimate(monkeypatch, chains, rows, cols, grid):
    # a time array on one chain and on a stack; a uniform grid takes its
    # phase table as a coarse x fine product, any other array directly
    times = np.linspace(0.0, 3.0, 257)
    if not grid:
        times[1] += 1e-3
    for chain_ in chains:
        _pin(monkeypatch, heisenberg, lambda: chain_.entries(times, rows, cols))


@pytest.mark.parametrize("rates", [np.full(999, 2.0), np.full((4, 199), 2.0)], ids=["one", "stack"])
def test_thermal_correlation_estimate(monkeypatch, rates):
    chain_ = Propagator(rates)
    _pin(monkeypatch, heisenberg, lambda: chain_.thermal_correlation(0.7))


def test_sweep_estimate(monkeypatch):
    # one row per chunk, where the chunk's own arrays set the peak
    _pin(monkeypatch, optimize, lambda: sweep(700, resolution=(8, 96)))


@pytest.mark.parametrize("cold", [True, False])
def test_density_matrix_evolution_estimate(monkeypatch, cold):
    profile = perfect_profile(9)
    state = evolve(DensityMatrix.maximally_mixed(9), profile, 0.1)
    if cold:
        oracle._sector_eigh.cache_clear()
    _pin(monkeypatch, oracle, lambda: evolve(state, profile, 0.3))


@pytest.mark.parametrize("variant", ["subchain", "fullchain"])
def test_thermal_medium_estimate(monkeypatch, variant):
    oracle._sector_eigh.cache_clear()
    _pin(monkeypatch, oracle, lambda: thermal_medium(perfect_profile(12), 1.0, variant))


def test_dense_hamiltonian_estimate(monkeypatch):
    _pin(monkeypatch, chain, lambda: dense_hamiltonian(perfect_profile(10)))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_sector_eigensystems_estimate(monkeypatch, n):
    profile = perfect_profile(n)
    oracle._sector_eigh.cache_clear()
    _pin(monkeypatch, oracle, lambda: (oracle.check_size(n), oracle._sector_eigh(profile)))


def test_density_matrix_estimates(monkeypatch):
    state = StateVector.basis(10, 3)
    matrix = np.eye(2**10, dtype=complex) / 2**10
    _pin(monkeypatch, oracle, lambda: DensityMatrix.maximally_mixed(10))
    monkeypatch.undo()
    _pin(monkeypatch, oracle, state.density_matrix)
    monkeypatch.undo()
    _pin(monkeypatch, oracle, lambda: DensityMatrix(10, matrix))


def test_conjugation_estimate(monkeypatch):
    profile = perfect_profile(10)
    _pin(monkeypatch, oracle, lambda: conjugate_operator(PauliString.single(10, 1, "X"), profile, 0.3))


def test_identity_checks_estimate(monkeypatch):
    _pin(monkeypatch, protocol, lambda: verify_protocol_identities(perfect_profile(9)))


@pytest.mark.parametrize("mid", ["I", "Z"])
def test_transfer_condition_estimate(monkeypatch, mid):
    _pin(monkeypatch, protocol, lambda: verify_transfer_condition(perfect_profile(9), mid_op=mid))


@pytest.mark.parametrize("n, medium", [
    (10, DensityMatrix.maximally_mixed(8)), (12, "random-pure"), (11, StateVector.basis(9, 3)),
])
def test_exact_protocol_estimate(monkeypatch, n, medium):
    # with the chain's eigensystems cached: check_size bounds them (22 MB
    # of the 26 MB cold peak with a random-pure medium at n = 12), and the
    # estimate counts the columns alone
    profile = perfect_profile(n)
    oracle._sector_eigh(profile)
    config = ProtocolConfig(profile, axial_state("+x"), medium=medium, seed=5)
    _pin(monkeypatch, protocol, lambda: run_protocol_branches(config))


@pytest.mark.parametrize("medium, variant", [
    ("all-zero", "subchain"), ("maximally-mixed", "subchain"),
    ("thermal:0.5", "subchain"), ("thermal:0.5", "fullchain"),
])
@pytest.mark.parametrize("profile", [perfect_profile(1000), boundary_profile(1001, 0.7)],
                         ids=["perfect-1000", "boundary-1001"])
def test_gaussian_protocol_estimate(monkeypatch, profile, medium, variant):
    config = ProtocolConfig(profile, axial_state("+x"), medium=medium, thermal_variant=variant)
    _pin(monkeypatch, protocol, lambda: run_protocol_branches(config))
