import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

from xxqst import (
    CouplingProfile,
    InternalConsistencyError,
    Propagator,
    StateVector,
    boundary_profile,
    coefficient_trace,
    estimate_fidelity,
    evolve,
    mirror_propagate,
    perfect_profile,
    propagate,
    reduced_state,
)
from xxqst.heisenberg import (
    _MIRROR_SITES,
    _pair_factors,
    _phase_table,
    _product_table,
    _sum_products,
    gaussian_end_expectations,
)

import reference

_EPS = np.finfo(float).eps


def test_time_zero_is_unit_vector():
    for n in (2, 3, 6):
        vec = propagate(perfect_profile(n), 0.0)
        assert vec.values[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(vec.values[1:])) < 1e-14


def test_two_site_closed_form():
    gen = perfect_profile(2)
    for t in (0.1, 0.9, -1.4):
        vec = propagate(gen, t)
        assert vec.values == pytest.approx((math.cos(2 * t), math.sin(2 * t)), abs=1e-12)


def test_two_site_sign_matches_reference():
    # the sign convention is pinned by conjugating X_1 in the dense engine
    ref = reference.string_coefficients((1.0,), 0.6)
    vec = propagate(perfect_profile(2), 0.6)
    assert np.allclose(vec.values, ref, atol=1e-10)


def test_norm_conserved(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        profile = CouplingProfile(n, tuple(rng.random(n - 1) + 0.2))
        t = float(rng.uniform(-3, 3))
        vec = propagate(profile, t)
        assert vec.norm == pytest.approx(1.0, abs=1e-10)


def test_group_property(rng):
    profile = CouplingProfile(6, tuple(rng.random(5) + 0.3))
    s, t = 0.71, 1.13
    direct = propagate(profile, s + t).values
    stepped = expm(reference.staggered_generator(profile.rates) * s) @ propagate(profile, t).values
    assert np.max(np.abs(direct - stepped)) < 1e-10


def test_matches_dense_exponential(rng):
    # exp(M t) e_1 against scipy on the staggered matrix itself
    for n in (3, 5, 8, 16):
        profile = CouplingProfile(n, tuple(rng.random(n - 1) + 0.2))
        t = float(rng.uniform(0, 2))
        assert np.max(
            np.abs(propagate(profile, t).values - expm(reference.staggered_generator(profile.rates) * t)[:, 0])
        ) < 1e-12


def test_mirror_equals_forward_for_centrosymmetric():
    gen = perfect_profile(7)
    for t in (0.2, 1.5):
        assert np.max(
            np.abs(mirror_propagate(gen, t).values - propagate(gen, t).values)
        ) < 1e-10


def test_mirror_differs_for_asymmetric_profile():
    gen = CouplingProfile(4, (1.0, 2.0, 3.0))
    fwd = propagate(gen, 0.7).values
    back = mirror_propagate(gen, 0.7).values
    assert np.max(np.abs(fwd - back)) > 1e-3
    assert mirror_propagate(gen, 0.0).values[0] == pytest.approx(1.0)


def test_mirror_equals_forward_propagation_on_the_reversed_profile(rng):
    # one eigensystem gives both families: zeta o u[N-1, ::-1] against a
    # second eigensystem of the reversed chain
    for n in list(range(2, 65)) + [1000]:
        profile = CouplingProfile(n, tuple(rng.random(n - 1) + 0.2))
        t = float(rng.uniform(0.0, 4.0))
        back = profile.reversed()
        assert np.max(np.abs(mirror_propagate(profile, t).values - propagate(back, t).values)) < 1e-13
        mirrored = coefficient_trace(profile, t, 3, origin="siteN").values
        assert np.max(np.abs(mirrored - coefficient_trace(profile.reversed(), t, 3).values)) < 1e-13


def test_mirror_matches_reference_strings(rng):
    couplings = (0.5, 1.7, 0.9)
    vec = mirror_propagate(CouplingProfile(4, couplings), 0.83)
    ref = reference.string_coefficients(couplings, 0.83, origin="siteN")
    assert np.allclose(vec.values, ref, atol=1e-10)


@pytest.mark.parametrize("n", range(2, 33))
def test_perfect_revival_endpoint(n):
    vec = propagate(perfect_profile(n), math.pi / 4)
    assert abs(vec.values[-1]) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(vec.values[:-1])) < 1e-9


def test_revival_sign_pattern():
    # + for chain lengths 1 or 2 mod 4, - for 3 or 0 mod 4
    signs = {
        n: np.sign(propagate(perfect_profile(n), math.pi / 4).values[-1])
        for n in range(2, 12)
    }
    for n, sign in signs.items():
        assert sign == (1.0 if n % 4 in (1, 2) else -1.0)


def test_trace_shape_and_endpoint():
    trace = coefficient_trace(perfect_profile(5), math.pi / 4, 100)
    assert trace.values.shape == (100, 5)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(math.pi / 4)
    assert trace.values[-1, -1] == pytest.approx(1.0, abs=1e-9)


def test_trace_peak_near_revival():
    trace = coefficient_trace(perfect_profile(5), math.pi / 2, 200)
    peak = int(np.argmax(np.abs(trace.values[:, -1])))
    assert trace.times[peak] == pytest.approx(math.pi / 4, abs=0.01)


def test_trace_two_steps():
    trace = coefficient_trace(perfect_profile(3), 1.0, 2)
    assert list(trace.times) == [0.0, 1.0]


def test_trace_validation():
    with pytest.raises(ValueError):
        coefficient_trace(perfect_profile(3), 1.0, 1)
    with pytest.raises(ValueError):
        coefficient_trace(perfect_profile(3), -1.0, 10)


def test_estimate_fidelity_values():
    assert estimate_fidelity(perfect_profile(5), math.pi / 4) == pytest.approx(1.0, abs=1e-9)
    assert estimate_fidelity(perfect_profile(5), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert estimate_fidelity(boundary_profile(5, 0.815), 1.92) > 0.999


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_time_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Propagator(perfect_profile(4).rates).coefficients(bad)
    with pytest.raises(ValueError, match="finite"):
        estimate_fidelity(perfect_profile(4), bad)
    prop = Propagator(perfect_profile(4).rates)
    for times in (bad, np.array([0.3, bad])):
        with pytest.raises(ValueError, match="finite"):
            prop.end_weights(times)
    with pytest.raises(ValueError, match="finite"):
        gaussian_end_expectations(prop, bad, (0, 0, 1), (np.ones(2), None), 1j)
    # a bad entry among good times, and a 2-D array, which is not flattened
    for times in (np.array([0.3, bad, 0.5]), np.full((2, 2), 0.3)):
        with pytest.raises(ValueError, match="finite"):
            prop.coefficients_many(times)


def test_end_weights_match_last_coefficient(rng):
    # odd N puts a zero mode in the spectrum
    times = np.concatenate(([0.0], rng.uniform(-4.0, 4.0, 16)))
    for n in range(2, 65):
        prop = Propagator(CouplingProfile(n, tuple(rng.random(n - 1) + 0.2)).rates)
        expected = prop.coefficients_many(times)[:, -1] ** 2
        weights = prop.end_weights(times)
        assert weights.shape == times.shape
        assert np.max(np.abs(weights - expected)) <= 1e-15
        for t, value in zip(times, expected):
            one = prop.end_weights(t)
            assert isinstance(one, float)
            assert abs(one - value) <= 1e-15


def test_tridiagonal_solve_matches_eigh_tridiagonal(rng):
    # eigh_tridiagonal runs the same LAPACK driver, stevd, for all eigenpairs;
    # a palindrome one site short of the mirror path takes one solve as well
    n = _MIRROR_SITES - 1
    for profile in (perfect_profile(5), boundary_profile(12, 0.7),
                    CouplingProfile(9, tuple(rng.random(8) + 0.2)),
                    perfect_profile(n), boundary_profile(n, 0.7)):
        w, v = eigh_tridiagonal(np.zeros(profile.n_sites), profile.rates)
        prop = Propagator(profile.rates)
        assert np.array_equal(prop.eigenvalues, w)
        u = (v * np.exp(-1j * 0.7 * w)) @ v.T
        assert np.array_equal(prop.entries(0.7, list(range(profile.n_sites))), u)
    # a long chain one ulp off a palindrome: the same eigensystem bit for bit
    # (at this size the complex GEMM above sums in another order than entries)
    rates = perfect_profile(1000).rates.copy()
    rates[0] = np.nextafter(rates[0], math.inf)
    w, v = eigh_tridiagonal(np.zeros(1000), rates)
    prop = Propagator(rates)
    assert np.array_equal(prop._w, w) and np.array_equal(prop._v, v)


def _wrap(index, n):
    """An index or list of indices taken mod n, so one set of cases serves
    every chain length."""
    return index % n if isinstance(index, int) else [i % n for i in index]


# (rows, cols) cases of entries, as indices into a 7-site chain
_ENTRY_CASES = ((0, None), (0, -1), (3, 0), ([0, -1], None), ([0, -1], [2, 0]),
                (3, [1, 4]), ([0, -1], 2), ([1, 5], 2))


def test_entries_take_ints_lists_and_time_arrays(rng):
    # even and odd N: the time-array branch folds the +-w pairs, and odd N
    # leaves the middle eigenvalue unpaired
    for n in (2, 3, 4, 7):
        prop = Propagator(CouplingProfile(n, tuple(rng.random(n - 1) + 0.2)).rates)
        times = np.array([0.0, 0.4, -1.3])
        full = np.stack([prop.entries(t, list(range(n))) for t in times])
        assert np.max(np.abs(full[0] - np.eye(n))) < 1e-15
        # u is unitary and symmetric
        assert np.max(np.abs(full[1] @ full[1].conj().T - np.eye(n))) < 1e-14
        assert np.max(np.abs(full[1] - full[1].T)) < 1e-15
        for rows, cols in _ENTRY_CASES[:-1]:
            rows, cols = _wrap(rows, n), None if cols is None else _wrap(cols, n)
            stacked = prop.entries(times, rows, cols)
            cut = full[:, rows] if cols is None else full[:, rows][..., cols]
            assert stacked.shape == cut.shape
            assert np.max(np.abs(stacked - cut)) < 1e-15
            for t, one in zip(times, cut):
                assert np.max(np.abs(prop.entries(t, rows, cols) - one)) < 1e-15


def test_residue_check_fires_on_a_broken_phase_convention(monkeypatch):
    rates = perfect_profile(6).rates
    times = np.linspace(0.1, 1.0, 5)
    # one chain, and a stack of two
    for prop in (Propagator(rates), Propagator([rates, boundary_profile(6, 0.7).rates])):
        # zeta = 1 everywhere drops the factor i of the even-numbered strings,
        # the sixth, alpha_N, among them
        monkeypatch.setattr(prop, "_zeta", np.ones(6, dtype=complex))
        for t in (0.4, times):
            with pytest.raises(InternalConsistencyError, match="imaginary residue"):
                prop.coefficients_many(t)
            with pytest.raises(InternalConsistencyError, match="imaginary residue"):
                prop.end_weights(t)


def test_residue_bound_follows_the_roundoff_model(monkeypatch):
    # near the revival at t = 201 pi/4, where max|w| t = 3.2e5: correct
    # output with an imaginary residue of 2.7e-12, past a fixed 1e-12
    trace = coefficient_trace(perfect_profile(1000), 157.86503084864614, 2)
    assert abs(trace.values[-1, -1]) == pytest.approx(1.0, abs=1e-9)
    # an imaginary part just inside or just past 64 eps (1 + max|w| |t|), or NaN;
    # odd N, so zeta_N = 1 and u_1N's imaginary part is alpha_N's
    prop = Propagator(perfect_profile(5).rates)
    entries, t = prop.entries, 0.7
    bound = 64 * np.finfo(float).eps * (1 + np.abs(prop.eigenvalues).max() * t)
    for factor, fires in ((0.9, False), (1.1, True), (math.nan, True)):
        monkeypatch.setattr(prop, "entries", lambda *args: entries(*args) + 1j * factor * bound)
        for call in (prop.coefficients, prop.end_weights):
            if fires:
                with pytest.raises(InternalConsistencyError, match="imaginary residue"):
                    call(t)
            else:
                call(t)


def test_residue_bound_is_per_batch_row(monkeypatch):
    # a slow chain and a fast one: an imaginary part just inside the fast
    # chain's bound passes on its own row and fires on the slow row
    prop = Propagator([CouplingProfile(5, (c,) * 4).rates for c in (0.1, 2.0)])
    entries, t = prop.entries, 0.7
    bounds = 64 * np.finfo(float).eps * (1 + np.abs(prop.eigenvalues).max(axis=1) * t)
    assert bounds[1] > 1.5 * bounds[0]
    for shift, fires in ((0.9 * bounds, False), (0.9 * bounds[1], True)):
        monkeypatch.setattr(prop, "entries", lambda *args: entries(*args) + 1j * shift)
        if fires:
            with pytest.raises(InternalConsistencyError, match="imaginary residue"):
                prop.end_weights(t)
        else:
            prop.end_weights(t)


def test_stacked_propagator_is_a_batch_of_single_ones(rng):
    for n in (2, 3, 4, 7):
        rates = rng.random((3, n - 1)) + 0.2
        stacked, singles = Propagator(rates), [Propagator(row) for row in rates]
        assert np.array_equal(stacked.eigenvalues, np.stack([p.eigenvalues for p in singles]))
        for times in (0.4, np.array([0.0, 0.4, -1.3])):
            for rows, cols in _ENTRY_CASES:
                rows, cols = _wrap(rows, n), None if cols is None else _wrap(cols, n)
                batch = stacked.entries(times, rows, cols)
                each = np.stack([p.entries(times, rows, cols) for p in singles])
                assert batch.shape == each.shape
                assert np.max(np.abs(batch - each)) < 1e-15
            for name in ("coefficients_many", "end_weights"):
                batch = getattr(stacked, name)(times)
                each = np.stack([getattr(p, name)(times) for p in singles])
                assert batch.shape == each.shape
                assert np.max(np.abs(batch - each)) < 1e-15
        batch = stacked.thermal_correlation(0.8)
        each = np.stack([p.thermal_correlation(0.8) for p in singles])
        assert np.max(np.abs(batch - each)) < 1e-15


def test_stacked_propagator_needs_generators_of_one_length():
    rows = [perfect_profile(n).rates for n in (5, 6)]
    with pytest.raises(ValueError, match="2-D"):
        Propagator(rows)
    with pytest.raises(ValueError, match="at least one row"):
        Propagator(np.empty((0, 4)))


@pytest.mark.parametrize("rates", [
    [[1.0, 2.0], [1.0]],                  # ragged rows
    [],                                   # no rates
    np.empty((0, 3)),                     # no rows
    np.empty((2, 0)),                     # no columns
    np.ones((2, 3, 3)),                   # 3-D
    [[1.0, math.nan]],
    [[1.0, 1.0], [math.inf, 1.0]],
    [[-math.inf, 1.0]],
    [perfect_profile(3)],                 # a profile, not its rates
    [math.nan, 1.0],                      # one chain
    [1.0, math.inf],
    [-math.inf],
    np.empty(0),
    np.array(2.0),                        # 0-D
    np.ones((1, 1, 3)),                   # one chain, wrapped twice
])
def test_stacked_propagator_validates_its_rates(rates):
    with pytest.raises(ValueError, match="coupling rates"):
        Propagator(rates)


def test_stacked_rates_are_copied_read_only():
    for rates in (np.ones((2, 3)), np.ones(3)):
        prop = Propagator(rates)
        rates[..., 0] = 5.0
        assert np.all(prop.rates == 1.0)
        with pytest.raises(ValueError):
            prop.rates[..., 0] = 5.0


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_unpaired_spectrum_raises_on_the_folded_branch(rng, monkeypatch, n):
    # the time-axis branch folds w_(N-1-k) = -w_k; a pair broken by 100 eps
    # max|w|, past the 64 eps max|w| bound, must raise there, while the
    # scalar branch, which takes every eigenvalue as it is, still runs
    times = np.array([0.3, 1.1])
    for prop in (Propagator(CouplingProfile(n, tuple(rng.random(n - 1) + 0.2)).rates),
                 Propagator(rng.random((2, n - 1)) + 0.2)):
        w = prop.eigenvalues
        w[..., 0] += 100 * np.finfo(float).eps * np.abs(w).max(axis=-1)
        monkeypatch.setattr(prop, "_w", w)
        for call in (prop.end_weights, prop.coefficients_many):
            with pytest.raises(InternalConsistencyError, match="not paired"):
                call(times)
        if w.ndim == 1:
            prop.end_weights(0.7)
            prop.coefficients(0.7)
            prop.entries(0.7, [0, n - 1])
        else:
            with pytest.raises(InternalConsistencyError, match="not paired"):
                prop.end_weights(0.7)


_TIME = st.floats(-200.0, 200.0)


@st.composite
def _time_arrays(draw, longest=200):
    """(kind, times): a linspace grid, ascending, descending or constant, of
    0 to 3 or more times, as built ("grid"), with one time 1 ulp or 1e-9 off
    ("ulp", "1e-9"), or an array that need be no grid ("any")."""
    nt = draw(st.one_of(st.integers(0, 3), st.integers(4, longest)))
    kind = draw(st.sampled_from(("grid", "ulp", "1e-9", "any")))
    if kind == "any":
        return kind, np.array(draw(st.lists(_TIME, min_size=nt, max_size=nt)), dtype=float)
    lo, hi = sorted((draw(_TIME), draw(_TIME)))
    start, stop = draw(st.sampled_from(((lo, hi), (hi, lo), (lo, lo))))
    times = np.linspace(start, stop, nt)
    if nt and kind != "grid":
        i = draw(st.integers(0, nt - 1))
        times[i] = np.nextafter(times[i], math.inf) if kind == "ulp" else times[i] + 1e-9
    return kind, times


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_time_arrays(), st.integers(1, 8).flatmap(
    lambda m: st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)), st.booleans())
def test_phase_table_matches_direct_cos_and_sin(case, w, stacked):
    # exp(-i w t) against one cos and one sin per entry.  A grid's table is
    # a coarse x fine product whose times lie within 8 eps max|t| of the
    # given ones: measured at most 2.75 eps (1 + |w| max|t|) off over
    # 20,000 random arrays of these kinds.  An array that is no grid (one
    # time 1e-9 off, at three times or more) takes one cos and one sin per
    # entry, bit for bit
    kind, times = case
    w = np.array(w)
    if stacked:
        w = np.stack([w, -0.5 * w])
    table = _phase_table(w, times)
    assert table.shape == w.shape[:-1] + (len(times), w.shape[-1])
    phase = w[..., None, :] * -times[:, None]
    direct = np.cos(phase) + 1j * np.sin(phase)
    if kind == "1e-9" and len(times) >= 3:
        assert np.array_equal(table, direct)
    span = np.abs(times).max(initial=0.0)
    bound = 4 * _EPS * (1 + np.abs(w)[..., None, :] * span)
    assert np.all(np.abs(table - direct) <= bound)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_time_arrays(longest=40), st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_grid_results_match_per_time_calls(case, n, seed, stacked):
    # end_weights and coefficients_many on a time array against one call
    # per time, on one chain (the scalar branch) and on a stack (one time
    # each), within the residue model at the array's largest time,
    # 64 eps (1 + max|w| max|t|); an empty array keeps its shapes
    _, times = case
    rates = np.random.default_rng(seed).random((2, n - 1)) + 0.2
    prop = Propagator(rates if stacked else rates[0])
    w_max = np.abs(prop.eigenvalues).max(axis=-1)
    bound = 64 * _EPS * (1 + w_max * np.abs(times).max(initial=0.0))
    batch = (2,) if stacked else ()
    weights, many = prop.end_weights(times), prop.coefficients_many(times)
    assert weights.shape == batch + times.shape
    assert many.shape == batch + times.shape + (n,)
    if len(times):
        each = np.stack([prop.end_weights(t) for t in times], axis=-1)
        assert np.all(np.abs(weights - each) <= 2 * np.asarray(bound)[..., None])
        each = np.stack([prop.coefficients_many(t) for t in times], axis=-2)
        assert np.all(np.abs(many - each) <= np.asarray(bound)[..., None, None])


def test_perfect_chain_matches_its_closed_form():
    # an exact long-chain reference with no 2**n matrix, the closed form in
    # mpmath, for the time-array branch (its filled table, and its folded
    # single entry through end_weights) and the scalar branch alike, within
    # the residue bound's roundoff model 64 eps (1 + max|w| t); alpha_N^2
    # within twice that, as |a^2 - b^2| <= 2 |a - b| for |a|, |b| <= 1
    times = np.array([0.1, 0.3, 0.7, 1.1, 2.0, 5.0])
    eps = np.finfo(float).eps
    for n in list(range(2, 65)) + [999, 1000]:
        prop = Propagator(perfect_profile(n).rates)
        w_max = np.abs(prop.eigenvalues).max()
        many, weights = prop.coefficients_many(times), prop.end_weights(times)
        rows = reference.perfect_chain_coefficients(n, times)
        for t, row, weight, expected in zip(times, many, weights, rows):
            bound = 64 * eps * (1 + w_max * t)
            assert np.max(np.abs(row - expected)) <= bound
            assert np.max(np.abs(prop.coefficients(t) - expected)) <= bound
            assert abs(weight - expected[-1] ** 2) <= 2 * bound
    # the CLI's uniform grids up to the first revival and a late one, whose
    # phase tables are coarse x fine products, on a sample of grid times:
    # both ends, each side of the first coarse step and the middle; the
    # engine measured at most 0.064 times the bound
    for n in (999, 1000, 1001):
        prop = Propagator(perfect_profile(n).rates)
        w_max = np.abs(prop.eigenvalues).max()
        for t_max, steps in ((math.pi / 4, 257), (201 * math.pi / 4, 65)):
            grid = np.linspace(0.0, t_max, steps)
            k = math.isqrt(steps - 1) + 1
            sample = sorted({0, 1, 2, k - 1, k, k + 1, steps // 2, steps - 2, steps - 1})
            expected = reference.perfect_chain_coefficients(n, grid[sample])
            bound = 64 * eps * (1 + w_max * grid[sample])
            assert np.all(np.abs(prop.coefficients_many(grid)[sample] - expected) <= bound[:, None])
            assert np.all(np.abs(prop.end_weights(grid)[sample] - expected[:, -1] ** 2) <= 2 * bound)


# ---------------------------------------------------------------------------
# Mirror-symmetric chains, solved in their two reflection sectors
# ---------------------------------------------------------------------------

_MIRROR_SIZES = (_MIRROR_SITES, _MIRROR_SITES + 1, 64, 999, 1000, 1001)


def _palindromes(n):
    """Rates that read the same both ways on n sites, by name."""
    chains = {"perfect": perfect_profile(n).rates}
    for eta in (1e-4, 0.05, 0.7, 1.5):
        chains[f"boundary:{eta}"] = boundary_profile(n, eta).rates
    # the middle bond (both middle bonds for odd n) cut: two decoupled
    # uniform halves, so a doubly degenerate spectrum
    middle = CouplingProfile(n, (1.0,) * (n - 1)).rates.copy()
    middle[[n // 2 - 1, (n - 1) // 2]] = 0.0
    chains["zero middle"] = middle
    # rate i mirrors rate -(i + 1)
    elsewhere = boundary_profile(n, 0.7).rates.copy()
    elsewhere[[2, -3, n // 4, -(n // 4) - 1]] = 0.0
    chains["zero elsewhere"] = elsewhere
    return chains


def _tridiagonal_product(rates, v):
    """A V for A the zero-diagonal tridiagonal matrix of the rates."""
    product = np.zeros_like(v)
    product[:-1] += rates[:, None] * v[1:]
    product[1:] += rates[:, None] * v[:-1]
    return product


@pytest.mark.parametrize("n", _MIRROR_SIZES)
def test_mirror_eigensystem_against_independent_references(n):
    # A V = V W, V^T V = I, the +-w pairing and the ascending eigenvalues
    # of one solve, then the coefficients
    # against the exponential of the staggered M itself (dense expm; the
    # sparse action of the same exponential past 64 sites, where one dense
    # expm costs 0.35-3.5 s), within the roundoff model 64 eps (1 + max|w| |t|)
    times = np.array([0.3, math.pi / 4, 3.0])
    start = np.zeros(n)
    start[0] = 1.0
    for name, rates in _palindromes(n).items():
        prop = Propagator(rates)
        w, v = prop._w, prop._v
        # the sector order, not the ascending order of one solve
        assert not np.all(np.diff(w) >= 0), name
        w_max = np.abs(w).max()
        # measured at most 3.8 eps max|w| and 15 eps over these chains
        assert np.abs(_tridiagonal_product(rates, v) - v * w).max() <= 64 * _EPS * w_max, name
        assert np.abs(v.T @ v - np.eye(n)).max() <= 64 * _EPS, name
        assert np.array_equal(w, -w[::-1]), name
        # eigenvalues sorts the sector order, so its contract holds
        ascending = eigh_tridiagonal(np.zeros(n), rates, eigvals_only=True)
        assert np.all(np.diff(prop.eigenvalues) >= 0), name
        assert np.abs(prop.eigenvalues - ascending).max() <= 64 * _EPS * w_max, name
        generator = reference.staggered_generator(rates)
        if n <= 64:
            expected = np.stack([expm(generator * t)[:, 0] for t in times])
        else:
            sparse = csr_array(generator)
            expected = np.stack([expm_multiply(sparse * t, start) for t in times])
        bound = 64 * _EPS * (1 + w_max * times[:, None])
        assert np.all(np.abs(prop.coefficients_many(times) - expected) <= bound), name


@pytest.mark.parametrize("n", [_MIRROR_SITES, _MIRROR_SITES + 1, 40])
def test_stack_of_palindromic_and_other_rows_is_a_batch_of_single_ones(rng, n):
    # each row takes its own path: the sector solves or one solve
    half = rng.random(n // 2) + 0.2
    rates = np.stack([perfect_profile(n).rates, rng.random(n - 1) + 0.2,
                      boundary_profile(n, 0.7).rates,
                      np.concatenate((half, half[: (n - 1) // 2][::-1]))])
    assert np.array_equal(rates[3], rates[3][::-1])
    stacked, singles = Propagator(rates), [Propagator(row) for row in rates]
    assert np.array_equal(stacked.eigenvalues, np.stack([p.eigenvalues for p in singles]))
    assert np.array_equal(stacked._v, np.stack([p._v for p in singles]))
    times = np.array([0.0, 0.4, -1.3])
    for t in (0.4, times):
        for name in ("coefficients_many", "end_weights"):
            batch = getattr(stacked, name)(t)
            each = np.stack([getattr(p, name)(t) for p in singles])
            assert batch.shape == each.shape
            assert np.max(np.abs(batch - each)) < 1e-15
        batch = stacked.entries(t, [0, n - 1])
        each = np.stack([p.entries(t, [0, n - 1]) for p in singles])
        assert np.max(np.abs(batch - each)) < 1e-15


_RATE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(_MIRROR_SITES, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_RATE, min_size=n // 2, max_size=n // 2))))
def test_mirror_path_entries_match_one_tridiagonal_solve(case):
    # u(t) from the sector solves against u(t) from one stevd solve of the
    # whole chain, for palindromes of any scale and sign, with zero rates
    # among them
    n, half = case
    rates = np.array(half + half[: (n - 1) // 2][::-1])
    w, v = eigh_tridiagonal(np.zeros(n), rates)
    prop = Propagator(rates)
    times = np.array([0.0, 0.013, 0.41, 2.7])
    bound = 64 * _EPS * (1 + np.abs(w).max() * times)
    expected = np.stack([(v * np.exp(-1j * t * w)) @ v.T for t in times])
    got = prop.entries(times, list(range(n)))
    assert np.all(np.abs(got - expected) <= bound[:, None, None])
    for t, b, u in zip(times, bound, expected):
        assert abs(prop.entries(t, 0, -1) - u[0, -1]) <= b


def test_residue_bound_takes_the_largest_eigenvalue_in_any_order(monkeypatch):
    # a negative middle rate on an even palindrome gives T+ a negative last
    # diagonal entry, so -min(T+) > max(T+), and the sector order
    # [-w of T+ reversed | w of T+] puts max|w| at neither end
    n = _MIRROR_SITES + _MIRROR_SITES % 2
    rates = boundary_profile(n, 0.7).rates.copy()
    rates[n // 2 - 1] = -3.0
    t = 10.0
    # one chain, and a stack of two; zeta_1 = 1, so the first coefficient
    # keeps an imaginary part of u_11 as its own
    for prop in (Propagator(rates), Propagator([rates, rates])):
        w_max = np.abs(prop.eigenvalues).max(axis=-1)
        assert np.all(np.abs(prop._w[..., [0, -1]]).max(axis=-1) < 0.9 * w_max)
        # an imaginary part inside the bound, which the largest |w| at an end
        # would put outside it
        shift = 0.95 * 64 * _EPS * (1 + w_max[..., None] * t)
        entries = prop.entries
        monkeypatch.setattr(prop, "entries", lambda *args: entries(*args) + 1j * shift)
        prop.coefficients_many(t)


def test_zero_rate_palindrome_leaves_roundoff_beyond_the_cut():
    # couplings 1, 2, 0, 2, 1, ... cut site 1 off from sites 4..26.  One
    # solve splits there and gives exact zeros; the sector solves pair each
    # cut-off block with its mirror image, whose contributions cancel only to
    # roundoff (at most 5e-17 on this trace), inside the roundoff model
    couplings = (1.0, 2.0, 0.0, 2.0, 1.0) + (1.0,) * 15 + (1.0, 2.0, 0.0, 2.0, 1.0)
    profile = CouplingProfile(26, couplings)
    trace = coefficient_trace(profile, math.pi / 4, 5)
    w_max = np.abs(Propagator(profile.rates).eigenvalues).max()
    bound = 64 * _EPS * (1 + w_max * trace.times)
    assert np.all(np.abs(trace.values[:, 3:]) <= bound[:, None])
    assert np.max(np.abs(trace.values[-1, :3])) > 0.1


def test_propagator_reusable_and_deterministic():
    prop = Propagator(perfect_profile(6).rates)
    times = np.linspace(0, 2, 7)
    a = prop.coefficients_many(times)
    b = prop.coefficients_many(times)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64


def test_coefficient_vector_is_immutable():
    vec = propagate(perfect_profile(3), 0.4)
    with pytest.raises(ValueError):
        vec.values[0] = 5.0


# ---------------------------------------------------------------------------
# Pfaffians and Wick evaluation
# ---------------------------------------------------------------------------

def _antisymmetric(rng, *shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return a - np.swapaxes(a, -1, -2)


def test_pfaffian_squares_to_the_determinant(rng):
    for m in range(2, 42, 2):
        stack = _antisymmetric(rng, 4, m, m)
        pf = reference.pfaffian(stack)
        assert pf.shape == (4,)
        det = np.linalg.det(stack)
        assert np.max(np.abs(pf**2 - det) / np.abs(det)) < 1e-10


def test_pfaffian_four_by_four_closed_form(rng):
    a = _antisymmetric(rng, 4, 4)
    closed = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert abs(reference.pfaffian(a) - closed) < 1e-14
    # the first pivot is zero: the largest entry of column 0 is swapped up
    a[0, 1] = a[1, 0] = 0.0
    closed = -a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert abs(reference.pfaffian(a) - closed) < 1e-14


def test_pfaffian_of_singular_matrices_is_zero(rng):
    a = _antisymmetric(rng, 6, 6)
    a[:, 0] = a[0, :] = 0.0
    assert reference.pfaffian(a) == 0.0
    # rank 2: u v^T - v u^T, exact in binary arithmetic
    u = np.array([1.0, 2.0, 0.0, 1.0, 0.0, 3.0])
    v = np.array([0.0, 1.0, 1.0, 2.0, 1.0, 0.0])
    assert reference.pfaffian(np.outer(u, v) - np.outer(v, u)) == 0.0
    assert reference.pfaffian(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]


def test_pfaffian_rejects_odd_or_non_square_shapes():
    for shape in ((3, 3), (2, 4), (5, 3, 3)):
        with pytest.raises(ValueError, match="even size"):
            reference.pfaffian(np.zeros(shape))


def _pair_pfaffian(k, delta, u, v, forms):
    """Pf of the moments of the pairs (i delta_j, u[j], v[j]) and then the
    sorted forms, with k among them.  Each zero-delta pair integrates out to
    a two-form in the forms, so with more than len(forms) / 2 of them the
    value is exactly 0.  The value is linear in each i delta_j, and a delta_j
    below 1e-6 is taken out of the elimination, which would lose it against
    the O(1) entries: Pf = Pf(delta_j = 0) + i delta_j Pf(without pair j)."""
    zero = delta == 0
    if 2 * zero.sum() > len(forms):
        return 0.0
    small = np.flatnonzero(~zero & (np.abs(delta) < 1e-6))
    if small.size:
        j = small[0]
        held, rest = delta.copy(), np.arange(len(delta)) != j
        held[j] = 0.0
        return (_pair_pfaffian(k, held, u, v, forms)
                + 1j * delta[j] * _pair_pfaffian(k, delta[rest], u[rest], v[rest], forms))
    n_pairs = len(delta)
    m = 2 * n_pairs + len(forms)
    if not m:
        return 1.0
    moments = np.zeros((m, m), dtype=complex)
    heads = np.arange(0, 2 * n_pairs, 2)
    moments[heads, heads + 1] = 1j * delta
    moments[heads, 2 * n_pairs:] = u[:, forms]
    moments[heads + 1, 2 * n_pairs:] = v[:, forms]
    moments[2 * n_pairs:, 2 * n_pairs:] = np.triu(k[np.ix_(forms, forms)], 1)
    return reference.pfaffian(moments - moments.T)


# every even set of the seven forms, and both of its coefficients: in exp(K)
# (bin 2 i) and in the pair product (bin 2 i + 1)
_EVEN_FORMS = [forms for forms in ([a for a in range(7) if mask >> a & 1] for mask in range(128))
               if len(forms) % 2 == 0]
_EVERY_COEFFICIENT = _product_table([(2 * i + parity, (1,) * 4, parity, forms)
                                     for i, forms in enumerate(_EVEN_FORMS) for parity in (0, 1)])


def test_pair_product_matches_the_reference_pfaffians(rng):
    # coefficient of e_S = Pf of the moments of the pairs, then the sorted
    # forms S.  The two end pairs have delta = 0, so every S below degree 4,
    # and every other structural zero, is exactly 0
    rows, cols = np.triu_indices(7, 1)
    for case in range(40):
        k = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        n_pairs = 2 + case % 5
        delta = rng.choice([0.0, 1e-9, 1.0, -1.0, rng.uniform(-1.0, 1.0)], size=n_pairs)
        delta[0] = delta[-1] = 0.0
        u, v = rng.normal(size=(2, n_pairs, 7)) + 1j * rng.normal(size=(2, n_pairs, 7))
        flat = _pair_factors(k[rows, cols], delta, u, v)
        coefficients = _sum_products(flat, _EVERY_COEFFICIENT, 0).reshape(-1, 2)
        assert len(coefficients) == 64
        for forms, (expk, product) in zip(_EVEN_FORMS, coefficients):
            expected = _pair_pfaffian(k, delta[:0], u[:0], v[:0], forms)
            assert abs(expk - expected) <= 1e-12 * abs(expected)
            expected = _pair_pfaffian(k, delta, u, v, forms)
            if len(forms) < 4 or expected == 0:
                assert product == 0.0
            else:
                assert abs(product - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("delta", [[0.5, 0.0, 0.0], [0.0, 0.3, -0.2], [0.0]])
def test_pair_product_needs_two_end_pairs_with_zero_delta(delta):
    k, u = np.zeros(21), np.zeros((len(delta), 7))
    with pytest.raises(ValueError, match="delta = 0"):
        _pair_factors(k, np.array(delta), u, u)


def test_gaussian_end_expectations_checks_the_medium_shape():
    prop = Propagator(perfect_profile(5).rates)
    for medium, match in (((np.zeros(5), None), "3 medium pair values"),
                          ((np.zeros((3, 3)), None), "3 medium pair values"),
                          ((np.zeros(3), np.eye(5)), "3 x 3")):
        with pytest.raises(ValueError, match=match):
            gaussian_end_expectations(prop, 0.3, (0, 0, 1), medium, 1j)


def test_gaussian_end_expectations_needs_one_chain():
    stacked = Propagator(np.ones((2, 4)))
    with pytest.raises(ValueError, match="one chain"):
        gaussian_end_expectations(stacked, 0.3, (0, 0, 1), (np.zeros(3), None), 1j)


def _pair_basis(correlation):
    """(delta, Q) with I - 2C = Q diag(delta) Q^T, from a dense eigh."""
    return np.linalg.eigh(np.eye(len(correlation)) - 2.0 * correlation)


def _random_end_states(rng):
    """A mixed site-1 Bloch vector and a unit end phase c."""
    bloch = rng.normal(size=3)
    bloch *= rng.uniform(0.2, 1.0) / np.linalg.norm(bloch)
    return bloch, np.exp(2j * np.pi * rng.uniform())


@pytest.mark.parametrize("n", range(2, 11))
def test_slater_reference_matches_the_oracle(n):
    # the reference works in the sectors of at most three excitations; the
    # oracle evolves the whole 2**n state
    rng = np.random.default_rng(4100 + n)
    couplings = tuple(rng.uniform(0.3, 1.5, n - 1))
    t = rng.uniform(0.2, 5.0)
    bloch, c = _random_end_states(rng)
    orbital = rng.normal(size=n - 2)
    cases = [()]
    if n > 2:
        cases.append((orbital / np.linalg.norm(orbital),))
    for orbitals in cases:
        # the interior state: vacuum, or one excitation sum_m phi_m |1_m>
        medium = np.zeros(2 ** (n - 2))
        if orbitals:
            medium[1 << np.arange(n - 3, -1, -1)] = orbitals[0]
        else:
            medium[0] = 1.0
        kappa = np.array([1.0, c]) / np.sqrt(2.0)
        site_1 = (np.eye(2) + sum(v * reference.PAULI[l] for v, l in zip(bloch, "XYZ"))) / 2.0
        # the mixed site-1 state as a mixture of its two eigenvectors
        ends = np.zeros((4, 4), dtype=complex)
        weights, kets = np.linalg.eigh(site_1)
        for weight, ket in zip(weights, kets.T):
            pure = StateVector(n, np.kron(np.kron(ket, medium), kappa))
            evolved = evolve(pure, CouplingProfile(n, couplings), t)
            ends += weight * reduced_state(evolved, (1, n)).matrix
        expected = [np.real(np.trace(np.kron(reference.PAULI[p], reference.PAULI[q]) @ ends))
                    for p, q in ("XI", "IX", "IY", "IZ", "XX", "XY", "XZ")]
        got = reference.slater_end_expectations(couplings, t, bloch, c, orbitals)
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("n, eta, t", [(60, 0.7, 30.0), (61, 0.6, 31.0)])
def test_gaussian_end_expectations_match_slater_states_on_long_chains(n, eta, t):
    # Independent values for every term at long N, parity terms included.
    # The all-zero medium has delta = 1 on each interior pair, so the parity
    # terms are O(1), but each pair's omega vanishes.  A weight p of one
    # excitation in an orbital phi gives that pair delta = 1 - 2p and a
    # nonzero omega; its state is (1 - p) vacuum + p phi, so the reference
    # averages the two.
    rng = np.random.default_rng(6100 + n)
    profile = boundary_profile(n, eta)
    prop = Propagator(profile.rates)
    bloch, c = _random_end_states(rng)
    phi = rng.normal(size=n - 2)
    phi /= np.linalg.norm(phi)
    p = 0.3
    vacuum, filled = (
        np.array([reference.slater_end_expectations(profile.couplings, t, bloch, phase, orbitals)
                  for phase in (c, -c)])
        for orbitals in ((), (phi,)))
    all_zero = gaussian_end_expectations(prop, t, bloch, _pair_basis(np.zeros((n - 2, n - 2))), c)
    assert np.max(np.abs(all_zero - vacuum)) < 1e-12
    one_mode = gaussian_end_expectations(prop, t, bloch, _pair_basis(p * np.outer(phi, phi)), c)
    assert np.max(np.abs(one_mode - ((1 - p) * vacuum + p * filled))) < 1e-12
