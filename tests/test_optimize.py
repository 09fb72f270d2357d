import math
import tracemalloc

import numpy as np
import pytest

from xxqst import (
    boundary_profile,
    cross_validate,
    estimate_fidelity,
    optimize_boundary,
    perfect_profile,
    refine,
    refine_time,
    sweep,
)
from xxqst import optimize
from xxqst.heisenberg import Propagator


# ---------------------------------------------------------------------------
# grid sweep
# ---------------------------------------------------------------------------

def test_sweep_shapes_and_ranges():
    result = sweep(5, resolution=24)
    assert result.surface.shape == (24, 24)
    assert result.eta_values.shape == (24,)
    assert result.t_values.shape == (24,)
    assert 0.3 <= result.best_eta <= 1.5
    assert 0.5 <= result.best_time <= 4.0
    assert 0.0 <= result.best_estimate <= 1.0
    with pytest.raises(ValueError):
        result.surface[0, 0] = 2.0  # frozen


def test_sweep_finds_high_transfer_region():
    result = sweep(5, resolution=48)
    assert result.best_estimate > 0.99
    assert 0.7 <= result.best_eta <= 0.95
    assert 1.7 <= result.best_time <= 2.1


def test_sweep_resolution_validation():
    with pytest.raises(ValueError):
        sweep(5, resolution=7)
    with pytest.raises(ValueError):
        sweep(5, resolution=(24, 4))
    with pytest.raises(ValueError):
        sweep(5, eta_range=(1.5, 0.3))


def test_sweep_degenerate_eta_range():
    # a collapsed interval turns the sweep into a 1d time scan
    result = sweep(6, eta_range=(1.0, 1.0), resolution=(8, 64))
    assert np.allclose(result.eta_values, 1.0)
    assert result.best_eta == 1.0
    assert result.best_estimate > 0.8


def test_sweep_surface_matches_direct_evaluation():
    result = sweep(4, resolution=12)
    i = 5
    j = 7
    profile = boundary_profile(4, float(result.eta_values[i]))
    direct = estimate_fidelity(profile, float(result.t_values[j]))
    assert result.surface[i, j] == pytest.approx(direct, abs=1e-12)


# the default grid's best point at n = 4..13, as the one-chain-per-row
# sweep found it
_GRID_BEST = {
    4: (0.868421052631579, 1.568421052631579),
    5: (0.8052631578947369, 1.9368421052631577),
    6: (0.7926315789473684, 2.231578947368421),
    7: (0.78, 2.526315789473684),
    8: (0.7547368421052632, 2.857894736842105),
    9: (0.7421052631578947, 3.1526315789473682),
    10: (0.716842105263158, 3.4473684210526314),
    11: (0.716842105263158, 3.7052631578947364),
    12: (0.7042105263157894, 4.0),
    13: (0.8052631578947369, 4.0),
}


@pytest.mark.parametrize("n", list(range(4, 14)) + [40, 200])
def test_sweep_surface_matches_per_row_propagators(n):
    result = sweep(n)
    if n == 200:
        # the rows come in several chunks
        assert optimize._SWEEP_BUDGET // (n * (n + 2 * 96)) < 96
    for eta, row in zip(result.eta_values, result.surface):
        prop = Propagator(boundary_profile(n, float(eta)).rates)
        assert np.max(np.abs(row - prop.end_weights(result.t_values))) <= 1e-14
    if n in _GRID_BEST:
        assert (result.best_eta, result.best_time) == _GRID_BEST[n]


def test_sweep_ragged_last_chunk(monkeypatch):
    whole = sweep(7)
    # chunks of five rows: the 96th row is a chunk of its own
    monkeypatch.setattr(optimize, "_SWEEP_BUDGET", 5 * 7 * (7 + 2 * 96))
    chunked = sweep(7)
    assert np.max(np.abs(chunked.surface - whole.surface)) <= 1e-14
    assert (chunked.best_eta, chunked.best_time) == (whole.best_eta, whole.best_time)


@pytest.mark.parametrize("resolution", [8, (32, 8)])
def test_sweep_chunks_stay_within_the_budget(resolution):
    # a chunk holds its eigenvector stack and phase tables within the
    # budget; on top of it, one chain's eigenvectors and the eigensolver's
    # workspace, n^2 each, and 1 MiB for everything else.  All 32 rows in
    # one stack would take 23 MB
    n = 300
    sweep(n, resolution=resolution)
    tracemalloc.start()
    try:
        sweep(n, resolution=resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (optimize._SWEEP_BUDGET + 2 * n * n) + 2**20


def test_sweep_stable_under_resolution_change():
    coarse = sweep(5, resolution=32)
    fine = sweep(5, resolution=64)
    cell_eta = (1.5 - 0.3) / 31
    cell_t = (4.0 - 0.5) / 31
    assert abs(coarse.best_eta - fine.best_eta) <= cell_eta
    assert abs(coarse.best_time - fine.best_time) <= cell_t


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_reaches_near_unit_transfer():
    grid = sweep(5, resolution=32)
    polish = refine(5, (grid.best_eta, grid.best_time))
    assert polish.estimate >= grid.best_estimate - 1e-12
    assert polish.estimate > 0.9999
    assert polish.improved


def test_refine_holds_two_eigensystems_at_most():
    # the start's propagator and the one being scored: 8 n^2 bytes of
    # eigenvectors each, and one solve's workspace.  Holding every scored
    # eta's took 3.95 MiB (about 12 eigensystems), and 95.8 MiB at n = 1000
    n = 200
    refine(n, (0.44, 53.0))
    tracemalloc.start()
    try:
        result = refine(n, (0.44, 53.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({eta for eta, _, _ in result.trace}) >= 2
    assert peak <= 3 * 16 * n * n


def test_refine_trace_is_monotone():
    grid = sweep(5, resolution=16)
    polish = refine(5, (grid.best_eta, grid.best_time))
    values = [v for _, _, v in polish.trace]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert polish.rounds == len(polish.trace) - 1


def test_refine_stable_at_converged_start():
    baseline = optimize_boundary(5, resolution=48, tolerance=1e-7)
    again = refine(
        5,
        (baseline.eta, baseline.time),
        tolerance=1e-9,
        eta_window=1e-7,
        t_window=1e-7,
    )
    # restarting at a converged point must not wander off or lose value
    assert again.eta == pytest.approx(baseline.eta, abs=1e-6)
    assert again.time == pytest.approx(baseline.time, abs=1e-6)
    assert again.estimate >= baseline.estimate - 1e-12


def test_refine_unimprovable_start_returned_unchanged():
    # sub-ulp windows make every probe evaluate the start point itself
    start = (0.8165, 1.92374)
    result = refine(
        5, start, tolerance=1e-18, eta_window=1e-18, t_window=1e-18
    )
    assert not result.improved
    assert (result.eta, result.time) == start
    assert result.rounds == 1


def test_refine_lands_on_perfect_five_site_chain():
    # the weak-end-bond family at n = 5 contains the perfect chain
    grid = sweep(5)
    polish = refine(5, (grid.best_eta, grid.best_time))
    assert polish.eta == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-5)
    assert polish.time == pytest.approx(math.pi * math.sqrt(6.0) / 4.0, abs=1e-5)
    assert polish.estimate >= 1.0 - 1e-10
    direct = estimate_fidelity(boundary_profile(5, polish.eta), polish.time)
    assert polish.estimate == pytest.approx(direct, abs=1e-12)
    assert polish.converged


def test_refine_from_far_start_converges():
    polish = refine(7, (0.6, 2.0))
    assert polish.estimate >= 0.99180605
    assert polish.converged
    assert polish.rounds <= 5


def test_refine_time_reports_exhausted_walk():
    # a window far narrower than the climb to the revival at pi/4 keeps
    # landing on its edge until the re-centring bound runs out
    polish = refine_time(perfect_profile(5), 0.1, window=1e-3)
    assert polish.improved
    assert not polish.converged
    assert polish.time < math.pi / 4


def test_refine_time_tolerance_below_float_spacing():
    # the search stops at float resolution instead of cycling forever
    polish = refine_time(perfect_profile(5), 0.7, tolerance=1e-18)
    assert polish.time == pytest.approx(math.pi / 4, abs=1e-6)
    assert polish.converged


def test_refine_validation():
    with pytest.raises(ValueError):
        refine(5, (0.8, 1.9), tolerance=0.0)
    with pytest.raises(ValueError):
        refine(5, (-0.2, 1.9))
    # refine builds no profile, so it checks the chain length and start eta itself
    with pytest.raises(ValueError, match="n >= 4"):
        refine(3, (0.8, 1.9))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eta"):
            refine(5, (bad, 1.9))


def test_refine_rejects_non_finite_start_time():
    with pytest.raises(ValueError, match="finite"):
        refine(5, (0.8, math.nan))
    with pytest.raises(ValueError, match="finite"):
        refine_time(perfect_profile(5), math.inf)


def test_refine_time_recovers_revival():
    polish = refine_time(perfect_profile(5), 0.7, tolerance=1e-7)
    assert polish.time == pytest.approx(math.pi / 4, abs=1e-4)
    assert polish.estimate == pytest.approx(1.0, abs=1e-8)
    assert math.isnan(polish.eta)


def test_refine_rejects_bad_search_arguments():
    # a tolerance or window that is not finite and positive would leave an
    # empty, reversed or unbounded bracket
    for bad in (0.0, -0.1, math.nan, math.inf):
        for kwargs in ({"tolerance": bad}, {"eta_window": bad}, {"t_window": bad}):
            with pytest.raises(ValueError, match="finite and positive"):
                refine(5, (0.8, 1.9), **kwargs)
        for kwargs in ({"tolerance": bad}, {"window": bad}):
            with pytest.raises(ValueError, match="finite and positive"):
                refine_time(perfect_profile(5), 0.7, **kwargs)


def test_line_searches_see_only_ordered_brackets(monkeypatch):
    brackets = []
    line_max = optimize._line_max

    def recording(f, lo, hi, tol):
        brackets.append((lo, hi))
        return line_max(f, lo, hi, tol)

    monkeypatch.setattr(optimize, "_line_max", recording)
    # a start eta below the tolerance floor with a window too narrow to reach it
    polish = refine(5, (1e-7, 1.9), tolerance=1e-5, eta_window=1e-9, t_window=0.1)
    assert polish.eta >= 1e-7
    refine(5, (0.8165, 1.92374), tolerance=1e-18, eta_window=1e-18, t_window=1e-18)
    assert brackets
    assert all(math.isfinite(lo) and lo <= hi for lo, hi in brackets)


# ---------------------------------------------------------------------------
# the line search
# ---------------------------------------------------------------------------

def _probed(f, lo, hi, tol, cap=200):
    """Run the line search on f, recording probes; fail past `cap` probes."""
    probes = []

    def g(x):
        probes.append(x)
        assert len(probes) <= cap, "line search did not terminate"
        return f(x)

    best = optimize._line_max(g, lo, hi, tol)
    assert all(lo <= x <= hi for x in probes)
    return best, probes


def test_line_max_finds_a_known_maximum():
    for tol in (1e-3, 1e-5, 1e-7):
        (x, fx), probes = _probed(lambda x: math.cos(x - 0.3), -1.0, 2.0, tol)
        assert abs(x - 0.3) <= tol
        assert fx == math.cos(x - 0.3)
        # golden section alone takes 19, 29 and 38 probes here
        assert len(probes) <= 12


def test_line_max_terminates_on_a_constant():
    (x, fx), probes = _probed(lambda x: 1.0, -1.0, 2.0, 1e-8)
    assert fx == 1.0
    assert x in probes


def test_line_max_terminates_on_noise():
    rng = np.random.default_rng(4242)
    for tol in (1e-3, 1e-8, 1e-18):
        values = {}

        def noise(x):
            return values.setdefault(x, rng.random())

        (x, fx), probes = _probed(noise, -1.0, 2.0, tol)
        # the best probe, not the last one
        assert fx == max(values[p] for p in probes) == values[x]


def test_line_max_terminates_on_a_sub_ulp_bracket():
    lo = 0.8165
    for hi in (lo, math.nextafter(lo, 1.0), lo + 4 * math.ulp(lo)):
        (x, fx), probes = _probed(lambda x: -x, lo, hi, 1e-18)
        assert lo <= x <= hi
        assert len(probes) <= 4


@pytest.fixture
def end_weight_calls(monkeypatch):
    """The times of every Propagator.end_weights call from here on."""
    calls = []
    end_weights = Propagator.end_weights

    def counted(self, times):
        calls.append(times)
        return end_weights(self, times)

    monkeypatch.setattr(Propagator, "end_weights", counted)
    return calls


@pytest.mark.parametrize("n", [5, 7, 9, 12])
def test_refine_probe_count(end_weight_calls, n):
    # each probe is one end_weights call; the nested golden-section walk
    # this replaced took 29 x 29 = 841 at every n here
    grid = sweep(n)
    end_weight_calls.clear()
    polish = refine(n, (grid.best_eta, grid.best_time))
    assert polish.converged
    assert len(end_weight_calls) <= 150


@pytest.mark.parametrize("n", [5, 12])
def test_refine_builds_one_propagator_per_eta(monkeypatch, n):
    # the start eta's propagator serves both its estimate and its first score
    grid = sweep(n)
    built, scored = [], []
    build, search = Propagator.__init__, optimize._time_search

    def counted_build(self, rates):
        built.append(float(np.asarray(rates)[0]))
        build(self, rates)

    def counted_search(prop, *args):
        scored.append(float(prop.rates[0]))
        return search(prop, *args)

    monkeypatch.setattr(Propagator, "__init__", counted_build)
    monkeypatch.setattr(optimize, "_time_search", counted_search)
    refine(n, (grid.best_eta, grid.best_time))
    assert scored[0] == 2.0 * grid.best_eta
    assert sorted(built) == sorted(set(scored))


# (eta, t, estimate) of optimize_boundary(n) when every inner search
# started from the grid time
_COLD_START = {
    5: (0.8164966049633484, 1.9238247098378825, 0.9999999999999984),
    6: (0.794215296624348, 2.2341105694936294, 0.9956666641504003),
    7: (0.773060137582379, 2.542185457557016, 0.9918060597873318),
    8: (0.7560704025345628, 2.8425876466659483, 0.9875635797224025),
    9: (0.7413715321543491, 3.138593319759982, 0.9834073494362116),
    10: (0.7285160136953659, 3.430905981098088, 0.9793710988651069),
    11: (0.7170864066804049, 3.720257796777002, 0.9755007305386507),
    12: (0.7068080405061599, 4.0071329683217725, 0.9718074067669326),
}


@pytest.mark.parametrize("n", sorted(_COLD_START))
def test_warm_start_keeps_the_cold_start_optimum(n):
    result = optimize_boundary(n)
    eta, t, estimate = _COLD_START[n]
    assert abs(result.eta - eta) <= 1e-6
    assert abs(result.time - t) <= 1e-6
    assert abs(result.estimate - estimate) <= 1e-12
    assert result.refinement.converged


@pytest.mark.parametrize("n", [20, 40])
def test_warm_start_climbs_to_the_ridge_once(end_weight_calls, n):
    # the grid time 4.0 lies far below these optima; starting every inner
    # search there took 13,366 probes at n = 20 and 55,456 at n = 40
    grid = sweep(n)
    end_weight_calls.clear()
    polish = refine(n, (grid.best_eta, grid.best_time))
    assert polish.converged
    assert len(end_weight_calls) <= 2500
    if n == 40:
        assert polish.eta == pytest.approx(0.57759, abs=5e-6)
        assert polish.time == pytest.approx(11.6371, abs=5e-5)


# ---------------------------------------------------------------------------
# end to end and cross validation
# ---------------------------------------------------------------------------

def test_optimize_boundary_five_sites():
    result = optimize_boundary(5)
    assert 0.80 <= result.eta <= 0.83
    assert 1.8 <= result.time <= 2.0
    assert result.estimate > 0.999
    payload = result.to_dict()
    assert payload["n"] == 5
    assert payload["estimate"] == pytest.approx(result.estimate)
    assert payload["grid_estimate"] <= payload["estimate"] + 1e-12


@pytest.mark.parametrize("n, on_edge", [(5, False), (12, True)])
def test_optimize_boundary_flags_grid_edge(n, on_edge):
    # at n = 12 the best time lies just past the default t range
    payload = optimize_boundary(n).to_dict()
    assert payload["grid_on_edge"] is on_edge
    assert payload["converged"] is True


@pytest.mark.parametrize("n", [100, 200])
def test_optimize_boundary_flags_roundoff_optima(end_weight_calls, monkeypatch, n):
    # the default t range ends long before the first arrival, so the
    # objective is roundoff noise; the search must still end, and the
    # result must say that it found no transfer
    refine = optimize.refine

    def counted_refine(*args, **kwargs):
        # the refinement's probes only, whatever the sweep's calls were
        end_weight_calls.clear()
        return refine(*args, **kwargs)

    monkeypatch.setattr(optimize, "refine", counted_refine)
    result = optimize_boundary(n)
    assert result.estimate < optimize._ESTIMATE_FLOOR
    assert result.refinement.converged is False
    assert result.to_dict()["converged"] is False
    assert len(end_weight_calls) <= 1500


def test_cross_validate_perfect_chain():
    report = cross_validate(perfect_profile(4), math.pi / 4)
    assert report.estimate == pytest.approx(1.0, abs=1e-10)
    assert report.exact == pytest.approx(1.0, abs=1e-10)
    assert abs(report.gap) < 1e-9


def test_cross_validate_boundary_chain():
    result = optimize_boundary(5, resolution=48)
    report = cross_validate(boundary_profile(5, result.eta), result.time)
    assert report.exact > 0.999
    assert report.gap == pytest.approx(report.exact - report.estimate, abs=1e-15)
    # coefficient estimate and exact protocol average agree closely here
    assert abs(report.gap) < 1e-4
    payload = report.to_dict()
    assert set(payload) == {
        "n", "time", "estimate", "exact_mean", "gap",
    }


def test_cross_validate_axial_is_deterministic():
    a = cross_validate(boundary_profile(5, 0.815), 1.9)
    b = cross_validate(boundary_profile(5, 0.815), 1.9)
    assert a.exact == b.exact
    assert a.exact == pytest.approx(0.9990981442823057, abs=1e-9)


@pytest.mark.parametrize("n", [13, 40])
def test_cross_validate_past_the_dense_limit(n):
    # no protocol run, so no size rule of the exact engine: the average and
    # the estimate come from one propagator at any length
    result = optimize_boundary(n)
    report = cross_validate(boundary_profile(n, result.eta), result.time)
    assert report.estimate == result.estimate
    assert 0.0 < report.exact <= 1.0 + 1e-12
    assert report.gap == report.exact - report.estimate
    # at these optima the estimate falls short of the average (+0.0141 at
    # n = 12, +0.0434 at n = 40)
    assert report.gap > 0.0
