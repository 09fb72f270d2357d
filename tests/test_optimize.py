import math

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


def test_cross_validate_perfect_chain():
    report = cross_validate(perfect_profile(4), math.pi / 4)
    assert report.estimate == pytest.approx(1.0, abs=1e-10)
    assert report.exact.mean == pytest.approx(1.0, abs=1e-10)
    assert abs(report.gap) < 1e-9


def test_cross_validate_boundary_chain():
    result = optimize_boundary(5, resolution=48)
    report = cross_validate(boundary_profile(5, result.eta), result.time)
    assert report.exact.mean > 0.999
    assert report.gap == pytest.approx(report.exact.mean - report.estimate, abs=1e-15)
    # coefficient estimate and exact protocol average agree closely here
    assert abs(report.gap) < 1e-4
    payload = report.to_dict()
    assert set(payload) == {
        "n", "time", "estimate", "exact_mean", "exact_stderr", "gap",
    }


def test_cross_validate_axial_is_deterministic():
    a = cross_validate(boundary_profile(5, 0.815), 1.9)
    b = cross_validate(boundary_profile(5, 0.815), 1.9)
    assert a.exact.mean == b.exact.mean
    assert a.exact.mean == pytest.approx(0.9990981442823057, abs=1e-9)
