"""Search over boundary-coupling strength and readout time.

For chains that are uniform except for weakened end bonds, transfer is
never perfect; the cheap surrogate objective is the squared weight of the
fully transferred operator string, evaluated with the coefficient engine.
A coarse grid sweep locates the basin, a nested Brent line search
(coupling strength outside, readout time inside) polishes it, and the
protocol's exact average fidelity, in closed form on the same engine,
cross-checks the surrogate.  A best estimate below _ESTIMATE_FLOOR is
roundoff, not transfer, and is reported as not converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import CouplingProfile
from .heisenberg import Propagator

__all__ = [
    "SweepResult",
    "RefineResult",
    "OptimizationResult",
    "CrossValidation",
    "sweep",
    "refine",
    "refine_time",
    "optimize_boundary",
    "cross_validate",
]

DEFAULT_ETA_RANGE = (0.3, 1.5)
DEFAULT_T_RANGE = (0.5, 4.0)

# 1 - 1/phi, the golden-section fraction of the larger part of the bracket
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
# searches per level before a walk that keeps landing on a window edge
# gives up and reports converged=False
_MAX_ROUNDS = 20
# an alpha_N^2 below this is roundoff, not transfer
_ESTIMATE_FLOOR = 1e-12
# float64 elements (8 MiB) that one chunk of sweep rows may hold at once:
# its (B, n, n) eigenvector stack and, counted as two (B, nt, n) tables,
# its phase tables (Propagator.entries): one complex (B, nt, ceil(n/2))
# table, about B nt n floats, plus the coarse and fine tables it is the
# product of, complex (B, ceil(sqrt(nt)), ceil(n/2)) each, so the count
# over-states them.  At the default grid that is every row in one chunk up
# to n = 45 and one row per chunk from n = 635; a lone row may exceed it
_SWEEP_BUDGET = 2**20


@dataclass(frozen=True)
class SweepResult:
    """Grid of transfer estimates over (coupling strength, time)."""

    n_sites: int
    eta_values: np.ndarray
    t_values: np.ndarray
    surface: np.ndarray          # shape (len(eta_values), len(t_values))
    best_eta: float
    best_time: float
    best_estimate: float

    @property
    def on_edge(self) -> bool:
        """True when the grid maximum lies on the first or last eta or t
        value: the best point may then lie outside the swept ranges."""
        return bool(
            self.best_eta in (self.eta_values[0], self.eta_values[-1])
            or self.best_time in (self.t_values[0], self.t_values[-1])
        )


@dataclass(frozen=True)
class RefineResult:
    n_sites: int
    eta: float
    time: float
    estimate: float
    improved: bool
    rounds: int
    trace: tuple[tuple[float, float, float], ...]
    # False when the re-centring bound ran out or the estimate is below
    # _ESTIMATE_FLOOR
    converged: bool


@dataclass(frozen=True)
class OptimizationResult:
    sweep: SweepResult
    refinement: RefineResult

    @property
    def eta(self) -> float:
        return self.refinement.eta

    @property
    def time(self) -> float:
        return self.refinement.time

    @property
    def estimate(self) -> float:
        return self.refinement.estimate

    def to_dict(self) -> dict:
        return {
            "n": self.sweep.n_sites,
            "eta": self.eta,
            "time": self.time,
            "estimate": self.estimate,
            "grid_eta": self.sweep.best_eta,
            "grid_time": self.sweep.best_time,
            "grid_estimate": self.sweep.best_estimate,
            "grid_on_edge": self.sweep.on_edge,
            "refine_rounds": self.refinement.rounds,
            "converged": self.refinement.converged,
        }


def _axis(rng, count: int) -> np.ndarray:
    lo, hi = float(rng[0]), float(rng[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise ValueError(f"bad range {rng!r}")
    return np.linspace(lo, hi, count)


def sweep(
    n: int,
    eta_range: tuple[float, float] = DEFAULT_ETA_RANGE,
    t_range: tuple[float, float] = DEFAULT_T_RANGE,
    resolution: int | tuple[int, int] = 96,
) -> SweepResult:
    """Evaluate the transfer estimate on a rectangular grid.

    resolution is points per axis (one value or an (eta, t) pair), at
    least 8.  The reported best point breaks exact ties toward smaller
    time, then smaller coupling strength: earlier transfer is worth more
    inside a fixed coherence window.

    The eta rows are evaluated in chunks, each by one stacked
    ``Propagator`` over the chunk's rows of coupling rates
    2 [eta, 1, ..., 1, eta] (one array, no profile per row), and one
    ``end_weights`` call on every time.  A chunk holds as many rows as keep
    its (B, n, n) eigenvector stack and its phase tables, counted as two
    (B, nt, n) tables, within _SWEEP_BUDGET elements, and at least one.
    """
    if isinstance(resolution, int):
        res_eta = res_t = resolution
    else:
        res_eta, res_t = int(resolution[0]), int(resolution[1])
    if res_eta < 8 or res_t < 8:
        raise ValueError(f"resolution must be >= 8 per axis, got {resolution!r}")
    eta_values = _axis(eta_range, res_eta)
    if eta_values[0] <= 0:
        raise ValueError("eta range must be positive")
    t_values = _axis(t_range, res_t)
    rates = _boundary_rates(n, eta_values)
    surface = np.empty((res_eta, res_t))
    chunk = max(1, _SWEEP_BUDGET // (n * (n + 2 * res_t)))
    for lo in range(0, res_eta, chunk):
        # one statement, so the chunk's stack is freed before the next is built
        surface[lo:lo + chunk] = Propagator(rates[lo:lo + chunk]).end_weights(t_values)
    best = float(surface.max())
    ties = np.argwhere(surface == best)
    # lexicographic (t index, eta index): smaller t wins, then smaller eta
    t_idx, e_idx = min((int(t), int(e)) for e, t in ties)
    result = SweepResult(
        n_sites=n,
        eta_values=eta_values,
        t_values=t_values,
        surface=surface,
        best_eta=float(eta_values[e_idx]),
        best_time=float(t_values[t_idx]),
        best_estimate=best,
    )
    for arr in (eta_values, t_values, surface):
        arr.flags.writeable = False
    return result


def _boundary_rates(n: int, eta) -> np.ndarray:
    """Coupling rates 2 [eta, 1, ..., 1, eta] of the boundary family on n
    sites: one chain for a float eta, one row per entry of a 1-D array."""
    if n < 4:
        raise ValueError(f"boundary profile needs n >= 4, got {n}")
    # the two boundary bonds, which take eta; the rest are uniform
    ends = np.zeros(n - 1, dtype=bool)
    ends[[0, -1]] = True
    return 2.0 * np.where(ends, np.asarray(eta)[..., None], 1.0)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _line_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Best probe (x, f(x)) of Brent's search for the maximum of f on
    [lo, hi] (Brent, Algorithms for Minimization without Derivatives, 1973,
    in the bounded form of fminbound), assuming one interior hump.

    Each step is the parabola through the three best probes when its vertex
    lies inside the bracket and the step is shorter than half the step
    before last, and a golden-section step into the larger part of the
    bracket otherwise; no probe comes closer than tol/3 to the best one.
    Every probe lies inside [lo, hi].  The search stops once every point of
    the bracket lies within 2 tol/3 of the best probe, or within two float
    spacings of it.  Each probe narrows the bracket, so it ends on any f.
    """
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)      # best, second best, third best
    fx = fw = fv = f(x)
    step = step_before = 0.0
    while True:
        # at least one float spacing, so every probe differs from x
        tol1 = max(tol / 3.0, math.ulp(x))
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(step_before) > tol1:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv) at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            limit, step_before = step_before, step
            # comparisons with a nan are False, so a bad fit takes the golden step
            if abs(p) < abs(0.5 * q * limit) and q * (a - x) < p < q * (b - x):
                step = p / q
                if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                    step = math.copysign(tol1, mid - x)
                golden = False
        if golden:
            step_before = (a if x >= mid else b) - x
            step = _CGOLD * step_before
        u = x + math.copysign(max(abs(step), tol1), step)
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _climb(f, x: float, window: float, tol: float, floor: float = -math.inf):
    """Local maximum of f reached from x by Brent line search on x +- window
    (clipped below at floor, or at x when x lies under it, so the bracket is
    never reversed).  While the maximum lands within tol of a window edge,
    the window is re-centred on it and searched again.

    Returns the path [(x, f(x)), ...], the start and then the best point
    after each search, and whether the walk stopped on an interior or
    unmoved maximum within _MAX_ROUNDS searches.  A point replaces the
    current one only when its value is higher.
    """
    path = [(x, f(x))]
    for _ in range(_MAX_ROUNDS):
        lo, hi = max(x - window, min(floor, x)), x + window
        cand, value = _line_max(f, lo, hi, tol)
        moved = value > path[-1][1]
        path.append((cand, value) if moved else path[-1])
        x = path[-1][0]
        if not moved or lo + tol < cand < hi - tol:
            return path, True
    return path, False


def refine(
    n: int,
    start_point: tuple[float, float],
    tolerance: float = 1e-5,
    eta_window: float = 0.2,
    t_window: float = 0.4,
) -> RefineResult:
    """Polish a sweep argmax by a nested Brent line search.

    The outer search runs over the coupling strength eta and scores each
    eta by its best readout time (``refine_time`` on that chain), so it
    climbs the ridge of best times directly.  Each such inner search
    starts from the best time of the nearest eta already scored, the
    first from the start time, so the climb to the ridge is made once.  Both
    levels search their window around the current point to `tolerance`
    and re-centre it while the maximum lands on an edge.  The trace holds
    the start and the best point after each outer search.  A start the
    search cannot improve is returned unchanged with improved=False.
    `tolerance` and both windows must be finite and positive.  The result
    is not converged when the final search over times is not, which
    covers an estimate below _ESTIMATE_FLOOR.
    """
    for name, value in (("tolerance", tolerance), ("eta_window", eta_window),
                        ("t_window", t_window)):
        _check_positive(name, value)
    eta, t = float(start_point[0]), float(start_point[1])
    _check_positive("start eta", eta)
    # one propagator per eta: the start's serves its estimate and first score
    propagators = {eta: Propagator(_boundary_rates(n, eta))}
    start = (eta, t, propagators[eta].end_weights(t))
    best_times = {}

    def score(e: float) -> float:
        if e not in propagators:
            propagators[e] = Propagator(_boundary_rates(n, e))
        # warm start: the best time of the nearest eta already scored
        warm = best_times[min(best_times, key=lambda s: abs(s - e))].time if best_times else t
        best_times[e] = _time_search(propagators[e], warm, tolerance, t_window)
        return best_times[e].estimate

    path, converged = _climb(score, eta, eta_window, tolerance / 4.0, floor=tolerance)
    trace = (start,) + tuple((e, best_times[e].time, v) for e, v in path[1:])
    eta, t, value = trace[-1]
    improved = value > start[2]
    if not improved:
        eta, t, value = start
    return RefineResult(
        n_sites=n, eta=float(eta), time=float(t), estimate=float(value),
        improved=improved, rounds=len(path) - 1, trace=trace,
        converged=converged and best_times[path[-1][0]].converged,
    )


def refine_time(
    profile: CouplingProfile,
    start_time: float,
    tolerance: float = 1e-5,
    window: float = 0.4,
) -> RefineResult:
    """Brent line search over readout time only, couplings fixed, on one
    propagator; the window is re-centred as in ``refine``.  `tolerance` and
    `window` must be finite and positive.  The result is not converged when
    the re-centring bound ran out or the estimate is below _ESTIMATE_FLOOR."""
    _check_positive("tolerance", tolerance)
    _check_positive("window", window)
    return _time_search(Propagator(profile.rates), start_time, tolerance, window)


def _time_search(prop: Propagator, start_time: float, tolerance: float,
                 window: float) -> RefineResult:
    """``refine_time`` on a propagator of one chain, its arguments checked."""
    path, converged = _climb(prop.end_weights, float(start_time), window, tolerance / 4.0)
    t, value = path[-1]
    return RefineResult(
        n_sites=len(prop.rates) + 1, eta=math.nan, time=float(t),
        estimate=float(value), improved=value > path[0][1],
        rounds=len(path) - 1, trace=tuple((math.nan, x, v) for x, v in path),
        converged=converged and value >= _ESTIMATE_FLOOR,
    )


def optimize_boundary(
    n: int,
    eta_range: tuple[float, float] = DEFAULT_ETA_RANGE,
    t_range: tuple[float, float] = DEFAULT_T_RANGE,
    resolution: int | tuple[int, int] = 96,
    tolerance: float = 1e-5,
) -> OptimizationResult:
    """Sweep then refine; the standard entry point for the boundary family."""
    # before the sweep, whose cost a bad tolerance would waste
    _check_positive("tolerance", tolerance)
    grid = sweep(n, eta_range, t_range, resolution)
    polish = refine(n, (grid.best_eta, grid.best_time), tolerance)
    return OptimizationResult(sweep=grid, refinement=polish)


@dataclass(frozen=True)
class CrossValidation:
    """Exact average fidelity against the cheap estimate at one point."""

    n_sites: int
    time: float
    estimate: float
    exact: float
    gap: float

    def to_dict(self) -> dict:
        return {
            "n": self.n_sites,
            "time": self.time,
            "estimate": self.estimate,
            "exact_mean": self.exact,
            "gap": self.gap,
        }


def cross_validate(profile: CouplingProfile, time: float) -> CrossValidation:
    """The protocol's exact average fidelity at (profile, time) and its
    difference from the coefficient-engine estimate alpha_N^2, both from
    one ``Propagator`` of the chain.

    The average is :meth:`Propagator.average_fidelity`, 1/2 + alpha_N^2 / 2
    + (-1)^N u_11 u_NN / 6, the mean over pure inputs of the protocol summed
    over its branches, for every medium and site-N start.  It draws nothing
    and runs no protocol, so no seed, medium or size rule reaches it.
    """
    chain, time = Propagator(profile.rates), float(time)
    estimate, exact = chain.end_weights(time), chain.average_fidelity(time)
    return CrossValidation(profile.n_sites, time, estimate, exact, exact - estimate)
