import math

import numpy as np
import pytest
from scipy.linalg import expm

from xxqst import (
    CouplingProfile,
    Propagator,
    boundary_profile,
    build_generator,
    coefficient_trace,
    estimate_fidelity,
    mirror_propagate,
    perfect_profile,
    propagate,
)

import reference


def test_time_zero_is_unit_vector():
    for n in (2, 3, 6):
        vec = propagate(build_generator(perfect_profile(n)), 0.0)
        assert vec.values[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(vec.values[1:])) < 1e-14


def test_two_site_closed_form():
    gen = build_generator(perfect_profile(2))
    for t in (0.1, 0.9, -1.4):
        vec = propagate(gen, t)
        assert vec.values == pytest.approx((math.cos(2 * t), math.sin(2 * t)), abs=1e-12)


def test_two_site_sign_matches_reference():
    # the sign convention is pinned by conjugating X_1 in the dense engine
    ref = reference.string_coefficients((1.0,), 0.6)
    vec = propagate(build_generator(perfect_profile(2)), 0.6)
    assert np.allclose(vec.values, ref, atol=1e-10)


def test_norm_conserved(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        profile = CouplingProfile(n, tuple(rng.random(n - 1) + 0.2))
        t = float(rng.uniform(-3, 3))
        vec = propagate(build_generator(profile), t)
        assert vec.norm == pytest.approx(1.0, abs=1e-10)


def test_group_property(rng):
    profile = CouplingProfile(6, tuple(rng.random(5) + 0.3))
    gen = build_generator(profile)
    s, t = 0.71, 1.13
    direct = propagate(gen, s + t).values
    stepped = expm(gen.matrix() * s) @ propagate(gen, t).values
    assert np.max(np.abs(direct - stepped)) < 1e-10


def test_matches_dense_exponential(rng):
    # exp(M t) e_1 against scipy on the staggered matrix itself
    for n in (3, 5, 8, 16):
        profile = CouplingProfile(n, tuple(rng.random(n - 1) + 0.2))
        gen = build_generator(profile)
        t = float(rng.uniform(0, 2))
        assert np.max(
            np.abs(propagate(gen, t).values - expm(gen.matrix() * t)[:, 0])
        ) < 1e-12


def test_mirror_equals_forward_for_centrosymmetric():
    gen = build_generator(perfect_profile(7))
    for t in (0.2, 1.5):
        assert np.max(
            np.abs(mirror_propagate(gen, t).values - propagate(gen, t).values)
        ) < 1e-10


def test_mirror_differs_for_asymmetric_profile():
    gen = build_generator(CouplingProfile(4, (1.0, 2.0, 3.0)))
    fwd = propagate(gen, 0.7).values
    back = mirror_propagate(gen, 0.7).values
    assert np.max(np.abs(fwd - back)) > 1e-3
    assert mirror_propagate(gen, 0.0).values[0] == pytest.approx(1.0)


def test_mirror_matches_reference_strings(rng):
    couplings = (0.5, 1.7, 0.9)
    vec = mirror_propagate(build_generator(CouplingProfile(4, couplings)), 0.83)
    ref = reference.string_coefficients(couplings, 0.83, origin="siteN")
    assert np.allclose(vec.values, ref, atol=1e-10)


@pytest.mark.parametrize("n", range(2, 33))
def test_perfect_revival_endpoint(n):
    vec = propagate(build_generator(perfect_profile(n)), math.pi / 4)
    assert abs(vec.values[-1]) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(vec.values[:-1])) < 1e-9


def test_revival_sign_pattern():
    # + for chain lengths 1 or 2 mod 4, - for 3 or 0 mod 4
    signs = {
        n: np.sign(propagate(build_generator(perfect_profile(n)), math.pi / 4).values[-1])
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
        Propagator(build_generator(perfect_profile(4))).coefficients(bad)
    with pytest.raises(ValueError, match="finite"):
        estimate_fidelity(perfect_profile(4), bad)


def test_propagator_reusable_and_deterministic():
    prop = Propagator(build_generator(perfect_profile(6)))
    times = np.linspace(0, 2, 7)
    a = prop.coefficients_many(times)
    b = prop.coefficients_many(times)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64


def test_coefficient_vector_is_immutable():
    vec = propagate(build_generator(perfect_profile(3)), 0.4)
    with pytest.raises(ValueError):
        vec.values[0] = 5.0
