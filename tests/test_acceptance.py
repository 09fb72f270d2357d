"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <k>: PASS/FAIL" line (visible with -s); run with

    python3 -m pytest tests/test_acceptance.py -v -s
"""
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from xxqst import (
    CouplingProfile,
    DensityMatrix,
    ProtocolConfig,
    StateVector,
    cross_validate,
    boundary_profile,
    extract_string_coefficients,
    optimize_boundary,
    perfect_profile,
    propagate,
    run_protocol_branches,
    verify_protocol_identities,
)
from xxqst.cli import main as cli_main

import reference


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


@lru_cache(maxsize=1)
def _optimum():
    return optimize_boundary(5, resolution=48, tolerance=1e-7)


def test_criterion_1_branch_fidelities_all_mediums():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst = 0.0
    runs = 0
    for n in range(2, 10):
        profile = perfect_profile(n)
        mediums = ["all-zero"]
        for _ in range(5):
            if n == 2:
                mediums.append("random-pure")
            else:
                psi = reference.random_pure(rng, n - 2)
                mediums.append(DensityMatrix(n - 2, np.outer(psi, psi.conj())))
        mediums.append("maximally-mixed")
        mediums.extend(f"thermal:{beta}" for beta in (0.2, 1, 5))
        inputs = [StateVector(1, reference.random_pure(rng, 1)) for _ in range(10)]
        for state in inputs:
            for k, medium in enumerate(mediums):
                config = ProtocolConfig(
                    profile, state, medium=medium, seed=1000 + k,
                )
                branches = run_protocol_branches(config)
                total = 0.0
                for branch in branches:
                    worst = max(worst, abs(branch.fidelity_out - 1.0))
                    total += branch.probability
                assert total == pytest.approx(1.0, abs=1e-9)
                runs += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(
        1, ok,
        f"{runs} branch-exhaustive runs over N=2..9, "
        f"worst |F-1| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_coefficient_endpoint():
    worst_end = 0.0
    worst_rest = 0.0
    for n in range(2, 33):
        values = propagate(perfect_profile(n), math.pi / 4).values
        worst_end = max(worst_end, abs(abs(values[-1]) - 1.0))
        if n > 2:
            worst_rest = max(worst_rest, float(np.max(np.abs(values[:-1]))))
    ok = worst_end <= 1e-9 and worst_rest < 1e-9
    _report(
        2, ok,
        f"N=2..32 endpoint |coeff|-1 <= {worst_end:.2e}, "
        f"residue <= {worst_rest:.2e}",
    )


def test_criterion_3_operator_identities():
    worst = 0.0
    ok = True
    for n in (4, 5, 6, 7):
        for check in verify_protocol_identities(perfect_profile(n), tolerance=1e-8):
            worst = max(worst, check.deviation)
            ok = ok and check.passed
    _report(3, ok, f"N in {{4,5,6,7}}, worst deviation {worst:.2e}")


def test_criterion_4_cross_engine_agreement():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        profile = CouplingProfile(n, tuple(rng.uniform(0.3, 1.5, n - 1)))
        t = float(rng.uniform(0.0, 3.0))
        exact = np.asarray(extract_string_coefficients(profile, t))
        fast = propagate(profile, t).values
        worst = max(worst, float(np.max(np.abs(exact - fast))))
    ok = worst <= 1e-8
    _report(4, ok, f"20 random (profile, t) pairs, worst gap {worst:.2e}")


def test_criterion_5_boundary_optimization():
    started = time.perf_counter()
    result = _optimum()
    elapsed = time.perf_counter() - started
    ok = (
        0.80 <= result.eta <= 0.83
        and 1.8 <= result.time <= 2.0
        and result.estimate > 0.999
        and elapsed < 10.0
    )
    _report(
        5, ok,
        f"eta = {result.eta:.4f}, t = {result.time:.4f}, "
        f"estimate = {result.estimate:.10f}, {elapsed:.1f} s",
    )


def test_criterion_6_cross_validation():
    optimum = _optimum()
    report = cross_validate(boundary_profile(5, optimum.eta), optimum.time)
    ok = report.exact >= 0.99
    _report(
        6, ok,
        f"exact mean = {report.exact:.10f}, "
        f"estimate gap = {report.gap:+.2e}",
    )


def test_criterion_7_property_invariants():
    from xxqst import evolve, mirror_propagate

    rng = np.random.default_rng(7)
    passed = {}

    norm_dev = 0.0
    reverse_dev = 0.0
    magnet_dev = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 7))
        profile = CouplingProfile(n, tuple(rng.uniform(0.3, 1.5, n - 1)))
        psi = reference.random_pure(rng, n)
        t = float(rng.uniform(0.0, 3.0))
        out = evolve(StateVector(n, psi), profile, t)
        norm_dev = max(norm_dev, abs(np.linalg.norm(out.amplitudes) - 1.0))
        back = evolve(out, profile, -t)
        reverse_dev = max(
            reverse_dev, float(np.max(np.abs(back.amplitudes - psi)))
        )
        total_z = sum(
            reference.site_operator(n, s, "Z") for s in range(1, n + 1)
        )
        before = float(np.real(psi.conj() @ total_z @ psi))
        after = float(np.real(out.amplitudes.conj() @ total_z @ out.amplitudes))
        magnet_dev = max(magnet_dev, abs(after - before))
    passed["norm"] = norm_dev < 1e-10
    passed["reversibility"] = reverse_dev < 1e-9
    passed["magnetization"] = magnet_dev < 1e-10

    u = reference.evolution_operator((1.0, 0.7, 1.3), 1.1)
    passed["unitarity"] = (
        float(np.max(np.abs(u.conj().T @ u - np.eye(16)))) < 1e-10
    )

    profile = perfect_profile(6)
    forward = propagate(profile, 0.8).values
    mirrored = mirror_propagate(profile, 0.8).values
    passed["mirror-symmetry"] = (
        float(np.max(np.abs(np.asarray(forward) - np.asarray(mirrored)))) < 1e-12
    )

    from xxqst import axial_state
    config = ProtocolConfig(perfect_profile(5), axial_state("+x"))
    raw = run_protocol_branches(config, apply_correction=False)
    degraded = [
        b for b in raw if b.outcome_pre * b.outcome_post == -1
    ]
    passed["correction-necessity"] = (
        len(degraded) == 2 and all(b.fidelity_out < 0.51 for b in degraded)
    )

    basis = {
        "p0": np.array([[1, 0], [0, 0]], dtype=complex),
        "px": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    }
    maps = {}
    for name, rho in basis.items():
        cfg = ProtocolConfig(
            perfect_profile(3), DensityMatrix(1, rho), evolution_time=0.8
        )
        maps[name] = {
            (b.outcome_pre, b.outcome_post):
                b.probability * b.output_state.matrix
            for b in run_protocol_branches(cfg)
        }
    mix = 0.4 * basis["p0"] + 0.6 * basis["px"]
    cfg = ProtocolConfig(
        perfect_profile(3), DensityMatrix(1, mix), evolution_time=0.8
    )
    linear_dev = 0.0
    for b in run_protocol_branches(cfg):
        key = (b.outcome_pre, b.outcome_post)
        combined = 0.4 * maps["p0"][key] + 0.6 * maps["px"][key]
        linear_dev = max(linear_dev, float(np.max(np.abs(
            b.probability * b.output_state.matrix - combined
        ))))
    passed["input-linearity"] = linear_dev < 1e-10

    ok = all(passed.values())
    detail = ", ".join(
        f"{name}={'ok' if good else 'BAD'}" for name, good in passed.items()
    )
    _report(7, ok, detail)


def test_criterion_8_cli_determinism(tmp_path):
    commands = [
        ("coefficients", "--n", "6", "--t-max", "pi/4", "--steps", "65"),
        ("transfer", "--profile", "boundary:0.815", "--n", "5",
         "--t", "1.9", "--input", "+x", "--medium", "thermal:1.0",
         "--seed", "3"),
        ("transfer", "--n", "4", "--sample", "--seed", "12"),
        ("sweep", "--n", "5", "--resolution", "16"),
        ("verify", "--n", "4", "--condition", "X,I,X"),
    ]
    identical = True
    for k, spec in enumerate(commands):
        paths = [tmp_path / f"run{k}_{i}.txt" for i in (0, 1)]
        for path in paths:
            code = cli_main([*spec, "--no-timestamp", "--out", str(path)])
            assert code == 0, spec
        identical = identical and (
            paths[0].read_bytes() == paths[1].read_bytes()
        )
    _report(8, identical, f"{len(commands)} commands byte-identical on rerun")
