"""Tests of the benchmark itself: its output checks reject corrupted
results, its loop counts failed operations, and its statistics follow the
stated rules.

    python3 -m pytest benchmarks -q
"""
import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import workloads  # puts src/ and tests/ on sys.path before xxqst is imported
from harness import LoopResult, loop_metrics, run_loop, tail_latency
from tracing import Tracer
from xxqst import (
    ProtocolConfig, axial_state, optimize_boundary, perfect_profile,
    run_protocol, run_protocol_branches,
)
from xxqst.cli import main as cli_main


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step=0.25):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plus_x_transfer():
    config = ProtocolConfig(perfect_profile(4), axial_state("+x"), medium="maximally-mixed", seed=5)
    return config, run_protocol_branches(config), run_protocol(config)


def test_protocol_check_accepts_program_output(plus_x_transfer):
    config, branches, sample = plus_x_transfer
    assert workloads.check_protocol_outputs(config.input_state.amplitudes, branches, sample) == []


def test_protocol_check_rejects_flipped_off_diagonal(plus_x_transfer):
    config, branches, sample = plus_x_transfer
    flipped = branches[0].output_state.matrix.copy()
    flipped[0, 1] = -flipped[0, 1]
    # ProtocolResult does not validate its fields, so a corrupted matrix fits
    bad = dataclasses.replace(branches[0], output_state=SimpleNamespace(matrix=flipped))
    problems = workloads.check_protocol_outputs(
        config.input_state.amplitudes, (bad,) + branches[1:], sample)
    assert any("fidelity" in p for p in problems)


def test_protocol_check_rejects_bad_weights_and_foreign_sample(plus_x_transfer):
    config, branches, sample = plus_x_transfer
    heavier = dataclasses.replace(branches[0], probability=branches[0].probability + 1e-9)
    assert workloads.check_protocol_outputs(
        config.input_state.amplitudes, (heavier,) + branches[1:], sample)
    others = tuple(b for b in branches
                   if (b.outcome_pre, b.outcome_post) != (sample.outcome_pre, sample.outcome_post))
    assert workloads.check_protocol_outputs(config.input_state.amplitudes, others, sample)


def test_reference_comparison_bites(plus_x_transfer):
    config, branches, _ = plus_x_transfer
    ref = [(b.outcome_pre, b.outcome_post, b.probability, b.output_state.matrix) for b in branches]
    assert workloads.compare_with_reference(branches, ref) == []
    a, b, w, out = ref[0]
    assert workloads.compare_with_reference(branches, [(a, b, w * 1.001, out)] + ref[1:])
    assert workloads.compare_with_reference(branches, ref[1:])


def _coefficient_csv(tmp_path, n=8):
    path = tmp_path / "trace.csv"
    assert cli_main(["coefficients", "--n", str(n), "--t-max", "pi/4", "--steps", "65",
                     "--no-timestamp", "--out", str(path)]) == 0
    return workloads.parse_coefficient_csv(path.read_text(), n)


def test_coefficient_check_accepts_program_output(tmp_path):
    rows = _coefficient_csv(tmp_path)
    assert workloads.check_coefficient_rows(rows, math.pi / 4, 65, perfect=True) == []


@pytest.mark.parametrize("row", [0, 30, 64])
def test_coefficient_check_rejects_scaled_row(tmp_path, row):
    rows = _coefficient_csv(tmp_path)
    rows[row, 1:] *= 1.001
    assert workloads.check_coefficient_rows(rows, math.pi / 4, 65, perfect=True)


def test_coefficient_check_rejects_missing_row_and_imperfect_end(tmp_path):
    rows = _coefficient_csv(tmp_path)
    assert workloads.check_coefficient_rows(rows[:-1], math.pi / 4, 65, perfect=True)
    # rotate weight out of the last entry, keeping every row unit-norm
    c, s = math.cos(1e-3), math.sin(1e-3)
    last = rows[-1, 1:].copy()
    rows[-1, -2], rows[-1, -1] = c * last[-2] - s * last[-1], s * last[-2] + c * last[-1]
    assert workloads.check_coefficient_rows(rows, math.pi / 4, 65, perfect=True)


def test_staggered_generator_matches_program_trace(tmp_path):
    rows = _coefficient_csv(tmp_path)
    couplings = perfect_profile(8).couplings
    assert workloads.end_weight(couplings, rows[40, 0]) == pytest.approx(rows[40, -1] ** 2, abs=1e-12)


def test_profile_check_accepts_and_rejects():
    found = optimize_boundary(5).to_dict()
    assert workloads.check_profile_result(5, found) == []
    assert workloads.check_profile_result(5, {**found, "estimate": found["estimate"] - 2e-9})
    assert workloads.check_profile_result(5, {**found, "eta": 0.85})
    assert workloads.check_profile_result(5, {**found, "grid_estimate": found["estimate"] + 1e-6})


# ---------------------------------------------------------------------------
# loop and statistics
# ---------------------------------------------------------------------------

def test_raising_operation_is_counted_failed_and_loop_continues():
    def op(i):
        if i % 5 == 3:
            raise RuntimeError("boom")
        return i

    seen = []
    result = run_loop(lambda i: i, op, lambda i, x, out: seen.append(i) or [],
                      cycle_len=5, seconds=0.0, min_ops=20, clock=FakeClock())
    assert result.attempted == 20
    assert len(result.failures) == 4 and "boom" in result.failures[0]
    assert result.completed == 16 and seen == [i for i in range(20) if i % 5 != 3]
    assert result.problems == []


def test_loop_runs_whole_cycles_for_the_time_asked():
    result = run_loop(lambda i: i, lambda x: x, lambda i, x, out: [],
                      cycle_len=3, seconds=30.0, min_ops=4, clock=FakeClock(0.25))
    # each operation reads the clock twice: about 0.5 s per operation
    assert result.attempted % 3 == 0 and 45 <= result.attempted <= 60


def test_checkpoint_is_taken_once_at_the_first_cycle_reaching_min_ops():
    calls = []

    def checkpoint():
        calls.append(len(calls))
        return "mark"

    result = run_loop(lambda i: i, lambda x: x, lambda i, x, out: [], cycle_len=3,
                      seconds=30.0, min_ops=7, clock=FakeClock(), checkpoint=checkpoint)
    assert result.checkpoint == "mark" and calls == [0] and result.attempted > 9


def test_check_problems_and_raising_checks_are_reported():
    def check(i, x, out):
        if i == 1:
            raise ValueError("unparsable")
        return ["off"] if i == 2 else []

    result = run_loop(lambda i: i, lambda x: x, check, cycle_len=4, seconds=0.0, min_ops=4,
                      clock=FakeClock())
    assert len(result.problems) == 2 and result.failures == []


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(40, 0, -1))
    assert tail_latency(samples) == 30
    assert tail_latency(range(11)) == 0
    with pytest.raises(ValueError):
        tail_latency(range(10))


def test_loop_metrics():
    result = LoopResult(attempted=41, latencies=[0.5] * 20 + [1.5] * 20, busy_s=41.0)
    metrics = loop_metrics(result)
    assert metrics["ops_per_s"] == pytest.approx(40 / 41.0)
    assert metrics["op_tail_s"] == 1.5


def test_tracer_self_time_and_patch():
    clock = FakeClock(1.0)
    tracer = Tracer(clock=clock)
    holder = SimpleNamespace(inner=lambda: None)
    tracer.patch(holder, "inner", "low.inner")
    outer = tracer.wrap("top.outer", lambda: (holder.inner(), holder.inner()))
    outer()
    tracer.restore()
    holder.inner()
    assert tracer.calls("low.inner") == 2 and tracer.calls("top.outer") == 1
    # outer spans five clock steps, each inner call one
    assert tracer.total_s("top.outer") == 5.0
    assert tracer.self_s("top.") == 3.0 and tracer.self_s("low.") == 2.0
    ids = {name: (sid, parent) for sid, name, _, _, parent in tracer.spans}
    assert ids["low.inner"][1] == ids["top.outer"][0]


def test_split_starts_totals_afresh_and_keeps_every_span():
    tracer = Tracer(clock=FakeClock())
    f = tracer.wrap("x.f", lambda: None)
    f()
    setup = tracer.split()
    f()
    f()
    assert setup["x.f"][0] == 1 and tracer.calls("x.f") == 2 and len(tracer.spans) == 3


def test_missing_cache_and_missing_layer_name_are_tolerated(monkeypatch):
    holder = SimpleNamespace()
    monkeypatch.setattr(workloads, "CACHES", {"propagator": (holder, "_gone")})
    assert workloads.cache_counts() == {"propagator": {"hits": 0, "misses": 0}}
    monkeypatch.setattr(workloads, "LAYER_SPANS", ((holder, "_gone", "oracle.gone"),))
    tracer = Tracer()
    workloads.install_tracing(tracer, SimpleNamespace(api=SimpleNamespace()))
    tracer.restore()
    assert not hasattr(holder, "_gone")


def test_run_refuses_without_package_source(tmp_path):
    bench = tmp_path / "benchmarks"
    shutil.copytree(Path(__file__).parent, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "profile-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_metric_names_match_benchmark_json():
    import json
    import run

    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    empty = {"hits": 0, "misses": 0}
    layers = workloads.layer_metrics(Tracer(), {}, SimpleNamespace(), 1,
                                     {"propagator": empty}, {k: empty for k in
                                     ("propagator", "evolution_matrix")})
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(layers[k]["unit"] == units[k] for k in layers)
