"""Timed loop and latency statistics shared by every workload.

Standard library only, so that the tests can drive the loop with fake
operations and the entry point can use the statistics without importing
numpy.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

# The tail percentile needs ten samples beyond it; forty operations put it
# at the 75th percentile or higher.
MIN_OPS = 40
TAIL_BEYOND = 10


@dataclass
class LoopResult:
    attempted: int = 0
    latencies: list = field(default_factory=list)   # completed operations only
    busy_s: float = 0.0                              # all operation time, failed ones too
    failures: list = field(default_factory=list)    # one traceback per failed operation
    problems: list = field(default_factory=list)    # output checks that did not hold
    checkpoint: object = None                        # value of `checkpoint()` at min_ops

    @property
    def completed(self) -> int:
        return len(self.latencies)


def run_loop(prepare, op, check, cycle_len: int, seconds: float,
             min_ops: int = MIN_OPS, clock=time.perf_counter,
             checkpoint=None) -> LoopResult:
    """Run whole cycles of operations until `seconds` have passed and at
    least `min_ops` were attempted.

    `prepare(i)` makes the inputs of operation i and `check(i, inputs,
    output)` returns a list of problems; both run outside the operation's
    timed span.  An operation that raises is counted as failed and the loop
    goes on with the next one.  `checkpoint()`, if given, is called once,
    after the first whole cycle that reaches `min_ops`.
    """
    result = LoopResult()
    start = clock()
    while result.attempted < min_ops or clock() - start < seconds:
        for _ in range(cycle_len):
            i = result.attempted
            result.attempted += 1
            inputs = prepare(i)
            t0 = clock()
            try:
                output = op(inputs)
            except Exception:
                result.busy_s += clock() - t0
                result.failures.append(f"operation {i}:\n{traceback.format_exc()}")
                continue
            elapsed = clock() - t0
            result.busy_s += elapsed
            result.latencies.append(elapsed)
            try:
                result.problems.extend(f"operation {i}: {p}" for p in check(i, inputs, output))
            except Exception:
                result.problems.append(f"operation {i}: check raised\n{traceback.format_exc()}")
        if checkpoint is not None and result.checkpoint is None and result.attempted >= min_ops:
            result.checkpoint = checkpoint()
    return result


def tail_latency(samples) -> float:
    """The highest sample with at least ten samples above it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[len(ordered) - 1 - TAIL_BEYOND]


def loop_metrics(result: LoopResult) -> dict:
    """ops_per_s and op_tail_s of a finished loop."""
    return {
        "ops_per_s": result.completed / result.busy_s,
        "op_tail_s": tail_latency(result.latencies),
    }
