"""The benchmark's workload process: one workload, one seed, one run.

run.py starts this file in a fresh interpreter (see there for the
arguments).  It imports the package from ``src/``, makes the seeded
inputs, runs a warm-up outside the timed loop that fills the package's
caches, then the timed loop, checks every output and prints one JSON line with the raw
measurements.  With ``--trace 1`` it wraps the calls into each layer
(tracing.py) and writes the spans to ``benchmarks/out/``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np                                    # noqa: E402
import scipy                                          # noqa: E402
from scipy.linalg import expm                         # noqa: E402

import reference                                      # noqa: E402
import xxqst                                          # noqa: E402
from xxqst import cli, heisenberg, optimize, oracle, protocol  # noqa: E402
from xxqst import (                                   # noqa: E402
    AXIAL_NAMES, ProtocolConfig, StateVector,
    axial_state, perfect_profile,
)

from harness import loop_metrics, run_loop            # noqa: E402
from tracing import Tracer, totals_table              # noqa: E402

REVIVAL_TIME = math.pi / 4

# The reference rebuilds the dense 2^n Hamiltonian and propagator on every
# call; the final check calls it once per medium kind on one chain.
reference.chain_hamiltonian = functools.lru_cache(maxsize=4)(reference.chain_hamiltonian)
reference.evolution_operator = functools.lru_cache(maxsize=2)(reference.evolution_operator)


def _haar_qubit(rng) -> np.ndarray:
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def staggered_generator(couplings) -> np.ndarray:
    """Coefficient generator built from the couplings, independently of
    xxqst.chain: rates 2 J_i below the diagonal with alternating sign."""
    n = len(couplings) + 1
    m = np.zeros((n, n))
    for i, j_val in enumerate(couplings):
        rate = 2.0 * j_val if i % 2 == 0 else -2.0 * j_val
        m[i + 1, i] = rate
        m[i, i + 1] = -rate
    return m


# ---------------------------------------------------------------------------
# output checks, kept as plain functions so the tests can feed them
# corrupted results
# ---------------------------------------------------------------------------

def check_protocol_outputs(psi_in, branches, sample) -> list[str]:
    """Every branch transfers the input perfectly, the branch weights sum to
    one and the sampled run is one of the branches."""
    problems = []
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-12:
        problems.append(f"branch probabilities sum to {total!r}")
    for b in branches:
        mat = b.output_state.matrix
        overlap = float(np.real(psi_in.conj() @ mat @ psi_in))
        if abs(overlap - 1.0) > 1e-9 or abs(b.fidelity_out - 1.0) > 1e-9:
            problems.append(
                f"branch ({b.outcome_pre:+d},{b.outcome_post:+d}) fidelity "
                f"{b.fidelity_out!r}, recomputed {overlap!r}"
            )
    same = [b for b in branches
            if (b.outcome_pre, b.outcome_post) == (sample.outcome_pre, sample.outcome_post)]
    if not same:
        problems.append(f"sampled branch ({sample.outcome_pre:+d},{sample.outcome_post:+d}) not enumerated")
    elif (abs(same[0].probability - sample.probability) > 1e-12
          or np.max(np.abs(same[0].output_state.matrix - sample.output_state.matrix)) > 1e-12):
        problems.append("sampled run differs from its enumerated branch")
    return problems


def compare_with_reference(branches, ref_branches, tol: float = 1e-9) -> list[str]:
    """Branches against tests/reference.py's brute-force protocol."""
    got = {(b.outcome_pre, b.outcome_post): b for b in branches}
    want = {(a, b): (w, out) for a, b, w, out in ref_branches}
    if set(got) != set(want):
        return [f"branches {sorted(got)} differ from reference {sorted(want)}"]
    problems = []
    for key, (weight, out) in want.items():
        dw = abs(got[key].probability - weight)
        dm = float(np.max(np.abs(got[key].output_state.matrix - out)))
        if dw > tol or dm > tol:
            problems.append(f"branch {key} off the reference by {dw:.2e} (weight), {dm:.2e} (state)")
    return problems


def parse_coefficient_csv(text: str, n_sites: int) -> np.ndarray:
    """Rows (t, alpha_1..alpha_N) of an `xxqst coefficients` CSV."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    header = ["t"] + [f"alpha_{k}" for k in range(1, n_sites + 1)]
    if body[0].split(",") != header:
        raise ValueError(f"unexpected CSV header {body[0][:60]!r}")
    values = np.array(",".join(body[1:]).split(","), dtype=float)
    return values.reshape(len(body) - 1, n_sites + 1)


def check_coefficient_rows(rows, t_max: float, steps: int, perfect: bool) -> list[str]:
    """Unit-norm rows on the requested time grid starting at e_1; a perfect
    chain ends with |alpha_N| = 1."""
    problems = []
    if rows.shape[0] != steps:
        return [f"{rows.shape[0]} rows, expected {steps}"]
    if np.max(np.abs(rows[:, 0] - np.linspace(0.0, t_max, steps))) > 1e-14:
        problems.append("time column is not the requested grid")
    alpha = rows[:, 1:]
    first = np.zeros(alpha.shape[1])
    first[0] = 1.0
    if np.max(np.abs(alpha[0] - first)) > 1e-12:
        problems.append("first row is not e_1")
    norms = np.sum(alpha ** 2, axis=1)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > 1e-9:
        problems.append(f"row {worst} has squared norm {norms[worst]!r}")
    if perfect and abs(abs(alpha[-1, -1]) - 1.0) > 1e-9:
        problems.append(f"perfect chain ends with |alpha_N| = {abs(alpha[-1, -1])!r}")
    return problems


def end_weight(couplings, t: float) -> float:
    """alpha_N(t)^2 from scipy's expm of the staggered generator."""
    return float(expm(staggered_generator(couplings) * t)[-1, 0] ** 2)


def check_profile_result(n: int, found: dict) -> list[str]:
    """Known n=5 optimum box, refinement never loses to the grid, and every
    reported estimate equals the expm value of alpha_N(t)^2."""
    problems = []
    if n == 5 and not (0.80 <= found["eta"] <= 0.83 and 1.8 <= found["time"] <= 2.0
                       and found["estimate"] > 0.999):
        problems.append(f"n=5 optimum {found} outside the known box")
    # estimates are squared entries of a unit vector; allow roundoff above 1
    if not found["grid_estimate"] <= found["estimate"] <= 1.0 + 1e-12:
        problems.append(f"refined {found['estimate']!r} vs grid {found['grid_estimate']!r}")
    for eta, t, value in ((found["eta"], found["time"], found["estimate"]),
                          (found["grid_eta"], found["grid_time"], found["grid_estimate"])):
        couplings = (eta,) + (1.0,) * (n - 3) + (eta,)
        exact = end_weight(couplings, t)
        if abs(exact - value) > 1e-9:
            problems.append(f"estimate {value!r} at eta={eta!r}, t={t!r}; expm gives {exact!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ExactProtocol:
    """run_protocol_branches plus a seeded run_protocol on the 10-site
    perfect chain at the revival time; one configuration per operation."""

    name = "exact-protocol"
    n_sites = 10
    # One full-chain thermal medium per ten: it costs about twice the others,
    # and at one in ten the tail sample (ten samples beyond it) stays below it
    # for runs of up to 110 operations.
    MEDIUMS = ("all-zero", "maximally-mixed", "random-pure", "thermal-subchain",
               "all-zero", "maximally-mixed", "random-pure", "thermal-subchain",
               "thermal-subchain", "thermal-fullchain")
    cycle_len = len(MEDIUMS)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.profile = perfect_profile(self.n_sites)
        inputs = [axial_state(name) for name in AXIAL_NAMES]
        inputs += [StateVector(1, _haar_qubit(rng)) for _ in range(self.cycle_len - len(inputs))]
        order = rng.permutation(self.cycle_len)
        self.configs, self.betas = [], []
        for slot, kind in enumerate(self.MEDIUMS):
            beta = float(rng.uniform(0.2, 2.0)) if kind.startswith("thermal") else None
            self.betas.append(beta)
            self.configs.append(ProtocolConfig(
                self.profile, inputs[order[slot]],
                medium=f"thermal:{beta!r}" if beta is not None else kind,
                seed=int(rng.integers(2**31)),
                thermal_variant="fullchain" if kind == "thermal-fullchain" else "subchain",
            ))
        self.api = SimpleNamespace(run_protocol_branches=xxqst.run_protocol_branches,
                                   run_protocol=xxqst.run_protocol)
        self.first_cycle = {}

    def prepare(self, i):
        return self.configs[i % self.cycle_len]

    def warm_up(self):
        self.op(self.prepare(0))

    def op(self, config):
        return self.api.run_protocol_branches(config), self.api.run_protocol(config)

    def check(self, i, config, output):
        branches, sample = output
        if i < self.cycle_len:
            self.first_cycle[i] = branches
        return check_protocol_outputs(config.input_state.amplitudes, branches, sample)

    def _reference_medium(self, slot: int) -> np.ndarray:
        kind, beta, config = self.MEDIUMS[slot], self.betas[slot], self.configs[slot]
        couplings = self.profile.couplings
        dim = 2 ** (self.n_sites - 2)
        if kind == "all-zero":
            med = np.zeros((dim, dim), dtype=complex)
            med[0, 0] = 1.0
            return med
        if kind == "maximally-mixed":
            return np.eye(dim, dtype=complex) / dim
        if kind == "random-pure":
            # the documented draw: one complex Gaussian vector from the config seed
            rng = np.random.default_rng(config.seed)
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            return np.outer(psi, psi.conj())
        if kind == "thermal-subchain":
            return reference.gibbs_state(reference.chain_hamiltonian(couplings[1:-1]), beta)
        full = reference.gibbs_state(reference.chain_hamiltonian(couplings), beta)
        return np.einsum("iajibj->ab", full.reshape(2, dim, 2, 2, dim, 2))

    def final_check(self):
        problems = []
        for kind in dict.fromkeys(self.MEDIUMS):
            slot = self.MEDIUMS.index(kind)
            if slot not in self.first_cycle:
                problems.append(f"no output to compare for medium {kind}")
                continue
            psi = self.configs[slot].input_state.amplitudes
            ref = reference.protocol_branches(
                self.profile.couplings, REVIVAL_TIME, np.outer(psi, psi.conj()),
                self._reference_medium(slot),
            )
            problems += [f"{kind}: {p}" for p in compare_with_reference(self.first_cycle[slot], ref)]
        return problems


class CoefficientsCli:
    """`xxqst coefficients` through xxqst.cli.main, a new ~1000-site chain
    per call: perfect and boundary:ETA alternate."""

    name = "coefficients-cli"
    cycle_len = 2
    steps = 257
    boundary_n = 1000
    # 128 perfect lengths and 128 boundary strengths: 256 distinct chains
    # in a fixed order, twice the propagator cache's 128 entries, so every
    # call misses it however long the run.
    pool = 128

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.lengths = [int(n) for n in rng.permutation(np.arange(1000 - 64, 1000 + 64))]
        self.etas = [float(e) for e in rng.uniform(0.3, 1.5, size=self.pool)]
        self.workdir = workdir
        self.api = SimpleNamespace(main=cli.main)
        self.output_bytes = 0
        self.kept = []

    def prepare(self, i):
        k = (i // 2) % self.pool
        if i % 2 == 0:
            return self._call(f"coefficients-{i}.csv", self.lengths[k])
        return self._call(f"coefficients-{i}.csv", self.boundary_n, self.etas[k])

    def _call(self, filename: str, n: int, eta: float | None = None):
        if eta is None:
            spec = "perfect"
            couplings = tuple(math.sqrt(j * (n - j)) for j in range(1, n))
        else:
            spec = f"boundary:{eta!r}"
            couplings = (eta,) + (1.0,) * (n - 3) + (eta,)
        path = self.workdir / filename
        argv = ["coefficients", "--profile", spec, "--n", str(n), "--t-max", "pi/4",
                "--steps", str(self.steps), "--no-timestamp", "--out", str(path)]
        return SimpleNamespace(argv=argv, path=path, n=n, couplings=couplings,
                               perfect=eta is None)

    def warm_up(self):
        # a length outside the timed pool, so the pool stays uncached
        inp = self._call("warm-up.csv", self.boundary_n + 100)
        self.op(inp)
        inp.path.unlink()

    def op(self, inp):
        code = self.api.main(inp.argv)
        if code != 0:
            raise RuntimeError(f"xxqst coefficients exited with {code}")
        return code

    def check(self, i, inp, output):
        text = inp.path.read_text()
        self.output_bytes += len(text.encode())
        rows = parse_coefficient_csv(text, inp.n)
        if i < 2:
            self.kept.append((inp, rows))
        inp.path.unlink()
        return check_coefficient_rows(rows, REVIVAL_TIME, self.steps, inp.perfect)

    def final_check(self):
        problems = []
        for inp, rows in self.kept:
            dt = REVIVAL_TIME / (self.steps - 1)
            step = expm(staggered_generator(inp.couplings) * dt)
            alpha = np.zeros(inp.n)
            alpha[0] = 1.0
            worst = 0.0
            for row in rows[:, 1:]:
                worst = max(worst, float(np.max(np.abs(row - alpha))))
                alpha = step @ alpha
            if worst > 1e-9:
                problems.append(f"{inp.argv[2]} n={inp.n}: off the expm trace by {worst:.2e}")
        return problems


class ProfileSearch:
    """optimize_boundary(n) with the default ranges, n cycling over 5, 7, 9
    and 12 in a seeded order."""

    name = "profile-search"
    sizes = (5, 7, 9, 12)
    cycle_len = len(sizes)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.order = [int(n) for n in rng.permutation(self.sizes)]
        self.api = SimpleNamespace(optimize_boundary=xxqst.optimize_boundary)
        self.refine_rounds = 0

    def prepare(self, i):
        return self.order[i % self.cycle_len]

    def warm_up(self):
        # a whole cycle, so the first timed operation meets the cache as
        # every later one does
        for i in range(self.cycle_len):
            self.op(self.prepare(i))

    def op(self, n):
        return self.api.optimize_boundary(n)

    def check(self, i, n, output):
        found = output.to_dict()
        self.refine_rounds += found["refine_rounds"]
        return check_profile_result(n, found)

    def final_check(self):
        return []


WORKLOADS = {w.name: w for w in (ExactProtocol, CoefficientsCli, ProfileSearch)}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# names the benchmark calls on the top layer of each workload
API_SPANS = {
    "run_protocol_branches": "protocol.run_protocol_branches",
    "run_protocol": "protocol.run_protocol",
    "main": "cli.main",
    "optimize_boundary": "optimize.optimize_boundary",
}

# names each layer imports from the layer below
LAYER_SPANS = (
    (protocol, "fidelity", "oracle.fidelity"),
    (protocol, "thermal_medium", "oracle.thermal_medium"),
    (protocol, "_dm_evolution_matrix", "oracle.evolution_matrix"),
    (optimize, "estimate_fidelity", "heisenberg.estimate_fidelity"),
    (optimize, "boundary_profile", "chain.boundary_profile"),
    (optimize, "build_generator", "chain.build_generator"),
    (heisenberg, "build_generator", "chain.build_generator"),
    (cli, "coefficient_trace", "heisenberg.coefficient_trace"),
)


def install_tracing(tracer: Tracer, workload) -> None:
    for module, attr, name in LAYER_SPANS:
        # a private name the package has since dropped is not traced
        if hasattr(module, attr):
            tracer.patch(module, attr, name)
    for attr in vars(workload.api):
        tracer.patch(workload.api, attr, API_SPANS[attr])
    # Propagator is a class: a subclass times construction and evaluation.
    # heisenberg's own name is replaced too, so the cached builds made
    # inside estimate_fidelity are counted with the sweep's.
    base = heisenberg.Propagator

    class TracedPropagator(base):
        __init__ = tracer.wrap("heisenberg.propagator", base.__init__)
        coefficients_many = tracer.wrap("heisenberg.coefficients", base.coefficients_many)

    tracer.replace(optimize, "Propagator", TracedPropagator)
    tracer.replace(heisenberg, "Propagator", TracedPropagator)


# memoised functions whose cache_info() the traced run reads
CACHES = {
    "propagator": (heisenberg, "_cached_propagator"),
    "evolution_matrix": (oracle, "_dm_evolution_matrix"),
}


def cache_counts() -> dict:
    """Hits and misses of each cache in CACHES; a cache the package no
    longer has reads as 0 and 0."""
    counts = {}
    for key, (module, attr) in CACHES.items():
        info = getattr(getattr(module, attr, None), "cache_info", None)
        info = info() if info is not None else None
        counts[key] = {"hits": info.hits if info else 0, "misses": info.misses if info else 0}
    return counts


def layer_metrics(tracer: Tracer, setup_totals: dict, workload, ops: int,
                  before: dict, after: dict) -> dict:
    """The per-layer metrics, per completed operation unless a run total.
    `tracer` holds the timed loop's totals and `setup_totals` the warm-up's."""
    def per_op(x):
        return x / ops

    evolution_matrix_s = (tracer.total_s("oracle.evolution_matrix")
                          + setup_totals.get("oracle.evolution_matrix", [0, 0.0])[1])

    prop_hits = after["propagator"]["hits"] - before["propagator"]["hits"]
    prop_misses = after["propagator"]["misses"] - before["propagator"]["misses"]
    values = {
        "protocol.self_s": (per_op(tracer.self_s("protocol.")), "s"),
        "oracle.evolution_matrix_s": (evolution_matrix_s, "s"),
        "oracle.evolution_matrix_misses": (after["evolution_matrix"]["misses"], "count"),
        "oracle.thermal_medium_s": (per_op(tracer.total_s("oracle.thermal_medium")), "s"),
        "oracle.fidelity_s": (per_op(tracer.total_s("oracle.fidelity")), "s"),
        "oracle.fidelity_calls": (per_op(tracer.calls("oracle.fidelity")), "count"),
        "cli.self_s": (per_op(tracer.self_s("cli.")), "s"),
        "cli.output_bytes": (per_op(getattr(workload, "output_bytes", 0)), "B"),
        "heisenberg.trace_s": (per_op(tracer.total_s("heisenberg.coefficient_trace")), "s"),
        "heisenberg.propagator_cache_misses": (per_op(prop_misses), "count"),
        "heisenberg.propagator_cache_hits": (per_op(prop_hits), "count"),
        "heisenberg.propagator_builds": (per_op(tracer.calls("heisenberg.propagator")), "count"),
        "heisenberg.propagator_s": (per_op(tracer.total_s("heisenberg.propagator")), "s"),
        "heisenberg.estimate_calls": (per_op(tracer.calls("heisenberg.estimate_fidelity")), "count"),
        "heisenberg.estimate_s": (per_op(tracer.total_s("heisenberg.estimate_fidelity")), "s"),
        "optimize.self_s": (per_op(tracer.self_s("optimize.")), "s"),
        "optimize.refine_rounds": (per_op(getattr(workload, "refine_rounds", 0)), "count"),
        "chain.self_s": (per_op(tracer.self_s("chain.")), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up and report the set-up time")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # A traced run times the warm-up too, so that the builds behind the
        # package's caches show in the run totals.
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_tracing(tracer, workload)
        workload.warm_up()
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            setup_totals = tracer.split()
            before = cache_counts()
        # A traced run does the least number of whole cycles, so that its
        # counts repeat exactly for a seed.
        # Peak memory is read at the same operation count in every run: the
        # propagator cache grows with every new chain, so a later reading
        # would depend on how many operations fit in the run.
        loop = run_loop(workload.prepare, workload.op, workload.check,
                        workload.cycle_len, 0.0 if args.trace else args.seconds,
                        checkpoint=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        peak_rss_mb = loop.checkpoint / 1024.0
        if tracer is not None:
            after = cache_counts()
            tracer.restore()
        problems = loop.problems + workload.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "problems": problems,
        **loop_metrics(loop),
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": loop.latencies,
        "environment": {
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, setup_totals, workload, loop.completed,
                                         before, after)
        trace_path = args.out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"setup_totals": totals_table(setup_totals), "result": result,
                                  "caches_before": before, "caches_after": after})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
