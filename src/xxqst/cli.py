"""Command-line front end.

Subcommands map one-to-one onto the library layers: `coefficients` emits
operator-coefficient traces as CSV, `transfer` runs the measurement
protocol and emits JSON, `sweep` and `optimize` drive the boundary-coupling
search, and `verify` prints the operator-identity table.  Every output
embeds the run configuration and the package version; with --no-timestamp
reruns are byte-identical (the determinism contract the tests pin).

Exit codes: 0 success, 1 failed verification checks or an `optimize`
search that did not converge (its JSON is still written), 2 usage errors,
3 work past the memory budget (refused before it is allocated, see
:mod:`xxqst.errors`) and failed allocations, 4 internal consistency
failures.  No option or environment variable moves the budget.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import secrets
import sys
from datetime import datetime, timezone
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from ._csvtext import BLOCK_VALUES, csv_block
from .chain import CouplingProfile, boundary_profile, perfect_profile
from .errors import InternalConsistencyError, ResourceLimitError
from .heisenberg import coefficient_trace
from .optimize import (
    DEFAULT_ETA_RANGE, DEFAULT_T_RANGE, cross_validate, optimize_boundary, sweep,
)
from .protocol import (
    AXIAL_NAMES,
    REVIVAL_TIME,
    ProtocolConfig,
    axial_state,
    bloch_state,
    run_protocol,
    run_protocol_branches,
    verify_protocol_identities,
    verify_transfer_condition,
)

_TIME_TOKENS = {"pi": math.pi, "pi/2": math.pi / 2.0, "pi/4": math.pi / 4.0}


def parse_time(text: str) -> float:
    """Seconds of dimensionless time; accepts "pi", "pi/2", "pi/4" exactly."""
    token = text.strip().lower()
    if token in _TIME_TOKENS:
        return _TIME_TOKENS[token]
    return float(text)


def _parse_profile(args) -> CouplingProfile:
    spec = args.profile
    if spec in ("perfect", "boundary") or spec.startswith("boundary:"):
        if args.n is None:
            raise ValueError(f"profile {spec!r} needs --n")
    if spec == "perfect":
        return perfect_profile(args.n)
    if spec == "boundary":
        if args.eta is None:
            raise ValueError("boundary profile needs --eta")
        return boundary_profile(args.n, args.eta)
    if spec.startswith("boundary:"):
        return boundary_profile(args.n, float(spec.split(":", 1)[1]))
    # explicit comma-separated couplings; chain length is implied
    couplings = tuple(float(x) for x in spec.split(","))
    n = len(couplings) + 1
    if args.n is not None and args.n != n:
        raise ValueError(
            f"--n {args.n} contradicts the {len(couplings)} explicit couplings"
        )
    return CouplingProfile(n, couplings, label="explicit")


def _parse_input_state(text: str):
    token = text.strip()
    if token in AXIAL_NAMES:
        return axial_state(token)
    parts = token.split(",")
    if len(parts) == 2:
        return bloch_state(float(parts[0]), float(parts[1]))
    raise ValueError(
        f"input state must be one of {AXIAL_NAMES} or 'theta,phi', got {text!r}"
    )


def _metadata_lines(args, config: dict) -> list[str]:
    lines = [
        f"# artifact-version: {__version__}",
        "# config: " + json.dumps(config, sort_keys=True),
    ]
    if not args.no_timestamp:
        lines.append("# generated: " + datetime.now(timezone.utc).isoformat())
    return lines


def _emit(args, text: str, rows: Iterable[str] = ()) -> None:
    """Write text and then each of rows, streamed, to --out or stdout."""
    if args.out in (None, "-"):
        sys.stdout.write(text)
        sys.stdout.writelines(rows)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
            fh.writelines(rows)


def _csv_rows(first: np.ndarray, table: np.ndarray) -> Iterator[str]:
    """CSV lines first[i], table[i, 0], table[i, 1], ..., each value as
    Python's ``'%.17g'`` writes it, yielded as text blocks of whole rows
    (about ``BLOCK_VALUES`` values each) that join to the full text."""
    first = np.asarray(first, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
    step = max(1, BLOCK_VALUES // (table.shape[1] + 1))
    for lo in range(0, len(first), step):
        yield csv_block(np.column_stack([first[lo:lo + step], table[lo:lo + step]]))


def _json_document(args, config: dict, payload: dict) -> str:
    doc = {"artifact_version": __version__, "config": config}
    if not args.no_timestamp:
        doc["generated"] = datetime.now(timezone.utc).isoformat()
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_coefficients(args) -> int:
    profile = _parse_profile(args)
    trace = coefficient_trace(profile, args.t_max, args.steps, origin=args.origin)
    config = {
        "command": "coefficients",
        "profile": json.loads(profile.to_json()),
        "t_max": args.t_max,
        "steps": args.steps,
        "origin": args.origin,
    }
    n = profile.n_sites
    lines = _metadata_lines(args, config)
    lines.append("t," + ",".join(f"alpha_{i}" for i in range(1, n + 1)))
    _emit(args, "\n".join(lines) + "\n", _csv_rows(trace.times, trace.values))
    return 0


def _cmd_transfer(args) -> int:
    profile = _parse_profile(args)
    config = ProtocolConfig(
        profile=profile,
        input_state=_parse_input_state(args.input),
        medium=args.medium,
        evolution_time=args.t,
        seed=args.seed,
        thermal_variant=args.thermal_variant,
    )
    if config.seed is None and (args.sample or config.draws_medium):
        # a run that draws records the seed it drew from, so --seed repeats it
        config = dataclasses.replace(config, seed=secrets.randbits(63))
    run_config = {
        "command": "transfer",
        "profile": json.loads(profile.to_json()),
        "t": config.effective_time,
        "input": args.input,
        "medium": args.medium,
        "seed": config.seed,
        "sample": args.sample,
        "thermal_variant": args.thermal_variant,
    }
    if args.sample:
        result = run_protocol(config)
        payload = {"result": {**result.to_dict(), "probability": result.probability}}
    else:
        branches = run_protocol_branches(config)
        payload = {
            "branches": [
                {**b.to_dict(), "probability": b.probability} for b in branches
            ]
        }
    _emit(args, _json_document(args, run_config, payload))
    return 0


def _cmd_sweep(args) -> int:
    result = sweep(
        args.n,
        (args.eta_min, args.eta_max),
        (args.t_min, args.t_max),
        args.resolution,
    )
    config = {
        "command": "sweep",
        "n": args.n,
        "eta_range": [args.eta_min, args.eta_max],
        "t_range": [args.t_min, args.t_max],
        "resolution": args.resolution,
    }
    lines = _metadata_lines(args, config)
    lines.append("eta,t,estimate")
    # eta-major rows: eta_i, t_j, surface[i, j]
    n_eta, n_t = result.surface.shape
    table = np.column_stack([np.tile(result.t_values, n_eta), result.surface.ravel()])
    _emit(args, "\n".join(lines) + "\n", _csv_rows(np.repeat(result.eta_values, n_t), table))
    best = {
        "eta": result.best_eta,
        "time": result.best_time,
        "estimate": result.best_estimate,
    }
    if args.out not in (None, "-"):
        sys.stdout.write(json.dumps(best, sort_keys=True) + "\n")
    return 0


def _cmd_optimize(args) -> int:
    result = optimize_boundary(
        args.n,
        (args.eta_min, args.eta_max),
        (args.t_min, args.t_max),
        args.resolution,
        args.tolerance,
    )
    config = {
        "command": "optimize",
        "n": args.n,
        "eta_range": [args.eta_min, args.eta_max],
        "t_range": [args.t_min, args.t_max],
        "resolution": args.resolution,
        "tolerance": args.tolerance,
        "cross_validate": args.cross_validate,
    }
    payload = {"optimum": result.to_dict()}
    if args.cross_validate:
        report = cross_validate(boundary_profile(args.n, result.eta), result.time)
        payload["cross_validation"] = report.to_dict()
    _emit(args, _json_document(args, config, payload))
    if not result.refinement.converged:
        print(f"error: the search did not converge (best estimate {result.estimate:.3g})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    profile = _parse_profile(args)
    t = args.t if args.t is not None else REVIVAL_TIME
    report = None
    if args.condition:
        letters = args.condition.split(",")
        if len(letters) != 3:
            raise ValueError("--condition expects three letters like X,I,X")
        # the larger of the two checks first: a chain it refuses is refused
        # before the identity checks run
        report = verify_transfer_condition(
            profile, t, letters[0], letters[1], letters[2], tolerance=args.tolerance
        )
    checks = verify_protocol_identities(profile, t, tolerance=args.tolerance)
    config = {
        "command": "verify",
        "profile": json.loads(profile.to_json()),
        "t": t,
        "tolerance": args.tolerance,
        "condition": args.condition,
    }
    lines = _metadata_lines(args, config)
    width = max(len(c.description) for c in checks) + 2
    all_passed = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        all_passed = all_passed and check.passed
        lines.append(f"{check.description:<{width}} {check.deviation:.3e}  {status}")
    if report is not None:
        for entry in report.entries:
            status = "PASS" if entry.deviation < args.tolerance else "FAIL"
            desc = (
                f"condition {'/'.join(report.operators)} on {entry.letter} "
                f"(exponents {entry.left_exponent},{entry.right_exponent})"
            )
            lines.append(f"{desc:<{width}} {entry.deviation:.3e}  {status}")
        all_passed = all_passed and report.passed
    lines.append("overall: " + ("PASS" if all_passed else "FAIL"))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--out", default=None, help="output file; default stdout")
    sub.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generation timestamp for byte-identical reruns",
    )


def _add_profile_args(sub) -> None:
    sub.add_argument(
        "--profile", default="perfect",
        help="'perfect', 'boundary' (with --eta), 'boundary:ETA', "
             "or explicit comma-separated couplings",
    )
    sub.add_argument("--n", type=int, default=None,
                     help="chain length (implied by explicit couplings)")
    sub.add_argument("--eta", type=float, default=None,
                     help="boundary coupling strength")


def _add_search_args(sub) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--eta-min", type=float, default=DEFAULT_ETA_RANGE[0])
    sub.add_argument("--eta-max", type=float, default=DEFAULT_ETA_RANGE[1])
    sub.add_argument("--t-min", type=parse_time, default=DEFAULT_T_RANGE[0])
    sub.add_argument("--t-max", type=parse_time, default=DEFAULT_T_RANGE[1])
    sub.add_argument("--resolution", type=int, default=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxqst",
        description="Simulate and verify measurement-based state transfer "
                    "on XX spin chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    coeff = commands.add_parser(
        "coefficients", help="emit a CSV trace of operator coefficients"
    )
    _add_profile_args(coeff)
    coeff.add_argument("--t-max", type=parse_time, required=True)
    coeff.add_argument("--steps", type=int, required=True)
    coeff.add_argument("--origin", choices=("site1", "siteN"), default="site1")
    _add_common(coeff)
    coeff.set_defaults(handler=_cmd_coefficients)

    transfer = commands.add_parser(
        "transfer", help="run the measurement protocol and emit JSON"
    )
    _add_profile_args(transfer)
    transfer.add_argument("--t", type=parse_time, default=None,
                          help="evolution time; default pi/4")
    transfer.add_argument("--input", default="+x",
                          help="axial state name or 'theta,phi'")
    transfer.add_argument("--medium", default="all-zero",
                          help="zero | mixed | random | thermal:BETA")
    transfer.add_argument("--seed", type=int, default=None,
                          help="seed of the medium and outcome draws; a run that "
                               "draws without one writes the seed it drew")
    transfer.add_argument("--sample", action="store_true",
                          help="single sampled run instead of all branches")
    transfer.add_argument("--thermal-variant", choices=("subchain", "fullchain"),
                          default="subchain")
    _add_common(transfer)
    transfer.set_defaults(handler=_cmd_transfer)

    sweep_cmd = commands.add_parser(
        "sweep", help="grid the transfer estimate over (eta, t)"
    )
    _add_search_args(sweep_cmd)
    _add_common(sweep_cmd)
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    opt = commands.add_parser(
        "optimize", help="sweep plus local refinement of the boundary profile"
    )
    _add_search_args(opt)
    opt.add_argument("--tolerance", type=float, default=1e-5)
    opt.add_argument("--cross-validate", action="store_true",
                     help="also report the exact average fidelity at the optimum")
    _add_common(opt)
    opt.set_defaults(handler=_cmd_optimize)

    verify = commands.add_parser(
        "verify", aliases=["identity"], help="check the end-to-end operator identities"
    )
    _add_profile_args(verify)
    verify.add_argument("--t", type=parse_time, default=None,
                        help="evolution time; default pi/4")
    verify.add_argument("--tolerance", type=float, default=1e-8)
    verify.add_argument(
        "--condition", default=None,
        help="also check a single-correction triple, e.g. X,I,X",
    )
    _add_common(verify)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ResourceLimitError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
