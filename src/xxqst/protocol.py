"""Measurement-based state transfer across an XX chain, end to end.

The sender holds site 1, the receiver site N, and nothing in between needs
initialization.  One run consists of: project site N onto an equatorial
basis whose phase is the chain-length-dependent quarter turn, let the chain
evolve, X-measure site 1, then undo a known single-qubit frame on site N
conditioned on the product of the two outcomes.  For the perfect coupling
profile at its revival time the output equals the input on every outcome
branch and for every medium state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .chain import CouplingProfile
from .errors import InternalConsistencyError, ZeroProbabilityError
from .oracle import (
    PROB_FLOOR,
    DensityMatrix,
    PauliString,
    StateVector,
    check_size,
    conjugate_operator,
    evolve_columns,
    fidelity,
    thermal_medium,
)

__all__ = [
    "ProtocolConfig",
    "ProtocolResult",
    "AverageFidelityResult",
    "IdentityCheck",
    "ConditionReport",
    "axial_state",
    "bloch_state",
    "AXIAL_NAMES",
    "run_protocol",
    "run_protocol_branches",
    "average_fidelity",
    "verify_protocol_identities",
    "verify_transfer_condition",
]

REVIVAL_TIME = math.pi / 4

_SQRT2 = math.sqrt(2.0)
# exact powers of i, indexed by exponent mod 4
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

AXIAL_NAMES = ("0", "1", "+x", "-x", "+y", "-y")


def axial_state(name: str) -> StateVector:
    """One of the six cardinal single-qubit states "0","1","+x","-x","+y","-y"."""
    table = {
        "0": (1.0, 0.0),
        "1": (0.0, 1.0),
        "+x": (1 / _SQRT2, 1 / _SQRT2),
        "-x": (1 / _SQRT2, -1 / _SQRT2),
        "+y": (1 / _SQRT2, 1j / _SQRT2),
        "-y": (1 / _SQRT2, -1j / _SQRT2),
    }
    if name not in table:
        raise ValueError(f"unknown axial state {name!r}, expected one of {AXIAL_NAMES}")
    return StateVector(1, np.array(table[name], dtype=complex))


def bloch_state(theta: float, phi: float) -> StateVector:
    """Pure qubit state at polar angle theta, azimuth phi on the Bloch sphere."""
    amps = np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]
    )
    return StateVector(1, amps)


def _factor(state) -> tuple[np.ndarray, np.ndarray]:
    """Columns V and weights w with V diag(w) V^dagger equal to the state;
    the weights of a mixed state are its eigenvalues, negative roundoff kept."""
    if isinstance(state, StateVector):
        return state.amplitudes[:, None], np.ones(1)
    if isinstance(state, DensityMatrix):
        mat = state.matrix
        # a real matrix (a Gibbs state, say) diagonalizes four times faster as such
        w, v = np.linalg.eigh(mat if np.any(mat.imag) else mat.real)
        return v, w
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(state).__name__}")


MediumSpec = Union[str, StateVector, DensityMatrix]


def _parse_medium(spec: MediumSpec):
    """Canonical (kind, beta_or_none, explicit_state_or_none) form of a medium spec."""
    if isinstance(spec, (StateVector, DensityMatrix)):
        return "explicit", None, spec
    if not isinstance(spec, str):
        raise TypeError(f"medium spec must be a string or a state, got {type(spec).__name__}")
    token = spec.strip().lower()
    if token in ("all-zero", "zero"):
        return "zero", None, None
    if token in ("maximally-mixed", "mixed"):
        return "mixed", None, None
    if token in ("random-pure", "random"):
        return "random", None, None
    if token.startswith("thermal:"):
        try:
            beta = float(token.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad thermal medium spec {spec!r}") from exc
        if not np.isfinite(beta) or beta < 0:
            raise ValueError(f"thermal beta must be nonnegative, got {beta}")
        return "thermal", beta, None
    raise ValueError(f"unknown medium spec {spec!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one transfer run.

    evolution_time = None means the perfect-profile revival time pi/4.
    medium accepts "all-zero", "maximally-mixed", "random-pure",
    "thermal:BETA", or an explicit state on the interior sites.  end_state
    overrides the site-N starting state (default |0><0|); the protocol's
    claim is that it does not matter.
    """

    profile: CouplingProfile
    input_state: Union[StateVector, DensityMatrix]
    medium: MediumSpec = "all-zero"
    evolution_time: float | None = None
    end_state: Union[StateVector, DensityMatrix, None] = None
    seed: int | None = None
    thermal_variant: str = "subchain"

    def __post_init__(self):
        n = self.profile.n_sites
        if getattr(self.input_state, "n_sites", None) != 1:
            raise ValueError("input_state must be a single-qubit state")
        kind, _, explicit = _parse_medium(self.medium)
        if kind == "explicit":
            if n < 3:
                raise ValueError("explicit medium requires at least 3 sites")
            if explicit.n_sites != n - 2:
                raise ValueError(
                    f"medium must cover the {n - 2} interior sites, "
                    f"got {explicit.n_sites}"
                )
        # n == 2 has no interior: every medium spec degenerates to the scalar 1
        if self.end_state is not None and getattr(self.end_state, "n_sites", None) != 1:
            raise ValueError("end_state must be a single-qubit state")
        if self.evolution_time is not None and not np.isfinite(self.evolution_time):
            raise ValueError("evolution_time must be finite")
        if self.thermal_variant not in ("subchain", "fullchain"):
            raise ValueError(f"unknown thermal variant {self.thermal_variant!r}")

    @property
    def effective_time(self) -> float:
        return REVIVAL_TIME if self.evolution_time is None else float(self.evolution_time)


@dataclass(frozen=True)
class ProtocolResult:
    """One outcome branch: the two recorded signs, its joint probability,
    the corrected site-N state and its fidelity against the input."""

    outcome_pre: int
    outcome_post: int
    probability: float
    output_state: DensityMatrix
    fidelity_out: float
    correction_applied: str
    evolution_time: float

    def to_dict(self) -> dict:
        x, y, z = self.output_state.bloch_vector()
        return {
            "outcome_pre": self.outcome_pre,
            "outcome_post": self.outcome_post,
            "fidelity": self.fidelity_out,
            "output_bloch": [x, y, z],
            "correction": self.correction_applied,
        }


def _medium_factor(config: ProtocolConfig, rng: np.random.Generator):
    n = config.profile.n_sites
    if n == 2:
        return np.ones((1, 1), dtype=complex), np.ones(1)
    dim = 2 ** (n - 2)
    kind, beta, explicit = _parse_medium(config.medium)
    if kind == "zero":
        return _factor(StateVector.basis(n - 2, 0))
    if kind == "mixed":
        return np.eye(dim, dtype=complex), np.full(dim, 1.0 / dim)
    if kind == "random":
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return _factor(StateVector.normalized(n - 2, psi))
    if kind == "thermal":
        return _factor(thermal_medium(config.profile, beta, config.thermal_variant))
    return _factor(explicit)


def _equatorial_ket(n: int, outcome: int) -> np.ndarray:
    """(|0> + outcome * i**n |1>)/sqrt(2), the site-N pre-measurement basis."""
    return np.array([1.0, outcome * _I_POW[n % 4]]) / _SQRT2


def _prepare(config: ProtocolConfig):
    """rho_in (x) medium on sites 1..N-1 as columns V and weights w with
    rho = V diag(w) V^dagger, the probabilities of the site-N outcomes, and
    the seeded generator after its medium draw."""
    n = config.profile.n_sites
    # the factored chain state holds 2**n x 2**(n-1) amplitudes
    check_size(n, dense=True)
    rng = np.random.default_rng(config.seed)
    in_cols, in_w = _factor(config.input_state)
    med_cols, med_w = _medium_factor(config, rng)
    front = np.einsum("ia,jb->ijab", in_cols, med_cols).reshape(2 ** (n - 1), -1)
    end_cols, end_w = _factor(config.end_state or StateVector.basis(1, 0))
    p_pre = {o: float(np.sum(end_w * np.abs(_equatorial_ket(n, o).conj() @ end_cols) ** 2))
             for o in (1, -1)}
    return front, np.outer(in_w, med_w).ravel(), p_pre, rng


def _post_outcomes(config: ProtocolConfig, front, weights, o_pre: int) -> dict:
    """Project site N onto the o_pre ket, evolve, X-measure site 1.

    Returns {o_post: (probability, unnormalized site-N matrix)}, both read
    from the reduced matrix of sites 1 and N, sum_k w_k Tr_{2..N-1} b_k b_k^dagger
    over the evolved columns b_k.
    """
    n = config.profile.n_sites
    ket = _equatorial_ket(n, o_pre)
    cols = (front[:, None, :] * ket[None, :, None]).reshape(2**n, -1)
    evolved = evolve_columns(cols, config.profile, config.effective_time)
    quarter = 2 ** (n - 2)
    # rows (site 1, site N), columns (interior index, k); axes of ends: (1, N, 1', N')
    rows = evolved.reshape(2, quarter, 2, -1).transpose(0, 2, 1, 3).reshape(4, -1)
    ends = ((rows * np.tile(weights, quarter)) @ rows.conj().T).reshape(2, 2, 2, 2)
    outcomes = {}
    for o_post in (1, -1):
        # site 1 projected onto (|0> + o_post |1>)/sqrt(2)
        site_n = (ends[0, :, 0] + ends[1, :, 1] + o_post * (ends[0, :, 1] + ends[1, :, 0])) / 2.0
        outcomes[o_post] = (float(np.real(np.trace(site_n))), site_n)
    return outcomes


def _correct(site_n: np.ndarray, n: int, sign: int) -> np.ndarray:
    phase = _I_POW[n % 4]
    c = np.array([1.0, phase if sign > 0 else -phase])
    return site_n * np.outer(c, c.conj())


def _finish_branch(config, site_n, o_pre, o_post, weight, t, apply_correction):
    n = config.profile.n_sites
    if apply_correction:
        site_n = _correct(site_n, n, o_pre * o_post)
        label = f"S^{n}" if o_pre * o_post > 0 else f"S^{n}*Z"
    else:
        label = "none"
    anti = float(np.max(np.abs(site_n - site_n.conj().T))) / 2.0
    trace_err = abs(np.trace(site_n) - 1.0)
    if max(anti, trace_err) > 1e-12:
        raise InternalConsistencyError(
            f"branch ({o_pre:+d}, {o_post:+d}) output off by {anti:.3e} (anti-Hermitian "
            f"part) and {trace_err:.3e} (trace), past the clean-up bound 1e-12"
        )
    # scrub the roundoff just bounded before the type checks trace and Hermiticity
    site_n = (site_n + site_n.conj().T) / 2.0
    site_n = site_n / float(np.real(np.trace(site_n)))
    output = DensityMatrix(1, site_n)
    fid = fidelity(output, config.input_state)
    return ProtocolResult(o_pre, o_post, weight, output, fid, label, t)


def run_protocol_branches(
    config: ProtocolConfig, apply_correction: bool = True
) -> tuple[ProtocolResult, ...]:
    """Deterministically enumerate all outcome branches with their weights.

    Branches whose joint probability falls below 1e-14 are dropped; the
    remaining weights sum to 1 up to that floor.  Random-pure mediums are
    drawn once from the config seed and shared by all branches.
    """
    t = config.effective_time
    front, weights, p_pres, _ = _prepare(config)
    results = []
    for o_pre, p_pre in p_pres.items():
        if p_pre < PROB_FLOOR:
            continue
        for o_post, (p_post, site_n) in _post_outcomes(config, front, weights, o_pre).items():
            if p_post < PROB_FLOOR:
                continue
            results.append(_finish_branch(
                config, site_n / p_post, o_pre, o_post, p_pre * p_post, t, apply_correction,
            ))
    if not results:
        raise ZeroProbabilityError("every outcome branch has vanishing probability")
    return tuple(results)


def run_protocol(config: ProtocolConfig, apply_correction: bool = True) -> ProtocolResult:
    """Single sampled run: outcomes drawn with Born probabilities from the
    config seed.  Deterministic given (config, seed)."""
    front, weights, p_pres, rng = _prepare(config)
    o_pre = 1 if rng.random() < min(max(p_pres[1], 0.0), 1.0) else -1
    outcomes = _post_outcomes(config, front, weights, o_pre)
    o_post = 1 if rng.random() < min(max(outcomes[1][0], 0.0), 1.0) else -1
    p_post, site_n = outcomes[o_post]
    if p_post < PROB_FLOOR:
        raise ZeroProbabilityError(
            f"sampled branch ({o_pre:+d}, {o_post:+d}) has vanishing probability"
        )
    return _finish_branch(
        config, site_n / p_post, o_pre, o_post, p_pres[o_pre] * p_post,
        config.effective_time, apply_correction,
    )


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageFidelityResult:
    mean: float
    stderr: float
    n_inputs: int
    n_mediums: int
    values: tuple[float, ...]


def average_fidelity(
    profile: CouplingProfile,
    time: float | None = None,
    n_input_samples: int = 20,
    n_medium_samples: int = 1,
    seed: int | None = None,
    inputs: str = "haar",
    medium: MediumSpec = "all-zero",
    thermal_variant: str = "subchain",
) -> AverageFidelityResult:
    """Mean transfer fidelity over random inputs (and mediums), with the
    per-branch expectation taken exactly.

    inputs = "haar" draws n_input_samples pure states uniformly; "axial"
    uses the six cardinal states deterministically (their mean equals the
    uniform average for any qubit channel, the six states being a 2-design).
    Only the "random-pure" medium consumes n_medium_samples; other mediums
    are deterministic and evaluated once.
    """
    if inputs not in ("haar", "axial"):
        raise ValueError(f"inputs must be 'haar' or 'axial', got {inputs!r}")
    rng = np.random.default_rng(seed)
    if inputs == "axial":
        input_states = [axial_state(name) for name in AXIAL_NAMES]
    else:
        if n_input_samples < 1:
            raise ValueError("n_input_samples must be >= 1")
        input_states = []
        for _ in range(n_input_samples):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            input_states.append(StateVector.normalized(1, psi))

    kind, beta, _ = _parse_medium(medium)
    if kind == "random" and profile.n_sites > 2:
        if n_medium_samples < 1:
            raise ValueError("n_medium_samples must be >= 1")
        dim = 2 ** (profile.n_sites - 2)
        mediums = []
        for _ in range(n_medium_samples):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            mediums.append(StateVector.normalized(profile.n_sites - 2, psi))
    else:
        mediums = [medium]

    values = []
    for med in mediums:
        for state in input_states:
            config = ProtocolConfig(
                profile=profile, input_state=state, medium=med,
                evolution_time=time, thermal_variant=thermal_variant,
            )
            branches = run_protocol_branches(config)
            values.append(sum(b.probability * b.fidelity_out for b in branches))
    arr = np.array(values)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return AverageFidelityResult(
        mean=float(arr.mean()),
        stderr=stderr,
        n_inputs=len(input_states),
        n_mediums=len(mediums),
        values=tuple(float(v) for v in values),
    )


# ---------------------------------------------------------------------------
# operator-level verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    description: str
    deviation: float
    tolerance: float
    passed: bool


def _pair_string(n: int, first: str, last: str) -> PauliString:
    letters = ["I"] * n
    letters[0] = first
    letters[-1] = last
    return PauliString(n, tuple(letters))


def verify_protocol_identities(
    profile: CouplingProfile, time: float | None = None, tolerance: float = 1e-8
) -> tuple[IdentityCheck, ...]:
    """Check the end-to-end operator relations behind the protocol.

    At the revival time the evolved end-site Z lands on the opposite end,
    and the evolved two-end products reduce to static two-end products
    whose letters depend on the chain-length parity.  Returns one entry
    per relation with its max-abs matrix deviation.
    """
    n = profile.n_sites
    t = REVIVAL_TIME if time is None else float(time)
    even = n % 2 == 0
    checks: list[tuple[str, PauliString, np.ndarray]] = []
    checks.append((
        f"Z_{n}(t) = Z_1",
        PauliString.single(n, n, "Z"),
        PauliString.single(n, 1, "Z").to_matrix(),
    ))
    if even:
        checks.append((
            f"X_1(t) X_{n}(t) = X_1 X_{n}",
            _pair_string(n, "X", "X"),
            _pair_string(n, "X", "X").to_matrix(),
        ))
        checks.append((
            f"X_1(t) Y_{n}(t) = Y_1 X_{n}",
            _pair_string(n, "X", "Y"),
            _pair_string(n, "Y", "X").to_matrix(),
        ))
    else:
        checks.append((
            f"X_1(t) X_{n}(t) = Y_1 Y_{n}",
            _pair_string(n, "X", "X"),
            _pair_string(n, "Y", "Y").to_matrix(),
        ))
        checks.append((
            f"X_1(t) Y_{n}(t) = -X_1 Y_{n}",
            _pair_string(n, "X", "Y"),
            -_pair_string(n, "X", "Y").to_matrix(),
        ))
    out = []
    for description, op, target in checks:
        evolved = conjugate_operator(op, profile, t)
        dev = float(np.max(np.abs(evolved - target)))
        out.append(IdentityCheck(description, dev, tolerance, dev < tolerance))
    return tuple(out)


@dataclass(frozen=True)
class ConditionEntry:
    letter: str
    deviation: float
    left_exponent: int
    right_exponent: int


@dataclass(frozen=True)
class ConditionReport:
    operators: tuple[str, str, str]
    entries: tuple[ConditionEntry, ...]
    passed: bool
    tolerance: float


def verify_transfer_condition(
    profile: CouplingProfile,
    time: float | None = None,
    left_op: str = "X",
    mid_op: str = "I",
    right_op: str = "X",
    left_exponents: dict | None = None,
    right_exponents: dict | None = None,
    tolerance: float = 1e-8,
) -> ConditionReport:
    """Check the single-correction transfer condition for a triple of
    single-site operators.

    For each basis letter O in {X, Y, Z} the test asks whether
    (evolved left_op on site 1)^j * (mid_op on site N) * (evolved O on
    site N) equals (O on site 1) * (right_op on site N)^k for some
    exponents j, k in {0, 1}; fixed exponent maps pin them instead.
    Reports the per-letter best deviation.  The condition holds for
    even-length perfect chains with the X/identity/X triple and provably
    fails for odd lengths, where the surviving relation needs a two-end
    correction instead.
    """
    n = profile.n_sites
    t = REVIVAL_TIME if time is None else float(time)
    if left_op not in "XYZ" or right_op not in "XYZ" or mid_op not in "IXYZ":
        raise ValueError("operators must be single Pauli letters (mid may be I)")
    dim = 2**n
    identity = np.eye(dim, dtype=complex)
    evolved_left = conjugate_operator(PauliString.single(n, 1, left_op), profile, t)
    mid = PauliString.single(n, n, mid_op).to_matrix() if mid_op != "I" else identity
    right = PauliString.single(n, n, right_op).to_matrix()
    entries = []
    for letter in "XYZ":
        evolved_o = conjugate_operator(PauliString.single(n, n, letter), profile, t)
        target_site1 = PauliString.single(n, 1, letter).to_matrix()
        if left_exponents is not None and right_exponents is not None:
            pairs = [(int(left_exponents[letter]), int(right_exponents[letter]))]
        else:
            pairs = [(j, k) for j in (0, 1) for k in (0, 1)]
        best = None
        for j, k in pairs:
            lhs = (evolved_left if j else identity) @ mid @ evolved_o
            rhs = target_site1 @ (right if k else identity)
            dev = float(np.max(np.abs(lhs - rhs)))
            if best is None or dev < best[0]:
                best = (dev, j, k)
        entries.append(ConditionEntry(letter, best[0], best[1], best[2]))
    passed = all(e.deviation < tolerance for e in entries)
    return ConditionReport(
        operators=(left_op, mid_op, right_op),
        entries=tuple(entries),
        passed=passed,
        tolerance=tolerance,
    )
