"""Measurement-based state transfer across an XX chain, end to end.

The sender holds site 1, the receiver site N, and nothing in between needs
initialization.  One run consists of: project site N onto an equatorial
basis whose phase is the chain-length-dependent quarter turn, let the chain
evolve, X-measure site 1, then undo a known single-qubit frame on site N
conditioned on the product of the two outcomes.  For the perfect coupling
profile at its revival time the output equals the input on every outcome
branch and for every medium state.

Each medium takes the engine that fits it, chosen by its kind.  The XX
chain is a free-fermion model, and the all-zero, maximally mixed and both
thermal mediums are fermionic Gaussian states, so every branch follows from
end-site expectations that :func:`xxqst.heisenberg.gaussian_end_expectations`
evaluates with Wick's theorem in polynomial time, both pre-measurement
outcomes at once.  Random-pure and explicit mediums are not Gaussian: they
take the exact 2**n engine, which carries the chain state as columns and
weights, never as a density matrix, and evolves them with
:func:`xxqst.oracle.evolve_columns`.  Explicit mediums equal to the Gaussian
ones cross-check the two engines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .chain import CouplingProfile
from .errors import InternalConsistencyError, ZeroProbabilityError, check_memory
from .heisenberg import Propagator, gaussian_end_expectations
from .oracle import (
    PROB_FLOOR,
    DensityMatrix,
    PauliString,
    StateVector,
    check_size,
    conjugate_operator,
    evolve_columns,
    fidelity,
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
        # a real Hermitian matrix (a Gibbs state, say) is symmetric: the real
        # eigh is 4-5x cheaper at 1024 x 1024
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

    @property
    def draws_medium(self) -> bool:
        """Whether a run draws its medium from ``seed``: a random-pure medium
        on at least three sites (two sites have no interior to draw)."""
        return _parse_medium(self.medium)[0] == "random" and self.profile.n_sites > 2


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


def _random_pure(rng: np.random.Generator, n_sites: int) -> StateVector:
    """Normalized complex Gaussian vector: a uniformly random pure state."""
    dim = 2**n_sites
    return StateVector.normalized(n_sites, rng.normal(size=dim) + 1j * rng.normal(size=dim))


# the medium kinds that are fermionic Gaussian states
_GAUSSIAN = ("zero", "mixed", "thermal")


def _medium_pairs(config: ProtocolConfig, kind: str, beta, chain: Propagator):
    """A Gaussian medium in its pair basis, (delta, Q) with I - 2C =
    Q diag(delta) Q^T over the interior sites and Q None for the identity;
    `chain` is the propagator of the whole chain."""
    n_med = config.profile.n_sites - 2
    if kind == "zero":
        return np.ones(n_med), None
    # a lone interior site has no bond: its subchain Gibbs state is maximally mixed
    if kind == "mixed" or config.thermal_variant == "subchain" and n_med < 2:
        return np.zeros(n_med), None
    if config.thermal_variant == "fullchain":
        # Gibbs states are parity-even, so the fermionic reduction to the
        # interior is the qubit one: the interior block of the chain's
        # I - 2C = V diag(delta) V^T, diagonalized
        delta, v = chain.thermal_pairs(beta)
        return np.linalg.eigh((v[1:-1] * delta) @ v[1:-1].T)
    return Propagator(config.profile.rates[1:-1]).thermal_pairs(beta)


def _bloch(state) -> tuple[float, float, float]:
    """Bloch vector of a single-qubit state, a pure one read from its amplitudes."""
    if isinstance(state, DensityMatrix):
        return state.bloch_vector()
    a, b = state.amplitudes.tolist()
    coherence = a * b.conjugate()
    return 2.0 * coherence.real, -2.0 * coherence.imag, (a * a.conjugate() - b * b.conjugate()).real


def _gaussian_outcomes(config: ProtocolConfig, kind: str, beta) -> dict:
    """{o_pre: {o_post: (probability, unnormalized site-N matrix)}} on a
    Gaussian medium, both pre-measurement outcomes from one evaluation."""
    n = config.profile.n_sites
    chain = Propagator(config.profile.rates)
    moments = gaussian_end_expectations(
        chain, config.effective_time, _bloch(config.input_state),
        _medium_pairs(config, kind, beta, chain), _I_POW[n % 4],
    )
    outcomes = {}
    for o_pre, (x1, xn, yn, zn, x1xn, x1yn, x1zn) in zip((1, -1), moments.tolist()):
        outcomes[o_pre] = {}
        for o_post in (1, -1):
            # Pauli components of Tr_{1..N-1}[(1 + o_post X_1)/2 . evolved state]
            e_i, e_z = 1.0 + o_post * x1, zn + o_post * x1zn
            e_x, e_y = xn + o_post * x1xn, yn + o_post * x1yn
            site_n = np.array([[e_i + e_z, e_x - 1j * e_y], [e_x + 1j * e_y, e_i - e_z]]) / 4.0
            outcomes[o_pre][o_post] = (e_i.real / 2.0, site_n)
    return outcomes


# the site-N starting state when the config names none
_END_STATE = StateVector.basis(1, 0)


def _equatorial_ket(n: int, outcome: int) -> np.ndarray:
    """(|0> + outcome * i**n |1>)/sqrt(2), the site-N pre-measurement basis."""
    return np.array([1.0, outcome * _I_POW[n % 4]]) / _SQRT2


def _prepare(config: ProtocolConfig, rng: np.random.Generator | None = None):
    """The probabilities of the site-N outcomes and a function from a
    pre-measurement outcome to its {o_post: (probability, unnormalized
    site-N matrix)}.

    A Gaussian medium evaluates both outcomes here, in polynomial time.  Any
    other medium is set up as rho_in (x) medium on sites 1..N-1, columns V
    and weights w with rho = V diag(w) V^dagger, and each outcome is evolved
    when asked for.  A random-pure medium is drawn from `rng`, or from a
    generator seeded with the config seed when none is given.  Each engine
    checks what it allocates before allocating: the Gaussian one the memory
    budget for its propagators, the exact one for its sector eigensystems
    (:func:`xxqst.oracle.check_size`) and its columns."""
    n = config.profile.n_sites
    # <kappa_o| rho |kappa_o> = (1 + o (Re c x + Im c y)) / 2 for the ket
    # (|0> + o c |1>)/sqrt(2), c = i**n, and rho's Bloch vector (x, y, z)
    x, y, _ = _bloch(config.end_state or _END_STATE)
    c = _I_POW[n % 4]
    p_pre = {o: (1.0 + o * (c.real * x + c.imag * y)) / 2.0 for o in (1, -1)}
    kind, beta, explicit = _parse_medium(config.medium)
    if kind in _GAUSSIAN:
        # the chain's solve (eigenvectors and dstevd workspace, N**2 doubles
        # each), and for a thermal medium its pair basis beside the chain's
        # eigenvectors: the interior chain's solve, or the fullchain eigh's
        # input and eigenvectors with LAPACK's workspace
        check_memory(8 * n * (n + 16) * (4 if kind == "thermal" else 2),
                     f"the Gaussian protocol on {n} sites")
        return p_pre, _gaussian_outcomes(config, kind, beta).__getitem__
    check_size(n)
    # rho_in (x) medium factored into k columns, every eigenvector of a mixed
    # state among them; per entry of the evolved 2**n x k columns, six
    # complex numbers at the peak: the columns, their evolution, its
    # regrouped copy, that copy weighted and conjugated, and the half-height
    # front columns, with room for the per-sector temporaries
    k = (1 if isinstance(config.input_state, StateVector) else 2) * (
        2 ** (n - 2) if isinstance(explicit, DensityMatrix) else 1)
    check_memory(16 * 2**n * (6 * k + 2), f"the exact protocol on {n} sites")
    if config.draws_medium:
        rng = np.random.default_rng(config.seed) if rng is None else rng
        med_cols, med_w = _factor(_random_pure(rng, n - 2))
    elif n == 2:
        med_cols, med_w = np.ones((1, 1), dtype=complex), np.ones(1)
    else:
        med_cols, med_w = _factor(explicit)
    in_cols, in_w = _factor(config.input_state)
    front = np.einsum("ia,jb->ijab", in_cols, med_cols).reshape(2 ** (n - 1), -1)
    weights = np.outer(in_w, med_w).ravel()
    return p_pre, partial(_post_outcomes, config, front, weights)


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


def _finish_branch(config, site_n, p_post, o_pre, o_post, weight, t, apply_correction):
    """The branch result from its unnormalized site-N matrix, of trace
    p_post: the correction, then the roundoff clean-up on the four entries
    of the normalized matrix, whose roundoff normalizing multiplied by
    1 / p_post.  So it is bounded at 1e-12, or 5e-13 / p_post below p_post =
    1/2: it symmetrizes, renormalizes and, past DensityMatrix's -1e-10 on the
    smaller eigenvalue, scales the Bloch vector back onto the sphere."""
    n = config.profile.n_sites
    bound = max(1e-12, 5e-13 / p_post)
    (a, b), (c, d) = (site_n / p_post).tolist()
    if apply_correction:
        # conjugation by diag(1, phase), phase = +-i**n: S^n, or S^n Z
        phase = _I_POW[n % 4] if o_pre * o_post > 0 else -_I_POW[n % 4]
        b, c = b * phase.conjugate(), c * phase
        label = f"S^{n}" if o_pre * o_post > 0 else f"S^{n}*Z"
    else:
        label = "none"
    anti = max(abs(a.imag), abs(d.imag), abs(b - c.conjugate()) / 2.0)
    trace_err = abs(a + d - 1.0)
    # minus the smaller eigenvalue of the Hermitian part
    negative = (math.hypot(a.real - d.real, abs(b + c.conjugate())) - a.real - d.real) / 2.0
    if max(anti, trace_err, negative) > bound:
        raise InternalConsistencyError(
            f"branch ({o_pre:+d}, {o_post:+d}) output off by {anti:.3e} (anti-Hermitian "
            f"part), {trace_err:.3e} (trace) and {max(negative, 0.0):.3e} (negative "
            f"eigenvalue), past the clean-up bound {bound:.3g}"
        )
    # scrub the roundoff just bounded before the type checks trace and Hermiticity
    b = (b + c.conjugate()) / 2.0
    tr = a.real + d.real
    a, b, d = a.real / tr, b / tr, d.real / tr
    if negative > 1e-10:
        length = math.hypot(a - d, 2.0 * abs(b))
        z, b = (a - d) / length, b / length
        a, d = (1.0 + z) / 2.0, (1.0 - z) / 2.0
    output = DensityMatrix(1, np.array([[a, b], [b.conjugate(), d]]))
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
    p_pres, post_outcomes = _prepare(config)
    results = []
    for o_pre, p_pre in p_pres.items():
        if p_pre < PROB_FLOOR:
            continue
        for o_post, (p_post, site_n) in post_outcomes(o_pre).items():
            if p_post < PROB_FLOOR:
                continue
            results.append(_finish_branch(
                config, site_n, p_post, o_pre, o_post, p_pre * p_post, t, apply_correction,
            ))
    if not results:
        raise ZeroProbabilityError("every outcome branch has vanishing probability")
    return tuple(results)


def run_protocol(config: ProtocolConfig, apply_correction: bool = True) -> ProtocolResult:
    """Single sampled run: outcomes drawn with Born probabilities from the
    config seed, after the draw of a random-pure medium.  Deterministic
    given (config, seed)."""
    rng = np.random.default_rng(config.seed)
    p_pres, post_outcomes = _prepare(config, rng)
    o_pre = 1 if rng.random() < min(max(p_pres[1], 0.0), 1.0) else -1
    outcomes = post_outcomes(o_pre)
    o_post = 1 if rng.random() < min(max(outcomes[1][0], 0.0), 1.0) else -1
    p_post, site_n = outcomes[o_post]
    if p_post < PROB_FLOOR:
        raise ZeroProbabilityError(
            f"sampled branch ({o_pre:+d}, {o_post:+d}) has vanishing probability"
        )
    return _finish_branch(
        config, site_n, p_post, o_pre, o_post, p_pres[o_pre] * p_post,
        config.effective_time, apply_correction,
    )


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageFidelityResult:
    mean: float
    values: tuple[float, ...]


def average_fidelity(
    profile: CouplingProfile,
    time: float | None = None,
    medium: MediumSpec = "all-zero",
    thermal_variant: str = "subchain",
    seed: int | None = None,
) -> AverageFidelityResult:
    """Mean transfer fidelity over the six axial inputs, each the exact
    branch sum of the protocol, in the order of AXIAL_NAMES.

    The six states are a 2-design, so for any qubit channel their mean is
    the uniform average over pure inputs.  A "random-pure" medium is one
    state drawn from `seed`, shared by the six runs; other mediums draw
    nothing.  This is the protocol-side reference for the closed form
    :meth:`xxqst.heisenberg.Propagator.average_fidelity`.
    """
    kind, _, _ = _parse_medium(medium)
    if kind == "random" and profile.n_sites > 2:
        # the draw is the exact engine's, so its size check refuses it before
        # it is made
        check_size(profile.n_sites)
        medium = _random_pure(np.random.default_rng(seed), profile.n_sites - 2)
    values = []
    for name in AXIAL_NAMES:
        config = ProtocolConfig(
            profile=profile, input_state=axial_state(name), medium=medium,
            evolution_time=time, thermal_variant=thermal_variant,
        )
        branches = run_protocol_branches(config)
        values.append(sum(b.probability * b.fidelity_out for b in branches))
    return AverageFidelityResult(mean=float(np.array(values).mean()),
                                 values=tuple(float(v) for v in values))


# ---------------------------------------------------------------------------
# operator-level verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    description: str
    deviation: float
    tolerance: float
    passed: bool


def _check_tolerance(tolerance: float) -> None:
    # past these, the tolerance alone would decide every check
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")


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
    per relation with its max-abs matrix deviation.  A tolerance that is not
    finite and positive raises ValueError.
    """
    _check_tolerance(tolerance)
    n = profile.n_sites
    t = REVIVAL_TIME if time is None else float(time)
    # the two-end products reduce to static ones whose letters depend on
    # the parity: X_1(t) L_N(t) = sign A_1 B_N for each (L, A, B, sign)
    if n % 2 == 0:
        pairs = (("X", "X", "X", 1), ("Y", "Y", "X", 1))
    else:
        pairs = (("X", "Y", "Y", 1), ("Y", "X", "Y", -1))
    # (description, operator, target): each target becomes a dense matrix
    # only after the memory check below
    checks = [(f"Z_{n}(t) = Z_1", PauliString.single(n, n, "Z"), PauliString.single(n, 1, "Z"))]
    for last, first_to, last_to, sign in pairs:
        description = f"X_1(t) {last}_{n}(t) = {'-' if sign < 0 else ''}{first_to}_1 {last_to}_{n}"
        target = PauliString(n, _pair_string(n, first_to, last_to).letters, sign)
        checks.append((description, _pair_string(n, "X", last), target))
    # a conjugation's five complex 2**n x 2**n arrays (conjugate_operator)
    # beside the previous check's evolved matrix, and a seventh for the
    # conjugation's per-sector temporaries
    check_memory(112 * 4**n, f"the identity checks on {n} sites")
    out = []
    for description, op, target in checks:
        evolved = conjugate_operator(op, profile, t)
        dev = float(np.max(np.abs(evolved - target.to_matrix())))
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


def _condition_entry(profile, t, letter, pairs, left, mid, right_op) -> ConditionEntry:
    """The exponents (j, k) among `pairs` with the least deviation for one
    letter, the first on a tie.  Each side is built once, as it does not
    depend on the other side's exponent, and freed before the next letter."""
    n = profile.n_sites
    evolved_o = conjugate_operator(PauliString.single(n, n, letter), profile, t)
    site1 = PauliString.single(n, 1, letter)
    lhs = {j: left @ evolved_o if j else (evolved_o if mid is None else mid @ evolved_o)
           for j in dict.fromkeys(j for j, _ in pairs)}
    rhs = {k: (site1 * PauliString.single(n, n, right_op) if k else site1).to_matrix()
           for k in dict.fromkeys(k for _, k in pairs)}
    devs = [(float(np.max(np.abs(lhs[j] - rhs[k]))), j, k) for j, k in pairs]
    return ConditionEntry(letter, *min(devs, key=lambda d: d[0]))


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
    correction instead.  A tolerance that is not finite and positive raises
    ValueError.
    """
    _check_tolerance(tolerance)
    n = profile.n_sites
    t = REVIVAL_TIME if time is None else float(time)
    # tuples, not strings: a substring test would pass "" and "XY"
    letters = ("X", "Y", "Z")
    if left_op not in letters or right_op not in letters or mid_op not in ("I", *letters):
        raise ValueError("operators must be single Pauli letters (mid may be I)")
    # nine complex 2**n x 2**n arrays at most: the evolved left side and
    # mid, the evolved O, both left and both right sides, and a deviation's
    # difference and magnitude; a tenth covers the conjugation's temporaries
    check_memory(160 * 4**n, f"the transfer condition on {n} sites")
    left = conjugate_operator(PauliString.single(n, 1, left_op), profile, t)
    mid = None if mid_op == "I" else PauliString.single(n, n, mid_op).to_matrix()
    if mid is not None:
        # associated as (evolved left @ mid) @ evolved O
        left = left @ mid
    entries = []
    for letter in letters:
        if left_exponents is not None and right_exponents is not None:
            pairs = [(int(left_exponents[letter]), int(right_exponents[letter]))]
        else:
            pairs = [(j, k) for j in (0, 1) for k in (0, 1)]
        entries.append(_condition_entry(profile, t, letter, pairs, left, mid, right_op))
    passed = all(e.deviation < tolerance for e in entries)
    return ConditionReport(
        operators=(left_op, mid_op, right_op),
        entries=tuple(entries),
        passed=passed,
        tolerance=tolerance,
    )
