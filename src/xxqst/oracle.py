"""Exact reference engine: full Hilbert-space states, Pauli strings and
measurements for small XX chains.

Everything here is exact linear algebra on 2**n dimensional spaces and
serves as the ground truth the fast coefficient engine is checked against.
Site 1 occupies the most significant bit of a basis index, so |100...0>
means an excitation on site 1.

The admissible chain length is bounded by :func:`oracle_cap` (default 14,
override with the ``XXQST_ORACLE_CAP`` environment variable).  Dense
work (density-matrix evolution and protocol runs) also stops at
``DENSE_SITE_LIMIT`` = 12 sites, where a 2**n x 2**n density matrix holds
256 MB; :func:`check_size` applies both bounds.  Dense operator
conjugation stops at 8 sites.  The chain conserves total Z, so time
evolution (:func:`evolve_columns`) and both thermal mediums diagonalize
the magnetization-sector blocks of :func:`xxqst.chain.sector_blocks` one
at a time and never form the 2**n x 2**n Hamiltonian or propagator.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .chain import CouplingProfile, sector_blocks
from .errors import InternalConsistencyError, ResourceLimitError, ZeroProbabilityError

__all__ = [
    "StateVector",
    "DensityMatrix",
    "PauliString",
    "PROB_FLOOR",
    "DENSE_SITE_LIMIT",
    "oracle_cap",
    "check_size",
    "evolve",
    "evolve_columns",
    "conjugate_operator",
    "string_basis",
    "extract_string_coefficients",
    "project_site",
    "measure_site",
    "reduced_state",
    "fidelity",
    "thermal_medium",
]

_ENV_CAP = "XXQST_ORACLE_CAP"
_DEFAULT_CAP = 14
# dense arrays: a 2**n x 2**n density matrix or the protocol's 2**n x 2**(n-1) factor
DENSE_SITE_LIMIT = 12
# outcomes and norms below this count as zero, here and in the protocol
PROB_FLOOR = 1e-14

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-site products a*b -> (phase, letter)
_PAULI_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


def oracle_cap() -> int:
    """Maximum chain length the exact engine accepts."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"{_ENV_CAP} must be >= 2, got {cap}")
    return cap


def check_size(n: int, dense: bool = False) -> None:
    """Raise ResourceLimitError for a chain of n sites above the cap, or,
    for dense work, above DENSE_SITE_LIMIT."""
    cap = oracle_cap()
    if n > cap:
        raise ResourceLimitError(
            f"chain of {n} sites exceeds the exact-engine cap of {cap} "
            f"(raise {_ENV_CAP} to override)"
        )
    if dense and n > DENSE_SITE_LIMIT:
        raise ResourceLimitError(
            f"dense work (density matrices, protocol runs) is limited to "
            f"{DENSE_SITE_LIMIT} sites, got {n}"
        )


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of n_sites qubits, site 1 = most significant bit."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_sites,):
            raise ValueError(
                f"expected {2**self.n_sites} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_sites: int, index: int) -> "StateVector":
        """Computational basis state |index> (bit n_sites-i holds site i)."""
        if not 0 <= index < 2**n_sites:
            raise ValueError(f"basis index {index} out of range for {n_sites} sites")
        amps = np.zeros(2**n_sites, dtype=complex)
        amps[index] = 1.0
        return cls(n_sites, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """State |bits>, site 1 first, e.g. "100" puts the excitation on site 1."""
        if not bits or any(b not in "01" for b in bits):
            raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
        return cls.basis(len(bits), int(bits, 2))

    @classmethod
    def normalized(cls, n_sites: int, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm < PROB_FLOOR:
            raise ValueError("cannot normalize a zero vector")
        return cls(n_sites, amps / norm)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_sites, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of n_sites qubits: unit trace, Hermitian, positive.

    Positivity is verified by full diagonalization when the dimension does
    not exceed 2**11; larger matrices are checked for trace and Hermiticity
    only.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        dim = 2**self.n_sites
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("matrix entries must be finite")
        tr = np.trace(mat)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {tr!r}")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > 1e-12:
            raise ValueError(f"matrix not Hermitian: deviation {herm_dev:.3e}")
        if dim <= 2048:
            lo = float(np.linalg.eigvalsh(mat if np.any(mat.imag) else mat.real)[0])
            if lo < -1e-10:
                raise ValueError(f"matrix not positive: min eigenvalue {lo:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def maximally_mixed(cls, n_sites: int) -> "DensityMatrix":
        dim = 2**n_sites
        return cls(n_sites, np.eye(dim, dtype=complex) / dim)

    def bloch_vector(self) -> tuple[float, float, float]:
        """Bloch components (x, y, z); single-qubit states only."""
        if self.n_sites != 1:
            raise ValueError("bloch_vector is defined for single-qubit states")
        m = self.matrix
        return (
            float(np.real(m[0, 1] + m[1, 0])),
            float(np.real(1j * (m[0, 1] - m[1, 0]))),
            float(np.real(m[0, 0] - m[1, 1])),
        )

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-site Paulis with an overall unit phase."""

    n_sites: int
    letters: tuple[str, ...]
    phase: complex = 1 + 0j

    def __post_init__(self):
        letters = tuple(self.letters)
        if len(letters) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} letters, got {len(letters)}")
        if any(l not in "IXYZ" for l in letters):
            raise ValueError(f"letters must be from IXYZ, got {letters!r}")
        phase = complex(self.phase)
        if not any(abs(phase - p) < 1e-12 for p in _PHASES):
            raise ValueError(f"phase must be a fourth root of unity, got {phase!r}")
        # snap to the exact unit so chained products cannot drift
        phase = min(_PHASES, key=lambda p: abs(phase - p))
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "phase", phase)

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, ("I",) * n_sites)

    @classmethod
    def single(cls, n_sites: int, site: int, letter: str) -> "PauliString":
        """Single-site operator `letter` on `site` (1-based)."""
        if not 1 <= site <= n_sites:
            raise ValueError(f"site {site} out of range 1..{n_sites}")
        letters = ["I"] * n_sites
        letters[site - 1] = letter
        return cls(n_sites, tuple(letters))

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n_sites != self.n_sites:
            raise ValueError("cannot multiply strings on different chain lengths")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            p, l = _PAULI_MUL[(a, b)]
            phase *= p
            letters.append(l)
        return PauliString(self.n_sites, tuple(letters), phase)

    def dagger(self) -> "PauliString":
        return PauliString(self.n_sites, self.letters, np.conj(self.phase))

    def is_hermitian(self) -> bool:
        return abs(self.phase.imag) < 1e-12

    def weight(self) -> int:
        return sum(1 for l in self.letters if l != "I")

    def to_matrix(self) -> np.ndarray:
        mats = [_PAULI_MATS[l] for l in self.letters]
        return self.phase * reduce(np.kron, mats)

    def __str__(self) -> str:
        sign = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return sign + "".join(self.letters)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _eigensystems(profile: CouplingProfile):
    """Per-magnetization-sector eigensystems: tuples (indices, w, v)."""
    return tuple((idx, *np.linalg.eigh(block)) for idx, block in sector_blocks(profile))


# one chain at a time: peak memory stays bounded by the size cap
_sector_eigh = lru_cache(maxsize=1)(_eigensystems)


def evolve_columns(columns, profile: CouplingProfile, time: float) -> np.ndarray:
    """e^{-iHt} applied to every column of a 2**n x r array (or to one
    2**n vector).  The chain conserves total Z, so each block of basis
    states with a fixed number of excitations evolves under its own real
    symmetric Hamiltonian and no 2**n x 2**n matrix is formed."""
    n = profile.n_sites
    check_size(n)
    t = float(time)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    cols = np.asarray(columns, dtype=complex)
    if cols.shape[0] != 2**n:
        raise ValueError(f"expected {2**n} rows for {n} sites, got shape {cols.shape}")
    flat = cols.reshape(2**n, -1)
    out = np.zeros_like(flat)
    for idx, w, v in _sector_eigh(profile):
        sub = np.ascontiguousarray(flat[idx])
        if not np.any(sub):
            continue
        # the blocks are real: multiply real and imaginary parts in one real product
        rot = (v.T @ sub.view(float)).view(complex)
        rot *= np.exp(-1j * w * t)[:, None]
        out[idx] = (v @ rot.view(float)).view(complex)
    return out.reshape(cols.shape)


def _sandwich(mat: np.ndarray, profile: CouplingProfile, time: float) -> np.ndarray:
    """U mat U^dagger for U = e^{-iHt}, as two column evolutions."""
    left = evolve_columns(mat.conj().T, profile, time)
    return evolve_columns(left.conj().T, profile, time)


def evolve(state, profile: CouplingProfile, time: float):
    """Schroedinger evolution e^{-iHt} of a state under the chain Hamiltonian.

    Accepts a StateVector or a DensityMatrix and returns the same type.
    Both go through :func:`evolve_columns`; density matrices are limited to
    DENSE_SITE_LIMIT sites.
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot evolve {type(state).__name__}")
    if state.n_sites != profile.n_sites:
        raise ValueError("state and profile disagree on the chain length")
    if isinstance(state, StateVector):
        return StateVector(state.n_sites, evolve_columns(state.amplitudes, profile, time))
    check_size(profile.n_sites, dense=True)
    return DensityMatrix(state.n_sites, _sandwich(state.matrix, profile, time))


def conjugate_operator(op, profile: CouplingProfile, time: float) -> np.ndarray:
    """Heisenberg-evolved operator e^{iHt} O e^{-iHt} as a dense matrix.

    `op` may be a PauliString, a dense matrix, or an iterable of
    PauliStrings which are summed.  Limited to 8 sites.
    """
    n = profile.n_sites
    if n > 8:
        raise ResourceLimitError(f"dense conjugation limited to 8 sites, got {n}")
    if isinstance(op, PauliString):
        mat = op.to_matrix()
    elif isinstance(op, np.ndarray):
        mat = np.asarray(op, dtype=complex)
        if mat.shape != (2**n, 2**n):
            raise ValueError(f"operator shape {mat.shape} does not match {n} sites")
    else:
        mat = sum(p.to_matrix() for p in op)
    return _sandwich(mat, profile, -float(time))


# ---------------------------------------------------------------------------
# operator string basis
# ---------------------------------------------------------------------------

def string_basis(n: int, origin: str = "site1") -> tuple[PauliString, ...]:
    """The alternating Z-string basis reached by an evolved end-site X.

    Forward family (origin "site1"): position k carries Z on sites 1..k-1
    and X (odd k) or Y (even k) on site k.  The mirrored family (origin
    "siteN") is the site-reversed image.
    """
    if origin not in ("site1", "siteN"):
        raise ValueError(f"unknown origin {origin!r}")
    strings = []
    for k in range(1, n + 1):
        letters = ("Z",) * (k - 1) + ("X" if k % 2 == 1 else "Y",) + ("I",) * (n - k)
        strings.append(PauliString(n, letters if origin == "site1" else letters[::-1]))
    return tuple(strings)


def extract_string_coefficients(
    profile: CouplingProfile, time: float, origin: str = "site1"
) -> np.ndarray:
    """Coefficients of the evolved end-site X on the alternating string basis.

    Projects with the normalized Hilbert-Schmidt inner product
    Tr(s_k O(t)) / 2**n.  The basis is closed under the chain evolution, so
    the residual left after the projection must vanish; a residual above
    1e-10, or imaginary parts above 1e-12, raise InternalConsistencyError.
    """
    n = profile.n_sites
    site = 1 if origin == "site1" else n
    evolved = conjugate_operator(PauliString.single(n, site, "X"), profile, time)
    basis = string_basis(n, origin)
    dim = 2**n
    raw = np.array([np.trace(s.to_matrix() @ evolved) / dim for s in basis])
    imag = float(np.max(np.abs(raw.imag)))
    if imag > 1e-12:
        raise InternalConsistencyError(
            f"string coefficients have imaginary residue {imag:.3e}"
        )
    coeffs = raw.real
    residual = evolved - sum(
        c * s.to_matrix() for c, s in zip(coeffs, basis)
    )
    hs_norm = float(np.sqrt(np.real(np.trace(residual.conj().T @ residual)) / dim))
    if hs_norm > 1e-10:
        raise InternalConsistencyError(
            f"evolved operator leaks out of the string basis: residual {hs_norm:.3e}"
        )
    return coeffs


# ---------------------------------------------------------------------------
# measurement and reduction
# ---------------------------------------------------------------------------

def _measurement_ket(axis: str, outcome: int, phase: float | None) -> np.ndarray:
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if phase is not None:
        phase = float(phase)
        if not math.isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        return np.array([1.0, outcome * np.exp(1j * phase)]) / np.sqrt(2.0)
    axis = axis.lower()
    if axis == "z":
        return np.array([1.0, 0.0], dtype=complex) if outcome == 1 else np.array([0.0, 1.0], dtype=complex)
    if axis == "x":
        return np.array([1.0, outcome], dtype=complex) / np.sqrt(2.0)
    if axis == "y":
        return np.array([1.0, outcome * 1j]) / np.sqrt(2.0)
    raise ValueError(f"unknown axis {axis!r}")


def _site_overlap(state, site: int, ket: np.ndarray):
    """(probability, overlap) of finding `site` in `ket`.

    The overlap is <ket|psi>, an array over the other sites, for a
    StateVector and <ket|rho|ket> for a DensityMatrix.
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot measure {type(state).__name__}")
    n = state.n_sites
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    left, right = 2 ** (site - 1), 2 ** (n - site)
    if isinstance(state, StateVector):
        shaped = state.amplitudes.reshape(left, 2, right)
        overlap = np.einsum("i,aib->ab", ket.conj(), shaped)
        return float(np.sum(np.abs(overlap) ** 2)), overlap
    shaped = state.matrix.reshape(left, 2, right, left, 2, right)
    block = np.einsum("i,aibcjd,j->abcd", ket.conj(), shaped, ket)
    return float(np.real(np.einsum("abab->", block))), block


def project_site(state, site: int, axis: str = "z", outcome: int = 1,
                 phase: float | None = None):
    """Project one site onto a measurement eigenstate.

    Returns (probability, post_state) with the post state renormalized.
    `axis` picks the eigenbasis ("x", "y", "z"); passing `phase` instead
    selects the equatorial basis (|0> +- e^{i phase} |1>)/sqrt(2).
    Requesting an outcome whose probability is below 1e-14 raises
    ZeroProbabilityError.
    """
    ket = _measurement_ket(axis, outcome, phase)
    prob, overlap = _site_overlap(state, site, ket)
    if prob < PROB_FLOOR:
        raise ZeroProbabilityError(
            f"outcome {outcome:+d} on site {site} has probability {prob:.3e}"
        )
    n = state.n_sites
    if isinstance(state, StateVector):
        post = np.einsum("i,ab->aib", ket, overlap).reshape(-1) / np.sqrt(prob)
        return prob, StateVector(n, post)
    post = np.einsum("i,abcd,j->aibcjd", ket, overlap / prob, ket.conj())
    return prob, DensityMatrix(n, post.reshape(2**n, 2**n))


def measure_site(state, site: int, axis: str = "z", phase: float | None = None,
                 seed: int | None = None, rng: np.random.Generator | None = None):
    """Sample a projective measurement of one site.

    Returns (outcome, probability, post_state).  Reproducible through
    `seed` (or an explicit numpy Generator).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    p_plus, _ = _site_overlap(state, site, _measurement_ket(axis, 1, phase))
    outcome = 1 if rng.random() < min(max(p_plus, 0.0), 1.0) else -1
    prob, post = project_site(state, site, axis=axis, outcome=outcome, phase=phase)
    return outcome, prob, post


def reduced_state(state, keep_sites) -> DensityMatrix:
    """Partial trace down to `keep_sites` (1-based, returned in site order)."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot reduce {type(state).__name__}")
    n = state.n_sites
    keep = sorted(set(int(s) for s in keep_sites))
    if not keep or keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep_sites out of range 1..{n}: {keep}")
    # kept sites first, traced sites after
    axes = [s - 1 for s in keep] + [i for i in range(n) if i + 1 not in keep]
    kept_dim = 2 ** len(keep)
    if isinstance(state, StateVector):
        flat = state.amplitudes.reshape((2,) * n).transpose(axes).reshape(kept_dim, -1)
        return DensityMatrix(len(keep), flat @ flat.conj().T)
    shaped = state.matrix.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes])
    shaped = shaped.reshape(kept_dim, -1, kept_dim, 2 ** (n - len(keep)))
    return DensityMatrix(len(keep), np.einsum("ajbj->ab", shaped))


# ---------------------------------------------------------------------------
# fidelity and thermal states
# ---------------------------------------------------------------------------

def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _as_matrix(state) -> tuple[np.ndarray, np.ndarray | None]:
    """(matrix, pure_vector_or_None) for either state type."""
    if isinstance(state, StateVector):
        return np.outer(state.amplitudes, state.amplitudes.conj()), state.amplitudes
    if isinstance(state, DensityMatrix):
        w, v = np.linalg.eigh(state.matrix)
        if w[-1] >= 1.0 - 1e-12:
            return state.matrix, v[:, -1]
        return state.matrix, None
    raise TypeError(f"not a quantum state: {type(state).__name__}")


def fidelity(a, b) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))**2.

    For a pure argument this reduces to the exact overlap expectation and
    for a pair of single-qubit matrices the closed two-by-two form is used,
    both of which avoid the square-root noise of the general path.
    """
    mat_a, vec_a = _as_matrix(a)
    mat_b, vec_b = _as_matrix(b)
    if mat_a.shape != mat_b.shape:
        raise ValueError("states live on different Hilbert spaces")
    if vec_a is not None:
        return float(np.real(vec_a.conj() @ mat_b @ vec_a))
    if vec_b is not None:
        return float(np.real(vec_b.conj() @ mat_a @ vec_b))
    if mat_a.shape == (2, 2):
        det_a = max(float(np.real(np.linalg.det(mat_a))), 0.0)
        det_b = max(float(np.real(np.linalg.det(mat_b))), 0.0)
        return float(np.real(np.trace(mat_a @ mat_b)) + 2.0 * np.sqrt(det_a * det_b))
    # Tr sqrt(sqrt(a) b sqrt(a)) equals the nuclear norm of sqrt(a) sqrt(b).
    # Singular values are accurate to machine precision even for rank
    # deficient inputs, where taking eigvalsh + sqrt loses half the digits.
    sqrt_a = _psd_sqrt(mat_a)
    sqrt_b = _psd_sqrt(mat_b)
    singulars = np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False)
    return float(np.sum(singulars) ** 2)


def thermal_medium(profile: CouplingProfile, beta: float,
                   variant: str = "subchain") -> DensityMatrix:
    """Gibbs state of the interior sites 2..N-1 at inverse temperature beta.

    "subchain" (default) takes exp(-beta H_med)/Z for the interior chain
    with couplings J_2..J_{N-2}; "fullchain" reduces the Gibbs state of the
    whole chain to the interior.  Both are built from the magnetization-
    sector eigensystems of their chain, which must fit the size cap: N - 2
    sites for "subchain", N for "fullchain".  beta = 0 gives the maximally
    mixed medium exactly.
    """
    n = profile.n_sites
    if n < 3:
        raise ValueError(f"thermal medium needs n >= 3, got {n}")
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be a nonnegative real, got {beta}")
    if variant not in ("subchain", "fullchain"):
        raise ValueError(f"unknown thermal variant {variant!r}")
    n_med = n - 2
    # number of sites traced out at each end of the chain the state is built on
    traced = int(variant == "fullchain")
    check_size(n_med + 2 * traced)
    if traced:
        # the chain the protocol evolves: share its cached eigensystems
        blocks = _sector_eigh(profile)
    elif n_med == 1:
        return DensityMatrix.maximally_mixed(1)
    else:
        # uncached, so the one-chain cache keeps the protocol's chain
        blocks = _eigensystems(CouplingProfile(n_med, profile.couplings[1:-1]))
    ground = min(w[0] for _, w, _ in blocks)
    gibbs = np.zeros((2**n_med, 2**n_med))
    for idx, w, v in blocks:
        # the Gibbs state is block diagonal with these eigenvalues,
        # so they alone certify its positivity
        weights = np.exp(-beta * (w - ground))
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise InternalConsistencyError(
                f"Gibbs weights not finite and nonnegative at beta={beta}"
            )
        # trace out sites 1 and N (fullchain): only rows sharing both end bits meet
        ends = 2 * (idx >> (n_med + traced)) + (idx & traced)
        interior = (idx >> traced) & (2**n_med - 1)
        for end in range(4):
            rows = ends == end
            part = v[rows]
            gibbs[np.ix_(interior[rows], interior[rows])] += (part * weights) @ part.T
    return DensityMatrix(n_med, gibbs / np.trace(gibbs))
