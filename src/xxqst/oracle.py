"""Exact reference engine: full Hilbert-space states, Pauli strings and
measurements for small XX chains.

Everything here is exact linear algebra on 2**n dimensional spaces and
serves as the ground truth the fast coefficient engine is checked against.
Site 1 occupies the most significant bit of a basis index, so |100...0>
means an excitation on site 1.

Every array past one 2**n vector answers to the package's memory budget
(:func:`xxqst.errors.check_memory`), each call estimating its own peak
before it allocates.  :func:`check_size` estimates the sector
eigensystems, which the budget admits up to 14 sites; a 2**n x 2**n
density matrix holds 256 MiB at 12 sites, where density-matrix evolution,
the thermal mediums and dense operator conjugation stop.  The chain
conserves total Z, so time evolution (:func:`evolve_columns`) and both
thermal mediums diagonalize the magnetization-sector blocks of
:func:`xxqst.chain.sector_blocks` one at a time and never form the
2**n x 2**n Hamiltonian or propagator.  The protocol runs here only on
mediums that are not fermionic Gaussian states (random-pure and explicit
ones); the Gaussian mediums take :mod:`xxqst.heisenberg`.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .chain import CouplingProfile, sector_blocks
from .errors import InternalConsistencyError, ZeroProbabilityError, check_memory

__all__ = [
    "StateVector",
    "DensityMatrix",
    "PauliString",
    "PROB_FLOOR",
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


def check_size(n: int) -> None:
    """Refuse, before any eigensolve, a chain of n sites whose magnetization-
    sector eigensystems would not fit the memory budget."""
    # the eigenvectors of every sector, sum_m C(n, m)**2 = C(2n, n) doubles,
    # and the largest sector's solve beside them (its block, eigenvectors
    # and LAPACK's workspace): 1.6-1.9 times the tracemalloc peak at n = 8..14
    check_memory(8 * (math.comb(2 * n, n) + 4 * math.comb(n, n // 2) ** 2),
                 f"the sector eigensystems of {n} sites")


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
        # the outer product beside DensityMatrix's three arrays
        check_memory(80 * 4**self.n_sites,
                     f"the density matrix of a pure state on {self.n_sites} sites")
        return DensityMatrix(self.n_sites, np.outer(self.amplitudes, self.amplitudes.conj()))


def _smallest_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, read from its lower
    triangle as eigvalsh reads it; in closed form for one qubit."""
    if mat.shape == (2, 2):
        (a, _), (b, d) = mat.tolist()
        return (a.real + d.real - math.hypot(a.real - d.real, 2.0 * abs(b))) / 2.0
    return float(np.linalg.eigvalsh(mat if np.any(mat.imag) else mat.real)[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of n_sites qubits: unit trace, Hermitian, positive.

    Positivity is verified by full diagonalization when the dimension does
    not exceed 2**11, and for one qubit by the closed form of the smaller
    eigenvalue; larger matrices are checked for trace and Hermiticity only.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        dim = 2**self.n_sites
        # three complex dim x dim arrays at the peak: the copy and the two
        # temporaries of the Hermiticity check, with room for the rest
        check_memory(64 * dim**2, f"a density matrix on {self.n_sites} sites")
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        if dim == 2:
            # one qubit: the same checks on the four entries as Python
            # scalars, where numpy's per-call cost would dominate
            (a, b), (c, d) = mat.tolist()
            if not all(map(cmath.isfinite, (a, b, c, d))):
                raise ValueError("matrix entries must be finite")
            tr = a + d
            herm_dev = max(abs(a - a.conjugate()), abs(b - c.conjugate()), abs(d - d.conjugate()))
        else:
            if not np.all(np.isfinite(mat.view(float))):
                raise ValueError("matrix entries must be finite")
            tr = np.trace(mat)
            herm_dev = np.max(np.abs(mat - mat.conj().T))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {np.complex128(tr)!r}")
        if herm_dev > 1e-12:
            raise ValueError(f"matrix not Hermitian: deviation {herm_dev:.3e}")
        if dim <= 2048:
            lo = _smallest_eigenvalue(mat)
            if lo < -1e-10:
                raise ValueError(f"matrix not positive: min eigenvalue {lo:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def maximally_mixed(cls, n_sites: int) -> "DensityMatrix":
        # the state beside the three arrays of its checks
        check_memory(80 * 4**n_sites, f"a maximally mixed state on {n_sites} sites")
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
        # the keys are the four single letters: "" or "XY" is no letter
        if any(l not in _PAULI_MATS for l in letters):
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


# one chain at a time: the eigensystems that check_size estimates are held
# for one chain only, whatever the number of chains evolved
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
    Both go through :func:`evolve_columns`; a density matrix must also fit
    the memory budget, which it does up to 12 sites.
    """
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot evolve {type(state).__name__}")
    n = profile.n_sites
    if state.n_sites != n:
        raise ValueError("state and profile disagree on the chain length")
    if isinstance(state, StateVector):
        return StateVector(n, evolve_columns(state.amplitudes, profile, time))
    # four complex 2**n x 2**n arrays at the peak: the evolved matrix,
    # DensityMatrix's copy of it and the two temporaries of its Hermiticity
    # check; a fifth covers the sector blocks and eigensystems
    check_memory(80 * 4**n, f"density-matrix evolution on {n} sites")
    return DensityMatrix(state.n_sites, _sandwich(state.matrix, profile, time))


def conjugate_operator(op, profile: CouplingProfile, time: float) -> np.ndarray:
    """Heisenberg-evolved operator e^{iHt} O e^{-iHt} as a dense matrix.

    `op` may be a PauliString, a dense matrix, or an iterable of
    PauliStrings which are summed.  It must fit the memory budget, which
    it does up to 12 sites.
    """
    n = profile.n_sites
    # five complex 2**n x 2**n arrays at the peak: the operator and its
    # adjoint, the half-evolved matrix and its adjoint, and the result; a
    # sixth covers the per-sector temporaries
    check_memory(96 * 4**n, f"dense operator conjugation on {n} sites")
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
    The conjugation sets the peak, so its memory check bounds this call.
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
    keep = sorted(set(operator.index(s) for s in keep_sites))
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


def fidelity(a, b) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))**2.

    Two pure states give |<a|b>|**2 from one inner product.  For one pure
    argument this reduces to the exact overlap expectation <psi|rho|psi>,
    taken before anything is diagonalized, and for a pair of single-qubit
    matrices the closed two-by-two form is used, both of which avoid the
    square-root noise of the general path.
    """
    if isinstance(b, StateVector) and not isinstance(a, StateVector):
        a, b = b, a
    for state in (b, a):
        if not isinstance(state, (StateVector, DensityMatrix)):
            raise TypeError(f"not a quantum state: {type(state).__name__}")
    if a.n_sites != b.n_sites:
        raise ValueError("states live on different Hilbert spaces")
    if isinstance(b, StateVector):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    mat_b = b.matrix
    if isinstance(a, StateVector):
        return float(np.real(a.amplitudes.conj() @ mat_b @ a.amplitudes))
    mat_a = a.matrix
    # a density matrix within 1e-12 of pure counts as its top eigenvector
    for mat, other in ((mat_a, mat_b), (mat_b, mat_a)):
        w, v = np.linalg.eigh(mat)
        if w[-1] >= 1.0 - 1e-12:
            return float(np.real(v[:, -1].conj() @ other @ v[:, -1]))
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
    sector eigensystems of their chain, N - 2 sites for "subchain" and N
    for "fullchain", and both these and the N - 2 site medium must fit the
    memory budget, which the medium does up to 12 sites.  beta = 0 gives
    the maximally mixed medium exactly.
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
    # the Gibbs state as floats and its normalized copy, then DensityMatrix's
    # complex copy and the two complex temporaries of its Hermiticity check:
    # 64 bytes per entry, and half as much again for the eigensystems it is
    # summed from, which check_size also holds to the budget
    check_memory(96 * 4**n_med, f"a thermal medium on {n_med} sites")
    check_size(n_med + 2 * traced)
    if traced:
        # the chain an explicit medium is evolved on: share its cached eigensystems
        blocks = _sector_eigh(profile)
    elif n_med == 1:
        return DensityMatrix(1, np.eye(2) / 2.0)
    else:
        # uncached, so the one-chain cache keeps the evolved chain
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
