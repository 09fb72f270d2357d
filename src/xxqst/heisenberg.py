"""Coefficient propagation for Heisenberg-evolved end-site operators.

The evolved end-site operator X_1(t) = e^{iHt} X_1 e^{-iHt} stays inside an
N-dimensional operator subspace spanned by the strings

    s_k = Z_1 ... Z_{k-1} X_k   (k odd)
    s_k = Z_1 ... Z_{k-1} Y_k   (k even)

with real coefficients alpha_k(t) obeying a linear first-order system whose
generator is the staggered antisymmetric matrix of ``chain.Generator``.  The
mirrored family propagates X_N through the site-reversed strings and equals
forward propagation under the reversed coupling profile.

The chain is a free-fermion model, and the same tridiagonal eigensystem
gives the exact transfer protocol on Gaussian mediums (all-zero,
maximally mixed, thermal) in polynomial time: :func:`gaussian_end_expectations`
evaluates the end-site expectations the protocol needs with Wick's theorem,
one batched :func:`pfaffian` pass for all of them (Terhal & DiVincenzo,
PRA 65, 032325 (2002); Bravyi, QIC 5, 216 (2005)).  The terms that keep the
fermion parity hold every Majorana of the chain; in the medium's pair basis
its well-conditioned (stiff) pairs are eliminated once, exactly, for all of
them, so each Pfaffian keeps only the soft pairs and at most six forms, and
terms that vanish by rank are skipped.  The 2**n oracle is only needed for
mediums that are not Gaussian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd

from .chain import CouplingProfile, Generator, build_generator
from .errors import InternalConsistencyError

__all__ = [
    "CoefficientVector",
    "CoefficientTrace",
    "Propagator",
    "propagate",
    "mirror_propagate",
    "coefficient_trace",
    "estimate_fidelity",
    "pfaffian",
    "gaussian_end_expectations",
]

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientVector:
    """String-basis coefficients of one evolved end-site operator.

    ``origin`` records which end was propagated: "site1" for X_1 through the
    forward strings, "siteN" for X_N through the mirrored strings.
    """

    time: float
    values: np.ndarray
    origin: str = "site1"

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.origin not in ("site1", "siteN"):
            raise ValueError(f"unknown origin {self.origin!r}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class CoefficientTrace:
    """Coefficients sampled on a uniform time grid, one row per time."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)
    origin: str = "site1"


class Propagator:
    """Exact coefficient propagator for one generator, reusable across times.

    The staggered antisymmetric generator M is similar to a real symmetric
    tridiagonal matrix A with off-diagonal g_i = 2 J_i through a diagonal
    phase matrix, so

        exp(M t) e_1 = zeta * (V exp(-i w t) V^T e_1),

    where A = V diag(w) V^T and zeta alternates (1, i, 1, i, ...).  The
    result is real up to roundoff; a residue above 1e-12 means a convention
    violation and raises ``InternalConsistencyError``.
    """

    def __init__(self, generator: Generator):
        self.generator = generator
        n = generator.dimension
        # the driver eigh_tridiagonal picks for all eigenpairs, without its
        # wrapper; Generator has already checked the subdiagonal is finite
        w, v, info = dstevd(np.zeros(n), np.asarray(generator.subdiagonal))
        if info != 0:
            raise InternalConsistencyError(f"tridiagonal eigensolver dstevd returned info={info}")
        self._w = w
        self._v = v
        self._c0 = v[0, :].copy()
        self._zeta = np.ones(n, dtype=complex)
        self._zeta[1::2] = 1j
        # alpha_N(t) = exp(t _phase) @ _end, the last row of coefficients_many
        self._phase = -1j * w
        self._end = self._zeta[-1] * v[-1, :] * self._c0

    @property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the Hermitian matrix i M (equals the spectrum of A)."""
        return self._w.copy()

    def coefficients(self, t: float) -> np.ndarray:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        return self.coefficients_many(np.asarray([t], dtype=float))[0]

    def coefficients_many(self, times: np.ndarray) -> np.ndarray:
        """Coefficient rows for several times at once, shape (nt, n)."""
        times = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(self._w, times)) * self._c0[:, None]
        raw = self._zeta[:, None] * (self._v @ phases)
        residue = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
        if residue > _IMAG_TOL:
            raise InternalConsistencyError(
                f"coefficients acquired imaginary residue {residue:.3e}"
            )
        return np.ascontiguousarray(raw.real.T)

    def end_weights(self, times):
        """alpha_N(t)^2, the square of the last coefficient, in O(N) per time:
        a float for a scalar time, an array for a 1-D array of times."""
        if np.ndim(times) == 0:
            # one probe time, the search's hot path: no array reductions
            t = float(times)
            if not math.isfinite(t):
                raise ValueError(f"time must be finite, got {t}")
            raw = complex(np.exp(t * self._phase) @ self._end)
            residue = abs(raw.imag)
        else:
            t = np.asarray(times, dtype=float)
            if not np.isfinite(t).all():
                raise ValueError(f"times must be finite, got {t}")
            raw = np.exp(np.multiply.outer(t, self._phase)) @ self._end
            residue = float(np.abs(raw.imag).max(initial=0.0))
        if residue > _IMAG_TOL:
            raise InternalConsistencyError(
                f"end amplitude acquired imaginary residue {residue:.3e}"
            )
        return raw.real**2

    def thermal_correlation(self, beta: float) -> np.ndarray:
        """<a_i^dag a_j> in the Gibbs state exp(-beta H)/Z of this chain, a_j
        the Jordan-Wigner fermion of site j: V diag(f) V^T with the Fermi
        occupations f = (1 - tanh(beta w / 2)) / 2, which cannot overflow."""
        occupations = (1.0 - np.tanh(0.5 * float(beta) * self._w)) / 2.0
        return (self._v * occupations) @ self._v.T


def pfaffian(matrices) -> np.ndarray:
    """Pfaffians of a stack of antisymmetric matrices of even size, shape
    (..., m, m).

    Parlett-Reid elimination with partial pivoting, one pass for the whole
    stack: each step swaps the largest entry below the diagonal of column k
    into row k + 1 and eliminates with it, O(m^3) per matrix.  A pivot
    column of zeros makes that Pfaffian exactly 0.
    """
    a = np.array(matrices, dtype=complex)
    shape, m = a.shape[:-2], a.shape[-1]
    if a.shape[-2] != m or m % 2:
        raise ValueError(f"expected square matrices of even size, got shape {a.shape}")
    a = a.reshape(-1, m, m)
    stack = np.arange(len(a))
    pf = np.ones(len(a), dtype=complex)
    for k in range(0, m - 1, 2):
        piv = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        pf[piv != k + 1] *= -1.0
        rows = a[stack, piv].copy()
        a[stack, piv] = a[:, k + 1]
        a[:, k + 1] = rows
        cols = a[stack, :, piv].copy()
        a[stack, :, piv] = a[:, :, k + 1]
        a[:, :, k + 1] = cols
        pivot = a[:, k, k + 1]
        pf *= pivot
        # a zero pivot has zeroed pf; divide by 1 so the stack stays finite
        tau = a[:, k, k + 2:] / np.where(pivot == 0, 1.0, pivot)[:, None]
        col = a[:, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    return pf.reshape(shape)


# Majorana frame, site 1 first: gamma_{2j-1} = a_j + a_j^dag and
# gamma_{2j} = i (a_j^dag - a_j).  Then X_1 = gamma_1, Y_1 = gamma_2,
# Z_1 = -i gamma_1 gamma_2, and at the far end X_N = i P gamma_{2N} and
# Y_N = -i P gamma_{2N-1}, where the parity P = prod_j Z_j
# = (-i)^N gamma_1 ... gamma_{2N} commutes with H.  A product is written as
# (coefficient, factors); a factor is "P" or one of the linear forms
#   "z1", "e2"        z gamma_1 and gamma_2
#   "r"               x gamma_1 + y gamma_2, from the input Bloch vector
#   "k"               Re c gamma_{2N} - Im c gamma_{2N-1}, from the site-N ket
#   "g1", "gO", "gE"  gamma_1(t), gamma_{2N-1}(t), gamma_{2N}(t)
# The evolved end-site operators, in the order of the returned expectations:
# X_1, X_N, Y_N, Z_N, X_1 X_N, X_1 Y_N, X_1 Z_N.
_END_OPERATORS = (
    (1, ("g1",)),
    (1j, ("P", "gE")),
    (-1j, ("P", "gO")),
    (-1j, ("gO", "gE")),
    (1j, ("g1", "P", "gE")),
    (-1j, ("g1", "P", "gO")),
    (-1j, ("g1", "gO", "gE")),
)
# 2 rho_1 = 1 + x X_1 + y Y_1 + z Z_1
_INPUT_TERMS = ((1, ()), (1, ("r",)), (-1j, ("z1", "e2")))
# 2 |kappa><kappa| = 1 + Re c X_N + Im c Y_N for kappa = (|0> + c|1>)/sqrt(2)
_KET_TERMS = ((1, ()), (1j, ("P", "k")))
_FORMS = ("z1", "e2", "r", "k", "g1", "gO", "gE")
# Medium pairs with |delta| >= _STIFF are eliminated by the Schur step that
# all parity terms share; the others stay in their Pfaffians.  The split is
# exact for any threshold: this one only bounds the 1/delta growth of the
# correction, whose roundoff goes roughly as eps / threshold**3.
_STIFF = 0.5


def _wick_terms():
    """The nonvanishing Wick terms of the seven expectations, as arrays over
    the terms (expectation index, 1 if odd in c, coefficient, carries P) and a
    tuple of each term's form indices into _FORMS, in product order."""
    terms = []
    for out, (c_op, op) in enumerate(_END_OPERATORS):
        for c_in, f_in in _INPUT_TERMS:
            for c_ket, f_ket in _KET_TERMS:
                coef, forms, parity = c_in * c_ket * c_op, [], False
                for factor in f_in + f_ket + op:
                    if factor == "P":
                        # to the front, past each single form; P^2 = 1
                        coef *= (-1) ** len(forms)
                        parity = not parity
                    else:
                        forms.append(_FORMS.index(factor))
                # odd Majorana products vanish on a parity-even state
                if len(forms) % 2 == 0:
                    terms.append((out, bool(f_ket), coef, parity, tuple(forms)))
    out, odd, coef, parity, forms = zip(*terms)
    return (np.array(out), np.array(odd, dtype=int), np.array(coef, dtype=complex),
            np.array(parity), forms)


_TERM_OUT, _TERM_ODD, _TERM_COEF, _TERM_PARITY, _TERM_FORMS = _wick_terms()


def gaussian_end_expectations(
    propagator: Propagator,
    time: float,
    bloch,
    medium_correlation: np.ndarray,
    end_phase: complex,
) -> np.ndarray:
    """End-site expectations after evolving rho_1 (x) M (x) |kappa><kappa|.

    rho_1 is the site-1 state with Bloch vector ``bloch``, M the fermionic
    Gaussian state of sites 2..N-1 with <a_i^dag a_j> =
    ``medium_correlation`` and no pairing terms, and kappa =
    (|0> + c|1>)/sqrt(2) on site N.  Returns shape (2, 7): the expectations
    of X_1, X_N, Y_N, Z_N, X_1 X_N, X_1 Y_N, X_1 Z_N evolved over ``time``
    under the propagator's chain, row 0 for c = ``end_phase`` and row 1 for
    c = -end_phase.

    With G = (I/2) (x) M (x) (I/2), the state is 4 G r k for r = rho_1 and
    k = |kappa><kappa| written in Majoranas, so each expectation is a sum of
    Tr[G w_1 ... w_k] over products of at most six linear forms, each the
    Pfaffian of K_ij = <w_i w_j> (i < j).  A term with the parity P also
    holds all 2N Majoranas.  Those are taken in the pair basis of the
    medium: I - 2C = Q diag(delta) Q^T on the interior, and rotating the odd
    and the even Majoranas by the same Q (determinant +1, so no Pfaffian
    changes) leaves N pairs with <c_odd,j c_even,j> = i delta_j and no
    moment across pairs; the two end sites are delta = 0 pairs.  Every
    stiff pair (|delta| >= 1/2) is eliminated once for all parity terms by
    a Schur step, Pf = prod_j (i delta_j) Pf(soft pairs + corrected forms),
    which corrects only the moments among the forms.  A parity term whose
    exact-zero pairs hold more Majoranas than it has forms vanishes by rank
    and is skipped; so is every parity term of the maximally mixed medium
    past three sites.  The rest go through one batched :func:`pfaffian` of
    at most (2s + 6)-square matrices for s soft pairs.  The terms linear in
    c flip sign with it, so one evaluation serves both rows.
    """
    n = propagator.generator.dimension
    t = float(time)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    corr = np.asarray(medium_correlation, dtype=float)
    if corr.shape != (n - 2, n - 2):
        raise ValueError(f"expected a {n - 2} x {n - 2} medium correlation, got shape {corr.shape}")
    x, y, z = (float(v) for v in bloch)
    c = complex(end_phase)
    v = propagator._v
    # rows 1 and N of u = e^{-iht}; gamma(t) = R gamma with the 2 x 2 blocks
    # [[Re u_jl, -Im u_jl], [Im u_jl, Re u_jl]]
    ends = (v[[0, -1]] * np.exp(t * propagator._phase)) @ v.T
    # each form's weights on gamma_{2j-1} (odd) and gamma_{2j} (even), a row per form
    odd, even = np.zeros((2, len(_FORMS), n))
    odd[0, 0] = z
    even[1, 0] = 1.0
    odd[2, 0], even[2, 0] = x, y
    odd[3, -1], even[3, -1] = -c.imag, c.real
    odd[4:] = ends[0].real, ends[1].real, ends[1].imag
    even[4:] = -ends[0].imag, -ends[1].imag, ends[1].real
    # <gamma_a gamma_b> = delta_ab + i Gamma_ab on G, whose correlation
    # matrix is diag(1/2, C, 1/2): Gamma_{2i-1,2j} = D_ij = diag(0, I - 2C, 0)_ij.
    # The pair basis: D = Q diag(delta) Q^T, Q the identity on the end sites
    delta = np.zeros(n)
    delta[1:-1], q = np.linalg.eigh(np.eye(n - 2) - 2.0 * corr)
    odd[:, 1:-1] = odd[:, 1:-1] @ q
    even[:, 1:-1] = even[:, 1:-1] @ q
    # <c_odd,j w> and <c_even,j w>, a row per form w and a column per pair j
    w_odd = odd + 1j * delta * even
    w_even = even - 1j * delta * odd
    # <w_a w_b> = f_a . f_b + i f_a Gamma f_b among the forms
    plain = odd @ odd.T + even @ even.T + 1j * ((odd * delta) @ even.T - (even * delta) @ odd.T)
    # the Schur step over the stiff pairs: Pf = prod_j (i delta_j)
    # Pf(soft pairs + [K + B^T A^-1 B]), B their moments with the forms and
    # A^-1 the blocks [[0, -1/(i delta_j)], [1/(i delta_j), 0]]
    stiff = np.abs(delta) >= _STIFF
    inv = 1.0 / (1j * delta[stiff])
    s_odd, s_even = w_odd[:, stiff], w_even[:, stiff]
    corrected = plain + (s_even * inv) @ s_odd.T - (s_odd * inv) @ s_even.T
    # master moments: soft pair rows (c_odd,j, c_even,j) | corrected forms |
    # plain forms | a zero sentinel row
    soft = ~stiff
    # m rows for the soft pairs, f for each set of forms
    m, f = 2 * int(np.count_nonzero(soft)), len(_FORMS)
    master = np.zeros((m + 2 * f + 1,) * 2, dtype=complex)
    heads = np.arange(0, m, 2)
    master[heads, heads + 1] = 1j * delta[soft]
    master[heads, m:m + f] = w_odd[:, soft].T
    master[heads + 1, m:m + f] = w_even[:, soft].T
    master[m:m + f, m:m + f] = corrected
    master[m + f:-1, m + f:-1] = plain
    # the 2z Majoranas of exact-zero pairs meet only the term's forms, so
    # 2z > k forms make its Pfaffian zero by rank
    zeros = 2 * int(np.count_nonzero(delta == 0.0))
    kept, lists = [], []
    for i, (parity, forms) in enumerate(zip(_TERM_PARITY, _TERM_FORMS)):
        if not parity:
            lists.append([m + f + a for a in forms])
        elif zeros <= len(forms):
            lists.append(list(range(m)) + [m + a for a in forms])
        else:
            continue
        kept.append(i)
    lengths = np.array([len(r) for r in lists])
    size = int(lengths.max())
    rows = np.full((len(lists), size), len(master) - 1)
    for i, r in enumerate(lists):
        rows[i, :len(r)] = r
    k = np.triu(master[rows[:, :, None], rows[:, None, :]], 1)
    # unit 2 x 2 blocks [[0, 1], [-1, 0]] fill each matrix up to the common size
    blocks = np.arange(0, size, 2)
    k[:, blocks, blocks + 1] += blocks >= lengths[:, None]
    # P = (-i)^N gamma_1 ... gamma_2N; on long thermal chains the stiff
    # product may underflow to 0, which is then the value of those terms
    coef = _TERM_COEF[kept] * np.where(
        _TERM_PARITY[kept], (1, -1j, -1, 1j)[n % 4] * np.prod(1j * delta[stiff]), 1.0)
    values = coef * pfaffian(k - k.transpose(0, 2, 1))
    # parts even and odd in c
    parts = np.zeros((2, len(_END_OPERATORS)), dtype=complex)
    np.add.at(parts, (_TERM_ODD[kept], _TERM_OUT[kept]), values)
    return np.stack([parts[0] + parts[1], parts[0] - parts[1]])


def propagate(generator: Generator, time: float) -> CoefficientVector:
    """Coefficients of X_1(t) in the forward string basis."""
    values = Propagator(generator).coefficients(float(time))
    return CoefficientVector(float(time), values, "site1")


def mirror_propagate(generator: Generator, time: float) -> CoefficientVector:
    """Coefficients of X_N(t) in the mirrored string basis.

    Equivalent to forward propagation with the subdiagonal reversed; for
    centro-symmetric profiles the two families coincide.
    """
    values = Propagator(generator.reversed()).coefficients(float(time))
    return CoefficientVector(float(time), values, "siteN")


def coefficient_trace(
    profile: CouplingProfile,
    t_max: float,
    steps: int,
    origin: str = "site1",
) -> CoefficientTrace:
    """Sample the coefficients on `steps` uniform times covering [0, t_max]."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    t_max = float(t_max)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    generator = build_generator(profile)
    if origin == "siteN":
        generator = generator.reversed()
    elif origin != "site1":
        raise ValueError(f"unknown origin {origin!r}")
    times = np.linspace(0.0, t_max, steps)
    values = Propagator(generator).coefficients_many(times)
    return CoefficientTrace(times, values, origin)


def estimate_fidelity(profile: CouplingProfile, time: float) -> float:
    """Transfer estimate alpha_N(t)^2, the weight of the fully transferred
    string in X_1(t).  Equals the exact transfer fidelity only at perfect
    revival; elsewhere it is the quantity the profile search optimises."""
    return Propagator(build_generator(profile)).end_weights(float(time))
