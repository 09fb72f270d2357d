"""Coefficient propagation for Heisenberg-evolved end-site operators.

The evolved end-site operator X_1(t) = e^{iHt} X_1 e^{-iHt} stays inside an
N-dimensional operator subspace spanned by the strings

    s_k = Z_1 ... Z_{k-1} X_k   (k odd)
    s_k = Z_1 ... Z_{k-1} Y_k   (k even)

with real coefficients alpha_k(t) obeying d alpha/dt = M alpha.  The
commutator i[H, s_k] holds only s_{k-1} and s_{k+1}, weighted by the
coupling rates g_{k-1} and g_k (g_i = 2 J_i), and in the alternating X/Y
basis their signs stagger: M is real, antisymmetric and tridiagonal with
subdiagonal +g_1, -g_2, +g_3, ... (the cross-engine tests pin it).  The
mirrored family propagates X_N through the site-reversed strings and
equals forward propagation under the reversed coupling profile.

The chain is a free-fermion model, and the same tridiagonal eigensystem
gives the exact transfer protocol on Gaussian mediums (all-zero,
maximally mixed, thermal) in polynomial time: :func:`gaussian_end_expectations`
evaluates the end-site expectations the protocol needs with Wick's theorem
(Terhal & DiVincenzo, PRA 65, 032325 (2002)) in its Grassmann-integral form
(Bravyi, QIC 5, 216 (2005)).  Every term is a coefficient in the exterior
algebra of seven end-site linear forms.  The terms that keep the fermion
parity hold every Majorana of the chain; in the medium's pair basis each
pair contributes one commuting factor, and since the two end sites are
pairs with no moment of their own, the product over the N pairs has a
closed form in O(N).  The medium enters in that basis, as (delta, Q).
The 2**n oracle is only needed for mediums that are not Gaussian.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd

from .chain import CouplingProfile
from .errors import InternalConsistencyError

__all__ = [
    "CoefficientVector",
    "CoefficientTrace",
    "Propagator",
    "propagate",
    "mirror_propagate",
    "coefficient_trace",
    "estimate_fidelity",
    "gaussian_end_expectations",
]

# Roundoff model of the imaginary residue of zeta o u: each phase w_k t
# carries an error of about eps |w_k t| and V is orthogonal, so a correct
# result is real to about eps (1 + max|w| |t|).  Measured on zeta o u[0, :]
# and zeta_N u_1N, residues reach 2.63 times that on the perfect and
# boundary:0.7 chains of N = 999..1001 over linspace(0, pi/4, 257), 4.78 on
# random 2..64-site chains (rates 0.2 + U[0, 1), three per N) over
# linspace(-4, 4, 97) and 0.25 on the perfect N = 1000 over
# linspace(0, 201 pi/4, 65); a broken phase convention leaves O(1).  64
# keeps a margin of 13.
_RESIDUE_FACTOR = 64.0
_EPS = float(np.finfo(float).eps)
# A time array within this many eps max|t| of an arithmetic progression
# takes its phase table as a coarse x fine product (_phase_table).  numpy's
# linspace and t0 + dt * arange grids come within 2.6 of it (20,000 random
# grids of 2 to 10^5 times)
_GRID_SLACK = 8.0
# Chains of at least this many sites whose rates read the same both ways are
# solved in their two reflection sectors (_mirror_eigensystem); shorter ones
# take one solve of size N, which is faster there.  Measured on a 2-vCPU box
# (2 BLAS threads, median of 7 x 300 calls), the sector path wins from 16
# sites for even N (19.5 -> 14.7 us) and breaks even near 19 for odd N, which
# takes two solves (26.9 -> 26.7 us; 32.8 -> 28.2 us at 21).  At least 13,
# so every chain of the exact engine (12 sites at most) keeps its one solve
_MIRROR_SITES = 20


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
    """Exact coefficient propagator for one chain, reusable across times.

    The chain enters as its coupling rates g_i = 2 J_i (``CouplingProfile.rates``).
    The staggered antisymmetric generator M of the coefficients (below the
    diagonal +g_1, -g_2, +g_3, ...) is similar to the real symmetric
    tridiagonal matrix A = V diag(w) V^T with off-diagonal g through the
    phases zeta = (1, i, 1, i, ...).  Every number of this engine comes
    from the single-particle propagator u(t) = V exp(-i w t) V^T, which
    :meth:`entries` evaluates in real arithmetic: exp(M t) e_1 = zeta o u[0, :]
    (X_1, forward strings), zeta o u[N-1, ::-1] (X_N, mirrored strings) and
    alpha_N(t) = zeta_N u_1N.  These are real up to roundoff; a residue past
    the roundoff model 64 eps (1 + max|w| |t|) means a convention violation
    and raises ``InternalConsistencyError``.

    A chain whose rates read exactly the same both ways (g_i = g_{N-i}, as
    on the perfect, boundary and uniform chains) and that has at least
    _MIRROR_SITES = 20 sites commutes with the site reflection J, and its
    (w, V) comes from half-size tridiagonal solves in the two sectors of J:
    one of size N/2 for even N (the odd sector is the even one's mirror
    image at -w), or one each of sizes (N+1)/2 and (N-1)/2 for odd N.  That
    costs about a third of one solve of size N at a thousand sites; below
    20 sites the one solve is faster, and every other chain takes it.  The
    sector path orders the columns of V so that column k's partner at -w_k
    is column N-1-k, as in the ascending order of one solve, and its
    results agree with that solve's within roundoff.

    A 1-D array of rates is one chain.  A 2-D array is a stack of chains,
    one per row: the propagator holds one eigensystem per row along a
    leading batch axis (w of shape (B, N), V of shape (B, N, N)), and every
    result gains that leading axis, ahead of the time axis; the roundoff
    bound is then per batch row.  The rates must have at least one column
    (and one row when 2-D) and be finite, or ``ValueError`` is raised.
    ``rates`` is a read-only copy of them.
    """

    def __init__(self, rates):
        self.rates = rates = _chain_rates(rates)
        n = rates.shape[-1] + 1
        if rates.ndim == 1:
            self._w, self._v = _eigensystem(rates)
            self._w_max = float(np.abs(self._w).max())
        else:
            self._w = np.empty((len(rates), n))
            self._v = np.empty((len(rates), n, n))
            for k, row in enumerate(rates):
                self._w[k], self._v[k] = _eigensystem(row)
            self._w_max = np.abs(self._w).max(axis=1)
        self._zeta = np.ones(n, dtype=complex)
        self._zeta[1::2] = 1j

    @property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the Hermitian matrix i M (equals the spectrum of A),
        ascending (along the last axis of a stack)."""
        return np.sort(self._w, axis=-1)

    def entries(self, times, rows, cols=None):
        """u(t)[rows, cols] for u(t) = e^{-iht} = V exp(-i w t) V^T: rows an
        int or a list of ints, cols also, or None for all.  A 1-D array of
        finite times stacks the results along a leading axis, after the
        batch axis of a stacked propagator.

        With phi = -w t, Re u = V diag(cos phi) V^T and Im u = V diag(sin
        phi) V^T: one entry takes two real dots, O(N) per time, and more
        take one real GEMM of V[rows] scaled by the stacked [cos; sin]
        tables against V[cols]^T, per batch row.

        With a time axis (a time array or a batch axis), the phases come
        from one complex table of exp(-i w t) over the times and the first
        ceil(N/2) eigenvalues only (:func:`_phase_table`, which takes a
        uniform grid as a coarse x fine product, about 2 sqrt(nt) cos and
        sin per eigenvalue): A has a zero diagonal, so its spectrum comes in
        pairs w_{N-1-k} = -w_k, and the partner N-1-k takes (cos, -sin); for
        odd N the middle eigenvalue is unpaired.  One entry folds its
        weights onto that half, more fill the full tables from it.  A pair
        off by more than 64 eps max|w| in a batch row raises
        ``InternalConsistencyError``."""
        t = np.asarray(times, dtype=float)
        if not (t.ndim == 0 and math.isfinite(t) or t.ndim == 1 and np.isfinite(t).all()):
            raise ValueError(f"times must be a finite scalar or 1-D array, got {times!r}")
        batch = self._v.shape[:-2]
        left = self._v[..., rows, :]
        right = self._v if cols is None else self._v[..., cols, :]
        one_row, one_col = left.ndim == len(batch) + 1, right.ndim == len(batch) + 1
        if not batch and not t.ndim:
            # one chain at one time (the profile search's probe, the Gaussian
            # protocol's end rows), where the set-up of the stacked path below
            # would cost more than the arithmetic
            phase = -float(t) * self._w
            if one_row and one_col:
                weights = left * right
                return complex(np.cos(phase).dot(weights), np.sin(phase).dot(weights))
            # one GEMM whose rows are the columns, with Re and Im of each entry
            # side by side: read as complex, it is the transposed result
            scaled = left[..., None, :] * np.array([np.cos(phase), np.sin(phase)])
            values = (right @ scaled.reshape(-1, len(phase)).T).view(complex)
            return values[:, 0] if one_row else values.T
        self._check_pairs()
        # a time axis after the batch axis, of length 1 for a scalar time;
        # pairs = N // 2 eigenvalues k < pairs have the partner N-1-k
        n = self._w.shape[-1]
        half, pairs = (n + 1) // 2, n // 2
        table = _phase_table(self._w[..., :half], t.reshape(-1))
        shape = batch + t.shape + left.shape[len(batch):-1] + right.shape[len(batch):-1]
        if one_row and one_col:
            # Re = cos . (W_k + W_{N-1-k}), Im = sin . (W_k - W_{N-1-k}): the
            # table read as (cos, sin) pairs against the two folded weights,
            # side by side, which read back as complex
            weights = left * right
            partners = weights[..., ::-1][..., :pairs]
            folded = np.zeros(batch + (half, 2, 2))
            folded[..., 0, 0] = folded[..., 1, 1] = weights[..., :half]
            folded[..., :pairs, 0, 0] += partners
            folded[..., :pairs, 1, 1] -= partners
            values = table.view(float) @ folded.reshape(batch + (2 * half, 2))
            return values.view(complex).reshape(shape)
        if one_row:
            left = left[..., None, :]
        if one_col:
            right = right[..., None, :]
        # every (time, row) pair of the cos table, then of the sin table,
        # against the columns
        nt = table.shape[-2]
        full = np.empty(batch + (2 * nt, n))
        cos, sin = full[..., :nt, :], full[..., nt:, :]
        cos[..., :half], sin[..., :half] = table.real, table.imag
        del table
        cos[..., half:] = cos[..., :pairs][..., ::-1]
        np.negative(sin[..., :pairs][..., ::-1], out=sin[..., half:])
        scaled = full[..., :, None, :] * left[..., None, :, :]
        del full, cos, sin
        product = scaled.reshape(batch + (-1, scaled.shape[-1])) @ right.swapaxes(-1, -2)
        del scaled
        split = product.shape[-2] // 2
        values = np.empty(shape, dtype=complex)
        values.real, values.imag = product[..., :split, :].reshape(shape), product[..., split:, :].reshape(shape)
        return values

    def _check_pairs(self):
        """The pairing w_{N-1-k} = -w_k that the time-axis branch of
        :meth:`entries` folds on, within 64 eps max|w| per batch row."""
        gap = np.abs(self._w + self._w[..., ::-1]).max(axis=-1)
        bound = _RESIDUE_FACTOR * _EPS * self._w_max
        if not np.all(gap <= bound):
            raise InternalConsistencyError(
                f"spectrum not paired as +-w: max|w_k + w_(N-1-k)| is "
                f"{np.max(gap / bound):.3g} times its bound 64 eps max|w|")

    def _real(self, values, times, what: str):
        """Real part of entries of zeta o u at times (axes: batch, time, then
        the rest) after the residue check; a float for one entry."""
        residue = abs(values.imag)
        floor = _RESIDUE_FACTOR * _EPS
        # one bound per batch row and time; a plain product without a batch,
        # where the outer product's dispatch would dominate a lone probe
        scale = np.abs(times)
        scale = np.multiply.outer(self._w_max, scale) if self._w.ndim > 1 else self._w_max * scale
        bound = floor + floor * scale
        if residue.ndim > bound.ndim:
            bound = bound[..., None]
        within = residue <= bound
        # NaN fails the test; a lone probe skips .all(), which costs microseconds
        if not (within.all() if within.ndim else within):
            raise InternalConsistencyError(
                f"{what} acquired imaginary residue {np.max(residue):.3e}, "
                f"{np.max(residue / bound):.3g} times its roundoff bound")
        real = values.real
        return real if real.ndim else float(real)

    def _strings(self, times, origin: str):
        """zeta o u[0, :], X_1 in the forward strings ("site1"), or
        zeta o u[N-1, ::-1], X_N in the mirrored strings ("siteN")."""
        if origin not in ("site1", "siteN"):
            raise ValueError(f"unknown origin {origin!r}")
        row = self.entries(times, 0) if origin == "site1" else self.entries(times, -1)[..., ::-1]
        return np.ascontiguousarray(self._real(self._zeta * row, times, "coefficients"))

    def coefficients(self, t: float) -> np.ndarray:
        return self._strings(t, "site1")

    def coefficients_many(self, times: np.ndarray) -> np.ndarray:
        """Coefficient rows for several times at once, shape (nt, n)."""
        return self._strings(times, "site1")

    def end_weights(self, times):
        """alpha_N(t)^2 = (zeta_N u_1N)^2, in O(N) per time: a float for a
        scalar time on one chain, else an array with the batch axis first."""
        amplitude = self._zeta[-1] * self.entries(times, 0, -1)
        return self._real(amplitude, times, "end amplitude") ** 2

    def average_fidelity(self, times):
        """The protocol's exact mean fidelity over pure inputs, for any
        medium and site-N start: F(t) = 1/2 + alpha_N^2 / 2 + (-1)^N u_11
        u_NN / 6, O(N) per time and shaped as :meth:`end_weights`.

        Summed over its branches the protocol is a qubit channel r -> T r +
        s, with mean fidelity 1/2 + tr T / 6 (Nielsen, Phys. Lett. A 303, 249
        (2002)).  Derived from the Heisenberg-evolved end operators: T_aa =
        Tr[sigma_a E(sigma_a)] / 2 pairs sigma_a (x) M (x) kappa with X_1(t)
        times the corrected site-N Pauli, or Z_N(t), and only the terms of
        their strings that are the identity on every interior site survive,
        so T_zz = T_yy = alpha_N^2 and T_xx = alpha_N^2 + (-1)^N u_11 u_NN
        whatever the medium M.  u_11 and u_NN are real, as the chain is
        bipartite (S h S = -h, S = diag((-1)^i), so u* = S u S); zeta_1 = 1,
        so they are the weights of X_1 in X_1(t) and X_N in X_N(t)."""
        u_11, u_nn = (self._real(self._zeta[0] * self.entries(times, k, k), times, "end diagonal")
                      for k in (0, -1))
        parity = 1.0 if self.rates.shape[-1] % 2 else -1.0
        return 0.5 + self.end_weights(times) / 2.0 + parity * u_11 * u_nn / 6.0

    def thermal_pairs(self, beta: float):
        """The Gibbs state exp(-beta H)/Z of this chain in its pair basis:
        (delta, V) with I - 2C = V diag(delta) V^T, C its correlation matrix
        (:meth:`thermal_correlation`) and delta = tanh(beta w / 2), which
        cannot overflow.  V is a read-only view of the eigenvectors."""
        v = self._v.view()
        v.flags.writeable = False
        return np.tanh(0.5 * float(beta) * self._w), v

    def thermal_correlation(self, beta: float) -> np.ndarray:
        """<a_i^dag a_j> in the Gibbs state exp(-beta H)/Z of this chain, a_j
        the Jordan-Wigner fermion of site j: V diag(f) V^T with the Fermi
        occupations f = (1 - delta) / 2 of :meth:`thermal_pairs`."""
        delta, v = self.thermal_pairs(beta)
        return (v * ((1.0 - delta) / 2.0)[..., None, :]) @ v.swapaxes(-1, -2)


def _phase_table(w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i w t) for a 1-D array of times and the eigenvalues w along the
    last axis: complex, of shape w.shape[:-1] + (len(times), w.shape[-1]).

    With K = ceil(sqrt(nt)), time aK + j is read as the coarse time t[aK]
    plus the fine offset j dt, dt = (t[-1] - t[0]) / (nt - 1), so the table
    is the product of a coarse table at every K-th time and a fine table of
    the K offsets: 2 sqrt(nt) cos and sin per eigenvalue in place of nt,
    and one complex multiply per entry.  That holds when every time lies
    within _GRID_SLACK eps max|t| of its split, read from the values alone;
    each phase is then off by at most that times |w| on top of its own
    roundoff.  Any other array takes K = 1, one fine offset 0, whose phase
    is exactly 1: one cos and one sin per entry, as evaluated directly."""
    nt = len(times)
    k = math.isqrt(nt - 1) + 1 if nt > 1 else 1
    offsets = np.arange(k) * ((times[-1] - times[0]) / (nt - 1)) if k > 1 else np.zeros(1)
    gap = times - np.repeat(times[::k], k)[:nt] - offsets[np.arange(nt) % k]
    # a NaN gap (a span that overflows) is no grid
    if not np.abs(gap).max(initial=0.0) <= _GRID_SLACK * _EPS * np.abs(times).max(initial=0.0):
        k, offsets = 1, np.zeros(1)
    coarse, fine = (_phases(w, part) for part in (times[::k], offsets))
    product = coarse[..., :, None, :] * fine[..., None, :, :]
    return product.reshape(w.shape[:-1] + (-1, w.shape[-1]))[..., :nt, :]


def _phases(w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i w t) = cos(-w t) + i sin(-w t), entry by entry, shaped as
    :func:`_phase_table`'s result."""
    phase = w[..., None, :] * -times[:, None]
    table = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    return table


def _chain_rates(rates) -> np.ndarray:
    """A read-only float copy of coupling rates, one chain (1-D) or one
    chain per row (2-D), after checking they are non-empty and finite."""
    try:
        rates = np.array(rates, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"coupling rates must form a 1-D or 2-D float array: {exc}") from None
    if rates.ndim not in (1, 2) or not rates.size:
        raise ValueError("coupling rates must be a 1-D or 2-D array with at least one row "
                         f"and one column, got shape {rates.shape}")
    if not np.isfinite(rates).all():
        raise ValueError("coupling rates must be finite reals")
    rates.flags.writeable = False
    return rates


def _eigensystem(rates: np.ndarray):
    """(w, V) of the symmetric tridiagonal A with a zero diagonal and the
    given subdiagonal rates, in an order that puts the partner -w_k of
    column k at column N-1-k: ascending from one solve, or the sector order
    of _mirror_eigensystem for a palindrome of at least _MIRROR_SITES sites."""
    n = len(rates) + 1
    if n >= _MIRROR_SITES and np.array_equal(rates, rates[::-1]):
        return _mirror_eigensystem(rates)
    return _tridiagonal(np.zeros(n), rates)


def _tridiagonal(diagonal: np.ndarray, subdiagonal: np.ndarray):
    """(w, V) of one symmetric tridiagonal matrix, w ascending."""
    # the driver eigh_tridiagonal picks for all eigenpairs, without its
    # wrapper; _chain_rates has already checked the rates are finite
    w, v, info = dstevd(diagonal, subdiagonal)
    if info != 0:
        raise InternalConsistencyError(f"tridiagonal eigensolver dstevd returned info={info}")
    return w, v


def _mirror_eigensystem(rates: np.ndarray):
    """(w, V) of a chain whose rates read the same both ways (g_i = g_{N-i}),
    from half-size solves in the two sectors of the site reflection J.

    Even N = 2m: on (x; +-Jx)/sqrt(2) the chain acts as T+- of size m, with
    off-diagonal g_1..g_{m-1} and a zero diagonal except the last entry,
    +-g_m.  T- = -S T+ S for S = diag((-1)^i), so one solve of T+ gives
    both: (x; Jx)/sqrt(2) at w and (Sx; -JSx)/sqrt(2) at -w.  Odd N = 2m+1:
    T+ of size m+1, off-diagonal g_1..g_{m-1}, sqrt(2) g_m, on
    (x_1..m/sqrt(2), x_m+1, J x_1..m/sqrt(2)), and T- of size m, off-diagonal
    g_1..g_{m-1}, on (y/sqrt(2), 0, -Jy/sqrt(2)); both have a zero diagonal,
    so each spectrum is symmetric and the one of odd size holds 0.  The
    columns go straight into V, ordered so that column k's partner is
    N-1-k: [-w of T+ reversed | w of T+] for even N, and [lower T+,
    lower T-, zero mode, upper T-, upper T+] for odd N.  The lower half of
    w is the negated upper half, so the pairing is exact, and an odd N's
    zero mode is exactly 0; both differ from the solver's values within
    its roundoff."""
    n = len(rates) + 1
    m = n // 2
    w, v = np.empty(n), np.empty((n, n))
    # row i of the last m rows is sign * row m-1-i of the first m
    sign = np.ones(n)
    top = v[:m]
    if n % 2 == 0:
        diagonal = np.zeros(m)
        diagonal[-1] = rates[m - 1]
        plus, x = _tridiagonal(diagonal, rates[:m - 1])
        w[m:] = plus
        top[:, m:] = x
        top[:, :m] = x[:, ::-1]
        top[1::2, :m] *= -1.0
        sign[:m] = -1.0
    else:
        # the sizes of the lower halves of the two sector spectra; the
        # sector of odd size holds the zero mode
        low_plus, low_minus = (m + 1) // 2, m // 2
        upper = n - low_plus
        bonds = rates[:m].copy()
        bonds[-1] *= math.sqrt(2.0)
        plus, x = _tridiagonal(np.zeros(m + 1), bonds)
        minus, y = _tridiagonal(np.zeros(m), rates[:m - 1])
        rows = v[:m + 1]
        rows[:, :low_plus] = x[:, :low_plus]
        rows[:, upper:] = x[:, m + 1 - low_plus:]
        rows[:m, low_plus:m] = y[:, :low_minus]
        rows[:m, m + 1:upper] = y[:, m - low_minus:]
        rows[m, low_plus:upper] = 0.0
        # an odd-size sector's spectrum holds 0 exactly
        w[m] = 0.0
        w[upper:], w[m + 1:upper] = plus[m + 1 - low_plus:], minus[m - low_minus:]
        sign[low_plus:upper] = -1.0
        if m % 2:
            rows[:m, m] = y[:, low_minus]
        else:
            rows[:, m] = x[:, low_plus]
            sign[m] = 1.0
    # each lower eigenvalue is its partner's negative, the pairing exact
    np.negative(w[n - m:][::-1], out=w[:m])
    top *= math.sqrt(0.5)
    np.multiply(top[::-1], sign, out=v[n - m:])
    return w, v


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


def _complex_slots(bins: np.ndarray) -> np.ndarray:
    """Float slots 2 b and 2 b + 1 for each bin b, interleaved: a bincount of
    complex values read as floats over them, read back as complex, sums each
    value into its bin."""
    return np.stack([2 * bins, 2 * bins + 1], axis=1).ravel()


# the 21 two-forms e_a e_b (a < b) of the exterior algebra on the seven forms
_PAIR_A, _PAIR_B = np.triu_indices(len(_FORMS), 1)
_PAIR_INDEX = {(a, b): p for p, (a, b) in enumerate(zip(_PAIR_A.tolist(), _PAIR_B.tolist()))}
# the offsets of the flat factors of every Wick term (_pair_factors): 1, D,
# and the 21 entries each of K, omega_1, omega_N and L
_ONE, _D, _K, _W1, _WN, _L = 0, 1, 2, 23, 44, 65
_FLAT = 86


def _matchings(forms):
    """(sign, pairs) for each perfect matching of the sorted forms, pairs as
    indices into _PAIR_A and _PAIR_B: the Pfaffian's expansion along its
    first row, so e_p e_q ... = sign e_forms."""
    if not forms:
        yield 1, ()
        return
    first, rest = forms[0], forms[1:]
    for i, other in enumerate(rest):
        for sign, pairs in _matchings(rest[:i] + rest[i + 1:]):
            yield (-1) ** i * sign, (_PAIR_INDEX[first, other],) + pairs


def _product_table(targets):
    """Each target as a signed sum of products of three flat factors.

    A target (bin, coefficients, parity, forms), with one coefficient per
    N mod 4 and sorted forms S, sums into its bin the coefficient times the
    coefficient of e_S in exp(K), or with parity in omega_1 ^ omega_N ^
    (D + L).  Returns (slots, coefficients, factors, bins): per product its
    bin as _complex_slots, its coefficients (shape (4, products)) and its
    flat factors (shape (3, products)), then the number of bins.

    Two-forms commute, so the coefficient of e_S in a product of them is a
    sum over the perfect matchings of S, each with the sign of its
    permutation, of the products that put one factor on each pair: exp(K)
    takes k on every pair (K^r / r! over the r! orders), and omega_1 ^
    omega_N ^ (D + L) puts omega_1 and omega_N on two pairs in either order
    and then D, or L on a third pair in any order; below degree 4 it is 0."""
    entries = []
    for bin_, coefficients, parity, forms in targets:
        for sign, pairs in _matchings(forms):
            signed = [sign * c for c in coefficients]
            if not parity:
                entries.append((bin_, signed, *(_K + p for p in pairs), *(_ONE,) * (3 - len(pairs))))
            elif len(pairs) == 2:
                entries += [(bin_, signed, _W1 + p, _WN + q, _D)
                            for p, q in itertools.permutations(pairs)]
            elif len(pairs) == 3:
                entries += [(bin_, signed, _W1 + p, _WN + q, _L + r)
                            for p, q, r in itertools.permutations(pairs)]
    bins, coefficients, *factors = zip(*entries)
    return (_complex_slots(np.array(bins)), np.array(coefficients, dtype=complex).T.copy(),
            np.array(factors), 1 + max(target[0] for target in targets))


def _sum_products(flat: np.ndarray, table, row: int) -> np.ndarray:
    """The targets of a _product_table from the flat factors, each product
    weighted by its coefficient for N mod 4 = row and each bin summed in
    the order of the products."""
    slots, coefficients, factors, bins = table
    values = coefficients[row] * flat[factors].prod(axis=0)
    return np.bincount(slots, values.view(float), 2 * bins).view(complex)


def _wick_terms():
    """The nonvanishing Wick terms of the seven expectations as targets of
    _product_table, each once for either row of the result: its bin (row,
    expectation index), its coefficient for each N mod 4, which holds the
    phase (-i)^N of P and, on row 1 (c -> -c), the sign of a term odd in c,
    whether it carries P, and its forms."""
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
                # the forms need not anticommute, so a term is read from e_S
                # only if its product order is the _FORMS order
                if forms != sorted(set(forms)):
                    raise InternalConsistencyError(f"Wick term forms {forms} out of _FORMS order")
                # odd Majorana products vanish on a parity-even state
                if len(forms) % 2:
                    continue
                phases = (1, -1j, -1, 1j) if parity else (1,) * 4
                for row in (0, 1):
                    sign = -1 if row and f_ket else 1
                    terms.append((row * len(_END_OPERATORS) + out,
                                  [sign * coef * phase for phase in phases], parity, forms))
    return terms


_TERMS = _product_table(_wick_terms())


def _pair_factors(k: np.ndarray, delta: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The flat factors (1, D, K, omega_1, omega_N, L) of exp(K) and prod_j
    (i delta_j + omega_j) ^ exp(K), for K = sum_{a<b} k_ab e_a e_b (21
    entries) and omega_j = -u[j] ^ v[j], u[j] and v[j] one-forms of 7
    entries each and delta real, over at least two pairs of which the
    first and the last have delta = 0 (the end sites); else ``ValueError``.

    Degrees cap at 6, so exp(K) = 1 + K + K^2/2 + K^3/6 exactly.  The end
    factors omega_1 ^ omega_N have degree 4, so every product of two or
    more interior omegas drops out against them, and so does every power of
    K past the first: the product is omega_1 ^ omega_N ^ (D + L), with L =
    D K + Omega, D = prod_j i delta_j and Omega = sum_j D_j omega_j over the
    interior pairs, D_j the product of every interior factor but j, from
    prefix and suffix products with no division by delta.  The coefficient
    of e_S in it (:func:`_product_table`) is the Pfaffian of the moments of
    the pairs (i delta_j, u[j], v[j]) and then the forms S, with k among
    them; it is exactly 0 for |S| < 4.
    """
    delta = np.asarray(delta, dtype=float)
    if len(delta) < 2 or delta[0] or delta[-1]:
        raise ValueError("the pair product needs at least two pairs, the first and the "
                         f"last with delta = 0, got delta {delta}")
    # the m interior delta_j: prefix[j] multiplies the first j of them and
    # suffix[j] the last j, so D = i^m prefix[m] and D_j = i^(m-1) d_j for
    # d_j = prefix[j] suffix[m-1-j]
    inner = delta[1:-1]
    runs = np.ones((2, len(inner) + 1))
    runs[0, 1:], runs[1, 1:] = inner, inner[::-1]
    prefix, suffix = np.multiply.accumulate(runs, axis=1)
    # sum_j weight_j u[j] v[j]^T = outer for omega_1, omega_N and Omega /
    # i^(m-1); each is then the two-form with entries outer_ba - outer_ab
    weights = np.zeros((3, len(delta)))
    weights[0, 0] = weights[1, -1] = 1.0
    weights[2, 1:-1] = prefix[:-1] * suffix[-2::-1]
    outer = (u.T * weights[:, None, :]) @ v
    flat = np.empty(_FLAT, dtype=complex)
    turn = (1, 1j, -1, -1j)[len(inner) % 4]
    flat[:_K] = 1.0, turn * prefix[-1]
    flat[_K:_W1] = k
    two_forms = flat[_W1:].reshape(3, -1)
    two_forms[:] = outer[:, _PAIR_B, _PAIR_A] - outer[:, _PAIR_A, _PAIR_B]
    # L = D K + Omega = i^m (prefix[m] K - i Omega / i^(m-1))
    two_forms[2] = turn * (prefix[-1] * k - 1j * two_forms[2])
    return flat


def gaussian_end_expectations(
    propagator: Propagator,
    time: float,
    bloch,
    medium,
    end_phase: complex,
) -> np.ndarray:
    """End-site expectations after evolving rho_1 (x) M (x) |kappa><kappa|.

    rho_1 is the site-1 state with Bloch vector ``bloch``, M the fermionic
    Gaussian state of sites 2..N-1 with no pairing terms, and kappa =
    (|0> + c|1>)/sqrt(2) on site N.  Returns shape (2, 7): the expectations
    of X_1, X_N, Y_N, Z_N, X_1 X_N, X_1 Y_N, X_1 Z_N evolved over ``time``
    under the propagator's chain, row 0 for c = ``end_phase`` and row 1 for
    c = -end_phase.

    ``medium`` is M in its pair basis, a pair (delta, Q): with C = <a_i^dag
    a_j> its correlation matrix, I - 2C = Q diag(delta) Q^T, delta of
    length N - 2 and Q orthogonal of size N - 2, or None for the identity
    (the all-zero medium is delta = 1, the maximally mixed one delta = 0).
    A shape off raises ``ValueError``; Q is not checked to be orthogonal.

    With G = (I/2) (x) M (x) (I/2), the state is 4 G r k for r = rho_1 and
    k = |kappa><kappa| written in Majoranas, so each expectation is a sum of
    Tr[G w_1 ... w_k] over products of at most six linear forms, each the
    Pfaffian of K_ij = <w_i w_j> (i < j).  A term with the parity P also
    holds all 2N Majoranas.  Rotating the odd and the even interior
    Majoranas by the same Q (a rotation of determinant det(Q)^2 = 1, so no
    Pfaffian changes) leaves N pairs with <c_odd,j c_even,j> = i delta_j and no
    moment across pairs; the two end sites are delta = 0 pairs.  Wick's
    theorem as a Grassmann integral over one variable per form reads every
    term from the even part (64 entries) of the exterior algebra of the
    seven forms: a term is the coefficient of e_S, S its forms, in exp(K)
    for K the two-form of the moments among the forms, and a parity term
    in prod_j (i delta_j + omega_j) ^ exp(K).  Integrating out pair j
    leaves omega_j = -U_j ^ V_j for its moments with the forms U_j = o_j +
    i delta_j e_j and V_j = e_j - i delta_j o_j (o_j and e_j the forms'
    weights on it), and since o_j ^ o_j = e_j ^ e_j = 0, U_j ^ V_j = (1 -
    delta_j^2) o_j ^ e_j, which is real.  The end pairs have delta = 0, so
    the product is omega_1 ^ omega_N ^ (D + Omega) ^ exp(K) in closed form
    (:func:`_pair_factors`): O(N) in a fixed number of array operations,
    with no division by delta.  The terms linear in c flip sign with it,
    so one evaluation serves both rows.
    """
    if propagator.rates.ndim != 1:
        raise ValueError("gaussian_end_expectations needs a propagator of one chain, "
                         f"got a stack of {len(propagator.rates)}")
    n = propagator.rates.shape[0] + 1
    delta, q = medium
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (n - 2,):
        raise ValueError(f"expected {n - 2} medium pair values delta, got shape {delta.shape}")
    if q is not None:
        q = np.asarray(q, dtype=float)
        if q.shape != (n - 2, n - 2):
            raise ValueError(f"expected a {n - 2} x {n - 2} medium pair basis Q, got shape {q.shape}")
    x, y, z = (float(v) for v in bloch)
    c = complex(end_phase)
    # rows 1 and N of u = e^{-iht}; gamma(t) = R gamma with the 2 x 2 blocks
    # [[Re u_jl, -Im u_jl], [Im u_jl, Re u_jl]]
    ends = propagator.entries(time, [0, n - 1])
    # each form's weights on gamma_{2j-1} (odd) and gamma_{2j} (even), a row
    # per form; a form's row of `joined` holds both
    forms = np.zeros((len(_FORMS), 2, n))
    odd, even = forms[:, 0], forms[:, 1]
    odd[0, 0] = z
    even[1, 0] = 1.0
    odd[2, 0], even[2, 0] = x, y
    odd[3, -1], even[3, -1] = -c.imag, c.real
    odd[4:] = ends[0].real, ends[1].real, ends[1].imag
    even[4:] = -ends[0].imag, -ends[1].imag, ends[1].real
    # only the evolved forms reach the interior, where Q rotates both parts
    if q is not None:
        forms[4:, :, 1:-1] = forms[4:, :, 1:-1] @ q
    # <gamma_a gamma_b> = delta_ab + i Gamma_ab on G; in the pair basis
    # Gamma_{2j-1,2j} = delta_j, 0 on the end sites, and no other moment.
    # <w_a w_b> = f_a . f_b + i f_a Gamma f_b among the forms
    tilt = (odd[:, 1:-1] * delta) @ even[:, 1:-1].T
    joined = forms.reshape(len(_FORMS), -1)
    plain = joined @ joined.T + 1j * (tilt - tilt.T)
    pair_delta = np.zeros(n)
    pair_delta[1:-1] = delta
    flat = _pair_factors(plain[_PAIR_A, _PAIR_B], pair_delta, odd.T,
                         (even * ((1.0 - pair_delta) * (1.0 + pair_delta))).T)
    # P = (-i)^N gamma_1 ... gamma_2N.  Every parity term holds at least
    # N - 3 factors i delta_j, so on long hot chains it underflows to 0,
    # its value to double precision
    return _sum_products(flat, _TERMS, n % 4).reshape(2, -1)


def propagate(profile: CouplingProfile, time: float) -> CoefficientVector:
    """Coefficients of X_1(t) in the forward string basis."""
    values = Propagator(profile.rates).coefficients(float(time))
    return CoefficientVector(float(time), values, "site1")


def mirror_propagate(profile: CouplingProfile, time: float) -> CoefficientVector:
    """Coefficients of X_N(t) in the mirrored string basis.

    Equivalent to forward propagation under the reversed profile, from the
    same eigensystem; for centro-symmetric profiles the two families
    coincide.
    """
    values = Propagator(profile.rates)._strings(float(time), "siteN")
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
    times = np.linspace(0.0, t_max, steps)
    values = Propagator(profile.rates)._strings(times, origin)
    return CoefficientTrace(times, values, origin)


def estimate_fidelity(profile: CouplingProfile, time: float) -> float:
    """Transfer estimate alpha_N(t)^2, the weight of the fully transferred
    string in X_1(t).  Equals the exact transfer fidelity only at perfect
    revival; elsewhere it is the quantity the profile search optimises."""
    return Propagator(profile.rates).end_weights(float(time))
