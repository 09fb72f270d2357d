"""Coefficient propagation for Heisenberg-evolved end-site operators.

The evolved end-site operator X_1(t) = e^{iHt} X_1 e^{-iHt} stays inside an
N-dimensional operator subspace spanned by the strings

    s_k = Z_1 ... Z_{k-1} X_k   (k odd)
    s_k = Z_1 ... Z_{k-1} Y_k   (k even)

with real coefficients alpha_k(t) obeying a linear first-order system whose
generator is the staggered antisymmetric matrix of ``chain.Generator``.  The
mirrored family propagates X_N through the site-reversed strings and equals
forward propagation under the reversed coupling profile.
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
