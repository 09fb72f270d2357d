"""Coupling profiles and operators for nearest-neighbour XX spin chains.

The chain Hamiltonian is H = sum_i J_i (X_i X_{i+1} + Y_i Y_{i+1}) with
site 1 mapped to the most significant bit of computational basis indices.
Units are fixed by the uniform-coupling scale, so times are dimensionless.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import check_memory

__all__ = [
    "CouplingProfile",
    "perfect_profile",
    "boundary_profile",
    "dense_hamiltonian",
    "sector_blocks",
]


@dataclass(frozen=True)
class CouplingProfile:
    """Couplings J_1..J_{N-1} of an open chain with n_sites spins."""

    n_sites: int
    couplings: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        couplings = tuple(float(c) for c in self.couplings)
        if len(couplings) != self.n_sites - 1:
            raise ValueError(
                f"expected {self.n_sites - 1} couplings, got {len(couplings)}"
            )
        if not all(map(math.isfinite, couplings)):
            raise ValueError("couplings must be finite reals")
        object.__setattr__(self, "couplings", couplings)

    @cached_property
    def rates(self) -> np.ndarray:
        """The coupling rates g_i = 2 J_i, a read-only float array: the chain
        as the coefficient engine and the Hamiltonian's hopping amplitudes
        see it."""
        rates = 2.0 * np.array(self.couplings)
        rates.flags.writeable = False
        return rates

    def is_centrosymmetric(self, tol: float = 1e-12) -> bool:
        """True when J_i = J_{N-i} within tol, i.e. the chain looks the same
        from either end."""
        c = np.asarray(self.couplings)
        return bool(np.max(np.abs(c - c[::-1])) <= tol)

    def reversed(self) -> "CouplingProfile":
        return CouplingProfile(self.n_sites, self.couplings[::-1], self.label)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n_sites, "couplings": list(self.couplings), "label": self.label}
        )

    @classmethod
    def from_json(cls, text: str) -> "CouplingProfile":
        data = json.loads(text)
        return cls(data["n"], tuple(data["couplings"]), data.get("label", ""))


def perfect_profile(n: int) -> CouplingProfile:
    """Profile J_i = sqrt(i (n - i)) that revives an end-site excitation
    exactly at t = pi/4."""
    if n < 2:
        raise ValueError(f"perfect profile needs n >= 2, got {n}")
    i = np.arange(1, n)
    return CouplingProfile(n, tuple(np.sqrt(i * (n - i)).tolist()), "perfect")


def boundary_profile(n: int, eta: float) -> CouplingProfile:
    """Uniform interior couplings with both boundary bonds scaled to eta.

    Needs n >= 4 so that at least one interior bond exists.
    """
    if n < 4:
        raise ValueError(f"boundary profile needs n >= 4, got {n}")
    eta = float(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    couplings = (eta,) + (1.0,) * (n - 3) + (eta,)
    return CouplingProfile(n, couplings, f"boundary(eta={eta:g})")


def _bond_indices(n: int, bond: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices coupled by bond `bond` (1-based): states whose bits at
    sites bond, bond+1 differ, and their partners with the pair flipped."""
    hi = n - bond          # bit position of site `bond`
    lo = n - bond - 1      # bit position of site `bond + 1`
    idx = np.arange(2**n, dtype=np.int64)
    differs = ((idx >> hi) ^ (idx >> lo)) & 1 == 1
    src = idx[differs]
    dst = src ^ ((1 << hi) | (1 << lo))
    return src, dst


def sector_blocks(profile: CouplingProfile) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (indices, block) for k = 0..n excitations, one sector at a time.
    H conserves total Z: `block` is its real symmetric restriction to the
    basis states with k excitations, listed in increasing order by `indices`."""
    n = profile.n_sites
    occ = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(np.int64)
    position = np.zeros(2**n, dtype=np.int64)
    for k in range(n + 1):
        idx = np.flatnonzero(occ == k)
        position[idx] = np.arange(len(idx))
        block = np.zeros((len(idx), len(idx)))
        for b in range(1, n):
            src, dst = _bond_indices(n, b)
            mask = occ[src] == k
            block[position[dst[mask]], position[src[mask]]] += profile.rates[b - 1]
        yield idx, block


def dense_hamiltonian(profile: CouplingProfile) -> np.ndarray:
    """Dense 2**n x 2**n Hamiltonian scattered from :func:`sector_blocks`; for
    small n, within the memory budget (up to 13 sites)."""
    n = profile.n_sites
    # the complex matrix, and a quarter more for the sector blocks scattered into it
    check_memory(20 * 4**n, f"a dense Hamiltonian on {n} sites")
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for idx, block in sector_blocks(profile):
        h[np.ix_(idx, idx)] = block
    return h
