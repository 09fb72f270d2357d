"""Error types shared across the package, and the one memory rule.

Plain ValueError is used for invalid arguments; the classes here cover the
remaining failure kinds that callers may want to catch separately.
"""
import sys

# Bytes one call may hold at its peak.  Each call that allocates more than
# O(N) or one 2**n vector estimates its peak from its own shapes and passes
# it to check_memory before the allocation.  It admits the 12-site dense
# arrays (tracemalloc peaks of 1.0 GiB for density-matrix evolution and
# 1.02 GiB for a thermal medium) and refuses the 13-site ones, four times
# larger; it admits the 14-site sector eigensystems (estimated at 0.65 GiB)
# and refuses the 15-site ones (2.39 GiB)
MEMORY_BUDGET = 2**31


class ResourceLimitError(RuntimeError):
    """A call would exceed the memory budget."""


class ZeroProbabilityError(ValueError):
    """A measurement outcome with (numerically) zero probability was requested."""


class InternalConsistencyError(RuntimeError):
    """A convention cross-check failed; results would not be trustworthy."""


def check_memory(nbytes: float, what: str) -> None:
    """Raise ResourceLimitError when `what`, estimated to peak at nbytes,
    would exceed MEMORY_BUDGET; call it before allocating."""
    if nbytes > MEMORY_BUDGET:
        # an exact count past the float range prints as the largest float
        gib = min(nbytes, sys.float_info.max) / 2**30
        raise ResourceLimitError(
            f"{what}: about {gib:.3g} GiB, past the memory budget of "
            f"{MEMORY_BUDGET / 2**30:g} GiB"
        )
