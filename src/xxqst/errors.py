"""Error types shared across the package, and the one memory rule.

Plain ValueError is used for invalid arguments; the classes here cover the
remaining failure kinds that callers may want to catch separately.
"""

# Bytes one call may hold at its peak.  Each call that allocates more than
# O(N) or one 2**n vector estimates its peak from its own shapes and passes
# it to check_memory before the allocation.  It admits the 12-site dense
# arrays (tracemalloc peaks of 1.0 GiB for density-matrix evolution and
# 1.02 GiB for a thermal medium) and refuses the 13-site ones, four times
# larger
MEMORY_BUDGET = 2**31


class ResourceLimitError(RuntimeError):
    """A call would exceed the exact engine's size cap or the memory budget."""


class ZeroProbabilityError(ValueError):
    """A measurement outcome with (numerically) zero probability was requested."""


class InternalConsistencyError(RuntimeError):
    """A convention cross-check failed; results would not be trustworthy."""


def check_memory(nbytes: float, what: str) -> None:
    """Raise ResourceLimitError when `what`, estimated to peak at nbytes,
    would exceed MEMORY_BUDGET; call it before allocating."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what}: about {nbytes / 2**30:.3g} GiB, past the memory budget of "
            f"{MEMORY_BUDGET / 2**30:g} GiB"
        )
