"""The block CSV writer against the per-value '%.17g' it replaces."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxqst import _csvtext
from xxqst._csvtext import csv_block, fmt
from xxqst.cli import _csv_rows


def reference(table) -> str:
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in np.asarray(table).tolist())


def check(values, cols: int = 1) -> None:
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got, want = csv_block(table), reference(table)
    if got != want:
        # name the first rows that differ, not a diff of the whole text
        pairs = list(zip(got.splitlines(), want.splitlines()))
        assert [p for p in pairs if p[0] != p[1]][:3] == [] and len(got) == len(want)


def is_tie(x: float) -> bool:
    """Whether x's exact decimal value lies halfway between two 17-digit ones."""
    if not math.isfinite(x) or x == 0.0:
        return False
    digits = abs(Fraction(x)) * Fraction(10) ** (16 - math.floor(math.log10(abs(x))))
    if not 10 ** 16 <= digits < 10 ** 17:   # log10 one off near a power of ten
        digits *= 10 if digits < 10 ** 16 else Fraction(1, 10)
    return digits.denominator == 2


@pytest.fixture
def fallback_calls(monkeypatch):
    """Every value the block writer sends through fmt from here on."""
    called = []

    def counted(x):
        called.append(x)
        return fmt(x)

    monkeypatch.setattr(_csvtext, "fmt", counted)
    return called


def test_fmt_is_percent_17g():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(-0.0) == "-0"
    assert fmt(1e17) == "1e+17"


def test_random_bit_patterns(rng):
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    check(bits.view(np.float64), cols=8)
    # the same mantissas with a zero exponent field: subnormals
    check((bits & np.uint64(0x800F_FFFF_FFFF_FFFF)).view(np.float64), cols=8)


def test_powers_of_ten_and_their_neighbours(fallback_calls):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, above])
    check(np.concatenate([values, -values]), cols=3)
    # the log10 estimate is one high for most of those below; the corrected
    # exponent, not the fallback, writes them
    assert fallback_calls and all(is_tie(x) for x in fallback_calls)


def test_special_values():
    tiny, huge = 5e-324, np.finfo(np.float64).max
    check([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, huge, -huge,
           2.2250738585072014e-308, 1.0, -1.0, 0.5, 123.0, 2.0 ** 60])


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e100, 1e-99, 1e99])
def test_layout_switch_points(edge):
    values = [edge]
    for _ in range(3):
        values = [np.nextafter(values[0], 0.0)] + values + [np.nextafter(values[-1], np.inf)]
    # and just under the next power of ten, where rounding can carry into
    # the exponent
    values += [v * 9.999999999999999 for v in values]
    check(np.concatenate([values, np.negative(values)]), cols=2)


def exact_ties(rng) -> list[float]:
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: x = m / 2^(r + 1) with m odd and 5^r m between 2e16 and 2e17 has
    x 10^r = (5^r m) / 2, an odd integer over two.  Exponents 15..-8."""
    ties = []
    for r in range(1, 25):
        lo = -(-2 * 10 ** 16 // 5 ** r)
        hi = min(2 * 10 ** 17 // 5 ** r, 2 ** 53)
        for _ in range(8):
            m = int(rng.integers(lo, hi)) | 1
            if m >= hi:
                m -= 2
            ties.append(m / 2 ** (r + 1))
    return ties


def test_exact_ties_take_the_fallback(rng, fallback_calls):
    ties = exact_ties(rng)
    assert all(is_tie(x) for x in ties)
    # half to even rounds some of them down and some up
    parity = {int(Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))) % 2 for x in ties}
    assert parity == {0, 1}
    values = np.array(ties + [-x for x in ties])
    check(values, cols=4)
    assert sorted(fallback_calls) == sorted(values.tolist())


def test_blocks_join_across_rows(rng):
    first = np.linspace(0.0, math.pi / 4, 37)
    table = rng.standard_normal((37, 1000)) * np.exp(-rng.uniform(0, 50, (37, 1000)))
    blocks = list(_csv_rows(first, table))
    assert len(blocks) == 3
    assert all(block.endswith("\n") for block in blocks)
    assert "".join(blocks) == reference(np.column_stack([first, table]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_any_row_of_floats(row):
    check(row, cols=len(row))
