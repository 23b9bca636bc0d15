"""numtext against Python's own spelling: repr for CSV cells, json.dumps for
JSON, entry by entry of tolist()."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonnet import numtext
from platoonnet.numtext import number_cells


def spelled(part: np.ndarray, json_style: bool = False) -> list[str]:
    """The cells of number_cells as strings: each row up to its first 0xFF."""
    text = number_cells(part, json_style)
    assert text.dtype == np.uint8 and text.shape[0] == len(part)
    return [row.split(b"\xff")[0].decode() for row in map(bytes, text)]


def oracle(part: np.ndarray, json_style: bool = False) -> list[str]:
    """repr (or json.dumps) of each entry, through one call on the list."""
    values = part.tolist()
    if not values:
        return []
    text = json.dumps(values) if json_style else repr(values)
    return text[1:-1].split(", ")


def assert_spelled_as_python(part: np.ndarray, styles=(False, True)) -> None:
    """number_cells, a chunk of 4096 at a time as the writers call it, against
    the oracle, compared as NUL-padded byte strings."""
    for json_style in styles:
        want = np.array(oracle(part, json_style), dtype="S24")
        got = np.full((len(part), 24), 0xFF, np.uint8)
        for start in range(0, len(part), 4096):
            text = number_cells(part[start : start + 4096], json_style)
            got[start : start + len(text), : text.shape[1]] = text
        got[got == 0xFF] = 0
        same = got.view("S24").ravel() == want
        assert same.all(), [(i, got[i].tobytes(), want[i]) for i in np.flatnonzero(~same)[:5]]


def doubles(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def neighbours(values) -> np.ndarray:
    """Each value with the doubles just below and just above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    # repr takes ~3 us for a double of random bits, so tier-1 holds 4e5 of
    # them (1e5 through json.dumps); a run of 1e7 is recorded in CHANGES.md
    rng = np.random.default_rng(20261019)
    values = doubles(rng.integers(0, 2**64, size=400_000, dtype=np.uint64))
    assert_spelled_as_python(values, styles=(False,))
    assert_spelled_as_python(values[:100_000], styles=(True,))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    assert_spelled_as_python(np.array(values, dtype=np.float64))


def test_powers_of_two_and_their_neighbours():
    # at 2^e the gap below is half the gap above (the irregular interval)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_spelled_as_python(neighbours(np.concatenate([powers, -powers])))


def test_subnormals():
    smallest, largest = doubles([1]), doubles([(1 << 52) - 1])
    assert (spelled(smallest), spelled(largest)) == (["5e-324"], ["2.225073858507201e-308"])
    rng = np.random.default_rng(7)
    bits = np.concatenate([np.arange(1, 4097), rng.integers(1, 1 << 52, size=8000),
                           (1 << 52) - np.arange(1, 4097)]).astype(np.uint64)
    assert_spelled_as_python(np.concatenate([doubles(bits), -doubles(bits)]))


def test_integral_values_and_powers_of_ten():
    k = np.arange(-200, 201, dtype=np.float64)
    near_2_53 = 2.0**53 + k
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_spelled_as_python(neighbours(np.concatenate([near_2_53, -near_2_53, powers_of_ten,
                                                        2.0**52 + k, k, k / 8])))


def test_notation_switch_points():
    # positional for decimal exponents -4 .. 15, d.ddde±XX outside
    values = neighbours([1e-4, 1e-5, 1e15, 1e16, 9.999999999999999e-5, 9.999999999999999e15,
                         0.00012345678901234567, 1234567890123456.7, 1.5e-5, 123e14])
    assert_spelled_as_python(np.concatenate([values, -values]))
    assert spelled(np.array([1e-4, 1e-5, 1e15, 1e16, 1e100, 1e-100])) == [
        "0.0001", "1e-05", "1000000000000000.0", "1e+16", "1e+100", "1e-100"]


def test_zeros_nan_payloads_and_infinities():
    payloads = doubles([0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
                        0xFFF8000000000000, 0xFFF0000000000001, 0x7FF4000000000000])
    values = np.concatenate([[0.0, -0.0, math.inf, -math.inf], payloads])
    assert spelled(values) == ["0.0", "-0.0", "inf", "-inf"] + ["nan"] * 6
    assert spelled(values, True) == ["0.0", "-0.0", "Infinity", "-Infinity"] + ["NaN"] * 6
    assert_spelled_as_python(np.tile(values, 3))


def test_narrow_floats_are_spelled_as_tolist_widens_them():
    every_half = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    rng = np.random.default_rng(5)
    singles = rng.integers(0, 2**32, size=40000, dtype=np.uint32).view(np.float32)
    assert_spelled_as_python(every_half)
    assert_spelled_as_python(singles)


def test_strided_and_empty_parts():
    values = np.random.default_rng(11).normal(size=(50, 4)) * 1e3
    assert_spelled_as_python(values[:, 1])
    assert_spelled_as_python(values[::-1, 2])
    assert number_cells(np.zeros(0)).shape[0] == 0


def test_scales_are_exact():
    # k is floor(log10) of the interval width, 2^q or 3/4 2^q below a power
    # of two; g - 1 <= 10^-k 2^-r < g with 2^125 <= 10^-k 2^-r < 2^126, for
    # r = h - 127 - q; and h in 2..5 keeps cp = 4c 2^h below 2^60
    for key in range(2 * 2047):
        kh, g0, g1 = numtext._scales(key)
        k, h, q = kh >> 3, kh & 7, max(key // 2, 1) - 1075
        width = Fraction(2) ** q * (Fraction(3, 4) if key % 2 else 1)
        assert Fraction(10) ** k <= width < Fraction(10) ** (k + 1)
        beta = Fraction(10) ** -k / Fraction(2) ** (h - 127 - q)
        g = g1 << 63 | g0
        assert 2**125 <= beta < 2**126 and g - 1 <= beta < g
        assert 2 <= h <= 5 and 0 <= g0 < 2**63


@pytest.mark.parametrize("json_style", [False, True])
def test_widths_fit_the_longest_text(json_style):
    cells = number_cells(np.array([-1.2345678901234567e-308, 1.0]), json_style)
    assert cells.shape == (2, 24)
    assert number_cells(np.array([7.0, 12.0]), json_style).shape == (2, 4)
