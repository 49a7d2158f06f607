"""Exact-value plumbing: parsing, canonical strings, fixed-point display."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stakesim import as_fraction, frac_decimal, frac_str

from oracles import frac_decimal_oracle


def test_parses_ints_fractions_and_strings():
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction("-3/7") == Fraction(-3, 7)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction("5") == Fraction(5)


def test_floats_go_through_their_shortest_decimal_repr():
    # 0.1 the float reads as the decimal 1/10, not its binary expansion
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(0.25) == Fraction(1, 4)


def test_bool_is_rejected():
    with pytest.raises(TypeError):
        as_fraction(True)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1, 2), "1/2"),
        (Fraction(5), "5"),
        (Fraction(-7, 3), "-7/3"),
        (Fraction(0), "0"),
    ],
)
def test_canonical_string(value, expected):
    assert frac_str(value) == expected


def test_string_round_trips():
    for num in range(-12, 13):
        for den in range(1, 9):
            x = Fraction(num, den)
            assert as_fraction(frac_str(x)) == x


def test_fixed_point_uses_bankers_rounding():
    assert frac_decimal(Fraction(1, 2), 0) == "0"
    assert frac_decimal(Fraction(3, 2), 0) == "2"
    assert frac_decimal(Fraction(1, 3), 4) == "0.3333"
    assert frac_decimal(Fraction(2, 3), 4) == "0.6667"
    assert frac_decimal(Fraction(-1, 8), 2) == "-0.12"
    assert frac_decimal(Fraction(64, 3), 4) == "21.3333"


def test_fixed_point_matches_the_fraction_oracle(rng):
    for _ in range(5000):
        # denominators built from 2s and 5s make exact ties common
        den = rng.choice([2**rng.randint(0, 8) * 5**rng.randint(0, 8), rng.randint(1, 10**6)])
        x = Fraction(rng.randint(-(10**9), 10**9), den)
        places = rng.randint(0, 6)
        assert frac_decimal(x, places) == frac_decimal_oracle(x, places), (x, places)
