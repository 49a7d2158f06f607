"""Exact-value plumbing: parsing, canonical strings, fixed-point display."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stakesim import as_fraction, frac_decimal, frac_str
from stakesim.rational import exact_sum

from oracles import frac_decimal_oracle


def test_parses_ints_fractions_and_strings():
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction("-3/7") == Fraction(-3, 7)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction("5") == Fraction(5)


def outcome(parse, text: str):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# the "p" and "p/q" forms are read by int(); every string must still read, or
# fail, as Fraction reads it
@pytest.mark.parametrize(
    "text",
    ["0", "-0", "007", "2/4", "-3/4", " 3/4 ", "1/0", "0/0", "", "-", "/", "5/", "/5", "--5", "+5", "1.5",
     "1e3", "1_000", "1/2_0", "\u0663", "\u00b2", "3 /4", "-1/-2", "1/-2", "9" * 5000, "-1/" + "9" * 5000],
)
def test_a_string_reads_as_fraction_reads_it(text):
    assert outcome(as_fraction, text) == outcome(Fraction, text.strip())


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


def _frac_str_rebuilding(x) -> str:
    """`frac_str` as it was: every input rebuilt as a new Fraction."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _frac_decimal_rebuilding(x, places: int = 6) -> str:
    """`frac_decimal` as it was: every input rebuilt as a new Fraction."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    whole, rem = divmod(abs(x.numerator) * 10**places, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


def test_fraction_input_is_formatted_as_before(rng):
    seen = set()
    for _ in range(5000):
        num = rng.choice([0, rng.randint(-50, 50), rng.randint(-(10**30), 10**30)])
        den = rng.choice([1, rng.randint(1, 12), rng.randint(1, 10**20)])
        x = rng.choice([Fraction(num, den), num, f"{num}/{den}"])
        seen.add((type(x).__name__, (num > 0) - (num < 0)))
        assert frac_str(x) == _frac_str_rebuilding(x), x
        places = rng.randint(0, 6)
        assert frac_decimal(x, places) == _frac_decimal_rebuilding(x, places), (x, places)
        assert frac_decimal(x) == _frac_decimal_rebuilding(x), x
    # Fraction, int and "p/q" input, each zero, negative and positive
    assert seen == {(kind, sign) for kind in ("Fraction", "int", "str") for sign in (-1, 0, 1)}


def test_exact_sum_is_the_plain_sum(rng):
    primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079]
    for _ in range(2000):
        n = rng.choice([0, 1, rng.randint(2, 6), rng.randint(7, 60)])
        den = rng.choice([lambda: 1, lambda: rng.randint(1, 40), lambda: rng.choice(primes) ** rng.randint(1, 3)])
        values = [Fraction(rng.randint(-(10**6), 10**6), den()) for _ in range(n)]
        total = exact_sum(values)
        assert type(total) is Fraction
        assert total == sum(values, Fraction(0)), values
        # a generator is summed as its list is
        assert exact_sum(iter(values)) == total
    assert exact_sum([]) == 0 and type(exact_sum([])) is Fraction
    assert exact_sum([Fraction(-3, 7)]) == Fraction(-3, 7)
    assert exact_sum([2, Fraction(5)]) == 7 and type(exact_sum([2, 5])) is Fraction
    assert exact_sum([Fraction(1, 2), Fraction(-1, 2)]) == 0
    assert exact_sum([Fraction(1, 10007), Fraction(1, 10009)]) == Fraction(10007 + 10009, 10007 * 10009)
