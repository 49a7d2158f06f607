"""Exact value handling.

All monetary quantities are `fractions.Fraction`. Machine-readable output
serializes them as "numerator/denominator" strings; human-readable output
uses fixed-point decimals rendered deterministically (no locale).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable


def as_fraction(x) -> Fraction:
    """Coerce a scenario value into an exact Fraction.

    Accepts int, Fraction, "p/q" or decimal strings, and (for convenience)
    floats, which are read as their shortest decimal literal so that "0.1"
    means 1/10 rather than the binary float.
    """
    if type(x) is int:  # the commonest input, a JSON integer
        return Fraction(x)
    if isinstance(x, str):
        return _parse(x.strip())
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"boolean is not a value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as an exact value")


def _parse(s: str) -> Fraction:
    """Fraction(s), with the "p" and "p/q" forms `frac_str` writes read by the faster int()."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(s)


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of `values` as one Fraction, normalized once: each
    numerator is scaled to the lcm of the denominators and the numerators
    are added as ints, where `sum` would reduce a Fraction per term."""
    values = tuple(values)
    den = lcm(*{v.denominator for v in values})
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def frac_str(x: Fraction) -> str:
    """Serialize exactly: "3/4", or "5" when the denominator is 1."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal for human output, round-half-even, no locale."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    sign = "-" if x < 0 else ""
    whole, rem = divmod(abs(x.numerator) * 10**places, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"
