"""Exact value handling.

All monetary quantities are `fractions.Fraction`. Machine-readable output
serializes them as "numerator/denominator" strings; human-readable output
uses fixed-point decimals rendered deterministically (no locale).
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce a scenario value into an exact Fraction.

    Accepts int, Fraction, "p/q" or decimal strings, and (for convenience)
    floats, which are read as their shortest decimal literal so that "0.1"
    means 1/10 rather than the binary float.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"boolean is not a value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact value")


def frac_str(x: Fraction) -> str:
    """Serialize exactly: "3/4", or "5" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal for human output, round-half-even, no locale."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    whole, rem = divmod(abs(x.numerator) * 10**places, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"
