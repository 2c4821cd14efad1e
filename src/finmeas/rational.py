"""Exact rational plumbing: parsing and formatting."""

import math
import sys
from fractions import Fraction

from .errors import CapacityExceeded, FloatRange


def as_fraction(value):
    """Coerce ints, Fractions and 'p/q' strings to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"not a rational: {value!r} (zero denominator)") from None
    raise ValueError(f"not a rational: {value!r} (floats are not exact, use 'p/q')")


def format_fraction(value):
    """Render a Fraction as 'p/q' (or a bare integer when q = 1); a part
    past the interpreter's digit limit raises CapacityExceeded."""
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        n = max(abs(value.numerator), value.denominator)
        d = int((n.bit_length() - 1) * math.log10(2))  # n has d + 1 or d + 2 digits
        raise CapacityExceeded(
            f"an exact result of {d + 1 + (n >= 10 ** (d + 1))} digits exceeds "
            f"the limit of {sys.get_int_max_str_digits()} digits for printing an integer"
        ) from None


def to_float(value):
    """float(value), or FloatRange when the value is beyond the largest float."""
    try:
        return float(value)
    except OverflowError:
        value = Fraction(value)
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise FloatRange(
            f"a value of magnitude about 10^{exponent:.0f} is outside the float range"
        ) from None


def format_float(value):
    """Render a float with 12 significant digits."""
    return format(float(value), ".12g")

