"""Exact rational parsing and rendering shared by the solvers and the CLI,
and the one place that bounds a number by the digits it prints with."""

from __future__ import annotations

import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction


class NumberTooLarge(ValueError):
    """A numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default, 0 for no limit)
    lets the program print back."""

    def __init__(self, message: str = ""):
        limit = sys.get_int_max_str_digits()
        super().__init__(message or f"numerator or denominator has more than {limit} digits")


# A decimal literal, in the grammar ``Fraction`` reads one.
_DECIMAL_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(_\d+)*)(\.(\d*|\d+(_\d+)*))?"
    r"([eE][-+]?\d+(_\d+)*)?\s*"
)


def _decimal(text: str) -> Fraction:
    """The exact value of the decimal literal ``text``, or NumberTooLarge.

    Judged first from the leading power of ten, 10**a: a nonzero value has
    a numerator of more than ``limit`` digits when a >= limit and a
    denominator of more than ``limit`` digits when a < -limit, so
    1e-999999999 is refused without building its billion-digit power of
    ten. Values in between are cheap to build, through Decimal, which
    unlike ``Fraction``'s parser reads digit runs of any length, and are
    checked again then.
    """
    limit = sys.get_int_max_str_digits()
    try:
        d = Decimal(text)
    except InvalidOperation:
        # Only an exponent past Decimal's range, about 10**18, gets here;
        # times a zero mantissa it still gives 0.
        mantissa, exponent = re.split("[eE]", text.strip())
        if not any(c in mantissa for c in "123456789"):
            return Fraction(0)
        # With no digit limit set, the exponent is what is out of range.
        raise NumberTooLarge(
            "" if limit else f"exponent {exponent} is out of range"
        ) from None
    if not d.is_finite() or (
        limit and not d.is_zero() and not -limit <= d.adjusted() < limit
    ):
        raise NumberTooLarge()
    q = Fraction(d)
    # At most 3 * limit bits is fewer than limit digits, so only a longer
    # value is printed to find out.
    if limit and max(q.numerator.bit_length(), q.denominator.bit_length()) > 3 * limit:
        format_rational(q)
    return q


def parse_rational(value) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, and strings in either "num/den" or decimal
    form ("0.15" means exactly 3/20). Binary floats are rejected so a
    caller can never smuggle rounding error into an exact pipeline. A
    decimal string whose value could not be printed back raises
    NumberTooLarge, before the value is built when its exponent shows it.

    A string in the form ``format_rational`` writes, within the digit
    limit, is read straight into integers; every other string takes
    ``_parse_text``, with the same value or error.
    """
    if isinstance(value, str):
        q = _written_rational(value)
        return _parse_text(value) if q is None else q
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"floats are inexact; pass {value!r} as a string or Fraction instead"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _written_rational(text: str) -> Fraction | None:
    """The value of ``text`` when it is an optional "-", ASCII digits and
    at most one "/" before a nonzero ASCII-digit denominator, each digit
    run within the digit limit; None for any other string."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        return None
    try:
        # For ASCII digits, int() refuses only a run past the digit limit.
        if not slash:
            return Fraction(int(num))
        d = int(den)
        # A zero denominator is left to _parse_text, which names the string.
        return Fraction(int(num), d) if d else None
    except ValueError:
        return None


def _parse_text(text: str) -> Fraction:
    """The value of any string ``parse_rational`` takes, through the
    decimal grammar or ``Fraction``'s own parser."""
    if _DECIMAL_LITERAL.fullmatch(text):
        return _decimal(text)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_rationals(values) -> tuple[Fraction, ...]:
    """``parse_rational`` of each of ``values``, as a tuple; values that
    are all Fractions already are taken as they are."""
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(map(parse_rational, values))


def parse_matrix(matrix) -> list[list[Fraction]]:
    """Exact rows of a nonempty rectangular matrix, given as any nested
    sequence of values ``parse_rational`` takes (``build_matrix``
    returns one)."""
    rows = [[parse_rational(v) for v in row] for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows must have equal length")
    return rows


def format_rational(q: Fraction) -> str:
    """Canonical text form: reduced, "num/den" or a bare integer;
    NumberTooLarge if that is past the digit limit."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise NumberTooLarge() from None


def format_decimal(q: Fraction, digits: int = 6) -> str:
    """Decimal rendering for display only; never parsed back."""
    return f"{q.numerator / q.denominator:.{digits}g}"
