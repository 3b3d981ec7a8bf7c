"""Exact rational parsing and rendering shared by the solvers and the CLI."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, and strings in either "num/den" or decimal
    form ("0.15" means exactly 3/20). Binary floats are rejected so a
    caller can never smuggle rounding error into an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"floats are inexact; pass {value!r} as a string or Fraction instead"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def parse_matrix(matrix) -> list[list[Fraction]]:
    """Exact rows of a nonempty rectangular matrix.

    Accepts a :class:`~searchpursuit.game_core.PayoffMatrix` (its
    ``entries``) or any nested sequence of values ``parse_rational``
    takes.
    """
    raw = getattr(matrix, "entries", matrix)
    rows = [[parse_rational(v) for v in row] for row in raw]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows must have equal length")
    return rows


def format_rational(q: Fraction) -> str:
    """Canonical text form: reduced, "num/den" or a bare integer."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q: Fraction, digits: int = 6) -> str:
    """Decimal rendering for display only; never parsed back."""
    return f"{q.numerator / q.denominator:.{digits}g}"
