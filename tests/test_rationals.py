import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchpursuit import rationals
from searchpursuit.rationals import (
    NumberTooLarge,
    format_decimal,
    format_rational,
    parse_rational,
)


def test_parse_decimal_is_exact():
    assert parse_rational("0.15") == Fraction(3, 20)
    assert parse_rational(".15") == Fraction(3, 20)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_fraction_string():
    assert parse_rational("12/23") == Fraction(12, 23)
    assert parse_rational(" 1/3 ") == Fraction(1, 3)


def test_parse_int_and_fraction_pass_through():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 5)) == Fraction(2, 5)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        parse_rational(0.15)
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("spam")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational_canonical():
    assert format_rational(Fraction(6, 115)) == "6/115"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_format_decimal_display():
    assert format_decimal(Fraction(1, 2)) == "0.5"
    assert format_decimal(Fraction(6, 115)) == "0.0521739"


def timed_call_in_child(call: str):
    """What evaluating ``call`` raised ("returned" if nothing) and the
    seconds it took, in a child process, so that a hang or a runaway
    allocation fails the test instead of stalling the suite."""
    script = (
        "import sys, time\n"
        "from searchpursuit.game_core import GameSpec\n"
        "from searchpursuit.rationals import parse_rational\n"
        "started = time.perf_counter()\n"
        "try:\n"
        "    eval(sys.argv[1])\n"
        "    outcome = 'returned'\n"
        "except Exception as exc:\n"
        "    outcome = type(exc).__name__\n"
        "print(outcome, time.perf_counter() - started)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, call], capture_output=True, text=True, timeout=30
    )
    outcome, seconds = proc.stdout.split()
    return outcome, float(seconds)


@pytest.mark.parametrize(
    "call",
    [
        # An exponent past Decimal's range: 10**(10**19) cannot be built.
        'parse_rational("1e-9999999999999999999")',
        # A library caller, not only the CLI, is refused before the
        # thirty-million-digit power of ten is built.
        'GameSpec(times=("1e-30000000",), captures=("1/2",), budget=1)',
        'parse_rational("1e30000000")',
    ],
)
def test_unprintable_decimal_strings_are_refused_fast(call):
    outcome, seconds = timed_call_in_child(call)
    assert outcome == "NumberTooLarge"
    assert seconds < 0.25


def test_parse_refuses_a_value_one_digit_past_the_limit():
    # 10**4300 has 4301 digits; the exponent alone does not show it.
    with pytest.raises(NumberTooLarge):
        parse_rational("1e-4300")
    with pytest.raises(NumberTooLarge):
        parse_rational("1" * 4301)


def test_number_too_large_is_a_value_error():
    assert issubclass(NumberTooLarge, ValueError)


def test_format_refuses_an_unprintable_result():
    with pytest.raises(NumberTooLarge, match="more than 4300 digits"):
        format_rational(Fraction(1, 10**4300))  # a 4301-digit denominator


def test_values_at_the_limit_still_parse():
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    assert parse_rational("12/23") == Fraction(12, 23)
    digits = "7" * 4300
    assert parse_rational(digits) == int(digits)
    assert format_rational(parse_rational(digits)) == digits


def test_long_digit_runs_parse_by_their_value():
    # Fraction's own parser refuses any run of more than 4300 digits;
    # a decimal is judged by the digits of its reduced value instead.
    assert parse_rational("1." + "0" * 5000) == 1
    with pytest.raises(NumberTooLarge):
        parse_rational("0." + "1" * 5000)


@pytest.fixture(params=[4300, 0], ids=["default-limit", "no-limit"])
def digit_limit(request):
    """Run the test at the default digit limit and with none (0)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield request.param
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "text",
    ["0e-99999999999999999999", " -0.000_0E+99999999999999999999 ", "00e9999999999999999999"],
)
def test_zero_mantissa_past_the_exponent_range_is_zero(digit_limit, text):
    assert parse_rational(text) == 0


def test_exponent_past_the_range_is_refused_by_its_name(digit_limit):
    with pytest.raises(NumberTooLarge) as info:
        parse_rational("1e-9999999999999999999")
    if digit_limit:
        assert str(info.value) == "numerator or denominator has more than 4300 digits"
    else:
        assert str(info.value) == "exponent -9999999999999999999 is out of range"


def parsed(parse, text):
    """What ``parse(text)`` gives: its value, or its error's type and
    message."""
    try:
        return parse(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# Characters the fast path reads, and characters it leaves to the full
# parser: a sign it does not take, digit separators, spaces, decimals,
# exponents and an Arabic-Indic three, which int() would read as 3.
@settings(max_examples=1000)
@given(st.text(alphabet="0123456789-+/_ .e\u0663", max_size=12))
def test_fast_path_reads_what_the_full_parser_reads(text):
    assert parsed(parse_rational, text) == parsed(rationals._parse_text, text)


@st.composite
def digit_runs(draw):
    """A signed integer or fraction whose digit runs are short, exactly
    the digit limit of 4300 long or one past it."""

    def run():
        pattern = draw(st.text(alphabet="0123456789", min_size=1, max_size=3))
        length = draw(st.sampled_from([1, 4300, 4301]))
        return (pattern * length)[:length]

    text = draw(st.sampled_from(["", "-"])) + run()
    if draw(st.booleans()):
        text += "/" + run()
    return text


@settings(max_examples=120)
@given(digit_runs(), st.sampled_from([4300, 0]))
def test_fast_path_agrees_at_and_past_the_digit_limit(text, limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert parsed(parse_rational, text) == parsed(rationals._parse_text, text)
    finally:
        sys.set_int_max_str_digits(saved)
