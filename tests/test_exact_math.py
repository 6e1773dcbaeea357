import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_rect_tiler import Vec2, l1_norm, parse_rational, sign_key
from torus_rect_tiler.exact_math import clear_denominators
from conftest import random_rational


def test_parse_rational_accepts_the_wire_grammar():
    assert parse_rational("3") == 3
    assert parse_rational("-4") == -4
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("+5/10") == Fraction(1, 2)
    assert parse_rational("  -9/3 ") == -3


# Only ASCII digits: Arabic-Indic three and fullwidth 3/4 are refused.  Only
# ASCII whitespace around them: the ideographic and no-break spaces and the
# file separator are refused.
@pytest.mark.parametrize(
    "bad",
    [
        "", "3.5", "1e3", "1/0", "1/-2", "a", "1 / 2", "--3", "\u0663", "\uff13/\uff14",
        "3\u3000", "\u00a03", "3\x1c",
    ],
)
def test_parse_rational_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


ASCII_SPACE = " \t\n\r\x0b\x0c"
DIGITS = st.text("0123456789", min_size=1, max_size=40)


@settings(database=None, derandomize=True, max_examples=300)
@given(
    st.text(ASCII_SPACE, max_size=2),
    st.sampled_from(["", "+", "-"]),
    DIGITS,
    st.none() | DIGITS,
    st.text(ASCII_SPACE, max_size=2),
)
def test_parse_rational_reads_literals_as_fraction_does(lead, sign, num, den, trail):
    text = f"{lead}{sign}{num}{'' if den is None else '/' + den}{trail}"
    if den is not None and int(den) == 0:
        with pytest.raises(ValueError, match="^zero denominator: "):
            parse_rational(text)
    else:
        assert parse_rational(text) == Fraction(text)


def test_parse_rational_keeps_the_int_digit_limit_message():
    # The CLI recognises this message (cli._past_digit_limit).
    for text in ("1" * 5000, "1/" + "3" * 5000, "-7/" + "0" * 5000):
        with pytest.raises(ValueError, match="integer string conversion"):
            parse_rational(text)


def test_parse_format_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        x = random_rational(rng, bound=500, max_den=500)
        assert parse_rational(str(x)) == x


def test_l1_norm_examples():
    assert l1_norm(Vec2(3, 5)) == 8
    assert l1_norm(Vec2(0, 0)) == 0
    assert l1_norm(Vec2(-4, 1)) == 5


def test_quadrant_examples():
    # The third entry is negative exactly in the opposite-sign class.
    assert sign_key(3, 5) == (8, 5, 3)
    assert sign_key(-4, 1) == (5, 1, -4)
    assert sign_key(0, 7) == (7, 7, 0)
    assert sign_key(0, 0) == (0, 0, 0)
    assert sign_key(-6, 0) == (6, 0, 6)
    assert sign_key(0, -6) == (6, 6, 0)
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert sign_key(-half, -third) == (Fraction(5, 6), third, half)
    assert sign_key(half, -7 * third) == (Fraction(17, 6), 7 * third, -half)
    assert sign_key(-2 * third, Fraction(0)) == (2 * third, 0, 2 * third)
    assert sign_key(Fraction(0), -2 * third) == (2 * third, 2 * third, 0)


def test_quadrant_representative_picks_the_canonical_sign():
    cases = [
        ((2, 3), (2, 3)),
        ((-2, -3), (2, 3)),
        ((0, -1), (0, 1)),
        ((-4, 0), (4, 0)),
        ((-2, 1), (-2, 1)),
        ((2, -1), (-2, 1)),
        ((Fraction(-1, 2), Fraction(-3, 4)), (Fraction(1, 2), Fraction(3, 4))),
        ((Fraction(1, 2), Fraction(-3, 4)), (Fraction(-1, 2), Fraction(3, 4))),
        ((Fraction(0), Fraction(-5, 7)), (0, Fraction(5, 7))),
        ((Fraction(-5, 7), Fraction(0)), (Fraction(5, 7), 0)),
        ((0, 0), (0, 0)),
    ]
    for (x, y), want in cases:
        key = sign_key(x, y)
        assert (key[2], key[1]) == want
        assert sign_key(-x, -y) == key
        assert sign_key(*want) == key


def test_clear_denominators_gives_least_common_denominator():
    assert clear_denominators(Fraction(1, 2), Fraction(-2, 3), 0) == (6, (3, -4, 0))
    assert clear_denominators(Fraction(0), Fraction(-5)) == (1, (0, -5))
    rng = random.Random(7)
    for _ in range(300):
        values = [random_rational(rng, bound=40, max_den=30) for _ in range(rng.randint(1, 8))]
        den, ints = clear_denominators(*values)
        assert den > 0
        assert len(ints) == len(values)
        for x, n in zip(values, ints):
            assert type(n) is int
            assert n == x * den
        # minimal: a common factor k > 1 of den and every ints[i] would
        # let den / k clear every value too
        assert math.gcd(den, *ints) == 1


def test_l1_norm_triangle_and_homogeneity():
    rng = random.Random(4)
    for _ in range(400):
        u = Vec2(random_rational(rng), random_rational(rng))
        v = Vec2(random_rational(rng), random_rational(rng))
        assert l1_norm(u + v) <= l1_norm(u) + l1_norm(v)
        t = random_rational(rng)
        assert l1_norm(u.scaled(t)) == abs(t) * l1_norm(u)
        assert (l1_norm(u) == 0) == (u == Vec2(0, 0))


def test_results_stay_in_canonical_form():
    rng = random.Random(5)
    for _ in range(300):
        a = random_rational(rng)
        b = random_rational(rng)
        for value in (a + b, a * b, a - b):
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1


def test_quadrant_classification_is_total_and_matches_sign():
    rng = random.Random(6)
    for _ in range(300):
        v = Vec2(random_rational(rng), random_rational(rng))
        norm, y, x = sign_key(v.x, v.y)
        assert (x < 0) is (v.x * v.y < 0)
        assert norm == l1_norm(v)
        assert Vec2(x, y) in (v, v.scaled(-1))
