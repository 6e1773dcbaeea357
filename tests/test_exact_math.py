import math
import random
from fractions import Fraction

import pytest

from torus_rect_tiler import Quadrant, Vec2, l1_norm, parse_rational, quadrant_of
from torus_rect_tiler.exact_math import clear_denominators, quadrant_representative
from conftest import random_rational


def test_parse_rational_accepts_the_wire_grammar():
    assert parse_rational("3") == 3
    assert parse_rational("-4") == -4
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("+5/10") == Fraction(1, 2)
    assert parse_rational("  -9/3 ") == -3


@pytest.mark.parametrize("bad", ["", "3.5", "1e3", "1/0", "1/-2", "a", "1 / 2", "--3"])
def test_parse_rational_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


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
    assert quadrant_of(Vec2(3, 5)) is Quadrant.Q1
    assert quadrant_of(Vec2(-4, 1)) is Quadrant.Q2
    assert quadrant_of(Vec2(0, 7)) is Quadrant.Q1


def test_quadrant_representative_picks_the_canonical_sign():
    cases = [
        ((2, 3), (2, 3)),
        ((-2, -3), (2, 3)),
        ((0, -1), (0, 1)),
        ((-4, 0), (4, 0)),
        ((-2, 1), (-2, 1)),
        ((2, -1), (-2, 1)),
    ]
    for (x, y), want in cases:
        w = quadrant_representative(Vec2(x, y))
        assert (w.x, w.y) == want
        assert quadrant_representative(-w) == w


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
        assert (l1_norm(u) == 0) == u.is_zero()


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
        q = quadrant_of(v)
        assert q is (Quadrant.Q1 if v.x * v.y >= 0 else Quadrant.Q2)
