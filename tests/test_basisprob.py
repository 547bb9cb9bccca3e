"""Basis probabilities against direct tuple enumeration, plus the
certified limit machinery."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from hypercube_codes.basisprob import (
    SimplexPoint,
    basis_probability,
    basis_recurrence_check,
    first_draw_bound,
    independent_draw_probability,
    limit_constant,
    limit_interval,
    uniform_basis_probability,
)
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.gf2 import rank_ints


def basis_probability_by_tuples(dist):
    """Sum of prod(p_v) over all ordered tuples of full rank."""
    t = dist.t
    vectors = range(1, 1 << t)
    probs = [Fraction(p) for p in dist.probs]
    total = Fraction(0)
    for draw in itertools.product(vectors, repeat=t):
        if rank_ints(draw) == t:
            prod = Fraction(1)
            for v in draw:
                prod *= probs[v - 1]
            total += prod
    return total


def test_uniform_matches_tuple_enumeration():
    for t in (1, 2, 3):
        expected = basis_probability_by_tuples(SimplexPoint.uniform(t))
        assert uniform_basis_probability(t) == expected
    assert uniform_basis_probability(2) == Fraction(2, 3)
    assert uniform_basis_probability(3) == Fraction(24, 49)
    assert uniform_basis_probability(4) == Fraction(448, 1125)


def test_uniform_validation():
    with pytest.raises(ValueError):
        uniform_basis_probability(0)
    with pytest.raises(ValueError):
        uniform_basis_probability(65)


def test_recurrence_holds():
    for t in range(2, 41):
        assert basis_recurrence_check(t)


def test_probability_strictly_decreases():
    prev = uniform_basis_probability(1)
    for t in range(2, 41):
        cur = uniform_basis_probability(t)
        assert cur < prev
        prev = cur


def test_first_draw_bound_dominates():
    assert first_draw_bound(2) == uniform_basis_probability(2)
    for t in range(3, 30):
        assert uniform_basis_probability(t) < first_draw_bound(t)


def test_independent_draw_probability():
    assert independent_draw_probability(1, 5) == 1
    assert independent_draw_probability(6, 5) == 0
    assert independent_draw_probability(2, 3) == Fraction(6, 7)
    assert independent_draw_probability(3, 3) == uniform_basis_probability(3)
    # oracle: ordered triples of nonzero vectors of GF(2)^4
    vectors = range(1, 16)
    hits = sum(1 for draw in itertools.product(vectors, repeat=3)
               if rank_ints(draw) == 3)
    assert independent_draw_probability(3, 4) == Fraction(hits, 15 ** 3)


def test_dependent_draws_are_rarer_than_two_to_the_minus_k():
    # r >= 1 uniform nonzero vectors of GF(2)^(r+k) are dependent with
    # probability below 2^-k, and at k = 0 below 1
    for r in (1, 2, 5, 10, 20):
        for k in (1, 2, 4, 8):
            assert 0 <= 1 - independent_draw_probability(r, r + k) < Fraction(1, 1 << k)
    assert independent_draw_probability(3, 3) > 0


def test_limit_interval_brackets_later_values():
    lo, hi = limit_interval(40)
    assert hi == uniform_basis_probability(40)
    for t in range(41, 65):
        assert lo < uniform_basis_probability(t) < hi
    # every earlier interval also brackets the deep value
    deep = uniform_basis_probability(64)
    for t in range(2, 61):
        lo_t, hi_t = limit_interval(t)
        assert lo_t <= deep <= hi_t


def test_limit_interval_width_shrinks():
    widths = [limit_interval(t)[1] - limit_interval(t)[0]
              for t in range(2, 41)]
    for a, b in zip(widths, widths[1:]):
        assert b < a


def test_limit_constant_frozen_digits():
    assert limit_constant(2) == Decimal("0.29")
    assert limit_constant(6) == Decimal("0.288788")
    assert limit_constant(12) == Decimal("0.288788095087")
    assert limit_constant(20) == Decimal("0.28878809508660242128")
    with pytest.raises(ValueError):
        limit_constant(0)
    with pytest.raises(ValueError):
        limit_constant(31)


def test_simplex_point_validation():
    SimplexPoint.uniform(3)
    SimplexPoint.from_weights(2, [1, 1, 2])
    with pytest.raises(ValueError):
        SimplexPoint(2, (Fraction(1, 2), Fraction(1, 2)))  # needs 3 entries
    with pytest.raises(ValueError):
        SimplexPoint(2, (Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4)))
    with pytest.raises(ValueError):
        SimplexPoint(2, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        SimplexPoint.from_weights(2, [0, 0, 0])


def test_exact_probability_at_uniform():
    for t in (1, 2, 3, 4, 5):
        assert basis_probability(SimplexPoint.uniform(t)) \
            == uniform_basis_probability(t)
    # t = 6 has 27,998,208 bases, over the edge budget of basis_hypergraph
    with pytest.raises(OutOfRegimeError):
        basis_probability(SimplexPoint.uniform(6))


def test_exact_probability_concentrated_support():
    # mass on {1, 2, 4, 7}: the four vectors sum to zero, so every
    # 3-subset of the support is a basis and P = 3! * 4 * (1/4)^3
    weights = [1, 1, 0, 1, 0, 0, 1]
    dist = SimplexPoint.from_weights(3, weights)
    assert basis_probability(dist) == Fraction(3, 8)
    assert basis_probability(dist) == basis_probability_by_tuples(dist)


def test_exact_probability_degenerate():
    dist = SimplexPoint(2, (Fraction(1), Fraction(0), Fraction(0)))
    assert basis_probability(dist) == 0


def test_exact_probability_random_dists_match_tuples():
    rng = random.Random(424242)
    for _ in range(25):
        t = rng.choice([2, 3])
        m = (1 << t) - 1
        weights = [rng.randint(0, 6) for _ in range(m)]
        if sum(weights) == 0:
            weights[0] = 1
        dist = SimplexPoint.from_weights(t, weights)
        assert basis_probability(dist) == basis_probability_by_tuples(dist)


def test_exact_probability_never_beats_uniform():
    rng = random.Random(31337)
    for _ in range(300):
        t = rng.choice([2, 3, 4])
        m = (1 << t) - 1
        weights = [rng.randint(0, 9) for _ in range(m)]
        if sum(weights) == 0:
            weights[rng.randrange(m)] = 1
        dist = SimplexPoint.from_weights(t, weights)
        assert basis_probability(dist) <= uniform_basis_probability(t)


def test_first_draw_chain():
    # forming a basis implies the first draw never reappears, and that
    # event is likeliest at the uniform distribution
    rng = random.Random(2718)
    for _ in range(300):
        t = rng.choice([2, 3, 4])
        m = (1 << t) - 1
        weights = [rng.randint(0, 9) for _ in range(m)]
        if sum(weights) == 0:
            weights[rng.randrange(m)] = 1
        dist = SimplexPoint.from_weights(t, weights)
        repeat_free = sum(Fraction(p) * (1 - Fraction(p)) ** (t - 1)
                          for p in dist.probs)
        assert basis_probability(dist) <= repeat_free
        assert repeat_free <= first_draw_bound(t)

