"""Extremal counts: basis-forming column subsets and partition maxima,
cross-checked by naive enumerations."""

import itertools
import time
from fractions import Fraction

import pytest

from hypercube_codes import extremal
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.extremal import (
    _max_basis_subsets,
    _search_size,
    basis_subset_bounds,
    list_size_bounds_table,
    max_basis_subsets,
    max_basis_subsets_any_k,
    max_partition_product_sum,
    partition_growth_check,
    product_partition_lower_bound,
)
from hypercube_codes.gf2 import GF2Matrix, count_nonsingular_submatrices
from oracles import independent_subsets, max_basis_subsets_naive, max_partition_product_sum_naive

# (k, d) -> maximum number of k-column subsets forming a basis
KNOWN_MAXIMA = {
    (1, 1): 1,
    (2, 4): 5,
    (2, 5): 8,
    (2, 6): 12,
    (2, 9): 27,
    (3, 6): 16,
    (3, 7): 28,
    (4, 7): 28,
    (4, 8): 56,
    (5, 8): 40,
}


def max_by_column_multisets(k, d):
    """Naive maximum over every multiset of d columns, zero included.

    Column order never changes the count, so multisets cover all
    matrices; this has no canonical-form shortcut in common with the
    searched implementation.
    """
    best = 0
    for cols in itertools.combinations_with_replacement(range(1 << k), d):
        value = count_nonsingular_submatrices(GF2Matrix(k, cols))
        if value > best:
            best = value
    return best


def partition_sum_by_enumeration(d):
    """Naive maximum of the one-part-omitted product sum."""

    def partitions(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in partitions(remaining - first, first):
                yield (first,) + rest

    best = 0
    for parts in partitions(d, d):
        for padded in (parts, parts + (0,)):
            if len(padded) < 2:
                continue
            total = 0
            for i in range(len(padded)):
                prod = 1
                for j, a in enumerate(padded):
                    if j != i:
                        prod *= a
                total += prod
            best = max(best, total)
    return best


def test_known_maxima_and_witnesses():
    for (k, d), value in KNOWN_MAXIMA.items():
        result = max_basis_subsets(k, d)
        assert result.value == value
        witness = result.witness
        assert witness.rows == k and witness.cols == d
        assert all(c != 0 for c in witness.columns)
        assert count_nonsingular_submatrices(witness) == value


def test_maximum_matches_multiset_enumeration():
    for k in (1, 2, 3):
        for d in range(k, 7):
            assert max_basis_subsets(k, d).value == max_by_column_multisets(k, d)


def test_symmetry_in_k():
    # complementing the column subset swaps k with d - k
    for d in range(2, 8):
        for k in range(1, d):
            assert max_basis_subsets(k, d).value \
                == max_basis_subsets(d - k, d).value


def test_input_validation_and_budget():
    with pytest.raises(ValueError):
        max_basis_subsets(0, 3)
    with pytest.raises(ValueError):
        max_basis_subsets(4, 3)
    with pytest.raises(OutOfRegimeError):
        max_basis_subsets(5, 10)


def test_block_search_matches_the_naive_search():
    # value and witness (the first maximizer) of every small search
    pairs = [(k, d) for d in range(1, 9) for k in range(1, d + 1)
             if _search_size(k, d) <= 2_000_000]
    assert len(pairs) == 36
    for k, d in pairs:
        assert _max_basis_subsets(k, d) == max_basis_subsets_naive(k, d)


def permuted(tail, perm):
    """The tail with row i of each vector moved to row perm[i], sorted."""
    return tuple(sorted(sum(((v >> i) & 1) << p for i, p in enumerate(perm)) for v in tail))


def test_walk_keeps_every_tail_least_in_its_orbit():
    # the cut drops exactly the tails a row transposition lowers: the
    # kept ones include every least member of an orbit under all k! row
    # permutations, come in lexicographic order, and carry the count of
    # bases among the identity and the tail
    for k in range(1, 5):
        transpositions = [tuple(b if i == a else a if i == b else i for i in range(k))
                          for a, b in itertools.combinations(range(k), 2)]
        for d in range(k, 9):
            tails = list(itertools.combinations_with_replacement(range(1, 1 << k), d - k))
            least = {t for t in tails
                     if all(permuted(t, p) >= t for p in itertools.permutations(range(k)))}
            unlowered = [t for t in tails if all(permuted(t, p) >= t for p in transpositions)]
            walked = list(extremal._orderly_tails(k, d - k))
            assert [t for t, _ in walked] == unlowered, (k, d)
            assert least <= set(unlowered)
            identity = [1 << i for i in range(k)]
            for tail, count in walked:
                assert count == sum(1 for _ in independent_subsets(identity + list(tail), k))
    # the cut is a real reduction: at (4, 8) 239 of 3,060 tails are walked,
    # above the 3,060 / 4! that a full orbit reduction could reach
    assert len(list(extremal._orderly_tails(4, 4))) == 239


def test_one_extra_column_searches_are_fast():
    # on (k, k + 1) a family has 1 + popcount(x) bases for its extra
    # column x, so the all-ones column wins; the walk keeps one tail per
    # weight instead of 2^k - 1
    start = time.process_time()
    for k in range(1, 20):
        result = _max_basis_subsets.__wrapped__(k, k + 1)
        assert result.value == k + 1
        assert result.witness.columns == (*GF2Matrix.identity(k).columns, (1 << k) - 1)
    assert time.process_time() - start < 1.0
    assert max_basis_subsets(19, 20) == result  # inside the default budget
    with pytest.raises(OutOfRegimeError):
        max_basis_subsets(20, 21)


def test_square_searches_are_answered_or_refused_at_once():
    # (k, k) has one candidate, the identity.  The search takes k < 64
    # and d <= 64 (MAX_BITS columns in a GF2Matrix): k = 64 and d = 65
    # are refused up front.
    start = time.perf_counter()
    result = max_basis_subsets(24, 24)
    bounds = basis_subset_bounds(24, 24)
    assert time.perf_counter() - start < 1.0
    assert result.value == 1 and result.witness == GF2Matrix.identity(24)
    assert bounds.monotone_upper == 1 and bounds.deletion_upper == 1
    assert max_basis_subsets(63, 63).value == 1
    for k, d in ((64, 64), (1, 65), (10**9, 10**9)):
        with pytest.raises(OutOfRegimeError):
            max_basis_subsets(k, d, work_budget=10**30)
    # bounds skip the sub-searches the regime refuses
    bounds = basis_subset_bounds(64, 64)
    assert bounds.monotone_upper is None and bounds.deletion_upper == 1


def test_equal_searches_are_run_once():
    assert max_basis_subsets(3, 6) is max_basis_subsets(3, 6)
    assert max_basis_subsets(3, 6) is max_basis_subsets(3, 6, work_budget=10**9)
    with pytest.raises(OutOfRegimeError):
        max_basis_subsets(3, 6, work_budget=1)


def test_bounds_example():
    bounds = basis_subset_bounds(2, 5)
    assert bounds.random_lower == 7
    assert bounds.monotone_upper == 8
    assert bounds.dense_upper == 8
    assert bounds.deletion_upper == 10


def test_bounds_bracket_the_maximum():
    for k in (1, 2, 3):
        for d in range(k, 8):
            value = max_basis_subsets(k, d).value
            bounds = basis_subset_bounds(k, d)
            assert bounds.random_lower <= value
            if bounds.monotone_upper is not None:
                assert value <= bounds.monotone_upper
            if bounds.dense_upper is not None:
                assert d >= k * k
                assert value <= bounds.dense_upper
            if bounds.deletion_upper is not None:
                assert value <= bounds.deletion_upper


def test_deletion_bound_is_tight_sometimes():
    # d * B(k-1, d-1) / k is attained at (3, 6) and (3, 7)
    assert max_basis_subsets(3, 6).value == 6 * max_basis_subsets(2, 5).value // 3
    assert max_basis_subsets(3, 7).value == 7 * max_basis_subsets(2, 6).value // 3


def test_best_shape_per_dimension(monkeypatch):
    expected = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (5, 2),
                5: (8, 2), 6: (16, 3), 7: (28, 3), 8: (56, 4), 9: (88, 4)}
    for d, (value, best_k) in expected.items():
        shape = max_basis_subsets_any_k(d)
        assert shape.value == value
        assert shape.best_k == best_k
    # d = 9 is inside the work budget at every k <= 4; the naive loop agrees
    naive = [max_basis_subsets_naive(k, 9).value for k in range(1, 5)]
    assert max(naive) == 88 and naive.index(88) + 1 == 4
    # (5, 10) has search size 81,807,264: d = 10 is refused before any search
    assert _search_size(5, 10) == 81_807_264 > extremal.DEFAULT_WORK_BUDGET

    def no_search(k, d, work_budget=None):
        raise AssertionError(f"searched ({k}, {d})")

    monkeypatch.setattr(extremal, "max_basis_subsets", no_search)
    with pytest.raises(OutOfRegimeError, match="k=5, d=10"):
        max_basis_subsets_any_k(10)
    assert extremal.construction_upper(10) is None
    assert extremal.construction_upper(0) is None


def test_modulus_four_still_respects_the_dimension_five_cap():
    # a five-dimensional subcube meets two weight classes four apart;
    # their worst-case contributions never beat the single-class record
    b = {k: max_basis_subsets(k, 5).value for k in (1, 4, 5)}
    cap = max_basis_subsets_any_k(5).value
    assert 1 + b[4] <= cap       # relative weights 0 and 4
    assert b[1] + b[5] <= cap    # relative weights 1 and 5
    assert cap == 8


def test_partition_maximum_values():
    expected = [1, 2, 3, 5, 8, 12, 20, 32, 48, 80]
    for d, value in enumerate(expected, start=1):
        assert max_partition_product_sum(d).value == value


def test_partition_maximum_matches_enumeration():
    for d in range(1, 13):
        assert max_partition_product_sum(d).value == partition_sum_by_enumeration(d)


def test_partition_search_matches_the_naive_walk():
    for d in range(1, 41):
        assert max_partition_product_sum(d) == max_partition_product_sum_naive(d)


def test_partition_maximum_at_the_largest_d_is_fast():
    start = time.perf_counter()
    result = max_partition_product_sum(60)
    assert time.perf_counter() - start < 1.0
    assert result.parts == (3,) * 20
    assert result.value == 23_245_229_340 == 20 * 3 ** 19


def test_partition_witnesses():
    for d in range(1, 16):
        result = max_partition_product_sum(d)
        parts = result.parts
        assert sum(parts) == d
        assert len(parts) >= 2
        assert all(a >= 0 for a in parts)
        assert list(parts) == sorted(parts, reverse=True)
        total = 0
        for i in range(len(parts)):
            prod = 1
            for j, a in enumerate(parts):
                if j != i:
                    prod *= a
            total += prod
        assert total == result.value


def test_partition_tie_break_prefers_larger_parts():
    # (2, 0) and (1, 1) both give 2; the report prefers (2, 0)
    assert max_partition_product_sum(2).parts == (2, 0)


def test_product_partition_lower_values():
    expected = [1, 2, 3, 5, 7, 10, 12, 18, 27, 37]
    for d, value in enumerate(expected, start=1):
        assert product_partition_lower_bound(d) == value


def test_product_partition_never_beats_partition_maximum():
    for d in range(1, 31):
        assert product_partition_lower_bound(d) \
            <= max_partition_product_sum(d).value


def test_bounds_table_rows():
    table = list_size_bounds_table(10)
    assert [row.d for row in table] == list(range(1, 11))
    by_d = {row.d: row for row in table}
    assert by_d[4].partition_sum_lower == 5
    assert by_d[4].construction_upper == 5
    assert by_d[5].partition_sum_lower == 8
    assert by_d[5].construction_upper == 8
    assert by_d[6].partition_sum_lower == 12
    assert by_d[6].construction_upper == 16
    assert by_d[10].product_partition_lower == 37
    assert by_d[10].partition_sum_lower == 80
    assert by_d[9].construction_upper == 88
    assert by_d[10].construction_upper is None
    for row in table:
        assert row.product_partition_lower <= row.partition_sum_lower \
            or row.d == 1
    # d_max is bounded by the partition maximum (d <= 60), not by the
    # search, which leaves construction_upper null past d = 9
    eleven = list_size_bounds_table(11)
    assert eleven[:10] == table
    assert eleven[10].d == 11 and eleven[10].construction_upper is None
    with pytest.raises(ValueError):
        list_size_bounds_table(61)


def test_growth_check_small():
    six = partition_growth_check(6)
    assert six.value == 12
    assert six.closed_form == Fraction(6)
    assert six.meets_closed_form
    assert six.all_threes_value == 6
    assert not six.all_threes_attains

    nine = partition_growth_check(9)
    assert nine.value == 48
    assert nine.closed_form == Fraction(27)
    assert nine.all_threes_value == 27
    assert not nine.all_threes_attains


def test_growth_check_deep():
    # the closed form d * 3^(d/3 - 2) is exceeded at d = 45, and the
    # all-threes partition is not the maximizer there
    deep = partition_growth_check(45)
    assert deep.value == 75_582_720
    assert deep.closed_form == 45 * Fraction(3) ** 13
    assert deep.meets_closed_form
    assert deep.all_threes_value == 45 * 3 ** 13
    assert not deep.all_threes_attains
    assert deep.value > deep.all_threes_value


def test_growth_check_validation():
    with pytest.raises(ValueError):
        partition_growth_check(5)
    with pytest.raises(ValueError):
        partition_growth_check(0)
