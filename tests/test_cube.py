"""Subcube enumeration, occupancy scans and the exact code search, all
checked against naive oracles."""

import collections
import contextlib
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hypercube_codes import cube
from hypercube_codes.codes import Code, weight_class_code
from hypercube_codes.cube import (
    Subcube,
    enumerate_subcubes,
    erasure_list_size,
    free_sets_colex,
    max_code_search,
    max_subcube_count,
    max_subcube_count_naive,
    subcube_at,
    subcube_count,
    subcube_total,
    verify_hitting,
)
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.gf2 import BitWord


def random_code(rng, n, size):
    words = rng.sample(range(1 << n), size)
    return Code(n, frozenset(words))


def test_subcube_validation():
    cube = Subcube(4, (1, 3), 0b0001)
    assert cube.dim == 2
    assert cube.free_mask == 0b1010
    with pytest.raises(ValueError):
        Subcube(4, (3, 1), 0)
    with pytest.raises(ValueError):
        Subcube(4, (1, 4), 0)
    with pytest.raises(ValueError):
        Subcube(4, (1,), 0b0010)  # base set on a free coordinate


def test_subcube_vertices_and_contains():
    cube = Subcube(4, (1, 3), 0b0001)
    assert list(cube.vertices()) == [0b0001, 0b0011, 0b1001, 0b1011]
    for w in range(16):
        assert cube.contains(w) == (w in set(cube.vertices()))


def test_free_sets_colex_order():
    assert list(free_sets_colex(4, 2)) \
        == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(free_sets_colex(3, 0)) == [()]
    assert len(list(free_sets_colex(8, 3))) == 56


def test_enumeration_counts():
    assert subcube_total(3, 1) == 12
    assert subcube_total(4, 2) == 24
    cubes = list(enumerate_subcubes(4, 2))
    assert len(cubes) == 24
    assert len(set(cubes)) == 24
    assert all(c.dim == 2 for c in cubes)
    with pytest.raises(ValueError):
        subcube_total(3, 4)


def test_enumeration_matches_unranking():
    for n, d in [(4, 2), (5, 1), (5, 3), (4, 0), (4, 4)]:
        for i, cube in enumerate(enumerate_subcubes(n, d)):
            assert subcube_at(n, d, i) == cube
        with pytest.raises(ValueError):
            subcube_at(n, d, subcube_total(n, d))


def test_enumeration_budget():
    with pytest.raises(OutOfRegimeError):
        list(enumerate_subcubes(10, 5, budget=10))


def test_subcube_count_trivials():
    code = Code(3, frozenset({0b000, 0b011, 0b111}))
    whole = Subcube(3, (0, 1, 2), 0)
    assert subcube_count(code, whole) == 3
    corner = Subcube(3, (), 0b100)
    assert subcube_count(code, corner) == 0
    with pytest.raises(ValueError):
        subcube_count(code, Subcube(4, (), 0))


def test_even_weight_code_meets_every_square_in_two_points():
    code = weight_class_code(4, 2, 0)
    for cube in enumerate_subcubes(4, 2):
        assert subcube_count(code, cube) == 2


def test_fast_scan_matches_naive_oracle():
    rng = random.Random(1234)
    for _ in range(12):
        n = rng.randint(5, 8)
        d = rng.randint(1, 3)
        code = random_code(rng, n, rng.randint(10, min(40, 1 << n)))
        report = max_subcube_count(code, d)
        naive_best, naive_witness = max_subcube_count_naive(code, d)
        assert report.max_count == naive_best
        assert report.witness == naive_witness
        assert sum(report.histogram.values()) == subcube_total(n, d)
        # every word lies in C(n, d) subcubes of dimension d
        weighted = sum(k * v for k, v in report.histogram.items())
        assert weighted == len(code) * len(list(free_sets_colex(n, d)))


def test_scan_budget_and_degenerate_dimensions():
    rng = random.Random(3)
    code = random_code(rng, 6, 10)
    with pytest.raises(OutOfRegimeError):
        max_subcube_count(code, 3, budget=100)
    whole = max_subcube_count(code, 6)
    assert whole.max_count == len(code)
    assert whole.witness == Subcube(6, tuple(range(6)), 0)
    points = max_subcube_count(code, 0)
    assert points.max_count == 1
    assert points.histogram == {0: 64 - 10, 1: 10}


def test_erasure_count_equals_subcube_count():
    # erasing coordinates of a codeword is the same as counting the
    # codewords of the subcube with those coordinates free
    rng = random.Random(2024)
    for _ in range(800):
        n = rng.randint(2, 8)
        code = random_code(rng, n, rng.randint(1, min(40, 1 << n)))
        word = rng.choice(sorted(code.words))
        d = rng.randint(0, min(3, n))
        erased = tuple(sorted(rng.sample(range(n), d)))
        mask = 0
        for c in erased:
            mask |= 1 << c
        cube = Subcube(n, erased, word & ~mask)
        direct = erasure_list_size(code, BitWord(word, n), erased)
        assert direct == subcube_count(code, cube)
        assert direct >= 1


def test_erasure_validation():
    code = Code(3, frozenset({0b000, 0b011}))
    with pytest.raises(ValueError):
        erasure_list_size(code, BitWord(0b111, 3), (0,))
    with pytest.raises(ValueError):
        erasure_list_size(code, BitWord(0, 3), (0, 0))
    with pytest.raises(ValueError):
        erasure_list_size(code, BitWord(0, 4), (0,))


def test_verify_hitting_exhaustive_three_cube():
    for bits in range(1 << 8):
        words = frozenset(w for w in range(8) if (bits >> w) & 1)
        code = Code(3, words)
        for d in (1, 2):
            report = verify_hitting(code, d)
            missed = [cube for cube in enumerate_subcubes(3, d)
                      if subcube_count(code, cube) == 0]
            assert report.hits_all == (not missed)
            if missed:
                assert report.missed == missed[0]
            else:
                assert report.missed is None


def test_verify_hitting_dimension_zero():
    full = Code(2, frozenset(range(4)))
    assert verify_hitting(full, 0).hits_all
    missing = Code(2, frozenset({0, 1, 3}))
    report = verify_hitting(missing, 0)
    assert not report.hits_all
    assert report.missed == Subcube(2, (), 2)


def test_max_code_small_values():
    # ceil(2^(n+1) / 3) words fit with three per square
    for n, value in [(2, 3), (3, 6), (4, 11)]:
        result = max_code_search(n, 2, 3)
        assert result.certified
        assert result.max_size == value
        assert value == -(-(1 << (n + 1)) // 3)
        assert len(result.witness) == value
        assert max_subcube_count(result.witness, 2).max_count <= 3


def test_max_code_full_cube_shortcut():
    result = max_code_search(3, 2, 4)
    assert result.certified
    assert result.max_size == 8
    result2 = max_code_search(4, 1, 2)
    assert result2.max_size == 16


def test_max_code_five_dimensional_branch_and_bound():
    result = max_code_search(5, 2, 3)
    assert result.certified
    assert result.max_size == 22
    assert max_subcube_count(result.witness, 2).max_count <= 3


def test_max_code_budget_degrades_to_uncertified():
    result = max_code_search(5, 2, 3, node_budget=50)
    assert not result.certified
    assert result.max_size <= 22
    assert max_subcube_count(result.witness, 2).max_count <= 3
    # a budget spent before the first leaf (33 nodes at n = 5) leaves the
    # empty code, which every limit admits
    for budget in (0, 1, 32):
        early = max_code_search(5, 3, 6, node_budget=budget)
        assert (early.max_size, early.witness.words, early.certified) \
            == (0, frozenset(), False)


@pytest.mark.parametrize("n, d, list_size, budget, size, words, certified", [
    (4, 2, 3, 2_000_000, 11, [0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 14], True),
    (5, 2, 3, 2_000_000, 22, [0, 1, 2, 4, 7, 9, 10, 11, 12, 13, 14, 17, 18,
                              19, 20, 21, 22, 24, 27, 29, 30, 31], True),
    (5, 3, 6, 2_000_000, 24, [0, 1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 15, 17, 18,
                              20, 21, 22, 23, 24, 25, 26, 27, 29, 30], True),
    (5, 2, 3, 50, 21, [0, 1, 2, 4, 7, 8, 11, 13, 14, 15, 16, 19, 21, 22, 23,
                       25, 26, 27, 28, 29, 30], False),
])
def test_max_code_witnesses_are_pinned(n, d, list_size, budget, size, words,
                                       certified):
    # the first witness in search order; the benchmark gate checks (5, 3, 6)
    result = max_code_search(n, d, list_size, node_budget=budget)
    assert (result.max_size, sorted(result.witness.words), result.certified) \
        == (size, words, certified)


def test_max_code_complement_hits_every_square():
    # at most three of the four vertices of any square are in the code,
    # so the complement meets every square
    result = max_code_search(4, 2, 3)
    complement = Code(4, frozenset(range(16)) - result.witness.words)
    assert len(complement) == 5
    assert verify_hitting(complement, 2).hits_all


def test_max_code_validation():
    with pytest.raises(ValueError):
        max_code_search(0, 0, 1)
    with pytest.raises(ValueError):
        max_code_search(3, 4, 1)
    with pytest.raises(OutOfRegimeError):
        max_code_search(6, 2, 3)


@contextlib.contextmanager
def bucket_path():
    """Force the bucket scan, which otherwise runs only for n > MAX_N."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "MAX_N", -1)
        yield


def first_missed(code, d):
    return next((c for c in enumerate_subcubes(code.n, d)
                 if subcube_count(code, c) == 0), None)


@st.composite
def codes_with_dimension(draw):
    n = draw(st.integers(0, 9))
    d = draw(st.integers(0, n))
    words = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=24))
    kind = draw(st.sampled_from(["sparse", "co-sparse", "empty", "full"]))
    if kind == "co-sparse":
        words = frozenset(range(1 << n)) - words
    elif kind != "sparse":
        words = frozenset(range(1 << n)) if kind == "full" else frozenset()
    return Code(n, words), d


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(codes_with_dimension())
def test_dense_walk_bucket_scan_and_naive_oracle_agree(case):
    code, d = case
    dense = max_subcube_count(code, d)
    dense_hit = verify_hitting(code, d)
    with bucket_path():
        bucket = max_subcube_count(code, d)
        bucket_hit = verify_hitting(code, d)
    assert dense == bucket
    assert (dense.max_count, dense.witness) == max_subcube_count_naive(code, d)
    missed = first_missed(code, d)
    assert dense_hit == bucket_hit
    assert dense_hit.missed == missed
    assert dense_hit.hits_all == (missed is None)


@pytest.mark.parametrize("full", [False, True], ids=["empty", "full"])
def test_empty_and_full_codes_at_every_dimension(full):
    for n in range(10):
        code = Code(n, frozenset(range(1 << n)) if full else frozenset())
        for d in range(n + 1):
            count = 1 << d if full else 0
            first = Subcube(n, tuple(range(d)), 0)
            reports = [max_subcube_count(code, d), verify_hitting(code, d)]
            with bucket_path():
                reports += [max_subcube_count(code, d), verify_hitting(code, d)]
            scan, hit = reports[0], reports[1]
            assert reports[2:] == [scan, hit]
            assert scan.max_count == count
            assert scan.witness == first
            assert scan.histogram == {count: subcube_total(n, d)}
            assert hit.hits_all == full
            assert hit.missed == (None if full else first)


def test_counts_past_a_byte():
    # 256 words per 8-subcube would wrap to 0 in a uint8 table
    report = max_subcube_count(Code(9, frozenset(range(1 << 9))), 8)
    assert report.max_count == 256
    assert report.histogram == {256: 18}
    assert report.witness == Subcube(9, tuple(range(8)), 0)


def test_histogram_holds_python_ints():
    rng = random.Random(5)
    report = max_subcube_count(random_code(rng, 10, 300), 4)
    assert all(type(k) is int and type(v) is int
               for k, v in report.histogram.items())
    assert json.loads(json.dumps(report.histogram)) \
        == {str(k): v for k, v in report.histogram.items()}


def test_long_codes_take_the_bucket_path(monkeypatch):
    def no_dense_tables(code, d):
        raise AssertionError("dense tables for a 40-bit code")

    monkeypatch.setattr(cube, "_dense_tables", no_dense_tables)
    words = frozenset({0, 1 << 39, (1 << 40) - 1, 0x5A5A5A5A5A})
    code = Code(40, words)
    report = max_subcube_count(code, 39)
    assert (report.max_count, report.witness) == max_subcube_count_naive(code, 39)
    assert sum(report.histogram.values()) == subcube_total(40, 39)
    hit = verify_hitting(code, 39)
    assert hit.missed == first_missed(code, 39)


@pytest.mark.parametrize("d", [62, 63])
def test_top_bit_of_64_bit_words(d):
    # 2^64 - 1 and 2^63 need every bit of the uint64 word array
    rng = random.Random(d)
    words = {0, 1 << 63, (1 << 64) - 1} | {rng.getrandbits(64) for _ in range(5)}
    code = Code(64, frozenset(words))
    report = max_subcube_count(code, d)
    assert (report.max_count, report.witness) == max_subcube_count_naive(code, d)
    assert report.histogram == collections.Counter(
        subcube_count(code, c) for c in enumerate_subcubes(64, d))
    hit = verify_hitting(code, d)
    assert hit.missed == first_missed(code, d)
    assert hit.hits_all == (hit.missed is None)


@pytest.mark.parametrize("n, d, budget", [
    (25, 0, cube.DEFAULT_SCAN_BUDGET),  # 2^25 subcubes, within the budget
    (40, 5, 10**17),  # C(40, 5) * 2^35 ~ 2.3e16 subcubes
])
def test_tables_past_max_n_fixed_coordinates_are_refused(n, d, budget):
    # a count table has 2^(n - d) entries; over 2^24 the scans refuse at once
    code = Code(n, frozenset({0, 1 << (n - 1), (1 << n) - 1}))
    for scan in (max_subcube_count, verify_hitting):
        start = time.perf_counter()
        with pytest.raises(OutOfRegimeError, match=f"2\\^{n - d} entries"):
            scan(code, d, budget=budget)
        assert time.perf_counter() - start < 1


def test_max_code_search_rejects_a_negative_budget():
    # n <= 4 never spends the budget, but a negative one is still an error
    for n in (4, 5):
        with pytest.raises(ValueError, match="node_budget"):
            max_code_search(n, 2, 3, node_budget=-7)
