"""Subcube enumeration, occupancy scans and the exact code search, all
checked against naive oracles."""

import contextlib
import itertools
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hypercube_codes import cube, geometry
from hypercube_codes.codes import (
    Code,
    best_residue_subcode,
    build_layer_vectors,
    layered_basis_code,
    subcube_hitting_set,
    weight_class_code,
)
from hypercube_codes.cube import (
    HittingReport,
    max_subcube_count,
    subcube_count,
    verify_hitting,
)
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.extremal import max_code_search
from hypercube_codes.geometry import (
    Subcube,
    enumerate_subcubes,
    free_sets_colex,
    subcube_total,
)
from hypercube_codes.gf2 import BitWord
from oracles import (_max_code_exhaustive, erasure_list_size, max_subcube_count_naive,
                     subcube_histogram, verify_hitting_tables)


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


def _colex_reference(n, d):
    """Colex order by recursion on the top element."""
    if d == 0:
        yield ()
        return
    for top in range(d - 1, n):
        for rest in _colex_reference(top, d - 1):
            yield rest + (top,)


def test_free_sets_colex_matches_the_recursive_order():
    for n in range(11):
        for d in range(n + 2):
            assert list(free_sets_colex(n, d)) == list(_colex_reference(n, d))


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
    # the numpy scans name their witness by its index in the enumeration
    for n, d in [(4, 2), (5, 1), (5, 3), (4, 0), (4, 4)]:
        per_free = 1 << (n - d)
        for i, cube in enumerate(enumerate_subcubes(n, d)):
            free = geometry._colex_unrank(i // per_free, d)
            assert geometry._leaf_subcube(n, free, i % per_free) == cube


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
        naive_best, naive_witness = max_subcube_count_naive(code, d)
        at_max = subcube_histogram(code, d)[naive_best]
        # 64 and 2^10 entries split the dense scan into blocks, and the
        # bucket scan has one table per block: the count at the maximum
        # sums every block reaching it, each once
        for scan_path in [lambda: block_entries(64), lambda: block_entries(1 << 10),
                          contextlib.nullcontext, bucket_path]:
            with scan_path():
                report = max_subcube_count(code, d)
                blocks = [block for _, block in cube._count_tables(
                    code, d, geometry.DEFAULT_SCAN_BUDGET)]
            assert report.max_count == naive_best
            assert report.witness == naive_witness
            assert report.subcubes_at_max == at_max
            assert sum(block.size for block in blocks) == subcube_total(n, d)
            # every word lies in C(n, d) subcubes of dimension d
            assert sum(int(block.sum()) for block in blocks) \
                == len(code) * len(list(free_sets_colex(n, d)))


def test_scan_budget_and_degenerate_dimensions():
    rng = random.Random(3)
    code = random_code(rng, 6, 10)
    with pytest.raises(OutOfRegimeError):
        max_subcube_count(code, 3, budget=100)
    whole = max_subcube_count(code, 6)
    assert whole.max_count == len(code)
    assert whole.witness == Subcube(6, tuple(range(6)), 0)
    assert whole.subcubes_at_max == 1
    points = max_subcube_count(code, 0)
    assert points.max_count == 1
    assert points.subcubes_at_max == 10
    assert subcube_histogram(code, 0) == {0: 64 - 10, 1: 10}


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


def test_array_counts_match_set_counts_and_cache_no_word_set():
    rng = random.Random(11)
    top = [0, 5, 1 << 63, (1 << 64) - 1, (1 << 63) | 6]
    codes = [Code(n, rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))))
             for n in (3, 6, 9, 12)] + [Code(64, top)]
    for code in codes:
        n = code.n
        words = set(code.array.tolist())
        for _ in range(40):
            word = rng.choice(sorted(words))
            erased = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 5)))))
            keep = ((1 << n) - 1) ^ sum(1 << c for c in erased)
            expected = sum(1 for w in words if w & keep == word & keep)
            assert erasure_list_size(code, BitWord(word, n), erased) == expected
            base = word & keep
            assert subcube_count(code, Subcube(n, erased, base)) == expected
        outside = next(w for w in (1, 2, 3, (1 << n) - 2) if w not in words)
        with pytest.raises(ValueError, match="not a codeword"):
            erasure_list_size(code, BitWord(outside, n), ())
        assert "words" not in vars(code)


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


def entrywise_pairs(table, m, c):
    """cube._and_pairs one entry at a time."""
    low = (x for x in range(1 << m) if not x >> c & 1)
    return sum((table >> x & table >> (x | 1 << c) & 1) << j for j, x in enumerate(low))


def test_byte_pairing_matches_the_entrywise_pairing():
    # every branch: translate tables (c < 3), whole items (3 <= c <= 6),
    # strided copies and joined blocks (c >= 7), and the cut top bit
    rng = random.Random(29)
    for m in range(4, 13):
        for c in range(m):
            for table in (rng.getrandbits(1 << m), (1 << (1 << m)) - 1,
                          1 << rng.randrange(1 << m), 0):
                assert cube._and_pairs(table, m, c) == entrywise_pairs(table, m, c)


BITS = pytest.mark.parametrize("bits", [cube._FLAT_BITS, 4], ids=["in-place", "bytes"])


@BITS
def test_weight_classes_mod_d_plus_one_meet_every_d_subcube(bits):
    # a d-subcube holds d + 1 consecutive weights, so every class mod d + 1;
    # mod d + 2 the subcube of weights r + 1 .. r + d + 1 misses class r
    rng = random.Random(31)
    with flat_bits(bits):
        for n in range(1, 13):
            for d in range(n + 1):
                code = weight_class_code(n, d + 1, rng.randrange(d + 1))
                assert verify_hitting(code, d) == HittingReport(True, None)
                code = weight_class_code(n, d + 2, rng.randrange(d + 2))
                assert verify_hitting(code, d) == verify_hitting_tables(code, d)
        for n, d in [(16, 5), (16, 9)]:
            assert verify_hitting(weight_class_code(n, d + 1, 0), d).hits_all


@BITS
def test_hitting_sets_agree_with_the_count_tables(bits):
    rng = random.Random(37)
    with flat_bits(bits):
        for n in range(1, 17):
            code = subcube_hitting_set(n, rng.randrange(4), seed=rng.randrange(100)).code
            for d in rng.sample(range(n + 1), min(n + 1, 3)):
                assert verify_hitting(code, d) == verify_hitting_tables(code, d)


@BITS
def test_a_miss_only_in_the_last_free_set_is_found(bits):
    # the complement is one subcube on the top d coordinates, the last free
    # set in colex order, and no other d-subcube fits inside it
    rng = random.Random(41)
    with flat_bits(bits):
        for n in range(1, 13):
            for d in range(n + 1):
                hole = Subcube(n, tuple(range(n - d, n)), rng.randrange(1 << (n - d)))
                code = Code(n, frozenset(range(1 << n)) - frozenset(hole.vertices()))
                assert verify_hitting(code, d) == HittingReport(False, hole)


def test_dimension_zero_finds_the_least_absent_word_and_past_n_is_refused():
    rng = random.Random(43)
    for n in range(10):
        words = frozenset(w for w in range(1 << n) if rng.random() < 0.9)
        absent = sorted(frozenset(range(1 << n)) - words)
        missed = Subcube(n, (), absent[0]) if absent else None
        assert verify_hitting(Code(n, words), 0) == HittingReport(not absent, missed)
        for d in (n + 1, -1):
            with pytest.raises(ValueError, match="0 <= d <= n"):
                verify_hitting(Code(n, words), d)
    with pytest.raises(ValueError, match="0 <= d <= n"):  # the count tables' path
        verify_hitting(Code(30, {0, 5}), 31)


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
    (4, 2, 3, 2_000_000, 11, [0, 1, 2, 4, 7, 9, 10, 11, 12, 13, 14], True),
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


@pytest.mark.parametrize("n, d, list_size", [
    (n, d, list_size) for n in range(1, 5) for d in range(n + 1)
    for list_size in range(1, 1 << d)])
def test_the_branch_and_bound_matches_the_exhaustive_search(n, d, list_size):
    # all 42 cases below the whole-cube shortcut at n <= 4
    result = max_code_search(n, d, list_size)
    assert result.max_size == _max_code_exhaustive(n, d, list_size).max_size
    assert result.certified
    assert len(result.words) == result.max_size
    assert max_subcube_count(result.witness, d).max_count <= list_size


def test_the_node_budget_counts_below_n_5():
    empty = max_code_search(4, 2, 3, node_budget=0)
    assert (empty.max_size, empty.words, empty.certified) == (0, (), False)


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


@pytest.mark.parametrize("n", [geometry.MAX_N + 1, 27, 64])
def test_max_code_refuses_the_whole_cube_past_max_n(n):
    # list_size >= 2^d admits every word: 2^n of them, refused before any
    # is listed (n = 27 once ended in a MemoryError)
    start = time.process_time()
    with pytest.raises(OutOfRegimeError, match=f"n <= {geometry.MAX_N}"):
        max_code_search(n, 1, 2)
    assert time.process_time() - start < 0.5


def test_max_code_counts_the_whole_cube_against_the_node_budget():
    # list_size >= 2^d admits all 2^n words, each a node of the budget
    whole = max_code_search(4, 1, 2, node_budget=16)
    assert (whole.max_size, whole.words, whole.certified) == (16, tuple(range(16)), True)
    with pytest.raises(OutOfRegimeError, match="node budget 15"):
        max_code_search(4, 1, 2, node_budget=15)
    # past the default 2,000,000 nodes from n = 21 (n = 20 once took 1.9 s
    # and 267 MB as a CLI process; n = 24 would need about 4 GB)
    for n in (21, geometry.MAX_N):
        start = time.process_time()
        with pytest.raises(OutOfRegimeError, match="node budget 2000000"):
            max_code_search(n, 2, 4)
        assert time.process_time() - start < 0.5


def test_max_code_result_keeps_sorted_words_and_builds_the_witness():
    for n, d, list_size in [(3, 3, 8), (4, 2, 3), (5, 3, 6), (5, 2, 3)]:
        result = max_code_search(n, d, list_size)
        assert list(result.words) == sorted(set(result.words))
        assert len(result.words) == result.max_size
        assert result.witness == Code(n, result.words)
        assert result.witness is result.witness  # built once


@contextlib.contextmanager
def bucket_path():
    """Force the bucket scan, which otherwise runs only for n > MAX_N."""
    with numpy_path(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "MAX_N", -1)
        yield


@contextlib.contextmanager
def numpy_path():
    """Scan every code with numpy, which otherwise runs only for
    n > _BYTE_SCAN_N or d > _BYTE_SCAN_D."""
    def no_byte_scan(code, d):
        raise AssertionError("the byte walk ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "_BYTE_SCAN_N", -1)
        mp.setattr(cube, "_byte_scan", no_byte_scan)
        yield


@contextlib.contextmanager
def byte_path():
    """Scan every code with d <= _BYTE_SCAN_D by the byte walk."""
    def no_count_tables(code, d, budget):
        raise AssertionError("a numpy scan ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "_BYTE_SCAN_N", geometry.MAX_BITS)
        mp.setattr(cube, "_count_tables", no_count_tables)
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
    scans_agree_with_the_oracles(*case)


@pytest.mark.parametrize("entries", [1, 48], ids=["one-table", "split-level"])
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=codes_with_dimension())
def test_block_budgets_agree_with_the_oracles(entries, case):
    # 1: every block is one table, as in a walk without stacking; 48
    # stacks some subtrees and splits the others, level 1 included
    with block_entries(entries):
        scans_agree_with_the_oracles(*case)


@contextlib.contextmanager
def block_entries(entries):
    """Stack at most `entries` entries per block level of the numpy walk,
    which then scans every code."""
    with numpy_path(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "_BLOCK_ENTRIES", entries)
        yield


@contextlib.contextmanager
def flat_bits(bits):
    """Pair the truth tables of more than 2^bits bits as bytes, which
    otherwise only tables past 2^14 bits are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "_FLAT_BITS", bits)
        yield


def scans_agree_with_the_oracles(code, d):
    dense = max_subcube_count(code, d)
    with numpy_path():
        assert max_subcube_count(code, d) == dense
    hit = verify_hitting(code, d)
    dense_hit = verify_hitting_tables(code, d)
    with flat_bits(4):
        bytes_hit = verify_hitting(code, d)
    with bucket_path():
        bucket = max_subcube_count(code, d)
        bucket_hit = verify_hitting_tables(code, d)
    assert dense == bucket
    assert (dense.max_count, dense.witness) == max_subcube_count_naive(code, d)
    missed = first_missed(code, d)
    assert hit == bytes_hit == dense_hit == bucket_hit
    assert hit.missed == missed
    assert hit.hits_all == (missed is None)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(codes_with_dimension())
def test_byte_walk_numpy_walk_and_naive_scan_agree(case):
    code, d = case
    with numpy_path():
        report = max_subcube_count(code, d)
    best, witness = max_subcube_count_naive(code, d)
    assert (report.max_count, report.witness) == (best, witness)
    assert report.subcubes_at_max == subcube_histogram(code, d)[best]
    if d <= cube._BYTE_SCAN_D:
        with byte_path():
            assert max_subcube_count(code, d) == report


@pytest.mark.parametrize("d", range(cube._BYTE_SCAN_D + 1))
@pytest.mark.parametrize("n", [cube._BYTE_SCAN_N, cube._BYTE_SCAN_N + 1],
                         ids=["largest-byte", "smallest-numpy"])
def test_both_paths_agree_on_each_side_of_the_selection(n, d):
    rng = random.Random(100 * n + d)
    code = random_code(rng, n, rng.randint(1, 1 << (n - 1)))
    with byte_path():
        report = max_subcube_count(code, d)
    with numpy_path():
        assert max_subcube_count(code, d) == report
    assert max_subcube_count(code, d) == report


def clustered_code(rng, n, size):
    """size words, most of them inside one random 7-subcube, so that some
    erasures leave lists longer than 1."""
    free = rng.sample(range(n), min(n, 7))
    base = rng.getrandbits(n) & ~sum(1 << c for c in free)
    words = {base | sum(1 << c for c in free if rng.random() < 0.5)
             for _ in range(size)}
    words.update(rng.getrandbits(n) for _ in range(size // 4))
    return Code(n, words)


@pytest.mark.parametrize("n, d, side", [
    (9, 0, "byte"), (11, 6, "byte"), (15, 2, "byte"),
    (16, 2, "numpy"), (10, 7, "numpy"), (12, 9, "numpy")])
def test_the_scan_maximum_is_the_largest_erasure_list(n, d, side):
    # the paper's definition: erase d coordinates of a codeword and count
    # the codewords that agree with it on the rest, maximized over both
    assert (n <= cube._BYTE_SCAN_N and d <= cube._BYTE_SCAN_D) == (side == "byte")
    rng = random.Random(10 * n + d)
    code = clustered_code(rng, n, 40)
    largest = max(erasure_list_size(code, BitWord(word, n), erased)
                  for word in code.array.tolist()
                  for erased in itertools.combinations(range(n), d))
    assert max_subcube_count(code, d).max_count == largest
    assert largest == 1 if d == 0 else largest > 1  # the cluster's lists


def test_a_full_code_brings_the_byte_counters_to_the_guard_bit():
    # 2^6 words in every 6-subcube: each counter reaches 64, and the
    # guard bit 128 only with the bias 128 - 64 added
    d = cube._BYTE_SCAN_D
    n = d + 3
    with byte_path():
        report = max_subcube_count(Code(n, range(1 << n)), d)
    assert report == cube.VerificationReport(
        d, 1 << d, Subcube(n, tuple(range(d)), 0), subcube_total(n, d))


@pytest.mark.parametrize("full", [False, True], ids=["empty", "full"])
def test_empty_and_full_codes_at_every_dimension(full):
    for n in range(10):
        code = Code(n, frozenset(range(1 << n)) if full else frozenset())
        for d in range(n + 1):
            count = 1 << d if full else 0
            first = Subcube(n, tuple(range(d)), 0)
            reports = [max_subcube_count(code, d), verify_hitting(code, d)]
            with bucket_path():
                reports += [max_subcube_count(code, d), verify_hitting_tables(code, d)]
            with numpy_path():
                reports += [max_subcube_count(code, d), verify_hitting(code, d)]
            scan, hit = reports[0], reports[1]
            assert reports[2:] == [scan, hit] * 2
            assert scan.max_count == count
            assert scan.witness == first
            assert scan.subcubes_at_max == subcube_total(n, d)
            assert hit.hits_all == full
            assert hit.missed == (None if full else first)


def test_counts_past_a_byte():
    # 256 words per 8-subcube would wrap to 0 in a uint8 table
    report = max_subcube_count(Code(9, frozenset(range(1 << 9))), 8)
    assert report.max_count == 256
    assert report.subcubes_at_max == 18
    assert report.witness == Subcube(9, tuple(range(8)), 0)


def test_subcubes_at_max_is_a_python_int():
    rng = random.Random(5)
    code = random_code(rng, 10, 300)
    report = max_subcube_count(code, 4)
    assert type(report.subcubes_at_max) is int
    assert json.loads(json.dumps(report.subcubes_at_max)) == report.subcubes_at_max \
        == subcube_histogram(code, 4)[report.max_count]


def test_long_codes_take_the_bucket_path(monkeypatch):
    def no_dense_tables(code, d):
        raise AssertionError("dense tables for a 40-bit code")

    monkeypatch.setattr(cube, "_dense_tables", no_dense_tables)
    words = frozenset({0, 1 << 39, (1 << 40) - 1, 0x5A5A5A5A5A})
    code = Code(40, words)
    report = max_subcube_count(code, 39)
    assert (report.max_count, report.witness) == max_subcube_count_naive(code, 39)
    assert report.subcubes_at_max == subcube_histogram(code, 39)[report.max_count]
    assert sum(block.size for _, block in cube._count_tables(
        code, 39, geometry.DEFAULT_SCAN_BUDGET)) == subcube_total(40, 39)
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
    assert report.subcubes_at_max == subcube_histogram(code, d)[report.max_count]
    hit = verify_hitting(code, d)
    assert hit.missed == first_missed(code, d)
    assert hit.hits_all == (hit.missed is None)


@pytest.mark.parametrize("n, d, budget", [
    (25, 0, geometry.DEFAULT_SCAN_BUDGET),  # 2^25 subcubes, within the budget
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
    for n in (4, 5):
        with pytest.raises(ValueError, match="node_budget"):
            max_code_search(n, 2, 3, node_budget=-7)


@pytest.mark.parametrize("entries", [1, 8, 64, 1 << 10, cube._BLOCK_ENTRIES])
def test_blocks_are_consecutive_colex_ranges_of_the_bucket_tables(entries):
    rng = random.Random(entries)
    for n, d in [(1, 0), (1, 1), (6, 2), (7, 3), (8, 8), (9, 4), (10, 1), (10, 7)]:
        code = random_code(rng, n, rng.randint(1, 1 << (n - 1)))
        expected = dict(cube._bucket_tables(code, d))
        with block_entries(entries):
            blocks = list(cube._dense_tables(code, d))
        # consecutive ranges from rank 0, each free set once, in order
        starts = [0] + [first + len(block) for first, block in blocks]
        assert [first for first, _ in blocks] == starts[:-1]
        assert starts[-1] == len(expected) == math.comb(n, d)
        for first, block in blocks:
            assert block.flags.c_contiguous and block.shape[1] == 1 << (n - d)
            for i, row in enumerate(block):
                assert row.tolist() == expected[first + i].ravel().tolist()


# with 64-entry blocks the 2-subcubes of the 6-cube come in the colex
# ranges [0], [1, 2], [3, 4, 5], [6, 7, 8, 9] and then one free set each
TIE_SQUARES = [49, 51, 57, 59,  # free (1, 3), pattern 13 at position 11
               52, 54, 60, 62,  # free (1, 3), pattern 14 at position 7
               6, 7, 22, 23]    # free (0, 4), in the next block


def test_a_tie_across_blocks_keeps_the_first_block_and_least_base():
    code = Code(6, TIE_SQUARES)
    with block_entries(64):
        assert [first for first, block in cube._dense_tables(code, 2)
                if block.max() == 4] == [3, 6]
        report = max_subcube_count(code, 2)
    # the least base, not the least table position, of the first block
    assert (report.max_count, report.witness) == (4, Subcube(6, (1, 3), 49))
    assert report.subcubes_at_max == 3 == subcube_histogram(code, 2)[4]
    assert (report.max_count, report.witness) == max_subcube_count_naive(code, 2)


def test_a_miss_inside_a_later_block_is_the_first_missed_subcube():
    code = Code(6, frozenset(range(64)) - frozenset(TIE_SQUARES[:8]))
    with block_entries(64):
        assert [first for first, block in cube._dense_tables(code, 2)
                if not block.all()] == [3]
        report = verify_hitting_tables(code, 2)
    assert report == verify_hitting(code, 2)
    assert report.missed == first_missed(code, 2) == Subcube(6, (1, 3), 49)


def test_counts_past_two_bytes():
    # 65,536 words per 16-subcube would wrap to 0 in a uint16 table
    full = Code(17, range(1 << 17))
    report = max_subcube_count(full, 16)
    assert report.max_count == 1 << 16
    assert report.subcubes_at_max == 34
    assert report.witness == Subcube(17, tuple(range(16)), 0)
    assert verify_hitting(full, 16).hits_all


@pytest.mark.parametrize("scan", [max_subcube_count, verify_hitting])
def test_scan_memory_is_the_path_tables_plus_two_block_levels(scan):
    # path tables hold 2^(n+1) bytes at most and a block level at most
    # _BLOCK_ENTRIES entries of 4 bytes; bounding only the leaves of a
    # block let the middle levels reach 1.5 MB in this case
    code = random_code(random.Random(18), 18, 1000)
    tracemalloc.start()
    try:
        scan(code, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 19) + 8 * cube._BLOCK_ENTRIES + (1 << 16)


def pattern(cube):
    return "".join("*" if i in cube.free else str(cube.base >> i & 1)
                   for i in range(cube.n))


@pytest.mark.parametrize("n, seed, modulus, expected", [
    (15, 0, 6, (8, 197_336, "*****1111000000")),
    (15, 1, 6, (8, 159_226, "*****1111000100")),
    (13, 0, None, (28, 1, "10**0*0*001*1")),
])
def test_scan_workload_reports_are_pinned(n, seed, modulus, expected):
    # the benchmark's build-verify jobs at d = 5
    code = layered_basis_code(build_layer_vectors(n, seed=seed))
    if modulus:
        code = best_residue_subcode(code, modulus).code
    report = max_subcube_count(code, 5)
    assert (report.max_count, report.subcubes_at_max,
            pattern(report.witness)) == expected
