"""Packed GF(2) linear algebra checked against slow reference code."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercube_codes import codes, geometry, gf2
from hypercube_codes.codes import Code
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.gf2 import (
    BitWord,
    GF2Matrix,
    code_from_parity_check,
    count_nonsingular_submatrices,
    independent_masks,
    min_distance,
    plotkin_bound,
    rank,
    rank_ints,
)
from oracles import independent_masks_numpy, independent_subsets, table_masks


def det_mod2(rows):
    """Cofactor expansion on a list-of-lists 0/1 matrix, reduced mod 2.

    Deliberately ignorant of the packed representation so it can serve
    as an independent oracle for rank-based counting.
    """
    k = len(rows)
    if k == 1:
        return rows[0][0] & 1
    total = 0
    for j in range(k):
        if rows[0][j] & 1:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total ^= det_mod2(minor)
    return total


def count_by_determinant(matrix):
    k = matrix.rows
    hit = 0
    for positions in itertools.combinations(range(matrix.cols), k):
        rows = [[(matrix.columns[j] >> i) & 1 for j in positions]
                for i in range(k)]
        hit += det_mod2(rows)
    return hit


def test_bitword_round_trip():
    w = BitWord.from01("10110")
    assert w.n == 5
    # leftmost character is coordinate 1, stored in bit 0
    assert w.bits == 0b01101
    assert w.to01() == "10110"
    assert w.weight() == 3
    assert w.support() == (0, 2, 3)
    assert w.get(0) == 1
    assert w.get(1) == 0


def test_bitword_xor_and_validation():
    a = BitWord.from01("1100")
    b = BitWord.from01("1010")
    assert (a ^ b).to01() == "0110"
    with pytest.raises(ValueError):
        BitWord.from01("10x1")
    with pytest.raises(ValueError):
        a ^ BitWord.from01("111")
    with pytest.raises(ValueError):
        BitWord(8, 3)


def test_rank_examples():
    assert rank_ints([]) == 0
    assert rank_ints([0]) == 0
    assert rank_ints([1, 2, 3]) == 2
    assert rank_ints([1, 2, 4, 7]) == 3
    assert rank_ints([5, 5, 5]) == 1
    assert rank_ints(1 << i for i in range(10)) == 10


def test_rank_equals_transpose_rank():
    rng = random.Random(20240811)
    for _ in range(2000):
        k = rng.randint(1, 6)
        d = rng.randint(1, 8)
        m = GF2Matrix(k, tuple(rng.randrange(1 << k) for _ in range(d)))
        assert rank(m) == rank(m.transpose())


def test_matrix_round_trips():
    m = GF2Matrix.from_columns(2, [1, 2, 3])
    assert m.cols == 3
    assert m.rows_as_ints() == [0b101, 0b110]
    assert m.transpose().transpose() == m
    assert GF2Matrix.from_rows(3, m.rows_as_ints()) == m
    assert [w.to01() for w in m.column_words()] == ["10", "01", "11"]


@st.composite
def vector_lists(draw):
    """Up to 10 vectors of up to 24 bits: free draws, draws from a small
    pool with zero in it (so zeros and repeats are common), or all equal."""
    width = draw(st.integers(1, 24))
    value = st.integers(0, (1 << width) - 1)
    length = draw(st.integers(0, 10))
    shape = draw(st.sampled_from(["free", "pool", "equal"]))
    if shape == "equal":
        return [draw(value)] * length
    if shape == "pool":
        value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=3)) + [0])
    return draw(st.lists(value, min_size=length, max_size=length))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(vector_lists())
def test_independent_subsets_match_rank_oracle(vectors):
    # r from 0 through len(vectors) + 1
    for r in range(len(vectors) + 2):
        want = [s for s in itertools.combinations(range(len(vectors)), r)
                if rank_ints(vectors[i] for i in s) == r]
        assert list(independent_subsets(vectors, r)) == want
    with pytest.raises(ValueError):
        list(independent_subsets(vectors, -1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(vector_lists())
def test_independent_masks_match_the_walk(vectors):
    for r in range(len(vectors) + 2):
        want = sorted(sum(1 << i for i in s) for s in independent_subsets(vectors, r))
        assert table_masks(independent_masks(vectors, r)) == want


def test_independent_masks_match_the_numpy_walk_on_seeded_draws():
    # the numpy walk that listed them before the tables: layer draws (n
    # vectors of r bits) for n <= 16 and every r, hitting draws at
    # dimensions r .. r + k, and r = 0, r > n and repeated vectors
    for n in range(1, 17):
        for seed in (0, 1):
            for r in range(n + 2):
                draws = [codes._draw_vectors([seed, r], n, dim)  # hitting, k = 0 .. 3
                         for dim in range(max(r, 1), r + 4)]
                if r:
                    draws.append(codes._draw_layer(n, r, seed, 0).vectors)
                for vectors in draws:
                    assert table_masks(independent_masks(vectors, r)) \
                        == independent_masks_numpy(vectors, r).tolist(), (n, seed, r, vectors)
    rng = random.Random(5)
    for n in (0, 1, 7, 12, 16):
        for width in (1, 3, 8, 20):
            vectors = seeded_vectors(rng, n, width)
            for r in range(n + 2):
                assert table_masks(independent_masks(vectors, r)) \
                    == independent_masks_numpy(vectors, r).tolist(), (vectors, r)


def test_independent_masks_share_and_skip_blocks_past_16_vectors():
    # 18 and 20 vectors: 4 and 16 blocks, of which equal high sums share
    # their work (repeated high vectors), and those of more than r high
    # indices are skipped
    rng = random.Random(9)
    for n, width in ((18, 6), (18, 18), (20, 4)):
        vectors = seeded_vectors(rng, n, width)
        for r in (1, 3, width):
            table = independent_masks(vectors, r)
            assert table_masks(table) == independent_masks_numpy(vectors, r).tolist()


def seeded_vectors(rng, n, width):
    """n vectors of `width` bits: free draws mixed with zeros and repeats."""
    pool = [rng.getrandbits(width) for _ in range(3)] + [0]
    return [rng.getrandbits(width) if rng.random() < 0.5 else rng.choice(pool)
            for _ in range(n)]


@pytest.mark.parametrize("width", [3, 8, 33, 63, 64])
def test_the_walk_matches_the_depth_first_oracle(width):
    # several vector lists, r = 0 .. n + 1; the index rows take the
    # vectors as uint64, so at width 64 the tail reduction compares
    # full-width bit patterns
    rng = random.Random(width)
    for n in range(0, 11):
        lists = [seeded_vectors(rng, n, width) for _ in range(rng.randint(1, 5))]
        lists.append([1 << (width - 1)] * n)  # the top bit, equal vectors
        for r in range(n + 2):
            for vectors in lists:
                subsets = list(independent_subsets(vectors, r))
                masks = sorted(sum(1 << i for i in s) for s in subsets)
                assert table_masks(independent_masks(vectors, r)) == masks
                if 1 <= r <= n:  # the range the index rows serve
                    got = gf2._independent_rows(np.array(vectors, dtype=np.uint64), r)
                    assert got.shape == (len(subsets), r)
                    assert got.tolist() == [list(s) for s in subsets]


def test_the_walk_keeps_lexicographic_order_past_256_vectors():
    # 300 vectors: the index rows widen to uint16
    vectors = np.array(seeded_vectors(random.Random(3), 300, 9), dtype=np.uint32)
    got = gf2._independent_rows(vectors, 2)
    assert got.dtype == np.uint16
    assert got.tolist() == [list(s) for s in independent_subsets(vectors.tolist(), 2)]


def test_independent_masks_keep_the_basis_reduced():
    # Indices 0..2 hold 0b01, 0b10 and 0b11 in some order, so {0, 1, 2} is
    # dependent.  Whichever way a walk visits them, some order has a row
    # b1 = {p1, p0} with pivots p1 < p0 (0b11 entering with pivot bit 0
    # before 0b10 takes bit 1), and reducing 0b01 in insertion order
    # against unreduced rows then ends at b0, not at zero.
    for vectors in ([2, 3, 1, 4], [3, 2, 1, 4], [1, 2, 3, 4]):
        assert table_masks(independent_masks(vectors, 3)) == [0b1011, 0b1101, 0b1110]
    assert table_masks(independent_masks([2, 3, 3, 4], 3)) == [0b1011, 0b1101]
    assert independent_masks([2, 3, 1], 3) == 0
    assert independent_masks([], 0) == 1  # the empty support
    assert independent_masks([1], 2) == 0
    # vectors of any width: the table has a plane per bit
    assert table_masks(independent_masks([1 << 40, 1 << 70, 3 << 40], 2)) == [0b011, 0b101, 0b110]
    assert independent_masks([1 << 40, 1 << 70, 1 << 40 | 1 << 70], 3) == 0
    with pytest.raises(ValueError):
        independent_masks([1], -1)
    with pytest.raises(ValueError):
        independent_masks([1, -1], 1)
    with pytest.raises(OutOfRegimeError, match="2\\^n bits"):
        independent_masks([1] * 25, 1)


def test_count_nonsingular_examples():
    assert count_nonsingular_submatrices(GF2Matrix.from_columns(2, [1, 2, 3])) == 3
    # a repeated column participates position-wise
    assert count_nonsingular_submatrices(GF2Matrix.from_columns(2, [1, 2, 3, 1])) == 5
    assert count_nonsingular_submatrices(GF2Matrix.from_columns(1, [0])) == 0
    assert count_nonsingular_submatrices(GF2Matrix.from_columns(1, [1, 1])) == 2
    with pytest.raises(ValueError):
        count_nonsingular_submatrices(GF2Matrix.from_columns(3, [1, 2]))


def test_count_matches_determinant_oracle_two_rows():
    for d in range(2, 5):
        for cols in itertools.product(range(4), repeat=d):
            m = GF2Matrix(2, cols)
            assert count_nonsingular_submatrices(m) == count_by_determinant(m)


def test_count_matches_determinant_oracle_three_rows():
    for cols in itertools.product(range(8), repeat=4):
        m = GF2Matrix(3, cols)
        assert count_nonsingular_submatrices(m) == count_by_determinant(m)
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(5, 7)
        m = GF2Matrix(3, tuple(rng.randrange(8) for _ in range(d)))
        assert count_nonsingular_submatrices(m) == count_by_determinant(m)


def test_count_nonsingular_matches_the_oracle_on_seeded_matrices():
    rng = random.Random(11)
    for k, d in [(1, 6), (2, 9), (3, 10), (5, 11), (8, 12), (40, 42), (64, 64)]:
        for _ in range(4):
            cols = tuple(seeded_vectors(rng, d, k))
            want = sum(1 for _ in independent_subsets(cols, k))
            assert count_nonsingular_submatrices(GF2Matrix(k, cols)) == want
    # a full-rank square at 64 rows, top bits set
    cols = tuple((1 << 63) | (1 << i) for i in range(63)) + (1 << 63,)
    assert count_nonsingular_submatrices(GF2Matrix(64, cols)) == 1
    # k = 0: the empty subset alone, as the oracle counts it
    assert count_nonsingular_submatrices(GF2Matrix(0, (0, 0, 0))) == 1 \
        == sum(1 for _ in independent_subsets((0, 0, 0), 0))


def test_count_nonsingular_refuses_beyond_the_subset_budget(monkeypatch):
    # C(64, 32) column subsets, refused before the walk starts
    with pytest.raises(OutOfRegimeError):
        count_nonsingular_submatrices(GF2Matrix(32, (1,) * 64))
    monkeypatch.setattr(gf2, "DEFAULT_SUBSET_BUDGET", 6)
    assert count_nonsingular_submatrices(GF2Matrix.from_columns(2, [1, 2, 3, 1])) == 5
    with pytest.raises(OutOfRegimeError):
        count_nonsingular_submatrices(GF2Matrix.from_columns(2, [1, 2, 3, 1, 2]))


def test_walks_beyond_the_subset_budget_are_refused_at_once():
    # C(64, 32) ~ 1.8e18 column subsets; a table of 2^32 bits
    for walk, why in ((lambda: count_nonsingular_submatrices(GF2Matrix(32, (1,) * 64)),
                       "subset budget"),
                      (lambda: independent_masks(range(1, 33), 16), "2\\^n bits")):
        start = time.perf_counter()
        with pytest.raises(OutOfRegimeError, match=why):
            walk()
        assert time.perf_counter() - start < 0.1


def test_code_from_parity_check_examples():
    assert code_from_parity_check(GF2Matrix.from_rows(2, [0b11])).words \
        == frozenset({0, 3})
    assert code_from_parity_check(GF2Matrix.identity(2)).words == frozenset({0})
    assert code_from_parity_check(GF2Matrix.from_columns(2, [1, 2, 3])).words \
        == frozenset({0, 7})


def test_code_from_parity_check_size_and_membership():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(1, 4)
        t = rng.randint(k, 8)
        m = GF2Matrix(k, tuple(rng.randrange(1 << k) for _ in range(t)))
        code = code_from_parity_check(m)
        assert len(code) == 1 << (t - rank(m))
        for w in sorted(code.words)[:8]:
            for row in m.rows_as_ints():
                assert (w & row).bit_count() % 2 == 0


def test_code_from_parity_check_refuses_large_kernels(monkeypatch):
    # one row on 64 columns leaves 2^63 words
    with pytest.raises(OutOfRegimeError):
        code_from_parity_check(GF2Matrix.from_rows(64, [1]))
    # the kernel dimension t - rank decides, not the row count
    monkeypatch.setattr(geometry, "MAX_N", 3)
    with pytest.raises(OutOfRegimeError):
        code_from_parity_check(GF2Matrix.from_rows(5, [0b11, 0b11]))
    assert len(code_from_parity_check(GF2Matrix.from_rows(5, [0b11, 0b110]))) == 8


def test_min_distance_refuses_beyond_the_pair_budget(monkeypatch):
    # 14143 words make 100,005,153 pairs
    with pytest.raises(OutOfRegimeError):
        min_distance(Code(15, frozenset(range(14143))))
    monkeypatch.setattr(gf2, "DEFAULT_PAIR_BUDGET", 6)
    assert min_distance(Code(4, frozenset({0, 3, 12, 15}))) == 2
    with pytest.raises(OutOfRegimeError):
        min_distance(Code(4, frozenset({0, 3, 12, 15, 5})))


def test_min_distance_examples():
    rep = code_from_parity_check(GF2Matrix.from_rows(3, [0b011, 0b101]))
    assert rep.words == frozenset({0, 7})
    assert min_distance(rep) == 3
    assert min_distance(Code(4, frozenset({0b0000, 0b0011, 0b1100, 0b1111}))) == 2
    with pytest.raises(ValueError):
        min_distance(Code(4, frozenset({0})))


def test_min_distance_equals_min_weight_for_linear_codes():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 3)
        t = rng.randint(2, 7)
        m = GF2Matrix(k, tuple(rng.randrange(1 << k) for _ in range(t)))
        code = code_from_parity_check(m)
        if len(code) < 2:
            continue
        assert min_distance(code) == min(w.bit_count() for w in code.words if w)


def test_plotkin_examples():
    assert plotkin_bound(4, 3) == 2
    assert plotkin_bound(5, 3) == 4
    assert plotkin_bound(6, 3) == 8
    assert plotkin_bound(6, 4) == 4
    assert plotkin_bound(5, 4) == 2
    with pytest.raises(OutOfRegimeError):
        plotkin_bound(8, 3)
    with pytest.raises(ValueError):
        plotkin_bound(0, 1)


def max_code_size_by_distance(t, dmin):
    """Exact maximum size of a binary code of length t and minimum
    distance dmin.  Translation lets us fix the zero word, so the search
    runs over words of weight >= dmin with pairwise distance >= dmin."""
    candidates = [w for w in range(1, 1 << t) if w.bit_count() >= dmin]
    best = [1]

    def extend(chosen, rest):
        if chosen + 1 > best[0]:
            best[0] = chosen + 1
        for i, w in enumerate(rest):
            narrowed = [v for v in rest[i + 1:] if (v ^ w).bit_count() >= dmin]
            if chosen + 2 + len(narrowed) > best[0]:
                extend(chosen + 1, narrowed)

    extend(0, candidates)
    return best[0]


def test_plotkin_not_exceeded_by_exact_maximum_codes():
    for t, dmin, known in [(4, 3, 2), (5, 3, 4), (5, 4, 2),
                           (6, 3, 8), (6, 4, 4), (6, 5, 2)]:
        exact = max_code_size_by_distance(t, dmin)
        assert exact == known
        assert exact <= plotkin_bound(t, dmin)


def test_plotkin_kills_asymptotic_configurations():
    # for large k the parameters grow like s = k + 2 log k and
    # t = 2k + 3 log k; any length-t code of distance s + 1 would need
    # 2^(t - k - s) words, which the bound rules out from k = 32 on
    for j in range(5, 21):
        k = 1 << j
        s = k + 2 * j
        t = 2 * k + 3 * j
        assert plotkin_bound(t, s + 1) < (1 << (t - k - s))
