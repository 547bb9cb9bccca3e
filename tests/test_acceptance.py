"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single line

    [acceptance] criterion NN <description>: PASS|FAIL (T.TTs)

so that a `pytest -s` run gives a readable scoreboard.  Every criterion
has a wall-clock cap; exceeding it fails the criterion even if the
numbers are right.  Expected values checked here were computed once with
the independent oracles in this file (small exhaustive enumerations kept
deliberately separate from the library implementations) and then frozen.
"""

import itertools
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from hypercube_codes import (
    GF2Matrix,
    OutOfRegimeError,
    SimplexPoint,
    augmented_complete,
    basis_hypergraph,
    basis_probability,
    basis_recurrence_check,
    basis_subset_bounds,
    best_residue_subcode,
    build_layer_vectors,
    code_from_parity_check,
    contains_copy,
    first_draw_bound,
    lagrangian,
    layered_basis_code,
    limit_constant,
    limit_interval,
    linear_independence_hypergraph,
    max_basis_subsets,
    max_code_search,
    max_partition_product_sum,
    max_subcube_count,
    min_distance,
    plotkin_bound,
    product_partition_lower_bound,
    uniform_basis_probability,
    weight_class_code,
)


@contextmanager
def criterion(number, label, cap_seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if not failed and elapsed < cap_seconds else "FAIL"
        print("[acceptance] criterion %2d %s: %s (%.2fs)"
              % (number, label, status, elapsed))
    if elapsed >= cap_seconds:
        raise AssertionError("criterion %d took %.2fs, cap is %.0fs"
                             % (number, elapsed, cap_seconds))


def gf2_rank(vectors):
    # plain elimination on the highest set bit, independent of the
    # library's pivot convention
    pivots = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h not in pivots:
                pivots[h] = v
                break
            v ^= pivots[h]
    return len(pivots)


def test_criterion_01_exact_small_basis_probabilities():
    with criterion(1, "exact small basis probabilities", 1.0):
        for t, want in ((2, Fraction(2, 3)), (3, Fraction(24, 49))):
            assert uniform_basis_probability(t) == want
            # independent oracle: walk every tuple of nonzero vectors
            hits = 0
            for tup in itertools.product(range(1, 1 << t), repeat=t):
                if gf2_rank(tup) == t:
                    hits += 1
            assert Fraction(hits, ((1 << t) - 1) ** t) == want


def test_criterion_02_certified_limit_interval():
    with criterion(2, "certified limit interval and 2-digit rounding", 1.0):
        lo, hi = limit_interval(40)
        assert 0 < lo < hi
        assert hi - lo < Fraction(1, 10 ** 6)
        assert round(float(lo), 2) == 0.29
        assert round(float(hi), 2) == 0.29
        assert limit_constant(2) == Decimal("0.29")


def test_criterion_03_probability_recurrence():
    with criterion(3, "exact recurrence for t = 2..40", 1.0):
        for t in range(2, 41):
            assert basis_recurrence_check(t)


def test_criterion_04_basis_subset_maxima():
    with criterion(4, "basis-subset maxima, symmetry, deletion bound", 120.0):
        values = {}
        for d in range(2, 8):
            for k in range(1, d):
                values[(k, d)] = max_basis_subsets(k, d).value
        assert values[(2, 4)] == 5
        assert values[(2, 5)] == 8
        assert values[(3, 6)] == 16
        assert values[(3, 7)] == 28
        for d in range(2, 8):
            for k in range(1, d):
                assert values[(k, d)] == values[(d - k, d)]
        # the column-deletion upper bound is attained at these two shapes
        for k, d in ((3, 6), (3, 7)):
            assert basis_subset_bounds(k, d).deletion_upper == values[(k, d)]


def partition_product_sum_oracle(d):
    """Best sum of leave-one-out products over partitions of d, by a
    direct recursion over nonincreasing part lists."""
    best = 0

    def grow(remaining, cap, parts):
        nonlocal best
        if remaining == 0:
            if len(parts) >= 2:
                total = 1
                for a in parts:
                    total *= a
                best = max(best, sum(total // a for a in parts))
            return
        for a in range(min(cap, remaining), 0, -1):
            parts.append(a)
            grow(remaining - a, a, parts)
            parts.pop()

    grow(d, d, [])
    return best


def test_criterion_05_partition_product_sums():
    with criterion(5, "partition product-sum values and oracle", 10.0):
        want = {5: 8, 6: 12, 7: 20, 8: 32, 9: 48, 10: 80}
        for d, value in want.items():
            best = max_partition_product_sum(d)
            assert best.value == value
            parts = best.parts
            assert sum(parts) == d and len(parts) >= 2
            assert all(a >= 1 for a in parts)
            assert list(parts) == sorted(parts, reverse=True)
            total = 1
            for a in parts:
                total *= a
            assert sum(total // a for a in parts) == value
        # ordered split points; order cannot change the objective, so
        # this doubles as a second oracle with a different mechanism
        for d in range(2, 15):
            seen = 0
            for mask in range(1, 1 << (d - 1)):
                parts, prev = [], 0
                for i in range(d - 1):
                    if mask >> i & 1:
                        parts.append(i + 1 - prev)
                        prev = i + 1
                parts.append(d - prev)
                total = 1
                for a in parts:
                    total *= a
                seen = max(seen, sum(total // a for a in parts))
            assert seen == max_partition_product_sum(d).value
        for d in range(2, 21):
            assert partition_product_sum_oracle(d) == max_partition_product_sum(d).value


def test_criterion_06_pairwise_product_lower_bounds():
    with criterion(6, "pairwise product partition lower bounds", 1.0):
        want = {5: 7, 6: 10, 7: 12, 8: 18, 9: 27, 10: 37}
        for d, value in want.items():
            assert product_partition_lower_bound(d) == value


def test_criterion_07_exhaustive_max_code_sizes():
    with criterion(7, "certified 2-subcube list-3 maxima", 60.0):
        for n in (2, 3, 4):
            result = max_code_search(n, 2, 3)
            assert result.certified
            assert result.max_size == -(-(1 << (n + 1)) // 3)


def test_criterion_08_layered_code_end_to_end():
    with criterion(8, "layered construction at n = 14, list size 8", 120.0):
        layers = build_layer_vectors(14, seed=0)
        code = layered_basis_code(layers)
        pick = best_residue_subcode(code, 6)
        report = max_subcube_count(pick.code, 5)
        assert report.max_count <= 8
        threshold = Fraction(1, 2) * limit_interval(40)[0] / 6
        assert pick.code.density() > threshold
        # frozen values for this seed; the construction is deterministic
        assert pick.residue == 1
        assert len(pick.code.words) == 1523
        assert report.max_count == 8


def test_criterion_09_weight_class_code():
    with criterion(9, "weight-class code at n = 12, list size 3", 60.0):
        sizes = [len(weight_class_code(12, 3, r).words) for r in range(3)]
        best = max(range(3), key=lambda r: sizes[r])
        assert best == 0 and sizes[0] == 1366
        code = weight_class_code(12, 3, 0)
        report = max_subcube_count(code, 3)
        assert report.max_count <= 3
        assert code.density() >= Fraction(1, 3) - Fraction(2, 1 << 12)


def test_criterion_10_basis_hypergraph_optima():
    with criterion(10, "basis hypergraph optimization values", 30.0):
        assert abs(lagrangian(basis_hypergraph(1)).value - 1.0) < 1e-6
        assert abs(lagrangian(basis_hypergraph(2)).value - 1 / 3) < 1e-6
        want = float(uniform_basis_probability(3) / 6)
        assert abs(lagrangian(basis_hypergraph(3)).value - want) < 1e-6


def test_criterion_11_distribution_inequalities():
    with criterion(11, "random distributions never beat uniform", 60.0):
        rng = random.Random(20260823)
        for t in (2, 3, 4):
            uniform_value = uniform_basis_probability(t)
            draw_cap = first_draw_bound(t)
            m = (1 << t) - 1
            for _ in range(1000):
                weights = [rng.randint(1, 30) for _ in range(m)]
                point = SimplexPoint.from_weights(t, weights)
                assert basis_probability(point) <= uniform_value
                first = sum(p * (1 - p) ** (t - 1) for p in point.probs)
                assert first <= draw_cap


def independent_family(s, t):
    """t distinct nonzero vectors of GF(2)^(s+1) with every s of them
    linearly independent, or None.  Ascending search; checking only the
    subsets that contain the newest vector is enough."""
    dim = s + 1
    chosen = []

    def admissible(v):
        for rest in itertools.combinations(chosen, s - 1):
            if gf2_rank(rest + (v,)) < s:
                return False
        return True

    def grow(start):
        if len(chosen) == t:
            return True
        for v in range(start, 1 << dim):
            if admissible(v):
                chosen.append(v)
                if grow(v + 1):
                    return True
                chosen.pop()
        return False

    return list(chosen) if grow(1) else None


def test_criterion_12_copy_search_vs_algebraic_test():
    with criterion(12, "copy search agrees with the algebraic test", 120.0):
        big = linear_independence_hypergraph(3, 1)
        found = {2: set(), 3: set()}
        for s in (2, 3):
            for t in range(s + 1, 11):
                pattern = augmented_complete(s, t, 3)
                copy = contains_copy(big, pattern, node_budget=20_000_000)
                family = independent_family(s, t)
                assert (copy is not None) == (family is not None)
                if family is None:
                    continue
                found[s].add(t)
                # the family is a parity check whose kernel meets the
                # distance floor, and the size bound is consistent
                check = GF2Matrix.from_columns(s + 1, family)
                code = code_from_parity_check(check)
                assert len(code.words) >= 1 << (t - s - 1)
                dist = min_distance(code)
                assert dist >= s + 1
                try:
                    cap = plotkin_bound(t, s + 1)
                except OutOfRegimeError:
                    cap = None
                if cap is not None:
                    assert len(code.words) <= cap
        assert found[2] == set(range(3, 8))
        assert found[3] == set(range(4, 9))
        # whenever the size bound is in regime and already below the
        # kernel floor, no family (and no copy) can exist
        for s in (2, 3):
            for t in range(s + 1, 11):
                try:
                    cap = plotkin_bound(t, s + 1)
                except OutOfRegimeError:
                    continue
                if cap < 1 << (t - s - 1):
                    assert t not in found[s]
