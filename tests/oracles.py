"""Slow reference enumerators that the package's fast walks are checked
against: the depth-first independent-subset walk, the one-walk-per-
candidate basis-subset search, the per-subcube occupancy scans, the
exhaustive partition walk, the Lagrangian polynomial, and numpy's
generator for the layer draws."""

import collections
import itertools
from typing import Iterable, Iterator

import numpy as np

from hypercube_codes.codes import Code
from hypercube_codes.cube import subcube_count
from hypercube_codes.extremal import BasisSubsetMaximum, PartitionMaximum, _check_partition_d
from hypercube_codes.geometry import DEFAULT_SCAN_BUDGET, Subcube, enumerate_subcubes
from hypercube_codes.gf2 import GF2Matrix
from hypercube_codes.hypergraph import UniformHypergraph


def independent_subsets(vectors: Iterable[int], r: int) -> Iterator[tuple[int, ...]]:
    """Index r-subsets of `vectors` whose vectors are linearly independent,
    in itertools.combinations order.

    Supports are walked depth-first.  The chosen prefix is kept reduced
    with lowest-set-bit pivots, so each extension costs one reduction,
    and a prefix that becomes dependent is pruned with its whole
    subtree.  Zero and repeated vectors are simply dependent.
    """
    if r < 0:
        raise ValueError("subset size must be non-negative")
    vectors = tuple(vectors)
    n = len(vectors)
    if r > n:
        return
    if r == 0:
        yield ()
        return
    pivots: dict[int, int] = {}
    lows: list[int] = []
    prefix: list[int] = []
    stop = n - r + 1  # the open slot must start below stop to be filled
    i = 0
    while True:
        if i < stop:
            v = vectors[i]
            while v:
                low = v & -v
                p = pivots.get(low)
                if p is None:
                    break
                v ^= p
            if v:
                if len(prefix) == r - 1:
                    yield (*prefix, i)
                else:
                    pivots[low] = v
                    lows.append(low)
                    prefix.append(i)
                    stop += 1
            i += 1
        elif prefix:
            i = prefix.pop() + 1
            del pivots[lows.pop()]
            stop -= 1
        else:
            return


def max_basis_subsets_naive(k: int, d: int) -> BasisSubsetMaximum:
    """The basis-subset maximum by one independent_subsets walk per
    candidate, in the order of extremal.max_basis_subsets."""
    identity = [1 << i for i in range(k)]
    best = -1
    best_cols: tuple[int, ...] = ()
    for rest in itertools.combinations_with_replacement(range(1, 1 << k), d - k):
        cols = identity + list(rest)
        count = sum(1 for _ in independent_subsets(cols, k))
        if count > best:
            best = count
            best_cols = tuple(cols)
    return BasisSubsetMaximum(k, d, best, GF2Matrix(k, best_cols))


def max_subcube_count_naive(code: Code, d: int,
                            budget: int = DEFAULT_SCAN_BUDGET) -> tuple[int, Subcube]:
    """The maximum occupancy of a d-subcube and the first subcube in
    canonical order that holds it, by one subcube_count per subcube."""
    best = -1
    witness = None
    for cube in enumerate_subcubes(code.n, d, budget):
        c = subcube_count(code, cube)
        if c > best:
            best = c
            witness = cube
    assert witness is not None
    return best, witness


def subcube_histogram(code: Code, d: int) -> collections.Counter:
    """{occupancy: number of d-subcubes holding it}, one subcube_count
    per subcube."""
    return collections.Counter(subcube_count(code, cube)
                               for cube in enumerate_subcubes(code.n, d))


def partitions_desc(d: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d into positive non-increasing parts, in
    anti-lexicographic order."""
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for a in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - a, a, prefix + (a,))
    yield from rec(d, d, ())


def max_partition_product_sum_naive(d: int) -> PartitionMaximum:
    """Oracle for extremal.max_partition_product_sum: every partition of
    d in anti-lexicographic order, each with and without a zero part.

    Raises:
        ValueError: outside 1 <= d <= 60.
    """
    _check_partition_d(d)
    best = -1
    best_parts: tuple[int, ...] = ()
    for parts in partitions_desc(d):
        prod = 1
        for a in parts:
            prod *= a
        if len(parts) >= 2:
            value = sum(prod // a for a in parts)
            if value > best or (value == best and parts > best_parts):
                best, best_parts = value, parts
        # same parts plus a single zero part: only the full product survives
        with_zero = parts + (0,)
        if prod > best or (prod == best and with_zero > best_parts):
            best, best_parts = prod, with_zero
    return PartitionMaximum(d, best, best_parts)


def lagrangian_polynomial(graph: UniformHypergraph, x) -> float:
    """sum over edges of the product of the entries of x on the edge, in
    edge order (hypergraph.lagrangian sums its values in the same order)."""
    if len(x) != graph.n_vertices:
        raise ValueError("need one weight per vertex")
    total = 0.0
    for e in graph.edges.tolist():
        p = 1.0
        for v in e:
            p *= x[v]
        total += p
    return total


def draw_vectors_numpy(key: list[int], n: int, dim: int) -> tuple[int, ...]:
    """n draws from [1, 2^dim) by numpy's PCG64 Generator keyed by key,
    which codes._draw_vectors reproduces in Python ints."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    return tuple(int(v) for v in rng.integers(1, 1 << dim, size=n))
