"""Slow reference enumerators that the package's fast walks are checked
against: the depth-first independent-subset walk, the numpy walk that
listed independent supports before the truth-table kernel, the one-walk-per-
candidate basis-subset search, the per-subcube occupancy scans, the
hitting check on numpy count tables that the truth-table walk replaced,
the exhaustive partition walk, the Lagrangian polynomial, numpy's
generator for the layer draws, the Lagrangian's starts and the Monte
Carlo sampler, and the recurrence behind numpy's ziggurat tables."""

import collections
import itertools
import re
from decimal import Decimal, localcontext
from typing import Iterable, Iterator

import numpy as np

from hypercube_codes import cube
from hypercube_codes.codes import Code, HittingReport
from hypercube_codes.cube import subcube_count
from hypercube_codes.extremal import BasisSubsetMaximum, PartitionMaximum, _check_partition_d
from hypercube_codes.geometry import DEFAULT_SCAN_BUDGET, Subcube, enumerate_subcubes
from hypercube_codes.gf2 import GF2Matrix, _independent_walk, _picks
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


def independent_masks_numpy(vectors: Iterable[int], r: int) -> np.ndarray:
    """Sorted uint32 support masks (bit i = index i) of the index
    r-subsets of `vectors` whose vectors are linearly independent, from
    gf2's array walk, picking indices from the top down: position p is
    index n - 1 - p, so the subsets come out in descending mask order.
    At most 32 vectors of at most 32 bits each."""
    if r < 0:
        raise ValueError("subset size must be non-negative")
    vectors = tuple(vectors)
    n = len(vectors)
    if n > 32 or not all(0 <= v < 1 << 32 for v in vectors):
        raise ValueError("at most 32 vectors of at most 32 bits")
    if r > n:
        return np.zeros(0, dtype=np.uint32)
    if r == 0:
        return np.zeros(1, dtype=np.uint32)  # the empty support
    vecs = np.array(vectors[::-1], dtype=np.uint32)
    bits = np.left_shift(np.uint32(1), np.arange(n - 1, -1, -1, dtype=np.uint32))
    picks = _picks(_independent_walk(vecs, r), bits)
    masks = next(picks)
    for bit in picks:
        masks |= bit
    return masks[::-1]


def table_masks(table: int) -> list[int]:
    """The set bits of a truth table, ascending, read off its binary string."""
    return [m.start() for m in re.finditer("1", bin(table)[:1:-1])]


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


def verify_hitting_tables(code: Code, d: int,
                          budget: int = DEFAULT_SCAN_BUDGET) -> HittingReport:
    """verify_hitting on cube's count tables, as the package ran it before
    the truth-table walk: dense tables for n <= cube.MAX_N, bucket tables
    beyond, stopping at the first block with an empty subcube."""
    for first, block in cube._count_tables(code, d, budget):
        if not block.all():
            return HittingReport(False, cube._first_subcube(code.n, d, first, block, 0))
    return HittingReport(True, None)


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
    return tuple(int(v) for v in numpy_generator(key).integers(1, 1 << dim, size=n))


def numpy_generator(key) -> np.random.Generator:
    """numpy's Generator(PCG64(SeedSequence(key))), the stream that
    hypercube_codes._pcg64 runs in Python ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


# PCG64's 128-bit multiplier
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_starting_with(word: int) -> np.random.PCG64:
    """A numpy PCG64 whose next word is `word`: its state is one step
    before a state whose halves xor to `word` rotated left by 17, and
    whose top 6 bits hold that rotation."""
    inc = 0xDA3E39CB94B95BDB << 64 | 0x2545F4914F6CDD1D  # any odd increment
    high = 17 << 58 | 0x123456789ABCDEF
    low = high ^ ((word << 17 | word >> 47) & ((1 << 64) - 1))
    after = high << 64 | low
    before = (after - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def standard_exponential_numpy(key, size: int) -> list[float]:
    """size draws of numpy's ziggurat exponential keyed by key."""
    return numpy_generator(key).standard_exponential(size).tolist()


def dirichlet_numpy(key, n: int, size: int) -> list[list[float]]:
    """size rows of numpy's Dirichlet(1, ..., 1) on n coordinates."""
    return numpy_generator(key).dirichlet(np.ones(n), size=size).tolist()


def choice_numpy(p, shape: tuple[int, int], key) -> np.ndarray:
    """numpy's weighted choice of indices into p, the draws of the Monte
    Carlo sampler of basisprob."""
    return numpy_generator(key).choice(len(p), size=shape, p=p)


# the right end of the exponential ziggurat, to 29 significant digits
ZIGGURAT_R = "7.6971174701310497140446280481"


def ziggurat_exponential_tables(r: str = ZIGGURAT_R, digits: int = 60):
    """numpy's ke_double, we_double and fe_double, by the recurrence of
    Marsaglia & Tsang (2000) in `digits`-digit decimal arithmetic.

    With v = (r + 1) e^-r, the area of each of the 256 layers, the layer
    edges x_255 = r > x_254 > ... > x_1 follow from f <- v / x + f and
    x <- -ln f.  Then we[i] = x_i / 2^53 and fe[i] = e^-x_i, and ke[i + 1]
    = 2 floor(x_i / x_(i+1) 2^52): numpy's ke entries are all even, and
    floor(x_i / x_(i+1) 2^53) is one more in 131 of them.  The base layer
    (index 0) has width q = v e^r, so ke[0] = 2 floor(r / q 2^52), we[0]
    = q / 2^53, ke[1] = 0 and fe[0] = 1.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        r = Decimal(r)
        f = (-r).exp()
        v = (r + 1) * f
        q = v / f
        two52, two53 = Decimal(2) ** 52, Decimal(2) ** 53
        ke = [2 * int(r / q * two52), 0] + [0] * 254
        we = [float(q / two53)] + [0.0] * 254 + [float(r / two53)]
        fe = [1.0] + [0.0] * 254 + [float(f)]
        x = r
        for i in range(254, 0, -1):
            f = v / x + f
            edge = -f.ln()
            ke[i + 1] = 2 * int(edge / x * two52)
            we[i] = float(edge / two53)
            fe[i] = float(f)
            x = edge
    return ke, we, fe
