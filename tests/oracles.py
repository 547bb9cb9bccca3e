"""Slow reference enumerators that the package's fast walks are checked
against: the depth-first independent-subset walk, the numpy walk that
listed independent supports before the truth-table kernel, the one-walk-per-
candidate basis-subset search, the per-subcube occupancy scans, the
erasure list size as the paper defines it, the hitting check on numpy
count tables that the truth-table walk replaced, the exhaustive vertex
Turan search over every subset of a cube on at most 4 coordinates, the
exhaustive partition walk, the complete multipartite hypergraphs whose edges the
partition maxima count, blow-ups and the Lagrangian polynomial, numpy's
generator for the layer draws and the Lagrangian's starts, and the
recurrence behind numpy's ziggurat tables."""

import collections
import itertools
import re
from decimal import Decimal, localcontext
from typing import Iterable, Iterator

import numpy as np

from hypercube_codes import cube
from hypercube_codes.codes import Code, HittingReport
from hypercube_codes.cube import subcube_count
from hypercube_codes.extremal import (BasisSubsetMaximum, MaxCodeResult, PartitionMaximum,
                                      _check_partition_d)
from hypercube_codes.geometry import DEFAULT_SCAN_BUDGET, Subcube, enumerate_subcubes
from hypercube_codes.gf2 import BitWord, GF2Matrix, _independent_walk, _picks
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


def _max_code_exhaustive(n: int, d: int, list_size: int) -> MaxCodeResult:
    """Oracle for the branch and bound of extremal.max_code_search at
    n <= 4: of all 2^(2^n) subsets of the cube, the first largest in
    integer order with at most list_size words in every d-subcube,
    always certified."""
    masks = [sum(1 << v for v in cube.vertices()) for cube in enumerate_subcubes(n, d)]
    best = -1
    best_set = 0
    for subset in range(1 << (1 << n)):
        size = subset.bit_count()
        if size <= best:
            continue
        if all((subset & m).bit_count() <= list_size for m in masks):
            best = size
            best_set = subset
    words = tuple(v for v in range(1 << n) if (best_set >> v) & 1)
    return MaxCodeResult(n, best, words, True)


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


def erasure_list_size(code: Code, word: BitWord, erased: Iterable[int]) -> int:
    """Number of codewords agreeing with `word` outside the erased
    coordinates.  `word` must itself be a codeword, so the count is at
    least 1."""
    if word.n != code.n:
        raise ValueError("word length does not match the code")
    bits = np.uint64(word.bits)
    at = np.searchsorted(code.array, bits)
    if code.array[at:at + 1].tolist() != [word.bits]:
        raise ValueError("word is not a codeword")
    erased = tuple(erased)
    if len(set(erased)) != len(erased):
        raise ValueError("erased coordinates must be distinct")
    if not all(0 <= c < code.n for c in erased):
        raise ValueError("erased coordinate out of range")
    keep = np.uint64(((1 << code.n) - 1) ^ sum(1 << c for c in erased))
    return int(np.count_nonzero(code.array & keep == bits & keep))


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


def complete_multipartite(class_sizes: tuple[int, ...]) -> UniformHypergraph:
    """The k-uniform complete multipartite hypergraph on k + 1 classes of
    the given sizes, numbered in order: each edge takes one vertex from
    each class but one.  Its edge count is sum_i prod_{j != i} size_j,
    the functional that extremal.max_partition_product_sum maximizes."""
    offsets = list(itertools.accumulate(class_sizes, initial=0))
    pools = [range(a, b) for a, b in zip(offsets, offsets[1:])]
    edges = itertools.chain.from_iterable(
        itertools.product(*pools[:skip], *pools[skip + 1:]) for skip in range(len(pools)))
    return UniformHypergraph(len(pools) - 1, offsets[-1], edges)


def blow_up(graph: UniformHypergraph, b: int) -> UniformHypergraph:
    """Each vertex v replaced by b copies (v*b .. v*b+b-1), each edge by
    the b^r edges that take one copy of each of its vertices."""
    copies = np.array(list(itertools.product(range(b), repeat=graph.r)))
    edges = (graph.edges[:, None, :] * b + copies).reshape(-1, graph.r)
    return UniformHypergraph(graph.r, graph.n_vertices * b, edges)


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
