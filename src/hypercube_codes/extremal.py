"""Extremal counting problems behind the list-size bounds, and the exact
vertex Turan search.

Three searches live here.  The first exhaustively maximizes, over k x d
matrices on GF(2), the number of nonsingular k x k column submatrices;
equivalently, over families of d vectors in GF(2)^k, the number of
k-subsets forming a basis.  It is an orderly walk over the candidates'
tails that skips tails a row transposition lowers and counts bases by
the span of their tail columns; tests/oracles.py keeps the
one-walk-per-candidate loop as its oracle.  The second maximizes
the sum-of-products functional over integer partitions, which counts
edges of complete multipartite uniform hypergraphs and gives the lower
bounds on list sizes.  It is a branch-and-bound over the
anti-lexicographic partition walk: a prefix is cut when the largest
suffix product and a bound on the suffix's leave-one-out sum cannot
reach the best value so far.  The cut is strict, so tied partitions are
still visited and the tie-break of the exhaustive walk
(max_partition_product_sum_naive in tests/oracles.py) is unchanged.  A
closed-form lower bound from maximum-product partitions and a small
bounds table follow.  The third finds the largest code on n <= 5
coordinates with at most L words in every d-subcube, the vertex Turan
number ex(n, d, L), by one branch and bound over the canonical subcube
index of geometry.  Its node budget counts at every n; tests/oracles.py
keeps the exhaustive loop over all subsets for n <= 4 as its oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

from ._record import Record
from .errors import OutOfRegimeError, _shown
from .geometry import MAX_BITS, MAX_N, enumerate_subcubes

# gf2, codes, basisprob and fractions are imported by the functions that
# use them, so `partition-max` and `search-max-code` load none of them.
# Nothing here loads numpy.
if TYPE_CHECKING:
    from fractions import Fraction
    from .codes import Code
    from .gf2 import GF2Matrix

# Cap on (candidate matrices) * (column subsets per matrix) for the
# exhaustive basis-subset search.
DEFAULT_WORK_BUDGET = 20_000_000
# Search nodes of the branch and bound of max_code_search, at every n.
DEFAULT_NODE_BUDGET = 2_000_000


class BasisSubsetMaximum(Record):
    k: int
    d: int
    value: int
    witness: GF2Matrix


class BasisSubsetBounds(Record):
    """Bounds on the basis-subset maximum that do not rely on the search.

    random_lower: ceil(P(k) * C(d, k)), from a uniformly random matrix.
    monotone_upper: scaling B(k, d') by C(d, k)/C(d', k) from the largest
        searchable d' <= d; the per-k-subset success ratio cannot grow
        with d.
    dense_upper: floor(P(k) * d^k / k!), valid once d >= k*k.
    deletion_upper: floor(d * B(k-1, d-1) / k), by double counting column
        deletions; present when k >= 2 and the smaller search fits the
        budget.
    """

    k: int
    d: int
    random_lower: int
    monotone_upper: Optional[int]
    dense_upper: Optional[int]
    deletion_upper: Optional[int]


def _search_size(k: int, d: int) -> int:
    """Candidate matrices times submatrices tested per matrix.

    Every matrix achieving the maximum has full row rank and no zero
    column, and row operations plus column permutations preserve the
    count, so candidates can be normalized to [I_k | R] with R a multiset
    of d - k nonzero vectors.
    """
    return math.comb((1 << k) - 2 + (d - k), d - k) * math.comb(d, k)


def _search_refusal(k: int, d: int, work_budget: int) -> Optional[str]:
    """Why the search at (k, d), 1 <= k <= d, is out of regime, or None.
    k stays below MAX_BITS and d at most MAX_BITS, the most columns a
    GF2Matrix witness holds; both are checked before 2^k is formed."""
    if k >= MAX_BITS or d > MAX_BITS:
        return (f"the basis-subset search takes k <= {MAX_BITS - 1} and "
                f"d <= {MAX_BITS}, got (k={_shown(k)}, d={_shown(d)})")
    size = _search_size(k, d)
    if size > work_budget:
        return f"search size {size} for (k={k}, d={d}) exceeds budget {_shown(work_budget)}"
    return None


def max_basis_subsets(k: int, d: int,
                      work_budget: int = DEFAULT_WORK_BUDGET) -> BasisSubsetMaximum:
    """Exhaustive maximum of the number of basis k-subsets over all
    families of d vectors in GF(2)^k (k x d matrices up to column order).

    The witness is the first maximizer in the canonical enumeration:
    identity columns first, the rest a non-decreasing multiset of nonzero
    vectors in packed integer order.  The walk skips the tails that a row
    transposition maps to a smaller one (_orderly_tails); the first
    maximizer is least under every row permutation, so the value and the
    witness are those of counting every candidate one by one.  The work
    budget still bounds the unreduced search.

    Raises:
        ValueError: unless 1 <= k <= d.
        OutOfRegimeError: for k >= MAX_BITS or d > MAX_BITS, or if the
            search would exceed work_budget; before anything is built.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    refusal = _search_refusal(k, d, work_budget)
    if refusal:
        raise OutOfRegimeError(refusal)
    return _max_basis_subsets(k, d)


@lru_cache(maxsize=None)
def _max_basis_subsets(k: int, d: int) -> BasisSubsetMaximum:
    """The search itself, cached per (k, d): basis-subsets and its bounds
    ask for the same maximum more than once.  A later tail must count
    strictly more to replace the first maximizer."""
    from .gf2 import GF2Matrix
    best, best_tail = -1, ()
    for tail, count in _orderly_tails(k, d - k):
        if count > best:
            best, best_tail = count, tail
    return BasisSubsetMaximum(k, d, best,
                              GF2Matrix(k, (*(1 << i for i in range(k)), *best_tail)))


def _orderly_tails(k: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The tails the orderly walk keeps, in lexicographic order, each with
    the number of bases among the k identity columns and the tail.

    A tail is a non-decreasing m-tuple of nonzero vectors of GF(2)^k.
    Permuting the rows fixes the identity columns as a set and keeps the
    count, so a tail that some row transposition maps to a smaller
    sorted tuple is dropped.  A transposition that lowers a prefix lowers
    every extension of it, so the walk extends only kept prefixes.  A
    tail least among all k! row permutations of it is kept, and so is the
    first maximizer of the exhaustive search, with every tail before it.

    The walk appends the distinct values in increasing order, each with
    its number of copies from the most down, which is lexicographic
    order.  A value's set bits fill each class of rows that are equal so
    far from its lowest row (a transposition in the class lowers any
    other value), and _most_copies applies the cut.

    Counting: a basis is an independent set of tail columns completed by
    identity columns, and the completions of a set depend only on its
    span (_information_sets).  So the walk carries, per span, the number
    of independent sets of tail columns with that span, over the distinct
    values weighted by their copies; the identity columns are never
    walked.
    """
    # memos for this walk: few spans and classes recur many times
    information = lru_cache(maxsize=None)(_information_sets)
    fills = lru_cache(maxsize=None)(_fills)
    join = lru_cache(maxsize=None)(_join)
    copies: dict[int, int] = {}  # the prefix: distinct value -> copies, increasing

    def walk(spans: dict[tuple[int, ...], int], classes: tuple[int, ...],
             last: int, left: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if not left:
            yield (tuple(v for v, n in copies.items() for _ in range(n)),
                   sum(sets * information(span, k) for span, sets in spans.items()))
            return
        for u, split in fills(classes):
            most = _most_copies(copies, u, left) if u > last else 0
            if not most:
                continue
            grown: dict[tuple[int, ...], int] = {}  # sets gaining one copy of u
            for span, sets in spans.items():
                joined = join(span, u)
                if joined:
                    grown[joined] = grown.get(joined, 0) + sets
            for c in range(most, 0, -1):
                copies[u] = c
                longer = dict(spans)
                for span, sets in grown.items():
                    longer[span] = longer.get(span, 0) + c * sets
                yield from walk(longer, split, u, left - c)
            del copies[u]

    yield from walk({(): 1}, ((1 << k) - 1,), 0, m)


def _join(span: tuple[int, ...], u: int) -> Optional[tuple[int, ...]]:
    """The span of `span` and u, or None when u lies in it.  A span is its
    reduced echelon basis, sorted: each vector's highest set bit (its
    pivot) is clear in the others, so equal spans are equal tuples.
    min(x, x ^ b) clears b's pivot from x."""
    for b in span:
        u = min(u, u ^ b)
    if not u:
        return None
    return tuple(sorted([min(b, b ^ u) for b in span] + [u]))


def _information_sets(span: tuple[int, ...], k: int) -> int:
    """The r-sets of rows, r = dim span, on which span projects one to one:
    an independent r-set of columns with this span is completed to a basis
    exactly by the identity columns of the other k - r rows."""
    from .gf2 import rank_ints
    r = len(span)
    return sum(rank_ints(c & sum(1 << i for i in rows) for c in span) == r
               for rows in itertools.combinations(range(k), r))


def _fills(classes: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Every vector whose set bits fill each class of rows (a row mask)
    from its lowest row, with the classes it splits them into, in
    increasing order of the vector."""
    options = []
    for rows in classes:
        prefix, choice = 0, [(0, (rows,))]
        while prefix != rows:
            prefix |= (rows ^ prefix) & -(rows ^ prefix)  # the next row up
            choice.append((prefix, (prefix, rows ^ prefix) if prefix != rows else (rows,)))
        options.append(choice)
    return sorted((sum(p for p, _ in combo), sum((split for _, split in combo), ()))
                  for combo in itertools.product(*options))


def _most_copies(copies: dict[int, int], u: int, most: int) -> int:
    """The most copies of u, at most `most`, that may follow the kept
    prefix `copies` (u above all its values) with no row transposition
    lowering the tuple; 0 when none may.

    A transposition of rows a < b pairs each vector l with bit a set and
    bit b clear with h = l ^ (2^a + 2^b) > l, and fixes the others.  It
    lowers a multiset exactly when, at the least l whose pair holds
    unequal counts, h has more.  At that pair of a kept prefix l has
    more.  Appending u, above every value of the prefix, changes the
    counts of u's pair only.  If u is its l, that lowers nothing.  If u is
    its h, the tuple is lowered exactly when every pair below l = u ^
    (2^a + 2^b) holds equal counts and u comes more often than l.
    """
    above = u
    while above:  # b over the set bits of u
        b = above & -above
        above ^= b
        below = ~u & (b - 1)
        while below:  # a over the clear bits under b
            a = below & -below
            below ^= a
            mask = a | b
            low = u ^ mask
            if all(n == copies.get(v ^ mask, 0) for v, n in copies.items()
                   if (v & mask) not in (0, mask) and min(v, v ^ mask) < low):
                most = min(most, copies.get(low, 0))
                if not most:
                    return 0
    return most


def basis_subset_bounds(k: int, d: int,
                        work_budget: int = DEFAULT_WORK_BUDGET) -> BasisSubsetBounds:
    """Bounds on the basis-subset maximum computable without the full
    search at (k, d).

    Raises:
        OutOfRegimeError: for k > MAX_T, past which basisprob has no
            basis probability, before any Fraction is formed.
    """
    from fractions import Fraction
    from .basisprob import MAX_T, uniform_basis_probability
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if k > MAX_T:
        raise OutOfRegimeError(f"basis-subset bounds take k <= {MAX_T}, got k={_shown(k)}")
    p = uniform_basis_probability(k)
    expected = p * math.comb(d, k)
    random_lower = -((-expected.numerator) // expected.denominator)

    dense_upper = None
    if d >= k * k:
        dense = p * Fraction(d ** k, math.factorial(k))
        dense_upper = dense.numerator // dense.denominator

    deletion_upper = None
    if k >= 2 and not _search_refusal(k - 1, d - 1, work_budget):
        smaller = max_basis_subsets(k - 1, d - 1, work_budget).value
        deletion_upper = (d * smaller) // k

    monotone_upper = None
    best_d = max((dd for dd in range(k, min(d, MAX_BITS) + 1)
                  if not _search_refusal(k, dd, work_budget)), default=None)
    if best_d is not None:
        value = max_basis_subsets(k, best_d, work_budget).value
        scaled = Fraction(value * math.comb(d, k), math.comb(best_d, k))
        monotone_upper = scaled.numerator // scaled.denominator

    return BasisSubsetBounds(k, d, random_lower, monotone_upper,
                             dense_upper, deletion_upper)


class ShapeMaximum(Record):
    d: int
    value: int
    best_k: int


def max_basis_subsets_any_k(d: int) -> ShapeMaximum:
    """max_k of the basis-subset maximum at fixed d.  By orthogonal
    complement duality the range k <= d/2 suffices; on ties the smallest
    k is reported.

    Raises:
        OutOfRegimeError: before any search runs, when _search_refusal
            refuses some k <= d/2 (d = 10 is refused at k = 5).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    ks = range(1, max(1, d // 2) + 1)
    for k in ks:
        refusal = _search_refusal(k, d, DEFAULT_WORK_BUDGET)
        if refusal:
            raise OutOfRegimeError(f"shape maximum at d={_shown(d)}: {refusal}")
    values = [max_basis_subsets(k, d).value for k in ks]
    return ShapeMaximum(d, max(values), values.index(max(values)) + 1)


def construction_upper(d: int) -> Optional[int]:
    """max_basis_subsets_any_k(d).value, or None where that refuses d (d < 1
    or out of regime): the construction_upper column of bounds-table and
    build-verify."""
    try:
        return max_basis_subsets_any_k(d).value
    except (ValueError, OutOfRegimeError):
        return None


class PartitionMaximum(Record):
    """Maximum of sum_i prod_{j != i} a_j over partitions d = a_1 + ...
    + a_m with m >= 2 parts >= 0.  Parts are reported non-increasing;
    at most one zero part ever matters (two zeros kill every term)."""

    d: int
    value: int
    parts: tuple[int, ...]


def _check_partition_d(d: int) -> None:
    if not 1 <= d <= 60:
        raise ValueError("need 1 <= d <= 60")


def _suffix_bounds(d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Tables over (s, c) for 0 <= s, c <= d: the largest product of a
    partition of s into parts <= c (1 for the empty partition), and an
    upper bound on its sum of leave-one-out products (0 when s = 0).

    A suffix led by part a has product a * Q and leave-one-out sum
    a * F + Q for the rest's Q and F, hence the recurrences."""
    pmax = [[1] * (d + 1)]
    upper = [[0] * (d + 1)]
    for s in range(1, d + 1):
        p_row = [0] * (d + 1)
        u_row = [0] * (d + 1)
        for c in range(1, d + 1):
            a = min(c, s)
            p_row[c] = max(p_row[c - 1], a * pmax[s - a][a])
            u_row[c] = max(u_row[c - 1], a * upper[s - a][a] + pmax[s - a][a])
        pmax.append(p_row)
        upper.append(u_row)
    return pmax, upper


def max_partition_product_sum(d: int) -> PartitionMaximum:
    """Branch-and-bound partition search for the sum-of-products maximum.

    Partitions are walked in the anti-lexicographic order of
    max_partition_product_sum_naive, each prefix carrying its product P
    and leave-one-out sum E (appending a gives P*a and E*a + P).  A
    suffix of product Q <= Pmax and leave-one-out sum F <= U completes
    the prefix to E*Q + P*F, or to P*Q with a zero part, so a child whose
    max(E*Pmax + P*U, P*Pmax) falls strictly below the best so far is
    skipped.  Ties are still visited, so the result is the naive one:
    ties break to the lexicographically largest part tuple, and 2 + 0
    beats 1 + 1 at d = 2.

    Raises:
        ValueError: outside 1 <= d <= 60.
    """
    _check_partition_d(d)
    pmax, upper = _suffix_bounds(d)
    best = -1
    best_parts: tuple[int, ...] = ()
    prefix: list[int] = []

    def walk(remaining: int, cap: int, prod: int, loo: int) -> None:
        nonlocal best, best_parts
        if remaining == 0:
            parts = tuple(prefix)
            if len(parts) >= 2 and (loo > best or (loo == best and parts > best_parts)):
                best, best_parts = loo, parts
            with_zero = parts + (0,)
            if prod > best or (prod == best and with_zero > best_parts):
                best, best_parts = prod, with_zero
            return
        for a in range(min(cap, remaining), 0, -1):
            p, e = prod * a, loo * a + prod
            rest = remaining - a
            q = pmax[rest][a]
            if max(e * q + p * upper[rest][a], p * q) < best:
                continue
            prefix.append(a)
            walk(rest, a, p, e)
            prefix.pop()

    walk(d, d, 1, 0)
    # walk reaches itself through its closure cell; emptying the cell ends
    # that cycle, so the O(d^2) tables are freed on return, not left for
    # the cyclic collector, which a CLI process keeps off
    del walk
    return PartitionMaximum(d, best, best_parts)


def product_partition_lower_bound(d: int) -> int:
    """Known lower bound on the list size: the maximum-product partition
    value (powers of 3 with a 2 or 4 correction) plus a parity term that
    is 1 exactly when ceil(d/3) is even.  At d = 1 the trivial bound 1 is
    returned; the closed form starts at d = 2."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return 1
    r = d % 3
    if r == 0:
        t3 = 3 ** (d // 3)
    elif r == 1:
        t3 = 4 * 3 ** ((d - 4) // 3)
    else:
        t3 = 2 * 3 ** ((d - 2) // 3)
    t2 = 1 if (-(-d // 3)) % 2 == 0 else 0
    return t2 + t3


class ListSizeBoundsRow(Record):
    d: int
    product_partition_lower: int
    partition_sum_lower: int
    construction_upper: Optional[int]


def list_size_bounds_table(d_max: int) -> list[ListSizeBoundsRow]:
    """Per-dimension lower and upper bounds on the minimum list size that
    still admits positive-density codes.  The upper column is the shape
    maximum of the basis-subset search (construction_upper), None where
    that search is out of regime: filled to d = 9, None from d = 10."""
    _check_partition_d(d_max)
    return [ListSizeBoundsRow(d, product_partition_lower_bound(d),
                              max_partition_product_sum(d).value,
                              construction_upper(d))
            for d in range(1, d_max + 1)]


class PartitionGrowthCheck(Record):
    d: int
    value: int
    closed_form: Fraction
    meets_closed_form: bool
    all_threes_value: int
    all_threes_attains: bool


def partition_growth_check(d: int) -> PartitionGrowthCheck:
    """For d divisible by 3: does the partition maximum reach
    d * 3^((d-6)/3), and does the all-threes partition attain it?

    The all-threes partition is not always the argmax (mixed parts win at
    every checked d), so both facts are reported rather than assumed.
    """
    from fractions import Fraction
    if d % 3 != 0 or not 3 <= d <= 60:
        raise ValueError("need d divisible by 3 in [3, 60]")
    result = max_partition_product_sum(d)
    closed = d * Fraction(3) ** ((d - 6) // 3)
    m = d // 3
    all_threes = m * 3 ** (m - 1)
    return PartitionGrowthCheck(
        d, result.value, closed,
        result.value >= closed,
        all_threes,
        result.value == all_threes)


class MaxCodeResult(Record):
    """certified=True means the search proved optimality; otherwise
    max_size is only the best size found within the node budget.  The
    witness code's words are kept as sorted ints; `witness` is the same
    code as a Code, built on first access."""

    n: int
    max_size: int
    words: tuple[int, ...]
    certified: bool

    @cached_property
    def witness(self) -> Code:
        from .codes import Code
        return Code(self.n, self.words)


def max_code_search(n: int, d: int, list_size: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> MaxCodeResult:
    """Largest code on n coordinates with at most list_size words in
    every d-subcube, by branch and bound for n <= 5; node_budget counts
    at every n, and a spent budget leaves the best code found,
    uncertified.  When list_size >= 2^d every word is a codeword, and
    the 2^n listed words count against node_budget.

    Raises:
        OutOfRegimeError: for n >= 6 unless every word is a codeword; and
            when it is, for n > MAX_N or 2^n > node_budget, before any
            word is listed.
    """
    if (not 1 <= n <= MAX_BITS or not 0 <= d <= n or list_size < 1
            or node_budget < 0):
        raise ValueError("need 1 <= n, 0 <= d <= n, list_size >= 1 "
                         "and node_budget >= 0")
    if list_size >= 1 << d:
        if n > MAX_N:
            raise OutOfRegimeError(f"every one of the 2^{n} words is a codeword; "
                                   f"listed for n <= {MAX_N}")
        if 1 << n > node_budget:  # each listed word counts as a node
            raise OutOfRegimeError(f"every one of the 2^{n} words is a codeword; "
                                   f"listing them exceeds the node budget {node_budget}")
        return MaxCodeResult(n, 1 << n, tuple(range(1 << n)), True)
    if n > 5:
        raise OutOfRegimeError("exact search supported for n <= 5")
    return _max_code_branch_bound(n, d, list_size, node_budget)


def _max_code_branch_bound(n: int, d: int, list_size: int,
                           node_budget: int) -> MaxCodeResult:
    order = sorted(range(1 << n), key=lambda v: (v.bit_count(), v))
    cubes = [tuple(cube.vertices()) for cube in enumerate_subcubes(n, d)]
    num_buckets = 1 << (n - d)
    # bucket b is the canonical subcube index, free-set rank * num_buckets
    # + base pattern; each vertex lies in one bucket per free set
    vertex_buckets: list[list[int]] = [[] for _ in range(1 << n)]
    for b, vertices in enumerate(cubes):
        for v in vertices:
            vertex_buckets[v].append(b)

    included = [0] * len(cubes)
    possible = [1 << d] * len(cubes)
    # per free set, sum over buckets of min(list_size, possible)
    sum_min = [min(list_size, 1 << d) * num_buckets] * math.comb(n, d)

    # the empty code always qualifies, so a budget spent before the
    # first leaf still returns a valid (uncertified) answer
    best_size = 0
    best_words: list[int] = []
    chosen: list[int] = []
    nodes = 0
    exhausted = False

    def dfs(i: int, size: int):
        nonlocal best_size, best_words, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if size + ((1 << n) - i) <= best_size or min(sum_min) <= best_size:
            return
        if i == 1 << n:
            if size > best_size:
                best_size = size
                best_words = list(chosen)
            return
        v = order[i]
        buckets = vertex_buckets[v]
        if all(included[b] < list_size for b in buckets):
            for b in buckets:
                included[b] += 1
            chosen.append(v)
            dfs(i + 1, size + 1)
            chosen.pop()
            for b in buckets:
                included[b] -= 1
        for b in buckets:
            if possible[b] <= list_size:
                sum_min[b // num_buckets] -= 1
            possible[b] -= 1
        dfs(i + 1, size)
        for b in buckets:
            possible[b] += 1
            if possible[b] <= list_size:
                sum_min[b // num_buckets] += 1

    dfs(0, 0)
    return MaxCodeResult(n, best_size, tuple(sorted(best_words)), not exhausted)
