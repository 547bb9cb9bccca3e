"""Subcube enumeration, occupancy scans, and exact small-n code search.

A d-subcube of the n-cube is a set of free coordinates plus a base word
fixing the rest.  The canonical enumeration orders free sets in colex
order and bases in increasing packed-integer order, so every scan
reports the same witness; `subcube_at` addresses it by index, and the
exact code search (`max_code_search`) numbers its subcubes the same way.

The scans (`max_subcube_count`, `verify_hitting`) walk dense occupancy
tables for n <= MAX_N: the code as a 0/1 array of shape (2,)*n, and for
each free set the table of subcube counts, each one a vectorised sum of
its parent (the partial zeta transform of Yates 1937).  That costs about
2 * subcube_total(n, d) array additions, whatever the code size, and
2^(n+1) bytes of tables at most, 32 MB at n = 24.  Longer codes, which
only a loaded file can give, get the same tables by counting the
codewords' patterns on the fixed coordinates, so both scans keep one
body; their tables have 2^(n-d) entries, scanned for n - d <= MAX_N.
The naive per-subcube count is the oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .codes import MAX_N, Code
from .errors import OutOfRegimeError
from .gf2 import MAX_BITS, BitWord

DEFAULT_SCAN_BUDGET = 100_000_000
DEFAULT_NODE_BUDGET = 2_000_000
_MAX_FIXED = MAX_N  # count tables have 2^(n - d) entries, at most 2^MAX_N


@dataclass(frozen=True)
class Subcube:
    """free: strictly increasing coordinates allowed to vary; base: the
    packed word fixing the remaining coordinates (zero on free ones)."""

    n: int
    free: tuple[int, ...]
    base: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_BITS:
            raise ValueError(f"n must be in [0, {MAX_BITS}]")
        if any(not 0 <= c < self.n for c in self.free):
            raise ValueError("free coordinates out of range")
        if list(self.free) != sorted(set(self.free)):
            raise ValueError("free coordinates must be strictly increasing")
        if not 0 <= self.base < (1 << self.n) or self.base & self.free_mask:
            raise ValueError("base must be zero on the free coordinates")

    @property
    def free_mask(self) -> int:
        return _spread_base((1 << len(self.free)) - 1, self.free)

    @property
    def dim(self) -> int:
        return len(self.free)

    def vertices(self) -> Iterator[int]:
        """The 2^d words of the subcube, in increasing packed order."""
        for pattern in range(1 << len(self.free)):
            yield self.base | _spread_base(pattern, self.free)

    def contains(self, word: int) -> bool:
        return word & ~self.free_mask == self.base


def free_sets_colex(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """d-subsets of range(n) in colexicographic order."""
    if d == 0:
        yield ()
        return
    for top in range(d - 1, n):
        for rest in free_sets_colex(top, d - 1):
            yield rest + (top,)


def _colex_unrank(index: int, d: int) -> tuple[int, ...]:
    out = []
    for i in range(d, 0, -1):
        m = i - 1
        while math.comb(m + 1, i) <= index:
            m += 1
        out.append(m)
        index -= math.comb(m, i)
    return tuple(reversed(out))


def _fixed_coords(n: int, free: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(range(n)).difference(free)))


def _spread_base(pattern: int, fixed: tuple[int, ...]) -> int:
    base = 0
    for i, c in enumerate(fixed):
        if (pattern >> i) & 1:
            base |= 1 << c
    return base


def _leaf_subcube(n: int, free: tuple[int, ...], pattern: int) -> Subcube:
    return Subcube(n, free, _spread_base(pattern, _fixed_coords(n, free)))


def subcube_total(n: int, d: int) -> int:
    """C(n, d) * 2^(n-d), the number of d-subcubes of the n-cube."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return math.comb(n, d) << (n - d)


def _check_budget(n: int, d: int, budget: int) -> None:
    total = subcube_total(n, d)
    if total > budget:
        raise OutOfRegimeError(f"{total} subcubes exceed the budget {budget}")


def enumerate_subcubes(n: int, d: int,
                       budget: int = DEFAULT_SCAN_BUDGET) -> Iterator[Subcube]:
    """All d-subcubes in canonical order: free sets colex, bases in
    increasing packed order.

    Raises:
        OutOfRegimeError: if the total exceeds the budget.
    """
    _check_budget(n, d, budget)
    for free in free_sets_colex(n, d):
        fixed = _fixed_coords(n, free)
        for pattern in range(1 << (n - d)):
            yield Subcube(n, free, _spread_base(pattern, fixed))


def subcube_at(n: int, d: int, index: int) -> Subcube:
    """The subcube at `index` in the canonical enumeration.  Base order
    on ascending fixed coordinates is increasing-int, so this matches
    enumerate_subcubes position for position."""
    total = subcube_total(n, d)
    if not 0 <= index < total:
        raise ValueError(f"index must be in [0, {total})")
    per_free = 1 << (n - d)
    return _leaf_subcube(n, _colex_unrank(index // per_free, d), index % per_free)


def subcube_count(code: Code, cube: Subcube) -> int:
    """Number of codewords inside the subcube (naive scan, the oracle)."""
    if code.n != cube.n:
        raise ValueError("code and subcube disagree on n")
    fixed_mask = ((1 << cube.n) - 1) ^ cube.free_mask
    base = cube.base
    return sum(1 for w in code.words if w & fixed_mask == base)


@dataclass(frozen=True)
class VerificationReport:
    """max_count over all d-subcubes, the first witness subcube in
    canonical order, and the histogram {count: number of subcubes}."""

    d: int
    max_count: int
    witness: Subcube
    histogram: dict


def _dense_tables(code: Code, d: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Occupancy of every d-subcube, one free set at a time in colex
    order: yields (free, table) with table[p] the number of codewords in
    the subcube whose base spreads pattern p over the fixed coordinates.

    Axis i of the 0/1 code table stands for coordinate n-1-i, so every
    C-order ravel is in increasing packed-base order.  Summing out the
    top free coordinate first and recursing on the smaller ones visits
    free sets in free_sets_colex order and keeps d + 1 tables alive.
    """
    n = code.n
    occupancy = np.zeros(1 << n, np.uint8)
    occupancy[np.fromiter(code.words, np.int64, len(code))] = 1

    def walk(table: np.ndarray, free: tuple[int, ...]):
        summed = len(free)
        if summed == d:
            yield free, table.ravel()
            return
        # entries of the next table reach 2^(summed + 1)
        dtype = np.uint8 if summed < 7 else np.uint16 if summed < 15 else np.uint32
        for c in range(d - summed - 1, free[0] if free else n):
            lead = (slice(None),) * (n - 1 - c - summed)
            yield from walk(np.add(table[lead + (0,)], table[lead + (1,)],
                                   dtype=dtype), (c,) + free)

    yield from walk(occupancy.reshape((2,) * n), ())


def _bucket_tables(code: Code, d: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """The tables of _dense_tables without a 2^n array: per free set,
    np.bincount of the codewords' patterns on the fixed coordinates.  A
    pattern is the place values times the fixed bits, C(n, d) * (n - d)
    vector passes; float32 keeps it exact, as patterns stay below 2^24."""
    n = code.n
    words = np.fromiter(code.words, np.uint64, len(code))
    bits = ((words >> np.arange(n, dtype=np.uint64)[:, None])
            & np.uint64(1)).astype(np.float32)
    place = np.exp2(np.arange(n - d, dtype=np.float32))
    for free in free_sets_colex(n, d):
        patterns = place @ bits[list(_fixed_coords(n, free))]
        yield free, np.bincount(patterns.astype(np.intp), minlength=1 << (n - d))


def _count_tables(code: Code, d: int,
                  budget: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Both scans' tables, dense for n <= MAX_N, after the regime checks."""
    n = code.n
    _check_budget(n, d, budget)
    if n - d > _MAX_FIXED:
        raise OutOfRegimeError(f"tables of 2^{n - d} entries exceed 2^{_MAX_FIXED}")
    return _dense_tables(code, d) if n <= MAX_N else _bucket_tables(code, d)


def max_subcube_count(code: Code, d: int,
                      budget: int = DEFAULT_SCAN_BUDGET) -> VerificationReport:
    """Scan every d-subcube and report the maximum occupancy.

    For n <= MAX_N the scan walks dense occupancy tables (_dense_tables):
    each table is one vectorised sum of its parent, so the cost is about
    2 * subcube_total(n, d) array additions plus one bincount per free
    set, independent of the code size, and the largest table holds 2^n
    bytes.  Longer codes count the same tables from their words
    (_bucket_tables), C(n, d) * (n - d) vector passes over the code,
    for n - d <= MAX_N.

    Raises:
        OutOfRegimeError: if the subcube total exceeds the budget or
            n - d > MAX_N, before anything is allocated.
    """
    n = code.n
    tables = _count_tables(code, d, budget)
    # a subcube holds at most min(2^d, len(code)) codewords
    histogram = np.zeros(min(1 << d, len(code)) + 1, np.int64)
    best = -1
    witness = None
    for free, table in tables:
        histogram += np.bincount(table, minlength=len(histogram))
        top = int(table.max())
        if top > best:
            best = top
            witness = _leaf_subcube(n, free, int(table.argmax()))
    assert witness is not None
    return VerificationReport(d, best, witness,
                              {k: v for k, v in enumerate(histogram.tolist()) if v})


def max_subcube_count_naive(code: Code, d: int,
                            budget: int = DEFAULT_SCAN_BUDGET) -> tuple[int, Subcube]:
    """Oracle: walk every subcube and count directly."""
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
    if word.bits not in code.words:
        raise ValueError("word is not a codeword")
    erased = tuple(erased)
    if len(set(erased)) != len(erased):
        raise ValueError("erased coordinates must be distinct")
    mask = 0
    for c in erased:
        if not 0 <= c < code.n:
            raise ValueError("erased coordinate out of range")
        mask |= 1 << c
    keep = ((1 << code.n) - 1) ^ mask
    target = word.bits & keep
    return sum(1 for w in code.words if w & keep == target)


@dataclass(frozen=True)
class HittingReport:
    hits_all: bool
    missed: Optional[Subcube]


def verify_hitting(code: Code, d: int,
                   budget: int = DEFAULT_SCAN_BUDGET) -> HittingReport:
    """Does the set meet every d-subcube?  On failure the first missed
    subcube in canonical order is reported.  Same tables, cost, regime
    and budget check as max_subcube_count; stops at the first free set
    with an empty subcube."""
    n = code.n
    for free, table in _count_tables(code, d, budget):
        if not table.all():
            return HittingReport(False, _leaf_subcube(n, free, int(table.argmin())))
    return HittingReport(True, None)


@dataclass(frozen=True)
class MaxCodeResult:
    """certified=True means the search proved optimality; otherwise
    max_size is only the best size found within the node budget."""

    max_size: int
    witness: Code
    certified: bool


def max_code_search(n: int, d: int, list_size: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> MaxCodeResult:
    """Largest code on n coordinates with at most list_size words in
    every d-subcube.  Exhaustive and certified for n <= 4; branch and
    bound at n = 5, the only search that node_budget bounds.

    Raises:
        OutOfRegimeError: for n >= 6.
    """
    if (not 1 <= n <= MAX_BITS or not 0 <= d <= n or list_size < 1
            or node_budget < 0):
        raise ValueError("need 1 <= n, 0 <= d <= n, list_size >= 1 "
                         "and node_budget >= 0")
    if list_size >= 1 << d:
        full = frozenset(range(1 << n))
        return MaxCodeResult(1 << n, Code(n, full), True)
    if n <= 4:
        return _max_code_exhaustive(n, d, list_size)
    if n == 5:
        return _max_code_branch_bound(n, d, list_size, node_budget)
    raise OutOfRegimeError("exact search supported for n <= 5")


def _subcube_vertices(n: int, d: int) -> list[tuple[int, ...]]:
    """The vertices of every d-subcube, listed at its canonical index."""
    return [tuple(cube.vertices()) for cube in enumerate_subcubes(n, d)]


def _max_code_exhaustive(n: int, d: int, list_size: int) -> MaxCodeResult:
    masks = [sum(1 << v for v in vertices) for vertices in _subcube_vertices(n, d)]
    best = -1
    best_set = 0
    for subset in range(1 << (1 << n)):
        size = subset.bit_count()
        if size <= best:
            continue
        if all((subset & m).bit_count() <= list_size for m in masks):
            best = size
            best_set = subset
    words = frozenset(v for v in range(1 << n) if (best_set >> v) & 1)
    return MaxCodeResult(best, Code(n, words), True)


def _max_code_branch_bound(n: int, d: int, list_size: int,
                           node_budget: int) -> MaxCodeResult:
    order = sorted(range(1 << n), key=lambda v: (v.bit_count(), v))
    cubes = _subcube_vertices(n, d)
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
    return MaxCodeResult(best_size, Code(n, frozenset(best_words)),
                         not exhausted)
