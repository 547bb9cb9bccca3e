"""Subcube enumeration, occupancy scans, and exact small-n code search.

A d-subcube of the n-cube is a set of free coordinates plus a base word
fixing the rest.  The canonical enumeration orders free sets in colex
order and bases in increasing packed-integer order, so every scan
reports the same witness; `subcube_at` addresses it by index.  The fast
scan buckets codewords by their projection on the fixed coordinates; the
naive per-subcube count is kept as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .codes import Code
from .errors import OutOfRegimeError
from .gf2 import MAX_BITS, BitWord

DEFAULT_SCAN_BUDGET = 100_000_000


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
        m = 0
        for c in self.free:
            m |= 1 << c
        return m

    @property
    def dim(self) -> int:
        return len(self.free)

    def vertices(self) -> Iterator[int]:
        """The 2^d words of the subcube, in increasing packed order."""
        free = self.free
        for pattern in range(1 << len(free)):
            w = self.base
            for i, c in enumerate(free):
                if (pattern >> i) & 1:
                    w |= 1 << c
            yield w

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


def _spread_base(pattern: int, fixed: tuple[int, ...]) -> int:
    base = 0
    for i, c in enumerate(fixed):
        if (pattern >> i) & 1:
            base |= 1 << c
    return base


def subcube_total(n: int, d: int) -> int:
    """C(n, d) * 2^(n-d), the number of d-subcubes of the n-cube."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return math.comb(n, d) << (n - d)


def enumerate_subcubes(n: int, d: int,
                       budget: int = DEFAULT_SCAN_BUDGET) -> Iterator[Subcube]:
    """All d-subcubes in canonical order: free sets colex, bases in
    increasing packed order.

    Raises:
        OutOfRegimeError: if the total exceeds the budget.
    """
    total = subcube_total(n, d)
    if total > budget:
        raise OutOfRegimeError(f"{total} subcubes exceed the budget {budget}")
    all_coords = set(range(n))
    for free in free_sets_colex(n, d):
        fixed = tuple(sorted(all_coords - set(free)))
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
    free = _colex_unrank(index // per_free, d)
    fixed = tuple(sorted(set(range(n)) - set(free)))
    return Subcube(n, free, _spread_base(index % per_free, fixed))


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


def _bases_of(n: int, free: tuple[int, ...]) -> Iterator[int]:
    fixed = tuple(sorted(set(range(n)) - set(free)))
    for pattern in range(1 << len(fixed)):
        yield _spread_base(pattern, fixed)


def max_subcube_count(code: Code, d: int,
                      budget: int = DEFAULT_SCAN_BUDGET) -> VerificationReport:
    """Scan every d-subcube and report the maximum occupancy.

    Codewords are bucketed by projection per free set, so the cost is
    O(C(n, d) * len(code)) instead of one pass per subcube.
    """
    n = code.n
    total = subcube_total(n, d)
    if total > budget:
        raise OutOfRegimeError(f"{total} subcubes exceed the budget {budget}")
    full = (1 << n) - 1
    per_free = 1 << (n - d)
    histogram: dict[int, int] = {}
    best = -1
    witness = None
    for free in free_sets_colex(n, d):
        mask = 0
        for c in free:
            mask |= 1 << c
        fixed_mask = full ^ mask
        counts: dict[int, int] = {}
        for w in code.words:
            proj = w & fixed_mask
            counts[proj] = counts.get(proj, 0) + 1
        empty = per_free - len(counts)
        if empty:
            histogram[0] = histogram.get(0, 0) + empty
        local_best = 0 if empty else -1
        for c in counts.values():
            histogram[c] = histogram.get(c, 0) + 1
            if c > local_best:
                local_best = c
        if local_best > best:
            best = local_best
            if local_best == 0:
                base = min(b for b in _bases_of(n, free) if b not in counts)
            else:
                base = min(b for b, c in counts.items() if c == local_best)
            witness = Subcube(n, free, base)
    assert witness is not None
    return VerificationReport(d, best, witness, histogram)


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
    subcube in canonical order is reported."""
    n = code.n
    total = subcube_total(n, d)
    if total > budget:
        raise OutOfRegimeError(f"{total} subcubes exceed the budget {budget}")
    full = (1 << n) - 1
    per_free = 1 << (n - d)
    for free in free_sets_colex(n, d):
        mask = 0
        for c in free:
            mask |= 1 << c
        fixed_mask = full ^ mask
        seen = {w & fixed_mask for w in code.words}
        if len(seen) < per_free:
            for base in _bases_of(n, free):
                if base not in seen:
                    return HittingReport(False, Subcube(n, free, base))
    return HittingReport(True, None)


@dataclass(frozen=True)
class MaxCodeResult:
    """certified=True means the search proved optimality; otherwise
    max_size is only the best size found within the node budget."""

    max_size: int
    witness: Code
    certified: bool


def max_code_search(n: int, d: int, list_size: int,
                    node_budget: int = 2_000_000) -> MaxCodeResult:
    """Largest code on n coordinates with at most list_size words in
    every d-subcube.  Exhaustive for n <= 4; branch and bound at n = 5.

    Raises:
        OutOfRegimeError: for n >= 6.
    """
    if not 1 <= n <= MAX_BITS or not 0 <= d <= n or list_size < 1:
        raise ValueError("need 1 <= n, 0 <= d <= n and list_size >= 1")
    if list_size >= 1 << d:
        full = frozenset(range(1 << n))
        return MaxCodeResult(1 << n, Code(n, full), True)
    if n <= 4:
        return _max_code_exhaustive(n, d, list_size)
    if n == 5:
        return _max_code_branch_bound(n, d, list_size, node_budget)
    raise OutOfRegimeError("exact search supported for n <= 5")


def _subcube_vertex_masks(n: int, d: int) -> list[int]:
    masks = []
    for cube in enumerate_subcubes(n, d):
        m = 0
        for v in cube.vertices():
            m |= 1 << v
        masks.append(m)
    return masks


def _max_code_exhaustive(n: int, d: int, list_size: int) -> MaxCodeResult:
    masks = _subcube_vertex_masks(n, d)
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
    free_sets = list(free_sets_colex(n, d))
    full = (1 << n) - 1
    num_buckets = 1 << (n - d)
    # bucket id of vertex v under free set f: projection compressed onto
    # the fixed coordinates
    vertex_buckets: list[list[int]] = []
    for v in range(1 << n):
        ids = []
        for fi, free in enumerate(free_sets):
            mask = 0
            for c in free:
                mask |= 1 << c
            fixed = tuple(sorted(set(range(n)) - set(free)))
            proj = v & (full ^ mask)
            pattern = 0
            for i, c in enumerate(fixed):
                if (proj >> c) & 1:
                    pattern |= 1 << i
            ids.append(fi * num_buckets + pattern)
        vertex_buckets.append(ids)

    nf = len(free_sets)
    included = [0] * (nf * num_buckets)
    possible = [1 << d] * (nf * num_buckets)
    # per free set, sum over buckets of min(list_size, possible)
    sum_min = [min(list_size, 1 << d) * num_buckets] * nf

    best_size = -1
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
