"""Words and subcubes of the n-cube, in pure Python.

A word is a Python int (bit i = coordinate i + 1), written as a 0/1
string whose leftmost character is coordinate 1 (_from01, _to01).  A
d-subcube is a set of free coordinates plus a base word fixing the
rest.  The canonical enumeration orders free sets in colex order and
bases in increasing packed-integer order, so every scan reports the same
witness.

Nothing here loads numpy, so the exact code search (extremal) and
`search-max-code` run without it; the scans (cube), codes and the
linear algebra (gf2) build on this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from ._record import Record
from .errors import OutOfRegimeError, _shown, _shown_power

# Hard cap on vector length.  Single place to widen if longer words are
# ever needed; everything else derives its limits from this constant.
MAX_BITS = 64

# The most coordinates for which the package lists every word of the
# cube (weight-class codes, kernels, the full-cube search answer) or
# holds a table with one entry per word (the dense scans).
MAX_N = 24

DEFAULT_SCAN_BUDGET = 100_000_000


def _from01(text: str) -> int:
    """The packed word of a 0/1 string, whose leftmost character is
    coordinate 1; a ValueError names the first other character."""
    if bad := text.strip("01"):
        raise ValueError(f"invalid character {bad[0]!r}")
    return int("0" + text[::-1], 2)  # the "0" parses the empty word


def _to01(word: int, n: int) -> str:
    """Inverse of _from01 for a word of n coordinates."""
    return f"{word:0{n}b}"[::-1] if n else ""


def _weight_table(n: int, r: int) -> int:
    """The 2^n-bit int whose bit T is set when |T| = r, for T a subset
    of range(n) read as a packed word.  Built a coordinate at a time: the
    words of weight w on m + 1 coordinates are those of weight w on m,
    and those of weight w - 1 with coordinate m set.  Only the weights
    that can still reach r are kept, so no level holds more than 2^n
    bits in all."""
    if not 0 <= r <= n:
        return 0
    tables = {0: 1}
    for m in range(n):
        h = 1 << m
        tables = {w: tables.get(w, 0) | tables.get(w - 1, 0) << h
                  for w in range(max(0, r - n + m + 1), min(r, m + 1) + 1)}
    return tables[r]


class Subcube(Record):
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
    """d-subsets of range(n) in colexicographic order.

    Colex order of the free sets is lex order of their complements read
    from the top coordinate down.  Refused past MAX_BITS coordinates
    before range(n) is listed.
    """
    if n > MAX_BITS:
        raise ValueError(f"n must be in [0, {MAX_BITS}]")
    if d > n:
        return
    coords = set(range(n))
    for fixed in itertools.combinations(range(n - 1, -1, -1), n - d):
        yield tuple(sorted(coords.difference(fixed)))


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
    # 2^(n-d) alone exceeds the budget: the total (125 MB at n = 10^9) is not formed
    if 0 <= d <= n - max(64, budget.bit_length()):
        raise OutOfRegimeError(f"at least {_shown_power(n - d)} subcubes exceed "
                               f"the budget {_shown(budget)}")
    total = subcube_total(n, d)
    if total > budget:
        raise OutOfRegimeError(f"{_shown(total)} subcubes exceed the budget {_shown(budget)}")


def enumerate_subcubes(n: int, d: int,
                       budget: int = DEFAULT_SCAN_BUDGET) -> Iterator[Subcube]:
    """All d-subcubes in canonical order: free sets colex, bases in
    increasing packed order.

    Raises:
        OutOfRegimeError: if the total exceeds the budget.
        ValueError: past MAX_BITS coordinates, before any subcube is built.
    """
    _check_budget(n, d, budget)
    for free in free_sets_colex(n, d):
        fixed = _fixed_coords(n, free)
        for pattern in range(1 << (n - d)):
            yield Subcube(n, free, _spread_base(pattern, fixed))

