"""The two subcube walks of a code: occupancy scans and the hitting check.

The codewords that agree with a codeword outside d erased coordinates
are those of one d-subcube, so the largest erasure list size of a
nonempty code at d is the largest count of a d-subcube, which
max_subcube_count reports.  verify_hitting asks the converse question
of the vertex Turan problem: does the set meet every d-subcube?

Subcubes and their canonical order come from geometry: free sets in
colex order, bases in increasing packed-integer order, so every scan
reports the same witness, the first in that order.

The max-count scan (`max_subcube_count`) sums occupancy tables, each
free set's table of subcube counts a sum of its parent's over one more
coordinate (the partial zeta transform of Yates 1937): about
2 * subcube_total(n, d) additions, whatever the code size.  It takes
one of three paths, chosen by n and d alone.  Small codes (n <=
_BYTE_SCAN_N, d <= 6) walk tables of one-byte counters held in Python
ints (_byte_scan), with no numpy.  Other codes with n <= MAX_N walk
dense numpy tables: the code as a 0/1 array of shape (2,)*n, each table
one vectorised sum of its parent.  That walk recurses over the top free
coordinates and sums the rest of a subtree in stacked blocks, one numpy
call per coordinate for a whole colex range of free sets, so the calls
do not grow with C(n, d).  It holds the d + 1 tables of its path,
2^(n+1) bytes at most (32 MB at n = 24), plus two block levels of
_BLOCK_ENTRIES entries.  Longer codes, which only a loaded file can
give, get the same tables by counting the codewords' patterns on the
fixed coordinates; their tables have 2^(n-d) entries, scanned for
n - d <= MAX_N.

The hitting check (`verify_hitting`) walks, for n <= MAX_N, the truth
table of the code's complement in pure Python (_first_missed): each
pick ands a table with itself shifted and halves it, as the byte scan
halves its counters (_lower_blocks), and a zero table ends its subtree.
Longer codes are checked on the count tables (_count_tables), which
stop at the first block with an empty subcube.

numpy is imported only inside the numpy paths, and Code only for type
checking, so this module loads neither.  The oracle of every scan is
subcube_count over every subcube, as the naive scans of tests/oracles.py
run it; its erasure_list_size counts the list of one codeword and erased
set.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Iterator, Optional

from ._record import Record
from .errors import OutOfRegimeError
# by name first: -X importtime does not time `from . import geometry`
from .geometry import (DEFAULT_SCAN_BUDGET, MAX_N, Subcube, _check_budget,
                       _clear_bit_masks, _colex_unrank, _fixed_coords, _leaf_subcube,
                       free_sets_colex)
from . import geometry

if TYPE_CHECKING:
    import numpy as np

    from .codes import Code


def subcube_count(code: Code, cube: Subcube) -> int:
    """Number of codewords inside the subcube (naive scan, the oracle)."""
    if code.n != cube.n:
        raise ValueError("code and subcube disagree on n")
    import numpy as np
    fixed = np.uint64(((1 << cube.n) - 1) ^ cube.free_mask)
    return int(np.count_nonzero(code.array & fixed == np.uint64(cube.base)))


class VerificationReport(Record):
    """max_count over all d-subcubes, the first subcube in canonical
    order that holds it, and the number of d-subcubes that hold it."""

    d: int
    max_count: int
    witness: Subcube
    subcubes_at_max: int


# Every level of a stacked block (the partial tables of its free sets,
# side by side) holds at most this many entries: enough rows that one
# np.add serves many free sets, few enough that a block's two live
# levels stay in cache.  Chosen by per-job max RSS: 2^17 raised that of
# build-verify --n 15 --d 5 by about 0.2 MB, while 2^15 and 2^16 left
# it within run-to-run noise, and 2^16 is 15% faster at n = 24, d = 17.
_BLOCK_ENTRIES = 1 << 16

# Entries per temporary intp array (64 KB): the dense walk converts the
# words to intp in slices of this size, not the whole code.
_INTP_SLICE = 1 << 13


def _table_dtype(summed: int) -> type:
    """The narrowest dtype for word counts of subcubes of dimension summed."""
    import numpy as np
    return np.uint8 if summed < 8 else np.uint16 if summed < 16 else np.uint32


def _dense_tables(code: Code, d: int) -> Iterator[tuple[int, np.ndarray]]:
    """Occupancy of every d-subcube, in blocks of free sets: yields
    (first, block), where block[i] is the table of the free set of colex
    rank first + i and block[i, p] the number of codewords in its subcube
    whose base pattern is p with its n - d bits reversed.  The blocks are
    consecutive colex ranges, in colex order.

    Axis i of the 0/1 code table stands for coordinate i, so summing out
    a low coordinate adds long contiguous runs.  The walk sums the top
    free coordinate first and recurses on the smaller ones, as in
    free_sets_colex order, keeping d + 1 tables alive.  A subtree whose
    every level fits _BLOCK_ENTRIES is summed as one block instead
    (_stacked_leaves), one np.add per coordinate and level.
    """
    import numpy as np
    n = code.n
    # each byte with its bits reversed, to lay coordinate i on axis i
    reverse = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.intp)
    occupancy = np.zeros(1 << n, np.uint8)
    for at in range(0, len(code), _INTP_SLICE):
        words = code.array[at:at + _INTP_SLICE].astype(np.intp)
        # the n <= MAX_N = 24 bits of each word, reversed byte by byte
        reversed_words = (reverse[words & 255] << 16
                          | reverse[words >> 8 & 255] << 8
                          | reverse[words >> 16])
        occupancy[reversed_words >> (24 - n)] = 1

    def walk(table: np.ndarray, free: tuple[int, ...]):
        k = d - len(free)  # free coordinates still to pick, all below m
        m = free[0] if free else n
        if all(math.comb(m - k + j, j) << (table.ndim - j) <= _BLOCK_ENTRIES
               for j in range(1, k + 1)):
            first = sum(math.comb(c, k + 1 + i) for i, c in enumerate(free))
            block = _stacked_leaves(table, m, k, len(free))
            del table
            yield first, block
            return
        dtype = _table_dtype(len(free) + 1)
        for c in range(k - 1, m):
            lead = (slice(None),) * c
            child = walk(np.add(table[lead + (0,)], table[lead + (1,)],
                                dtype=dtype), (c,) + free)
            if c == m - 1:
                del table  # the last subtree runs without its parent
            yield from child

    blocks = walk(occupancy.reshape((2,) * n), ())
    del occupancy
    yield from blocks


def _stacked_leaves(table: np.ndarray, m: int, k: int, summed: int) -> np.ndarray:
    """The tables of `table` with each k-subset of range(m) summed out,
    one row per subset in colex order; `table` has summed coordinates
    summed out already, all of them above m.

    Summing the smallest coordinates first, level j holds the j-subsets
    of range(m - k + j) in colex order.  Those below c are its first
    comb(c, j) rows, and with c added they are the rows of level j + 1
    from comb(c, j + 1) on, so one np.add per coordinate extends a level.
    """
    import numpy as np
    level = table.reshape(1, -1)
    for j in range(k):
        upper = np.empty((math.comb(m - k + j + 1, j + 1), level.shape[1] // 2),
                         _table_dtype(summed + j + 1))
        for c in range(j, m - k + j + 1):
            rows = math.comb(c, j)
            # coordinate c has c - j unsummed coordinates below it
            pairs = level[:rows].reshape(rows, 1 << (c - j), 2, -1)
            start = math.comb(c, j + 1)
            np.add(pairs[:, :, 0], pairs[:, :, 1], dtype=upper.dtype,
                   out=upper[start:start + rows].reshape(pairs.shape[:2] + (-1,)))
        level = upper
    return level


def _bucket_tables(code: Code, d: int) -> Iterator[tuple[int, np.ndarray]]:
    """The tables of _dense_tables without a 2^n array, in one-row blocks:
    per free set, np.bincount of the codewords' bit-reversed patterns on
    the fixed coordinates.  A pattern is the place values times the fixed
    bits, C(n, d) * (n - d) vector passes; float32 keeps it exact, as
    patterns stay below 2^24."""
    import numpy as np
    n = code.n
    bits = ((code.array >> np.arange(n, dtype=np.uint64)[:, None])
            & np.uint64(1)).astype(np.float32)
    place = np.exp2(np.arange(n - d - 1, -1, -1, dtype=np.float32))
    for rank, free in enumerate(free_sets_colex(n, d)):
        patterns = place @ bits[list(_fixed_coords(n, free))]
        yield rank, np.bincount(patterns.astype(np.intp), minlength=1 << (n - d))[None]


def _count_tables(code: Code, d: int,
                  budget: int) -> Iterator[tuple[int, np.ndarray]]:
    """The scan's blocks, dense for n <= MAX_N, after the regime checks."""
    n = code.n
    _check_budget(n, d, budget)
    if n - d > geometry.MAX_N:  # geometry owns the limit; MAX_N below only picks the tables
        raise OutOfRegimeError(f"tables of 2^{n - d} entries exceed 2^{geometry.MAX_N}")
    return _dense_tables(code, d) if n <= MAX_N else _bucket_tables(code, d)


def _first_subcube(n: int, d: int, first: int, block: np.ndarray,
                   count: int) -> Subcube:
    """The first subcube in canonical order among those of a block that
    hold `count` codewords: the first row holding it, then the least
    base pattern, read from the positions with their bits reversed."""
    hits = block == count
    row = int(hits.argmax()) // block.shape[1]
    pattern = int(hits[row].reshape((2,) * (n - d)).T.argmax())
    return _leaf_subcube(n, _colex_unrank(first + row, d), pattern)


# Codes of at most this many coordinates are scanned on byte tables
# (_byte_scan), the others with numpy.  At d = 5 the byte walk took
# 11 ms at n = 13, 58 ms at n = 15 and 146 ms at n = 16, and the numpy
# walk 3.6, 19 and 32 ms once numpy is loaded, which takes 56-160 ms of
# a fresh process (in process, medians of five; 2-vCPU x86-64 VM).  As
# fresh build-verify processes the byte walk ran 0.59-0.85x the numpy
# path at n = 15 (d = 1 to 6), and 1.06-1.10x at n = 16 (d = 5 and 6).
_BYTE_SCAN_N = 15
# One-byte counters with a guard bit hold counts up to 2^6 (_byte_scan).
# Two-byte counters for d = 7 to 14 ran 5-10x the numpy walk at n = 15
# (in process, numpy loaded), so those d stay on numpy.
_BYTE_SCAN_D = 6


def _byte_scan(code: Code, d: int) -> VerificationReport:
    """max_subcube_count for d <= _BYTE_SCAN_D, on tables of one-byte
    counters held in Python ints.

    Byte x of a table on m index bits counts the codewords of the
    subcube with index x.  Pairing index bit c, t + (t >> (8 << c)), adds
    to each counter with bit c clear its partner, and the lower block of
    each pair of 2^c-byte blocks (_lower_blocks) is the child table, on
    m - 1 index bits.  Free coordinates are picked from the top down, as
    free_sets_colex orders them, so the index bits of a table are the
    coordinates below its last pick and then the fixed ones above it,
    and a leaf's index is its base pattern on the fixed coordinates.

    Leaves are read in place from their parent's pairing sum, at the
    counters with bit c clear: a counter reaches best when adding
    128 - best sets its guard bit 128, so one add and one mask tell
    whether any subcube of a free set reaches it, bit_count how many do,
    and the lowest guard bit the least base.  A count is at most
    2^d <= 64 and the bias at most 129, so no counter carries into the
    next.
    """
    n = code.n
    counters = bytearray(1 << n)
    for w in code._ints():
        counters[w] = 1
    # the index bits of the tables the leaves are read from; for d = 0
    # the code's table, read as the lower half at c = n
    bits = n - d + 1
    ones = int.from_bytes(b"\1" * (1 << bits), "little")
    # the guard bits of the counters with index bit c clear
    highs = [int.from_bytes((b"\x80" * (1 << c) + bytes(1 << c)) * (1 << (bits - c - 1)),
                            "little") for c in range(bits)]
    best, at_max, witness = -1, 0, None
    bias = 129 * ones  # 128 - best in every counter

    def leaves(sums: int, c: int, free: tuple[int, ...]) -> None:
        nonlocal best, at_max, witness, bias
        high = highs[c]
        hits = (sums + bias) & high
        if not hits:
            return
        above = (sums + bias - ones) & high
        if above:  # a new maximum
            while above:
                best, bias, hits = best + 1, bias - ones, above
                above = (sums + bias - ones) & high
            x = (hits & -hits).bit_length() // 8 - 1
            witness = free, x >> (c + 1) << c | x & ((1 << c) - 1)
            at_max = 0
        at_max += hits.bit_count()

    def walk(table: int, k: int, m: int, free: tuple[int, ...]) -> None:
        """Pick k more free coordinates below m; table has n - d + k
        index bits."""
        for c in range(k - 1, m):
            sums = table + (table >> (8 << c))
            if k == 1:
                leaves(sums, c, (c,) + free)
            else:
                lower = _lower_blocks(sums.to_bytes(1 << (n - d + k), "little"), c)
                walk(int.from_bytes(lower, "little"), k - 1, c, (c,) + free)

    table = int.from_bytes(counters, "little")
    del counters
    if d:
        walk(table, d, n, ())
    else:
        leaves(table, n, ())
    free, pattern = witness
    return VerificationReport(d, best, _leaf_subcube(n, free, pattern), at_max)


def max_subcube_count(code: Code, d: int,
                      budget: int = DEFAULT_SCAN_BUDGET) -> VerificationReport:
    """Scan every d-subcube and report the maximum occupancy, the first
    subcube holding it and how many subcubes hold it.

    For n <= _BYTE_SCAN_N and d <= _BYTE_SCAN_D the scan walks tables of
    one-byte counters in Python ints (_byte_scan), one pairing per free
    set and level, and loads no numpy.  Other codes with n <= MAX_N walk
    dense occupancy tables (_dense_tables): each table is one vectorised
    sum of its parent, about 2 * subcube_total(n, d) array additions,
    independent of the code size.  Free sets are summed in stacked
    blocks, so the numpy calls number about C(n, d) / (rows per block)
    rather than C(n, d), and the memory is the d + 1 path tables
    (2^(n+1) bytes at most) plus two block levels of _BLOCK_ENTRIES
    entries.  Longer codes count the same tables from their words
    (_bucket_tables), C(n, d) * (n - d) vector passes over the code, for
    n - d <= MAX_N.  A block below the best so far costs one max; one
    that reaches it, a count of its entries equal to the best.

    Raises:
        OutOfRegimeError: if the subcube total exceeds the budget or
            n - d > MAX_N, before anything is allocated.
    """
    n = code.n
    if n <= _BYTE_SCAN_N and d <= _BYTE_SCAN_D:
        _check_budget(n, d, budget)
        return _byte_scan(code, d)
    import numpy as np
    best = -1
    at_max = 0
    witness = None
    for first, block in _count_tables(code, d, budget):
        top = int(block.max())
        if top > best:
            best, at_max = top, 0
            witness = _first_subcube(n, d, first, block, top)
        if top == best:
            at_max += int(np.count_nonzero(block == best))
        del block  # freed before the walk builds the next block
    assert witness is not None
    return VerificationReport(d, best, witness, at_max)


class HittingReport(Record):
    hits_all: bool
    missed: Optional[Subcube]


def verify_hitting(code: Code, d: int,
                   budget: int = DEFAULT_SCAN_BUDGET) -> HittingReport:
    """Does the set meet every d-subcube?  On failure the first missed
    subcube in canonical order is reported.

    For n <= MAX_N the check walks the truth table of the code's
    complement (_first_missed), in pure Python.  Longer codes, which
    only files and the API give, are checked on the count tables
    (_count_tables, numpy), which stop at the first block of free sets
    with an empty subcube.

    Raises:
        ValueError: unless 0 <= d <= n.
        OutOfRegimeError: if the subcube total exceeds the budget, or
            for n > MAX_N if n - d > MAX_N, before anything is allocated.
    """
    n = code.n
    if n > MAX_N:
        for first, block in _count_tables(code, d, budget):
            if not block.all():
                return HittingReport(False, _first_subcube(n, d, first, block, 0))
        return HittingReport(True, None)
    _check_budget(n, d, budget)
    missed = _first_missed(code, d)
    return HittingReport(missed is None, missed)


# Tables of at most 2^_FLAT_BITS bits are paired in place: an and with a
# shifted copy and a mask, three int operations, where halving a table
# (_and_pairs) also converts it to bytes and back.  A table paired in
# place keeps its size in its whole subtree, so the threshold trades the
# two: over the hitting sets and weight-class codes of bench/stages.py,
# 14 gave the least total time of 12 to 15 (2-vCPU x86-64 VM).
_FLAT_BITS = 14


def _first_missed(code: Code, d: int) -> Optional[Subcube]:
    """The first d-subcube in canonical order that holds no codeword,
    for n <= MAX_N, or None.

    The complement's truth table has bit x set when word x is not in the
    code.  Pairing coordinate c (_and_pairs) gives the table of the
    1-subcubes with free coordinate c that hold no codeword, indexed by
    the other coordinates; pairing again, those of dimension 2, and so
    on.  The walk picks the free coordinates from the top down, as
    free_sets_colex orders them, so the first nonzero table at depth d
    is that of the first free set with a missed subcube, and its lowest
    set bit the least base.  A zero table ends its subtree: no subcube
    containing a met one is missed.  Tables of at most 2^_FLAT_BITS bits are
    paired in place instead of halved: the entries whose index has the
    picked bit set are masked out, so the picks made there keep their
    index bits, which the base drops at the end.
    """
    n = code.n
    flat = min(n, _FLAT_BITS)  # the index bits of a table paired in place
    masks = _clear_bit_masks(flat)
    path: list[int] = []  # the free coordinates picked, from the top down

    def walk(table: int, k: int, m: int, stop: int) -> int:
        """The first nonzero table k picks below stop under `table`, of
        m index bits, or 0."""
        for c in range(k - 1, stop):
            child = (table & table >> (1 << c) & masks[c] if m <= flat
                     else _and_pairs(table, m, c))
            if child:
                path.append(c)
                found = child if k == 1 else walk(child, k - 1, m - 1, c)
                if found:
                    return found
                path.pop()
        return 0

    chars = bytearray(b"1") * (1 << n)
    for w in code._ints():
        chars[w] = 48  # "0"
    chars.reverse()  # in place: a copy would double the 2^n-byte peak
    table = int(chars, 2)
    del chars
    if d and table:
        table = walk(table, d, n, n)
    if not table:
        return None
    x = (table & -table).bit_length() - 1
    for c in path[n - flat:]:  # the picks made in place, from the top down
        x = x >> (c + 1) << c | x & ((1 << c) - 1)
    return _leaf_subcube(n, tuple(reversed(path)), x)


# memoryview formats of 1, 2, 4 and 8 bytes
_ITEMS = "BHIQ"


def _and_pairs(table: int, m: int, c: int) -> int:
    """The 2^(m-1)-bit table whose entry x is the and of the entries of
    `table` (2^m bits, m >= 4) at x with a 0 and with a 1 inserted as
    index bit c.

    Index bit c = m - 1 is cut by a shift.  Below it the table is read
    as bytes: for c < 3 each byte's four pairs are and-ed by a translate
    table, one for the even bytes and one for the odd, which fill the
    low and the high half of each byte out; from c = 3 the pairs are
    blocks of 2^(c - 3) bytes, and _lower_blocks keeps the lower block
    of each pair.
    """
    if c < 3:
        raw = table.to_bytes(1 << m >> 3, "little")
        return (int.from_bytes(raw[::2].translate(_pair_bytes(c, 0)), "little")
                | int.from_bytes(raw[1::2].translate(_pair_bytes(c, 4)), "little"))
    both = table & table >> (1 << c)
    if c == m - 1:
        return both
    return int.from_bytes(_lower_blocks(both.to_bytes(1 << m >> 3, "little"), c - 3), "little")


def _lower_blocks(raw: bytes, b: int):
    """The lower block of each pair of 2^b-byte blocks of raw, joined,
    as a bytes-like object.  The blocks are kept by strided memoryview
    slices, in the widest item that divides a block."""
    width = min(b, 3)
    items = memoryview(raw).cast(_ITEMS[width])
    per = 1 << (b - width)  # items per block
    pairs = len(items) // per >> 1
    if per <= pairs:  # a strided copy per item of the block
        out = memoryview(bytearray(len(raw) >> 1)).cast(_ITEMS[width])
        for i in range(per):
            out[i::per] = items[i::2 * per]
        return out
    return b"".join([items[i:i + per] for i in range(0, len(items), 2 * per)])


@cache
def _pair_bytes(c: int, shift: int) -> bytes:
    """The translate table of _and_pairs for bit c < 3: byte v maps to
    the four ands of its bits x and x + 2^c, x with bit c clear, in
    order, shifted left by `shift`."""
    low = [x for x in range(8) if not x >> c & 1]
    return bytes(sum((v >> x & v >> x + (1 << c) & 1) << i for i, x in enumerate(low)) << shift
                 for v in range(256))
