"""Subcube occupancy scans of a code, with numpy.

Subcubes and their canonical order come from geometry: free sets in
colex order, bases in increasing packed-integer order, so every scan
reports the same witness, the first in that order.

The max-count scan (`max_subcube_count`) walks dense occupancy tables
for n <= MAX_N: the code as a 0/1 array of shape (2,)*n, and for each
free set the table of subcube counts, each one a vectorised sum of its
parent (the partial zeta transform of Yates 1937).  That costs about
2 * subcube_total(n, d) array additions, whatever the code size.  The
walk recurses over the top free coordinates and sums the rest of a
subtree in stacked blocks, one numpy call per coordinate for a whole
colex range of free sets, so the calls do not grow with C(n, d).  It
holds the d + 1 tables of its path, 2^(n+1) bytes at most (32 MB at
n = 24), plus two block levels of _BLOCK_ENTRIES entries.  Longer
codes, which only a loaded file can give, get the same tables by
counting the codewords' patterns on the fixed coordinates; their tables
have 2^(n-d) entries, scanned for n - d <= MAX_N.  The hitting check
(codes.verify_hitting) walks a truth table in pure Python and reads
these count tables (_count_tables, _first_subcube) only for n > MAX_N.
The oracle of both is subcube_count over every subcube, as the naive
scans of tests/oracles.py run it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

# by name first: -X importtime does not time `from . import geometry`
from .codes import Code
from . import geometry
from ._record import Record
from .errors import OutOfRegimeError
from .geometry import (DEFAULT_SCAN_BUDGET, MAX_N, Subcube, _check_budget,
                       _colex_unrank, _fixed_coords, _leaf_subcube,
                       free_sets_colex)
from .gf2 import BitWord


def subcube_count(code: Code, cube: Subcube) -> int:
    """Number of codewords inside the subcube (naive scan, the oracle)."""
    if code.n != cube.n:
        raise ValueError("code and subcube disagree on n")
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

# each byte with its bits reversed, to lay coordinate i on axis i
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.intp)


def _table_dtype(summed: int) -> type:
    """The narrowest dtype for word counts of subcubes of dimension summed."""
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
    n = code.n
    occupancy = np.zeros(1 << n, np.uint8)
    for at in range(0, len(code), _INTP_SLICE):
        words = code.array[at:at + _INTP_SLICE].astype(np.intp)
        # the n <= MAX_N = 24 bits of each word, reversed byte by byte
        reversed_words = (_REVERSED_BYTE[words & 255] << 16
                          | _REVERSED_BYTE[words >> 8 & 255] << 8
                          | _REVERSED_BYTE[words >> 16])
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


def max_subcube_count(code: Code, d: int,
                      budget: int = DEFAULT_SCAN_BUDGET) -> VerificationReport:
    """Scan every d-subcube and report the maximum occupancy, the first
    subcube holding it and how many subcubes hold it.  A block below the
    best so far costs one max; one that reaches it, a count of its
    entries equal to the best.

    For n <= MAX_N the scan walks dense occupancy tables (_dense_tables):
    each table is one vectorised sum of its parent, about
    2 * subcube_total(n, d) array additions, independent of the code
    size.  Free sets are summed in stacked blocks, so the numpy calls
    number about C(n, d) / (rows per block) rather than C(n, d), and the
    memory is the d + 1 path tables (2^(n+1) bytes at most) plus two
    block levels of _BLOCK_ENTRIES entries.  Longer codes count the same
    tables from their words (_bucket_tables), C(n, d) * (n - d) vector
    passes over the code, for n - d <= MAX_N.

    Raises:
        OutOfRegimeError: if the subcube total exceeds the budget or
            n - d > MAX_N, before anything is allocated.
    """
    n = code.n
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
