"""Bit-packed linear algebra over GF(2).

Binary vectors are stored as Python ints (bit i = coordinate i + 1),
either raw or wrapped in a BitWord carrying an explicit length.  A
GF2Matrix keeps a tuple of packed columns.  Everything here is pure and
deterministic: elimination always pivots on the lowest set bit (the
independent-subset walk on the highest), so equal inputs give identical
outputs on every platform.  independent_masks, which the code
constructions run, gives its table of independent supports as an int
too.  Only the array walk (_independent_walk) uses numpy, for the index
rows of the hypergraphs (_independent_rows) and the basis count of
count_nonsingular_submatrices; it imports numpy when called, so the
rest of the module loads none.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import Record
from .errors import OutOfRegimeError
from .geometry import MAX_BITS, _clear_bit_masks, _from01, _to01, _weight_table

if TYPE_CHECKING:
    import numpy as np

# Pairs of codewords min_distance may compare.
DEFAULT_PAIR_BUDGET = 100_000_000

# Subsets one walk may visit, C(n, r).
DEFAULT_SUBSET_BUDGET = 10_000_000


class BitWord(Record):
    """A binary vector of length at most MAX_BITS packed into an int.

    Attributes:
        bits: packed payload, bit i holds coordinate i + 1.
        n: number of coordinates, 0 <= n <= MAX_BITS.
    """

    bits: int
    n: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_BITS:
            raise ValueError(f"word length must be in [0, {MAX_BITS}], got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"payload {self.bits:#x} does not fit in {self.n} bits")

    @classmethod
    def from01(cls, text: str) -> "BitWord":
        """Parse a 0/1 string; the leftmost character is coordinate 1."""
        return cls(_from01(text), len(text))

    def to01(self) -> str:
        """Inverse of from01."""
        return _to01(self.bits, self.n)

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate index {i} out of range")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.n != other.n:
            raise ValueError("cannot xor words of different lengths")
        return BitWord(self.bits ^ other.bits, self.n)


def rank_ints(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of packed int vectors.

    Pivots are chosen as the lowest set bit of each incoming vector after
    reduction, which makes the computation order-independent in value and
    fully deterministic in intermediate state.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            low = v & -v
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def _independent_walk(vectors: np.ndarray, r: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk the independent position r-subsets of `vectors`, a 1-d
    unsigned array of n packed vectors (so that min() orders them as bit
    patterns), for 1 <= r <= n, one pick per level.  Level j + 1 is a
    pair: the last pick (a position) of each independent (j + 1)-prefix,
    and the number of these prefixes that extend each row of level j (at
    j = 0, the empty prefix).  Rows stay in lexicographic order of their
    positions, so a row's children are consecutive and _independent_rows
    reads the subsets back in itertools.combinations order.

    Each row carries its tail: the vectors at every later position,
    reduced by its prefix so that no entry has a pivot (the
    highest set bit of a pick when it was taken) of the prefix.  Every
    nonzero sum of prefix vectors has the pivot of its earliest term,
    so an entry lies in the span of the prefix exactly when it is 0: a
    candidate costs one compare whatever the level.  A kept pick w
    hands its child the rest of its row's tail with w xored into each
    entry that has w's pivot, which is min(entry, entry ^ w).  The last
    r - 1 - j entries of a row's tail are left for its descendants.

    A level's candidates are (j + 1)-prefixes that leave r - j - 1
    positions after them, so at most C(n, r), and so are its rows; the
    tails add r - 1 - j entries per row.  So no array holds more than
    r * C(n, r) entries, and the subset budget of the callers bounds
    memory.
    """
    import numpy as np
    n = len(vectors)
    tails = vectors
    lengths = ends = np.array([n])  # one past each row's tail, whose last entry is position n - 1
    levels = []
    for j in range(r):
        spare = r - 1 - j
        independent = tails != 0
        independent[ends - np.arange(1, spare + 1)[:, None]] = False  # left for the descendants
        at = np.flatnonzero(independent)
        # every tail holds at least spare + 1 entries, so no run is empty
        kids = np.add.reduceat(independent, ends - lengths, dtype=np.intp)
        pick = np.repeat(n - ends, kids)
        pick += at
        levels.append((pick, kids))
        if spare:
            lengths = n - 1 - pick
            ends = np.cumsum(lengths)
            w = np.repeat(tails[at], lengths)
            src = np.repeat(at + 1 - (ends - lengths), lengths)
            src += np.arange(len(src))
            tails = tails[src]
            np.minimum(tails, tails ^ w, out=tails)
            del w, src  # before the next level's arrays
    return levels


# Coordinates inside one block of an independent-support table: the
# kernel's int operations run on 2^16-bit (8 KB) blocks, which stay in
# cache, rather than on the whole 2^n-bit table (2 MB at n = 24).
_BLOCK_BITS = 16


@functools.cache
def _block_tables(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """For tables over the 2^k supports of k coordinates: all ones; for
    each coordinate i, the supports without i, which the upward closure
    shifts onto those with it; and the weight table of each weight
    0..k."""
    return ((1 << (1 << k)) - 1, tuple(_clear_bit_masks(k)),
            tuple(_weight_table(k, w) for w in range(k + 1)))


def independent_masks(vectors: Iterable[int], r: int) -> int:
    """The index r-subsets of `vectors` whose vectors are linearly
    independent, as a 2^n-bit int for n = len(vectors) <= MAX_N: bit T
    is set when the subset with support mask T (bit i = index i) has r
    elements and independent vectors.  int.bit_count() counts them, and
    the set bits in ascending order are the masks in ascending order.

    The low k = min(n, 16) indices index the bits of a block, and the
    other n - k pick the block.  Per bit b of the vectors, a plane holds
    bit b of the sum over every low support, built by doubling over the
    low indices.  A block's zero-sum supports are the low supports whose
    sum equals the sum s of the block's high indices: the planes say so
    with one operation each, so blocks of equal s share their work, and
    blocks of more than r high indices, which hold no weight-r support,
    are skipped.  The dependent supports are those above a nonempty
    zero-sum one: closing upward over the low indices works inside each
    block, over the high ones it ors whole blocks.  The table is then
    the weight-r supports that are not dependent.

    Raises:
        OutOfRegimeError: for more than MAX_N vectors, before any table
            is built.
    """
    from .geometry import MAX_N  # the owner's value when called
    if r < 0:
        raise ValueError("subset size must be non-negative")
    vectors = tuple(map(int, vectors))
    n = len(vectors)
    if n > MAX_N:
        raise OutOfRegimeError(f"independent_masks builds tables of 2^n bits for n <= {MAX_N}")
    if any(v < 0 for v in vectors):
        raise ValueError("vectors must be non-negative")
    if r > n:
        return 0
    k = min(n, _BLOCK_BITS)
    ones, without, weights = _block_tables(k)
    planes = [0] * max(vectors, default=0).bit_length()
    for i, v in enumerate(vectors[:k]):
        h = 1 << i
        flip = (1 << h) - 1
        planes = [p | (p ^ flip if v >> b & 1 else p) << h for b, p in enumerate(planes)]

    def zero_sum(s: int) -> int:
        """The low supports whose vectors sum to s."""
        off, on = 0, ones
        for b, p in enumerate(planes):
            if s >> b & 1:
                on &= p
            else:
                off |= p
        return on ^ (on & off)

    def upward(closed: int) -> int:
        """The low supports above one in closed."""
        for i, mask in enumerate(without):
            closed |= (closed & mask) << (1 << i)
        return closed

    sums = [0]  # the sum of each high support, in block order
    for v in vectors[k:]:
        sums += [s ^ v for s in sums]
    shared = {0: ones}  # a nonempty high support summing to 0 is dependent itself
    blocks = [upward(zero_sum(0) ^ 1)]  # the empty support is not
    for high, s in enumerate(sums[1:], 1):
        if high.bit_count() > r:  # no support of weight r here, nor in the blocks above
            blocks.append(0)
            continue
        if s not in shared:
            shared[s] = upward(zero_sum(s))
        blocks.append(shared[s])
    step = 1
    while step < len(blocks):
        for high in range(len(blocks)):
            if high & step:
                blocks[high] |= blocks[high ^ step]
        step <<= 1
    for high, closed in enumerate(blocks):
        w = r - high.bit_count()
        kept = weights[w] if 0 <= w <= k else 0
        blocks[high] = kept ^ (kept & closed)
    if len(blocks) == 1:
        return blocks[0]
    width = (1 << k) // 8
    return int.from_bytes(b"".join(t.to_bytes(width, "little") for t in blocks), "little")


def _independent_rows(vectors: np.ndarray, r: int) -> np.ndarray:
    """The index r-subsets of `vectors`, a 1-d array of n packed vectors,
    whose vectors are linearly independent, for 1 <= r <= n: one row per
    subset, in itertools.combinations order, of the smallest unsigned
    dtype that holds n.  The caller bounds C(n, r)."""
    import numpy as np
    dtype = np.min_scalar_type(len(vectors))
    columns = []  # of each prefix, level by level
    for pick, kids in _independent_walk(vectors, r):
        columns = [np.repeat(column, kids) for column in columns] + [pick.astype(dtype)]
    return np.column_stack(columns)


class GF2Matrix(Record):
    """A rows x cols matrix over GF(2), stored column-major.

    Attributes:
        rows: number of rows, 0 <= rows <= MAX_BITS.
        columns: tuple of packed columns, bit i of column j = entry (i, j).
    """

    rows: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.rows <= MAX_BITS:
            raise ValueError(f"row count must be in [0, {MAX_BITS}]")
        if len(self.columns) > MAX_BITS:
            raise ValueError(f"column count must be at most {MAX_BITS}")
        for j, c in enumerate(self.columns):
            if not 0 <= c < (1 << self.rows):
                raise ValueError(f"column {j} does not fit in {self.rows} rows")

    @property
    def cols(self) -> int:
        return len(self.columns)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable) -> "GF2Matrix":
        """Build from packed ints or BitWords of length `rows`."""
        packed = []
        for c in columns:
            if isinstance(c, BitWord):
                if c.n != rows:
                    raise ValueError("column word length does not match row count")
                packed.append(c.bits)
            else:
                packed.append(int(c))
        return cls(rows, tuple(packed))

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[int]) -> "GF2Matrix":
        """Build from packed row ints, bit j of each row = column j."""
        row_list = [int(r) for r in rows]
        for r in row_list:
            if not 0 <= r < (1 << cols):
                raise ValueError("row does not fit in the declared column count")
        return cls(len(row_list), tuple(_transpose(row_list, cols)))

    @classmethod
    def identity(cls, k: int) -> "GF2Matrix":
        return cls(k, tuple(1 << i for i in range(k)))

    def column_words(self) -> list[BitWord]:
        return [BitWord(c, self.rows) for c in self.columns]

    def rows_as_ints(self) -> list[int]:
        """Rows as packed ints, bit j = entry in column j."""
        return _transpose(self.columns, self.rows)

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(self.cols, tuple(self.rows_as_ints()))


def _transpose(vectors: Sequence[int], width: int) -> list[int]:
    """Bit transpose: out[j] has bit i equal to bit j of vectors[i], for
    j < width (columns from rows, or rows from columns)."""
    out = []
    for j in range(width):
        t = 0
        for i, v in enumerate(vectors):
            t |= ((v >> j) & 1) << i
        out.append(t)
    return out


def rank(matrix: GF2Matrix) -> int:
    """Rank of the matrix (column rank == row rank)."""
    return rank_ints(matrix.columns)


def _kernel_of_rows(row_ints: Sequence[int], width: int) -> list[int]:
    """Basis of {x : r . x = 0 for every row r}, as packed ints.

    Rows are reduced until each pivot column (a row's lowest set bit when
    it entered) is set in its own row only; one kernel vector is emitted per
    free column, in ascending order, so the rank is width minus their number.
    """
    reduced: list[int] = []
    pivot_cols: list[int] = []
    for r in row_ints:
        for pc, pr in zip(pivot_cols, reduced):
            if (r >> pc) & 1:
                r ^= pr
        if r == 0:
            continue
        col = (r & -r).bit_length() - 1
        # eliminate the new pivot column from earlier rows
        for i, pr in enumerate(reduced):
            if (pr >> col) & 1:
                reduced[i] = pr ^ r
        reduced.append(r)
        pivot_cols.append(col)
    # free column f and each pivot whose row has bit f: distinct bits, so the sum is their or
    return [(1 << f) | sum(1 << pc for pc, pr in zip(pivot_cols, reduced) if (pr >> f) & 1)
            for f in range(width) if f not in pivot_cols]


def count_nonsingular_submatrices(matrix: GF2Matrix) -> int:
    """Number of k-subsets of columns forming a nonsingular k x k submatrix,
    where k = rows.  Requires rows <= cols.

    Raises:
        OutOfRegimeError: if C(cols, rows) exceeds DEFAULT_SUBSET_BUDGET,
            before any subset is walked.
    """
    k = matrix.rows
    if k > matrix.cols:
        raise ValueError("need at least as many columns as rows")
    if math.comb(matrix.cols, k) > DEFAULT_SUBSET_BUDGET:
        raise OutOfRegimeError(f"C({matrix.cols}, {k}) column subsets exceed "
                               f"the subset budget {DEFAULT_SUBSET_BUDGET}")
    if k == 0:
        return 1
    import numpy as np
    levels = _independent_walk(np.array(matrix.columns, dtype=np.uint64), k)
    return len(levels[-1][0])  # one last pick per independent k-subset


def code_from_parity_check(matrix: GF2Matrix):
    """All length-t words x with A x^T = 0, where t = cols.

    Returns a Code on t coordinates; its size is 2 ** (t - rank(A)).

    Raises:
        OutOfRegimeError: if t - rank(A) exceeds geometry.MAX_N, before any
            word is enumerated.
    """
    from .codes import Code  # deferred: codes builds on this module
    from .geometry import MAX_N  # the owner's value when called

    t = matrix.cols
    basis = _kernel_of_rows(matrix.rows_as_ints(), t)
    if len(basis) > MAX_N:
        raise OutOfRegimeError(
            f"the code has 2^{len(basis)} words; enumerated for dimension <= {MAX_N}")
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return Code(t, words)


def min_distance(code) -> int:
    """Minimum Hamming distance between distinct codewords.

    Raises:
        ValueError: if the code has fewer than two words.
        OutOfRegimeError: if the code has more than DEFAULT_PAIR_BUDGET
            pairs of words, before any pair is compared.
    """
    size = len(code)
    if size < 2:
        raise ValueError("minimum distance needs at least two codewords")
    pairs = size * (size - 1) // 2
    if pairs > DEFAULT_PAIR_BUDGET:
        raise OutOfRegimeError(
            f"{pairs} pairs of codewords exceed the budget {DEFAULT_PAIR_BUDGET}")
    return min((x ^ y).bit_count()
               for x, y in itertools.combinations(code.words, 2))


def plotkin_bound(t: int, dmin: int) -> int:
    """Classical Plotkin upper bound on the size of a binary code of
    length t and minimum distance dmin.

    Even dmin with 2*dmin > t:      2 * floor(dmin / (2*dmin - t)).
    Odd dmin with 2*dmin + 1 > t:   2 * floor((dmin+1) / (2*dmin+1-t)).

    Raises:
        OutOfRegimeError: when (t, dmin) falls outside both cases.
    """
    if t < 1 or dmin < 1:
        raise ValueError("length and distance must be positive")
    if dmin % 2 == 0:
        gap = 2 * dmin - t
        if gap > 0:
            return 2 * (dmin // gap)
    else:
        gap = 2 * dmin + 1 - t
        if gap > 0:
            return 2 * ((dmin + 1) // gap)
    raise OutOfRegimeError(
        f"Plotkin bound undefined for length {t}, distance {dmin}")
