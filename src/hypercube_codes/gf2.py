"""Bit-packed linear algebra over GF(2).

Binary vectors are stored as Python ints (bit i = coordinate i + 1),
either raw or wrapped in a BitWord carrying an explicit length.  A
GF2Matrix keeps a tuple of packed columns.  Everything here is pure and
deterministic: elimination always pivots on the lowest set bit (the
independent-subset walk on the highest), so equal inputs give identical
outputs on every platform.  Only the array walk (_independent_walk and
the functions that run it) uses numpy, and it imports numpy when called,
so the packed-int algebra loads none.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._record import Record
from .errors import OutOfRegimeError
from .geometry import MAX_BITS, _from01, _to01

if TYPE_CHECKING:
    import numpy as np

# Pairs of codewords min_distance may compare.
DEFAULT_PAIR_BUDGET = 100_000_000

# Subsets one walk may visit, families times C(n, r).
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


def _check_subsets(subsets: int, which: str) -> None:
    """Refuse a walk over more than DEFAULT_SUBSET_BUDGET subsets, named by `which`."""
    if subsets > DEFAULT_SUBSET_BUDGET:
        raise OutOfRegimeError(
            f"{which} subsets exceed the subset budget {DEFAULT_SUBSET_BUDGET}")


def _independent_walk(vecs: np.ndarray, r: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk the independent position r-subsets of each row of vecs, a
    (families, n) array of packed vectors, for 1 <= r <= n, one pick per
    level.  Level j + 1 is a pair: the last pick (a position of its
    family) of each independent (j + 1)-prefix, and the number of these
    prefixes that extend each row of level j (at j = 0, each family).
    Rows stay in family order and, within a family, in lexicographic
    order of their positions, so a row's children are consecutive and
    _picks reads the subsets back in itertools.combinations order.

    Each row carries its tail: the vectors at every later position of
    its family, reduced by its prefix so that no entry has a pivot (the
    highest set bit of a pick when it was taken) of the prefix.  Every
    nonzero sum of prefix vectors has the pivot of its earliest term,
    so an entry lies in the span of the prefix exactly when it is 0: a
    candidate costs one compare whatever the level.  A kept pick w
    hands its child the rest of its row's tail with w xored into each
    entry that has w's pivot, which is min(entry, entry ^ w).  The last
    r - 1 - j entries of a row's tail are left for its descendants.

    A level's candidates are (j + 1)-prefixes that leave r - j - 1
    positions after them, so at most families * C(n, r), and so are its
    rows; the tails add r - 1 - j entries per row.  So no array holds
    more than r * families * C(n, r) entries, and the subset budget of
    the callers bounds memory.
    """
    import numpy as np
    families, n = vecs.shape
    tails = vecs.ravel()
    if tails.dtype.kind == "i":  # min() must order the entries as bit patterns
        tails = tails.view(tails.dtype.str.replace("i", "u"))
    lengths = np.full(families, n)
    ends = np.cumsum(lengths)  # one past each row's tail, whose last entry is position n - 1
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


def _below(levels: list[tuple[np.ndarray, np.ndarray]]) -> Iterator[np.ndarray]:
    """The number of the walk's subsets below each row, level by level
    from the one before the last down to the families.  A row's
    children are consecutive, so it sums one run of their numbers."""
    import numpy as np
    below = levels[-1][1]
    yield below
    for _, kids in levels[-2::-1]:
        total = np.concatenate(([0], np.cumsum(below)))
        below = np.diff(total[np.cumsum(kids)], prepend=0)
        yield below


def _picks(levels: list[tuple[np.ndarray, np.ndarray]],
           table: np.ndarray) -> Iterator[np.ndarray]:
    """table[pick] for each subset's pick at every level, from the last
    level to the first: a level's entries, each repeated once per subset
    below it."""
    import numpy as np
    yield table[levels[-1][0]]
    for (pick, _), below in zip(levels[-2::-1], _below(levels)):
        yield np.repeat(table[pick], below)


def independent_masks(vectors: Iterable[int], r: int) -> np.ndarray:
    """Sorted uint32 support masks (bit i = index i) of the index
    r-subsets of `vectors` whose vectors are linearly independent.

    One family of _independent_walk, picking indices from the top down:
    position p is index n - 1 - p, so the subsets come out in
    descending mask order and no sort is needed.  At most 32 vectors of
    at most 32 bits each, and C(n, r) within DEFAULT_SUBSET_BUDGET.
    """
    import numpy as np
    if r < 0:
        raise ValueError("subset size must be non-negative")
    vectors = tuple(vectors)
    n = len(vectors)
    if n > 32 or not all(0 <= v < 1 << 32 for v in vectors):
        raise ValueError("independent_masks takes at most 32 vectors of at most 32 bits")
    _check_subsets(math.comb(n, r), f"C({n}, {r})")
    if r > n:
        return np.zeros(0, dtype=np.uint32)
    if r == 0:
        return np.zeros(1, dtype=np.uint32)  # the empty support
    vecs = np.array(vectors[::-1], dtype=np.uint32).reshape(1, n)
    bits = np.left_shift(np.uint32(1), np.arange(n - 1, -1, -1, dtype=np.uint32))
    picks = _picks(_independent_walk(vecs, r), bits)
    masks = next(picks)
    for bit in picks:
        masks |= bit
    return masks[::-1]


def _independent_rows(vectors: np.ndarray, r: int) -> np.ndarray:
    """The index r-subsets of `vectors`, a 1-d array of n packed vectors,
    whose vectors are linearly independent, for 1 <= r <= n: one row per
    subset, in itertools.combinations order, of the smallest unsigned
    dtype that holds n.  The caller bounds C(n, r)."""
    import numpy as np
    n = len(vectors)
    index = np.arange(n, dtype=np.min_scalar_type(n))
    levels = _independent_walk(vectors.reshape(1, n), r)
    rows = np.empty((len(levels[-1][0]), r), dtype=index.dtype)
    for j, column in zip(range(r - 1, -1, -1), _picks(levels, index)):
        rows[:, j] = column
    return rows


def independent_counts(families: np.ndarray, r: int) -> np.ndarray:
    """Number of linearly independent r-subsets of each row of
    `families`, a (families, n) int64 array of packed vectors: one
    _independent_walk over all rows at once, if families times C(n, r)
    is within DEFAULT_SUBSET_BUDGET."""
    import numpy as np
    if r < 0:
        raise ValueError("subset size must be non-negative")
    count, n = families.shape
    _check_subsets(count * math.comb(n, r), f"{count} families of C({n}, {r})")
    if r == 0 or r > n:
        return np.full(count, int(r == 0), dtype=np.intp)
    *_, per_family = _below(_independent_walk(families, r))
    return per_family


def is_basis(vectors: Sequence[BitWord]) -> bool:
    """True iff the t given words of length t form a basis of GF(2)^t."""
    t = len(vectors)
    for w in vectors:
        if w.n != t:
            raise ValueError(f"expected words of length {t}, got length {w.n}")
    return rank_ints(w.bits for w in vectors) == t


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


def orthogonal_complement(matrix: GF2Matrix) -> GF2Matrix:
    """For a full-row-rank k x d matrix, the (d-k) x d matrix whose rows
    span the orthogonal complement of the row space.

    Raises:
        ValueError: if the input is rank deficient.
    """
    kernel = _kernel_of_rows(matrix.rows_as_ints(), matrix.cols)
    if matrix.cols - len(kernel) < matrix.rows:
        raise ValueError("matrix must have full row rank")
    return GF2Matrix.from_rows(matrix.cols, kernel)


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
    _check_subsets(math.comb(matrix.cols, k), f"C({matrix.cols}, {k}) column")
    import numpy as np
    return int(independent_counts(np.array([matrix.columns], dtype=np.uint64), k)[0])


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
               for x, y in itertools.combinations(code.array.tolist(), 2))


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
