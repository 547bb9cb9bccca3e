"""Construction of dense codes with bounded subcube occupancy.

A Code holds its words once: sorted and distinct, as the bytes of native
uint64; Code.array views them as a read-only numpy array, built on first
access.  The layered construction assigns to every layer r a random
nonzero vector of GF(2)^r per coordinate and keeps the weight-r words
whose support vectors form a basis; a layer that keeps too few words is
redrawn, up to MAX_RETRIES times.  Taking the best weight-residue
subcode then caps how many codewords any small subcube can hold.  A
complement variant, keeping the dependent supports, produces subcube
hitting sets, and verify_hitting checks a set against every d-subcube.

Both work on truth tables: the words of a layer or of a residue class
on n <= MAX_N coordinates as a 2^n-bit int whose bit w is set when word
w is in the set, as gf2.independent_masks gives each layer.  A size is
a popcount and a union an or, so the residue class is chosen from the
layer sizes, and only the class kept is listed as words (_table_code).
The layer vectors come from _pcg64's stream and equal, bit for bit,
numpy's Generator(PCG64(SeedSequence(key))).integers.  The hitting
check walks the truth table of the set's complement.  Nothing here
imports numpy but Code.array and the hitting check of codes longer than
MAX_N.  File round-tripping for codes lives here as well.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, count, islice, repeat
from operator import add, and_, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from ._pcg64 import uint32s, uint64s
from ._record import Record
from .basisprob import limit_interval
from .errors import ConstructionError, OutOfRegimeError
from .geometry import (DEFAULT_SCAN_BUDGET, MAX_BITS, MAX_N, Subcube, _check_budget,
                       _from01, _leaf_subcube, _to01, _weight_table)
from .gf2 import independent_masks

if TYPE_CHECKING:
    import numpy as np

# Certified rational lower bound on the limit constant, used as the
# per-layer quality threshold for retries.
DENSITY_THRESHOLD: Fraction = limit_interval(40)[0]
# Redraws allowed per layer that stays at or below the threshold.
MAX_RETRIES = 64


class Code(Record):
    """A set of binary words on n coordinates, given as any iterable of
    ints or an integer ndarray (not floats or bools).  The packed words
    (bit i = coordinate i + 1) are kept once, sorted and distinct, as the
    bytes of native uint64; `array` is a read-only np.uint64 view of
    those bytes, built on first access."""

    n: int
    array: np.ndarray  # a field, computed on first access (below)

    def __init__(self, n: int, words):
        if not 0 <= n <= MAX_BITS:
            raise ValueError(f"n must be in [0, {MAX_BITS}]")
        words = _integers(words)
        for w in (min(words, default=0), max(words, default=0)):
            if not 0 <= w < (1 << n):
                raise ValueError(f"word {w:#x} does not fit in {n} coordinates")
        vars(self).update(n=n, _data=array("Q", sorted(set(words))).tobytes())

    @classmethod
    def _sorted(cls, n: int, words: Iterable[int]) -> Code:
        """The code of words already sorted, distinct and within n
        coordinates, taken unchecked."""
        code = cls.__new__(cls)
        vars(code).update(n=n, _data=array("Q", words).tobytes())
        return code

    @cached_property
    def array(self) -> np.ndarray:
        import numpy as np
        return np.frombuffer(self._data, dtype=np.uint64)

    def _ints(self) -> memoryview:
        """The words in ascending order, read as ints."""
        return memoryview(self._data).cast("Q")

    def _values(self) -> tuple:
        """The fields, for repr: array is built on first access."""
        return self.n, self.array

    @cached_property
    def words(self) -> frozenset:
        """The words as a frozenset of ints, for set semantics."""
        return frozenset(self._ints())

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self.n == other.n and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.n, self._data))

    def __len__(self) -> int:
        return len(self._data) // 8

    def density(self) -> Fraction:
        return Fraction(len(self), 1 << self.n)


def _integers(words) -> list:
    """words as a list of ints, checked before any conversion so that no
    float is truncated and no bool read as 0/1: an ndarray by its dtype,
    anything else (an object array too) by the type of each item."""
    dtype = getattr(words, "dtype", None)
    if dtype is not None and dtype.kind in "iu":
        return words.tolist()
    if dtype is not None and dtype.kind != "O":
        raise ValueError(f"words must be integers, got {dtype.type.__name__}")
    words = list(words)
    plain = True  # every item an int already
    for t in set(map(type, words)):
        if issubclass(t, int) and not issubclass(t, bool):
            continue
        if t.__module__ == "numpy":  # a numpy scalar, so numpy is loaded
            import numpy as np
            if issubclass(t, np.integer):
                plain = False
                continue
        raise ValueError(f"words must be integers, got {t.__name__}")
    return words if plain else list(map(int, words))


def _table_words(table: int) -> array:
    """The set bits of a table in ascending order, as array('Q').  Each
    2^16-bit block is written in binary, reversed, and cut at its ones:
    the j-th one of a block stands after the zeros of the first j + 1
    pieces and j ones."""
    words = array("Q")
    raw = table.to_bytes((table.bit_length() + 7) // 8, "little")
    step = 1 << 13  # the bytes of a block
    for start in range(0, len(raw), step):
        block = int.from_bytes(raw[start:start + step], "little")
        if block:
            gaps = bin(block)[:1:-1].split("1")
            gaps.pop()  # after the last one
            words.extend(map(add, accumulate(map(len, gaps)), count(start * 8)))
    return words


def _table_code(n: int, table: int) -> Code:
    """The code of a table's words on n coordinates."""
    return Code._sorted(n, _table_words(table))


class LayerAssignment(Record):
    """Vectors drawn for one layer: coordinate i gets vectors[i], a
    nonzero element of GF(2)^weight."""

    n: int
    weight: int
    vectors: tuple[int, ...]
    seed: int
    retry: int

    def __post_init__(self):
        if len(self.vectors) != self.n:
            raise ValueError("need one vector per coordinate")
        for v in self.vectors:
            if not 1 <= v < (1 << self.weight):
                raise ValueError("layer vectors must be nonzero and fit the layer weight")


_MASK32 = 0xFFFFFFFF


def _bounded_draws(words: Iterator[int], n: int, dim: int) -> tuple[int, ...]:
    """n draws from [1, 2^dim) by Lemire's method on 32-bit words, as
    numpy bounds a range of 32 bits or less: 1 + (u * excl >> 32) for
    excl = 2^dim - 1, taking the next u while the low word of u * excl
    is below (2^32 - excl) % excl."""
    excl = (1 << dim) - 1
    if excl == 1:  # one value: numpy draws nothing
        return (1,) * n
    threshold = ((1 << 32) - excl) % excl
    vectors = []
    for _ in range(n):
        m = next(words) * excl
        while m & _MASK32 < threshold:
            m = next(words) * excl
        vectors.append(1 + (m >> 32))
    return tuple(vectors)


def _draw_vectors(key: list[int], n: int, dim: int) -> tuple[int, ...]:
    """n nonzero vectors of GF(2)^dim from a PCG64 stream keyed by key:
    bit for bit numpy's
    Generator(PCG64(SeedSequence(key))).integers(1, 1 << dim, size=n).

    The stream is numpy's, run in Python ints by _pcg64, as a draw is a
    few dozen words.  Only ranges of 32 bits or less are drawn, which
    MAX_N = 24 covers."""
    if not 1 <= dim <= 32:
        raise ValueError("dim must be in [1, 32]")
    return _bounded_draws(uint32s(uint64s(key)), n, dim)


def _draw_layer(n: int, r: int, seed: int, retry: int) -> LayerAssignment:
    """Deterministic layer draw keyed by (seed, layer, retry), so every
    layer and retry gets an independent substream."""
    return LayerAssignment(n, r, _draw_vectors([seed, r, retry], n, r), seed, retry)


def build_layer_vectors(n: int, seed: int = 0) -> dict[int, LayerAssignment]:
    """Fresh assignments for layers 1..n at retry index 0."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}]")
    return {r: _draw_layer(n, r, seed, 0) for r in range(1, n + 1)}


def _layer_table(assignment: LayerAssignment) -> int:
    """The table of the weight-r words whose support vectors form a basis
    of GF(2)^r."""
    return independent_masks(assignment.vectors, assignment.weight)


def layer_words(assignment: LayerAssignment) -> array:
    """Weight-r words whose support vectors form a basis of GF(2)^r, in
    ascending order, as array('Q')."""
    return _table_words(_layer_table(assignment))


def _layer_tables(layers: Mapping[int, LayerAssignment],
                  strict: bool) -> Iterator[tuple[int, int]]:
    """(r, table) for each layer r in ascending order.

    Any layer r whose word count is not strictly above
    DENSITY_THRESHOLD * C(n, r) is redrawn with the next retry index, up
    to MAX_RETRIES times, keeping the best draw seen.  After the last
    layer, a layer still at or below the threshold raises
    ConstructionError if strict; otherwise its best draw was kept and
    the shortfall is logged.
    """
    if not layers:
        raise ValueError("need at least one layer")
    n = next(iter(layers.values())).n
    deficient: list[int] = []
    for r in sorted(layers):
        assignment = layers[r]
        if assignment.n != n:
            raise ValueError("layers disagree on the coordinate count")
        if assignment.weight != r:
            raise ValueError(f"layer {r} carries weight {assignment.weight}")
        target = DENSITY_THRESHOLD * math.comb(n, r)
        best = _layer_table(assignment)
        size = best.bit_count()
        attempt = assignment
        while size <= target and attempt.retry < MAX_RETRIES:
            attempt = _draw_layer(n, r, assignment.seed, attempt.retry + 1)
            candidate = _layer_table(attempt)
            if (found := candidate.bit_count()) > size:
                best, size = candidate, found
        if size <= target:
            deficient.append(r)
        yield r, best
    if deficient:
        if strict:
            raise ConstructionError(
                f"layers {deficient} stayed at or below the density threshold "
                f"after {MAX_RETRIES} retries")
        _warn("layers %s below the density threshold; keeping best draws", deficient)


def layered_basis_code(layers: Mapping[int, LayerAssignment],
                       strict: bool = False) -> Code:
    """The union of the zero word and all per-layer basis-support words,
    each layer the best of its draws (_layer_tables)."""
    return _layered_residue_code(layers, 1, 0, strict)[0].code


def _layered_residue_code(layers: Mapping[int, LayerAssignment], modulus: int,
                          residue: int | None, strict: bool) -> tuple[ResidueSelection, int]:
    """For code = layered_basis_code(layers, strict): its residue subcode
    (the best one when residue is None, as best_residue_subcode chooses),
    and len(code).  A class's size is the sum of its layers' popcounts,
    and only the class kept is listed as words."""
    _check_residue(modulus, 0 if residue is None else residue)
    tables, sizes = {0: 1}, {0: 1}  # the zero word
    for r, table in _layer_tables(layers, strict):
        c = r % modulus
        tables[c] = tables.get(c, 0) | table
        sizes[c] = sizes.get(c, 0) + table.bit_count()
    if residue is None:
        residue = min(sizes, key=lambda c: (-sizes[c], c))  # ties: the smallest
    n = next(iter(layers.values())).n
    return ResidueSelection(_table_code(n, tables.get(residue, 0)), residue), sum(sizes.values())


def _warn(message: str, *args) -> None:
    """Log a warning on the logger of this module.  logging is imported
    here, not with the module: few runs warn, and its import costs every
    process that loads codes a few ms."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _check_residue(modulus: int, residue: int) -> None:
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= residue < modulus:
        raise ValueError("residue must lie in [0, modulus)")


def residue_subcode(code: Code, modulus: int, residue: int) -> Code:
    """Codewords whose weight is congruent to residue mod modulus."""
    _check_residue(modulus, residue)
    return Code._sorted(code.n, [w for w in code._ints() if w.bit_count() % modulus == residue])


class ResidueSelection(Record):
    code: Code
    residue: int


def best_residue_subcode(code: Code, modulus: int) -> ResidueSelection:
    """The largest weight-residue subcode; ties break to the smallest
    residue.  By pigeonhole its size is at least len(code) / modulus."""
    _check_residue(modulus, 0)
    sizes = [0] * min(modulus, code.n + 1)
    for w in code._ints():
        sizes[w.bit_count() % modulus] += 1
    residue = sizes.index(max(sizes))  # the first maximum: ties go to the smallest residue
    return ResidueSelection(residue_subcode(code, modulus, residue), residue)


def weight_class_code(n: int, modulus: int, residue: int) -> Code:
    """All words of GF(2)^n whose weight is congruent to residue mod
    modulus.  modulus=2, residue=0 gives the even-weight code.

    Raises:
        OutOfRegimeError: for n > MAX_N, before any word is enumerated.
    """
    _check_weight_class(n, modulus, residue)
    table = 0
    for r in range(residue, n + 1, modulus):
        table |= _weight_table(n, r)
    return _table_code(n, table)


def _check_weight_class(n: int, modulus: int, residue: int) -> None:
    """The argument checks of weight_class_code, which build-verify also
    runs before it checks its scan budget."""
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"n must be in [0, {MAX_BITS}]")
    if n > MAX_N:
        raise OutOfRegimeError(f"weight-class codes are enumerated for n <= {MAX_N}")
    _check_residue(modulus, residue)


class HittingSetResult(Record):
    """small_layer_cutoff is the largest weight whose layer is included
    in full (-1 if none); above it only dependent-support words enter."""

    code: Code
    small_layer_cutoff: int
    target_size: int
    met_target: bool


def _check_hitting(n: int, k: int) -> None:
    """The argument checks of subcube_hitting_set, which hitting also runs
    before it checks its scan budget."""
    if n < 1 or k < 0 or n + k > MAX_N:
        raise ValueError(f"need n >= 1, k >= 0 and n + k <= {MAX_N}")


def subcube_hitting_set(n: int, k: int, seed: int = 0) -> HittingSetResult:
    """A set meeting most subcubes while keeping density near 2^-k.

    Per layer r, each coordinate receives a random nonzero vector of
    GF(2)^(r+k) and the weight-r words with dependent support vectors are
    kept; low layers are included entirely, with the cutoff chosen as
    large as possible subject to the 2^(n-k) size target.  A missed
    target is reported, not fatal.
    """
    _check_hitting(n, k)
    # the empty support is independent, so layer 0 has no dependent word
    dependent = [0]
    for r in range(1, n + 1):
        independent = independent_masks(_draw_vectors([seed, r], n, r + k), r)
        dependent.append(_weight_table(n, r) ^ independent)  # of weight r too

    target = 1 << (n - k) if k <= n else 1
    # raising the cutoff swaps a dependent subset for its full layer, so
    # the total size is non-decreasing in c; take the largest c that fits
    cutoff = -1
    sizes = [table.bit_count() for table in dependent]
    running = sum(sizes)
    prefix = 0
    for c in range(0, n + 1):
        prefix += math.comb(n, c)
        running -= sizes[c]
        if prefix + running <= target:
            cutoff = c
    table = 0
    for r in range(n + 1):
        table |= _weight_table(n, r) if r <= cutoff else dependent[r]
    code = _table_code(n, table)
    met = len(code) <= target
    if not met:
        _warn("hitting set size %d misses the target %d", len(code), target)
    return HittingSetResult(code, cutoff, target, met)


class HittingReport(Record):
    hits_all: bool
    missed: Optional[Subcube]


def verify_hitting(code: Code, d: int,
                   budget: int = DEFAULT_SCAN_BUDGET) -> HittingReport:
    """Does the set meet every d-subcube?  On failure the first missed
    subcube in canonical order is reported.

    For n <= MAX_N the check walks the truth table of the code's
    complement (_first_missed), in pure Python.  Longer codes, which
    only files and the API give, are checked on the count tables of
    cube (numpy), which stop at the first block of free sets with an
    empty subcube.

    Raises:
        ValueError: unless 0 <= d <= n.
        OutOfRegimeError: if the subcube total exceeds the budget, or
            for n > MAX_N if n - d > MAX_N, before anything is allocated.
    """
    n = code.n
    if n > MAX_N:
        from .cube import _count_tables, _first_subcube
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


def _clear_bit_masks(m: int) -> list[int]:
    """For each c < m, the 2^m-bit int with bit x set when bit c of x is
    clear, built by doubling."""
    masks = []
    for c in range(m):
        mask, width = (1 << (1 << c)) - 1, 2 << c
        while width < 1 << m:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return masks


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


def save_code(path, code: Code) -> None:
    """Write `n=<n>` then one 0/1 line per word, sorted by packed value;
    the leftmost character is coordinate 1.  A line is the string of its
    word's low 12 bits, from a table of 2^12, then that of the bits
    above, which the sorted words share in runs: a run is written as one
    join."""
    n = code.n
    low = min(n, 12)
    strings = [""]  # of each value of the low bits
    for _ in range(low):
        strings = [s + "0" for s in strings] + [s + "1" for s in strings]
    words = code._ints()
    with open(path, "wb") as fh:
        fh.write(f"n={n}\n".encode("ascii"))
        start = 0
        while start < len(words):
            high = words[start] >> low
            end = bisect_left(words, high + 1 << low, start)
            tail = _to01(high, n - low) + "\n"
            lines = map(strings.__getitem__, map(and_, words[start:end], repeat((1 << low) - 1)))
            fh.write((tail.join(lines) + tail).encode("ascii"))
            start = end


def load_code(path) -> Code:
    """Inverse of save_code.  Duplicate lines are collapsed with a
    warning; malformed content raises ValueError with the line number.
    A file as save_code writes it, n 0/1 characters and a newline per
    line, is checked and parsed with bytes methods, in base 2; any other
    is read line by line (_parse_lines)."""
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    n = int(head[2:]) if head.startswith(b"n=") and head[2:].isdigit() else -1
    lines, extra = divmod(len(body), n + 1) if 0 <= n <= MAX_BITS else (0, 1)
    if not extra and body.count(b"\n") == lines and body[n::n + 1] == b"\n" * lines \
            and not body.translate(None, b"01\n"):
        # reversed, the body reads each line reversed, last line first
        words = list(map(int, body[::-1].split(b"\n")[1:], repeat(2)))[::-1] if n else [0] * lines
        if all(map(lt, words, islice(words, 1, None))):
            return Code._sorted(n, words)
        return _collapse(Code(n, words), lines)
    return _parse_lines(path)


def _parse_lines(path) -> Code:
    """load_code one line at a time: other line ends, a missing last
    newline, and the message naming the first bad line."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines or not lines[0].startswith("n="):
        raise ValueError("line 1: expected header of the form n=<int>")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError("line 1: expected header of the form n=<int>") from None
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"line 1: n must be in [0, {MAX_BITS}]")
    words: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if len(line) != n:
            raise ValueError(f"line {lineno}: expected {n} characters, got {len(line)}")
        try:
            words.append(_from01(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return _collapse(Code(n, words), len(words))


def _collapse(code: Code, lines: int) -> Code:
    """The code read from `lines` word lines, warning about duplicates."""
    if len(code) < lines:
        warnings.warn(f"{lines - len(code)} duplicate words collapsed on load")
    return code
