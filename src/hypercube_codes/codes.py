"""Construction of dense codes with bounded subcube occupancy.

A Code holds its words once, as a sorted uint64 array.  The layered
construction assigns to every layer r a random nonzero vector of GF(2)^r
per coordinate and keeps the weight-r words whose support vectors form a
basis; a layer that keeps too few words is redrawn, up to MAX_RETRIES
times.  Taking the best weight-residue subcode then caps how many
codewords any small subcube can hold.  A complement variant, keeping the
dependent supports, produces subcube hitting sets.  Both take uint32
masks from one numpy kernel, gf2.independent_masks, and pass the arrays
to Code.  File round-tripping for codes lives here as well.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from ._record import Record
from .basisprob import independent_draw_probability, limit_interval
from .errors import ConstructionError, OutOfRegimeError
from .geometry import MAX_BITS, MAX_N, _from01
from .gf2 import independent_masks

# Certified rational lower bound on the limit constant, used as the
# per-layer quality threshold for retries.
DENSITY_THRESHOLD: Fraction = limit_interval(40)[0]
# Redraws allowed per layer that stays at or below the threshold.
MAX_RETRIES = 64


class Code(Record):
    """A set of binary words on n coordinates, given as any iterable of
    ints or an integer ndarray (not floats or bools).  `array` stores the
    packed words (bit i = coordinate i + 1) once: sorted, distinct and
    read-only np.uint64."""

    n: int
    array: np.ndarray

    def __init__(self, n: int, words):
        if not 0 <= n <= MAX_BITS:
            raise ValueError(f"n must be in [0, {MAX_BITS}]")
        if not isinstance(words, np.ndarray):
            words = np.array(list(words), dtype=object)  # ints of any size
        # checked before the cast: no float truncates, no bool or negative word passes
        for t in set(map(type, words)) if words.dtype == object else {words.dtype.type}:
            if np.dtype(t).kind not in "iu":
                raise ValueError(f"words must be integers, got {t.__name__}")
        for w in map(int, (words.min(initial=0), words.max(initial=0))):
            if not 0 <= w < (1 << n):
                raise ValueError(f"word {w:#x} does not fit in {n} coordinates")
        array = np.sort(np.asarray(words, dtype=np.uint64))
        distinct = np.ones(len(array), bool)
        distinct[1:] = array[1:] != array[:-1]
        array = array[distinct]
        array.flags.writeable = False
        vars(self).update(n=n, array=array)  # past the frozen setattr

    @cached_property
    def words(self) -> frozenset:
        """The words as a frozenset of ints, for set semantics."""
        return frozenset(self.array.tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Code) and self.n == other.n
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.n, self.array.tobytes()))

    def __len__(self) -> int:
        return len(self.array)

    def density(self) -> Fraction:
        return Fraction(len(self), 1 << self.n)


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


def _draw_vectors(key: list[int], n: int, dim: int) -> tuple[int, ...]:
    """n nonzero vectors of GF(2)^dim from a PCG64 stream keyed by key."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    return tuple(int(v) for v in rng.integers(1, 1 << dim, size=n))


def _draw_layer(n: int, r: int, seed: int, retry: int) -> LayerAssignment:
    """Deterministic layer draw keyed by (seed, layer, retry), so every
    layer and retry gets an independent substream."""
    return LayerAssignment(n, r, _draw_vectors([seed, r, retry], n, r), seed, retry)


def build_layer_vectors(n: int, seed: int = 0) -> dict[int, LayerAssignment]:
    """Fresh assignments for layers 1..n at retry index 0."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}]")
    return {r: _draw_layer(n, r, seed, 0) for r in range(1, n + 1)}


def layer_words(assignment: LayerAssignment) -> np.ndarray:
    """Weight-r words, sorted uint32, whose support vectors form a basis of GF(2)^r."""
    return independent_masks(assignment.vectors, assignment.weight)


def layered_basis_code(layers: Mapping[int, LayerAssignment],
                       strict: bool = False) -> Code:
    """The union of the zero word and all per-layer basis-support words.

    Any layer r whose word count is not strictly above
    DENSITY_THRESHOLD * C(n, r) is redrawn with the next retry index, up
    to MAX_RETRIES times, keeping the best draw seen.  A layer still at
    or below the threshold raises ConstructionError if strict; otherwise
    its best draw is kept and the shortfall logged.
    """
    if not layers:
        raise ValueError("need at least one layer")
    n = next(iter(layers.values())).n
    words = [np.zeros(1, dtype=np.uint32)]  # the zero word, then each layer
    deficient: list[int] = []
    for r in sorted(layers):
        assignment = layers[r]
        if assignment.n != n:
            raise ValueError("layers disagree on the coordinate count")
        if assignment.weight != r:
            raise ValueError(f"layer {r} carries weight {assignment.weight}")
        target = DENSITY_THRESHOLD * math.comb(n, r)
        best = layer_words(assignment)
        attempt = assignment
        while len(best) <= target and attempt.retry < MAX_RETRIES:
            attempt = _draw_layer(n, r, assignment.seed, attempt.retry + 1)
            candidate = layer_words(attempt)
            if len(candidate) > len(best):
                best = candidate
        if len(best) <= target:
            deficient.append(r)
        words.append(best)
    if deficient:
        if strict:
            raise ConstructionError(
                f"layers {deficient} stayed at or below the density threshold "
                f"after {MAX_RETRIES} retries")
        _warn("layers %s below the density threshold; keeping best draws", deficient)
    return Code(n, np.concatenate(words))


def _warn(message: str, *args) -> None:
    """Log a warning on the logger of this module.  logging is imported
    here, not with the module: few runs warn, and its import costs every
    process that loads codes a few ms."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _code_weights(code: Code) -> np.ndarray:
    """Hamming weight of every word, in array order, from a byte table."""
    return _weights(8)[code.array.view(np.uint8)].reshape(-1, 8).sum(1, dtype=np.intp)


def residue_subcode(code: Code, modulus: int, residue: int) -> Code:
    """Codewords whose weight is congruent to residue mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= residue < modulus:
        raise ValueError("residue must lie in [0, modulus)")
    return Code(code.n, code.array[_code_weights(code) % modulus == residue])


class ResidueSelection(Record):
    code: Code
    residue: int


def best_residue_subcode(code: Code, modulus: int) -> ResidueSelection:
    """The largest weight-residue subcode; ties break to the smallest
    residue.  By pigeonhole its size is at least len(code) / modulus."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    residues = _code_weights(code) % modulus
    # argmax keeps the first maximum: ties go to the smallest residue
    residue = int(np.bincount(residues, minlength=1).argmax())
    return ResidueSelection(Code(code.n, code.array[residues == residue]), residue)


def _weights(n: int) -> np.ndarray:
    """Hamming weight of every word of GF(2)^n, indexed by packed value."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        weights = np.concatenate((weights, weights + np.uint8(1)))
    return weights


def weight_class_code(n: int, modulus: int, residue: int) -> Code:
    """All words of GF(2)^n whose weight is congruent to residue mod
    modulus.  modulus=2, residue=0 gives the even-weight code.

    Raises:
        OutOfRegimeError: for n > MAX_N, before any word is enumerated.
    """
    _check_weight_class(n, modulus, residue)
    kept = np.arange(n + 1) % modulus == residue
    return Code(n, np.flatnonzero(kept[_weights(n)]))


def _check_weight_class(n: int, modulus: int, residue: int) -> None:
    """The argument checks of weight_class_code, which build-verify also
    runs before it checks its scan budget."""
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"n must be in [0, {MAX_BITS}]")
    if n > MAX_N:
        raise OutOfRegimeError(f"weight-class codes are enumerated for n <= {MAX_N}")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= residue < modulus:
        raise ValueError("residue must lie in [0, modulus)")


def expected_dependent_fraction(r: int, k: int) -> Fraction:
    """Expected fraction of weight-r supports whose drawn vectors in
    GF(2)^(r+k) are dependent; strictly below 2^-k for every r, k >= 1."""
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    return 1 - independent_draw_probability(r, r + k)


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
    weights = _weights(n)
    layer = [np.flatnonzero(weights == r).astype(np.uint32) for r in range(n + 1)]
    # the empty support is independent, so layer 0 has no dependent word
    dependent = [np.zeros(0, dtype=np.uint32)]
    for r in range(1, n + 1):
        independent = independent_masks(_draw_vectors([seed, r], n, r + k), r)
        dependent.append(np.setdiff1d(layer[r], independent, assume_unique=True))

    target = 1 << (n - k) if k <= n else 1
    # raising the cutoff swaps a dependent subset for its full layer, so
    # the total size is non-decreasing in c; take the largest c that fits
    cutoff = -1
    running = sum(map(len, dependent))
    prefix = 0
    for c in range(0, n + 1):
        prefix += math.comb(n, c)
        running -= len(dependent[c])
        if prefix + running <= target:
            cutoff = c
    code = Code(n, np.concatenate(layer[:cutoff + 1] + dependent[cutoff + 1:]))
    met = len(code) <= target
    if not met:
        _warn("hitting set size %d misses the target %d", len(code), target)
    return HittingSetResult(code, cutoff, target, met)


def save_code(path, code: Code) -> None:
    """Write `n=<n>` then one 0/1 line per word, sorted by packed value;
    the leftmost character is coordinate 1.  The lines are one uint8
    array of shape (words, n + 1), written as it lies in memory."""
    n = code.n
    lines = np.empty((len(code), n + 1), np.uint8)
    octets = code.array.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    np.add(np.unpackbits(octets, axis=1, count=n, bitorder="little"), ord("0"),
           out=lines[:, :n])
    lines[:, n] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"n={n}\n".encode("ascii"))
        fh.write(lines)


def load_code(path) -> Code:
    """Inverse of save_code.  Duplicate lines are collapsed with a
    warning; malformed content raises ValueError with the line number.
    A file as save_code writes it is read as one array of shape
    (words, n + 1); any other is read line by line (_parse_lines)."""
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    n = int(head[2:]) if head.startswith(b"n=") and head[2:].isdigit() else -1
    if 0 <= n <= MAX_BITS and len(body) % (n + 1) == 0:
        lines = np.frombuffer(body, np.uint8).reshape(-1, n + 1)
        bits = lines[:, :n] - np.uint8(ord("0"))  # other bytes wrap past 1
        if (lines[:, n] == ord("\n")).all() and bits.max(initial=0) <= 1:
            octets = np.zeros((len(lines), 8), np.uint8)
            octets[:, :(n + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
            return _collapse(Code(n, octets.view("<u8").ravel()), len(lines))
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
