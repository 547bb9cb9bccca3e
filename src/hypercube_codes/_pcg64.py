"""numpy's PCG64 stream in Python ints, and the draws taken from it.

uint64s(key) is, word for word, the next_uint64 stream of numpy's
Generator(PCG64(SeedSequence(key))) (PCG64 is XSL-RR 128/64, O'Neill
2014).  uint32s and next_double derive from it as numpy's next_uint32
and next_double do, and standard_exponentials runs numpy's 256-level
ziggurat on it, so the layer draws of codes and the Dirichlet starts of
hypergraph.lagrangian each match numpy bit for bit.  A draw costs
0.5-2 us here against 15-50 ns in numpy, but importing numpy.random
costs a process about 6 MB of RSS and 10-16 ms (2-vCPU x86-64 VM), more
than the few thousand draws that each command takes.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0 ** -53


def seed_state(key: list[int]) -> list[int]:
    """SeedSequence(key).generate_state(4, np.uint64): each key int split
    into 32-bit words, least significant first, hashed into a pool of 4."""
    words: list[int] = []
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError("expected non-negative integer")
        words.append(k & _MASK32)
        while k := k >> 32:
            words.append(k & _MASK32)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    half = []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        half.append(value ^ value >> 16)
    return [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]


def uint64s(key: list[int]) -> Iterator[int]:
    """numpy's next_uint64 stream of PCG64(SeedSequence(key)).  The key
    is hashed here, so a negative key int is refused before any draw."""
    s0, s1, s2, s3 = seed_state(key)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    # srandom: one step from state 0, add the seed state, one more step
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return _xsl_rr(state, inc)


def _xsl_rr(state: int, inc: int) -> Iterator[int]:
    """The XSL-RR output of each step: the halves of the state xored,
    rotated right by its top 6 bits."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        yield (x | x << 64) >> (state >> 122) & _MASK64


def uint32s(words: Iterator[int]) -> Iterator[int]:
    """numpy's next_uint32: the low half of each word, then its high half."""
    for x in words:
        yield x & _MASK32
        yield x >> 32


def next_double(words: Iterator[int]) -> float:
    """numpy's next_double: the top 53 bits of the next word, over 2^53."""
    return (next(words) >> 11) * _DOUBLE_UNIT


def standard_exponentials(words: Iterator[int]) -> Iterator[float]:
    """numpy's standard_exponential draws, by its ziggurat on the words.

    Each draw reads one word: 8 bits pick the layer and the top 53 give
    x.  About 1.1% of draws fall outside the layer's rectangle and read
    a double too, for the tail beyond R (layer 0) or for the wedge test,
    and a rejected wedge starts over on the next word.  The tables load
    on the first draw.
    """
    from ._ziggurat import FE, KE, R, WE
    for ri in words:
        ri >>= 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE[idx]
        if ri < KE[idx]:
            yield x
        elif not idx:
            yield R - math.log1p(-next_double(words))
        elif (FE[idx - 1] - FE[idx]) * next_double(words) + FE[idx] < math.exp(-x):
            yield x


def dirichlet_rows(exponentials: Iterator[float], n: int) -> Iterator[list[float]]:
    """The rows of numpy's dirichlet(np.ones(n), size), one at a time,
    from its exponentials: n draws, summed in order, each times the
    reciprocal of the sum."""
    while True:
        row = [next(exponentials) for _ in range(n)]
        acc = 0.0
        for v in row:
            acc += v
        inv = 1.0 / acc
        yield [v * inv for v in row]
