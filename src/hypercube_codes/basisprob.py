"""Probability that random nonzero vectors form a basis of GF(2)^t.

All closed forms are exact Fractions; basis_probability, also exact,
accepts arbitrary simplex points over the 2^t - 1 nonzero vectors.  It
imports hypergraph and numpy when called, so the closed forms behind
`constants` load no numpy.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import OutOfRegimeError

MAX_T = 64

# Sum of entries of a simplex point may be off by this much (floats only;
# rational inputs are checked exactly through the same window).
SIMPLEX_TOL = 1e-12


def independent_draw_probability(r: int, m: int) -> Fraction:
    """Probability that r vectors drawn i.i.d. uniformly from the nonzero
    elements of GF(2)^m are linearly independent."""
    if r < 0 or m < 1:
        raise ValueError("need r >= 0 and m >= 1")
    if r > m:
        return Fraction(0)
    num = 1
    for i in range(1, r):
        num *= (1 << m) - (1 << i)
    return Fraction(num, ((1 << m) - 1) ** (r - 1)) if r >= 1 else Fraction(1)


def uniform_basis_probability(t: int) -> Fraction:
    """Exact probability that t uniform nonzero vectors of GF(2)^t form a
    basis: prod_{i=1}^{t-1} (2^t - 2^i) / (2^t - 1)."""
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t must be in [1, {MAX_T}]")
    return independent_draw_probability(t, t)


def first_draw_bound(t: int) -> Fraction:
    """((2^t - 2) / (2^t - 1)) ** (t - 1), the uniform-case value of the
    repeat-avoidance sum and an upper bound for every distribution."""
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t must be in [1, {MAX_T}]")
    return Fraction((1 << t) - 2, (1 << t) - 1) ** (t - 1)


def basis_recurrence_check(t: int) -> bool:
    """Exact check of P(t) = ((2^t - 2)/(2^t - 1))^(t-1) * P(t-1)."""
    if not 2 <= t <= MAX_T:
        raise ValueError(f"t must be in [2, {MAX_T}]")
    return independent_draw_probability(t, t) \
        == first_draw_bound(t) * independent_draw_probability(t - 1, t - 1)


def limit_interval(t: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the limit constant inf_t P(t).

    The upper end is P(t) (the sequence decreases); the lower end is
    P(t) * (1 - 2t/2^t), which bounds the remaining tail for t >= 2.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    p = independent_draw_probability(t, t)
    return p * (1 - Fraction(2 * t, 1 << t)), p


def limit_constant(decimal_digits: int) -> Decimal:
    """The limit constant lim_t P(t), rounded to the requested number of
    decimal digits.  The truncation point grows until both ends of the
    certified enclosure round to the same decimal, so the result is the
    rounding of the true limit."""
    if not 1 <= decimal_digits <= 30:
        raise ValueError("decimal_digits must be in [1, 30]")
    quantum = Decimal(1).scaleb(-decimal_digits)
    with localcontext() as ctx:
        ctx.prec = decimal_digits + 25
        for t in range(8, 480, 4):
            lo, hi = limit_interval(t)
            lo_dec = (Decimal(lo.numerator) / Decimal(lo.denominator)).quantize(quantum)
            hi_dec = (Decimal(hi.numerator) / Decimal(hi.denominator)).quantize(quantum)
            if lo_dec == hi_dec:
                return hi_dec
    raise OutOfRegimeError("certified rounding did not stabilize")


class SimplexPoint(Record):
    """A probability distribution on the nonzero vectors of GF(2)^t.

    probs[i] is the probability of the vector with packed value i + 1.
    Entries may be Fractions, ints, or floats; they must be non-negative
    and sum to 1 within SIMPLEX_TOL.
    """

    t: int
    probs: tuple

    def __post_init__(self):
        if not 1 <= self.t <= MAX_T:
            raise ValueError(f"t must be in [1, {MAX_T}]")
        if len(self.probs) != (1 << self.t) - 1:
            raise ValueError(
                f"expected {(1 << self.t) - 1} probabilities, got {len(self.probs)}")
        total = 0.0
        for p in self.probs:
            if p < 0:
                raise ValueError("probabilities must be non-negative")
            total += float(p)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, t: int) -> "SimplexPoint":
        m = (1 << t) - 1
        return cls(t, (Fraction(1, m),) * m)

    @classmethod
    def from_weights(cls, t: int, weights: Sequence[int]) -> "SimplexPoint":
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(t, tuple(Fraction(w, total) for w in weights))


def basis_probability(dist: SimplexPoint) -> Fraction:
    """Exact probability that t draws from `dist` form a basis, t <= 5.

    Entries are coerced with Fraction(), so floats are taken at their
    exact binary value.  The bases are the edges of basis_hypergraph(t).
    """
    from .hypergraph import basis_hypergraph
    t = dist.t
    fracs = [Fraction(p) for p in dist.probs]
    denom = math.lcm(*(f.denominator for f in fracs))
    scaled = [int(f * denom) for f in fracs]
    total = 0
    for subset in basis_hypergraph(t).edges.tolist():
        prod = 1
        for i in subset:
            prod *= scaled[i]
        total += prod
    return Fraction(math.factorial(t) * total, denom ** t)

