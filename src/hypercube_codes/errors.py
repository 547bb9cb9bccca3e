"""Shared exception types, and how a refusal message writes a number.

Plain ValueError is used for malformed inputs (bad lengths, bad ranges,
bad file contents).  The classes below mark the two other failure modes
that callers may want to handle separately.
"""


class OutOfRegimeError(Exception):
    """Parameters are valid but outside the range where exact computation
    is supported (search space or budget exceeded)."""


class ConstructionError(Exception):
    """A randomized construction missed its quality target within the
    allowed retry budget."""


def _shown(value: int) -> str:
    """An int as a refusal message writes it: in full up to 64 bits, else
    bounded by a power of two, so no message meets Python's digit limit."""
    bits = value.bit_length()
    return str(value) if bits <= 64 else f"{'at most -' if value < 0 else 'at least '}2^{bits - 1}"


def _shown_power(exponent: int) -> str:
    """2^exponent as a refusal message writes it, without forming it."""
    return f"2^{exponent}" if exponent.bit_length() <= 64 else f"2^({_shown(exponent)})"
