"""The PCG64 stream of hypercube_codes._pcg64 and the float draws taken
from it, each against numpy's Generator(PCG64(SeedSequence(key))): the
words and doubles, the ziggurat exponentials and their stored tables,
and the Dirichlet(1) rows that start the Lagrangian's ascents."""

import itertools

import numpy as np
import pytest

from hypercube_codes import _pcg64, _ziggurat
from oracles import (ZIGGURAT_R, dirichlet_numpy, numpy_generator, pcg64_starting_with,
                     standard_exponential_numpy, ziggurat_exponential_tables)

KEYS = [[seed] for seed in (*range(10), 2**32 - 1, 2**32, 2**64 + 5)] \
    + [[7, 1, 0], [2**64 + 5, 3]]


def exponentials(key):
    return _pcg64.standard_exponentials(_pcg64.uint64s(key))


def dirichlet(key, n: int, size: int) -> list[list[float]]:
    return list(itertools.islice(_pcg64.dirichlet_rows(exponentials(key), n), size))


def test_words_and_doubles_are_numpys():
    for key in KEYS:
        words = list(itertools.islice(_pcg64.uint64s(key), 100))
        assert words == numpy_generator(key).bit_generator.random_raw(100).tolist(), key
        stream = _pcg64.uint64s(key)
        doubles = [_pcg64.next_double(stream) for _ in range(100)]
        assert doubles == numpy_generator(key).random(100).tolist(), key
    # an int seed is the one-word key, as for SeedSequence
    assert next(_pcg64.uint64s([5])) == numpy_generator(5).bit_generator.random_raw()


def test_stored_ziggurat_tables_equal_the_recurrence():
    ke, we, fe = ziggurat_exponential_tables()
    assert _ziggurat.KE == tuple(ke)
    assert _ziggurat.WE == tuple(we)
    assert _ziggurat.FE == tuple(fe)
    assert _ziggurat.R == float(ZIGGURAT_R)


def test_exponentials_match_numpy():
    for key in KEYS:
        drawn = list(itertools.islice(exponentials(key), 5000))
        assert drawn == standard_exponential_numpy(key, 5000), key


@pytest.mark.parametrize("n", [1, 2, 15, 31])
def test_dirichlet_rows_match_numpy(n):
    for key in KEYS:
        assert dirichlet(key, n, 40) == dirichlet_numpy(key, n, 40), key
        # the rows of one numpy call continue in the next, as the
        # Lagrangian's blocks take them
        rng = numpy_generator(key)
        blocks = [rng.dirichlet(np.ones(n), size=size).tolist() for size in (3, 5)]
        assert blocks[0] + blocks[1] == dirichlet(key, n, 8), key


def path_of(first_word: int, words_read: int) -> str:
    """Which branch of the ziggurat a draw took, from its first word and
    the number of words it read."""
    if words_read == 1:
        return "rectangle"
    if words_read > 2:
        return "wedge-reject"
    return "tail" if first_word >> 3 & 0xFF == 0 else "wedge-accept"


def paths(words, count: int) -> list[str]:
    used = []
    draws = _pcg64.standard_exponentials(used.append(w) or w for w in words)
    taken = []
    for _ in range(count):
        before = len(used)
        next(draws)
        taken.append(path_of(used[before], len(used) - before))
    return taken


# keys whose first Dirichlet row on 15 coordinates (found by search) takes
# the tail beyond R, accepts a wedge and rejects one; the tail is reached
# by about one draw in 2,200, so the seed grid above may never reach it
PATH_KEYS = {"tail": [229], "wedge-accept": [1], "wedge-reject": [5]}


def test_draws_down_each_ziggurat_path_match_numpy():
    for path, key in PATH_KEYS.items():
        assert path in paths(_pcg64.uint64s(key), 15), path
        assert dirichlet(key, 15, 1) == dirichlet_numpy(key, 15, 1)


def test_the_rectangle_test_is_strict_on_chosen_words():
    # a stream meets the word with ri = KE[idx] once in 2^53, so the
    # boundary of numpy's `ri < ke[idx]` is pinned on chosen words, with
    # numpy's PCG64 set to draw each one next: ri = KE[idx] - 1 is taken
    # from its word alone, and ri = KE[idx] reads a double too
    for idx, bound in enumerate(_ziggurat.KE):
        for ri in (bound - 1, bound) if bound else (0,):
            word = ri << 11 | idx << 3 | 5
            words = pcg64_starting_with(word).random_raw(16).tolist()
            assert words[0] == word
            taken = paths(iter(words), 1)[0]
            assert (taken == "rectangle") == (ri < bound), (idx, ri)
            assert (taken == "tail") == (ri == bound and idx == 0), (idx, ri)
            drawn = list(itertools.islice(_pcg64.standard_exponentials(iter(words)), 2))
            assert drawn == np.random.Generator(pcg64_starting_with(word)) \
                .standard_exponential(2).tolist(), (idx, ri)


def test_a_negative_key_is_refused_before_any_draw():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        _pcg64.uint64s([-1])
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        numpy_generator(-1)
