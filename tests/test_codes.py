"""Randomized layered constructions: determinism, per-layer statistics,
residue selection and the code file format."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypercube_codes import _pcg64, codes
from hypercube_codes.codes import (
    DENSITY_THRESHOLD,
    Code,
    ResidueSelection,
    best_residue_subcode,
    build_layer_vectors,
    layer_words,
    layered_basis_code,
    load_code,
    residue_subcode,
    save_code,
    subcube_hitting_set,
    weight_class_code,
)
from hypercube_codes.errors import ConstructionError
from hypercube_codes.gf2 import BitWord, rank_ints
from oracles import draw_vectors_numpy, independent_subsets


def test_code_validation_and_density():
    code = Code(3, frozenset({0, 7}))
    assert len(code) == 2
    assert code.density() == Fraction(1, 4)
    with pytest.raises(ValueError):
        Code(3, frozenset({8}))
    with pytest.raises(ValueError):
        Code(70, frozenset())
    # no float is truncated to an int and no bool read as 0/1
    for words in ([1.5], [1, 2.0], np.array([1.5, 2.0]), np.array([True, False]),
                  [True], np.array([1.5], dtype=object), [np.float64(1)]):
        with pytest.raises(ValueError, match="must be integers"):
            Code(3, words)
    assert Code(3, [np.int64(3), 1, np.uint8(2)]).array.tolist() == [1, 2, 3]


def test_layer_draws_are_deterministic():
    a = build_layer_vectors(8, seed=5)
    b = build_layer_vectors(8, seed=5)
    assert a == b
    c = build_layer_vectors(8, seed=6)
    assert a != c
    assert set(a) == set(range(1, 9))
    for r, assignment in a.items():
        assert assignment.weight == r
        assert len(assignment.vectors) == 8
        assert all(1 <= v < (1 << r) for v in assignment.vectors)


SEED_GRID = [*range(10), 2**32 - 1, 2**32, 2**64 + 5]


def test_layer_draws_match_numpys_generator():
    # layer keys [seed, r, retry] at dim r, hitting keys [seed, r] at
    # dim r + k, each 24 draws; multi-word seeds split into 32-bit words
    for seed in SEED_GRID:
        for r in range(1, 25):
            for retry in (0, 1, 17, 64):
                key = [seed, r, retry]
                assert codes._draw_vectors(key, 24, r) == draw_vectors_numpy(key, 24, r), key
            for dim in range(r, 25):
                key = [seed, r]
                assert codes._draw_vectors(key, 24, dim) \
                    == draw_vectors_numpy(key, 24, dim), (key, dim)
    for key in ([0], [7, 1, 0], [2**64 + 5, 3]):
        assert codes._draw_vectors(key, 5, 1) == draw_vectors_numpy(key, 5, 1) == (1,) * 5
    # numpy integers are read as the ints they hold, not in fixed width
    key = [np.uint64(2**64 - 1), np.int64(3), 0]
    assert codes._draw_vectors(key, 24, 3) == draw_vectors_numpy([2**64 - 1, 3, 0], 24, 3)


# layer keys whose 24 draws at dim r skip a word (found by search): at
# these dims a word is skipped with probability 2^(32 mod r) / 2^32
REJECTING_KEYS = [[14937, 17, 0], [6616, 18, 0], [57485, 19, 0]]


def test_layer_draws_that_skip_a_word_match_numpy():
    for key in REJECTING_KEYS:
        r = key[1]
        used = []
        stream = _pcg64.uint32s(_pcg64.uint64s(key))
        drawn = codes._bounded_draws((used.append(u) or u for u in stream), 24, r)
        assert len(used) > 24
        assert drawn == codes._draw_vectors(key, 24, r) == draw_vectors_numpy(key, 24, r)


def test_bounded_draw_skips_words_below_the_threshold_only():
    # a stream meets a word at the threshold itself once in 2^32, so the
    # boundary of numpy's rule is pinned on chosen words: one whose low
    # product word is threshold - 1 is skipped, one at the threshold kept
    for dim in range(2, 33):
        excl = (1 << dim) - 1
        threshold = ((1 << 32) - excl) % excl
        inverse = pow(excl, -1, 1 << 32)
        at = threshold * inverse % (1 << 32)
        below = (threshold - 1) * inverse % (1 << 32)
        kept = 1 + (at * excl >> 32)
        assert codes._bounded_draws(iter([below, at]), 1, dim) == (kept,)
        assert codes._bounded_draws(iter([at, below]), 1, dim) == (kept,)


def test_layer_draw_refusals():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        codes._draw_vectors([-1, 3, 0], 4, 3)
    for dim in (0, 33):
        with pytest.raises(ValueError, match="dim"):
            codes._draw_vectors([0, 1], 4, dim)


def test_weight_one_layer_is_forced():
    # GF(2)^1 has a single nonzero vector, so every coordinate gets it
    # and every singleton support qualifies
    layers = build_layer_vectors(6, seed=3)
    assert layers[1].vectors == (1,) * 6
    assert frozenset(layer_words(layers[1]).tolist()) \
        == frozenset(1 << i for i in range(6))


def test_layer_words_match_direct_rank_check():
    layers = build_layer_vectors(7, seed=2)
    for r in (2, 3, 4):
        assignment = layers[r]
        words = layer_words(assignment)
        for w in range(1 << 7):
            expected = False
            if w.bit_count() == r:
                support = [i for i in range(7) if (w >> i) & 1]
                expected = rank_ints(assignment.vectors[i] for i in support) == r
            assert (w in words) == expected


def test_layer_marginal_frequency():
    # vector values are uniform on the nonzero elements of GF(2)^3
    hits = sum(1 for seed in range(3000)
               if build_layer_vectors(3, seed=seed)[3].vectors[0] == 1)
    freq = hits / 3000
    p = 1 / 7
    sigma = math.sqrt(p * (1 - p) / 3000)
    assert abs(freq - p) < 3 * sigma


def test_layer_size_mean_matches_basis_probability():
    # each of the C(10, 3) supports keeps its word with probability
    # 24/49, so the mean layer size concentrates there
    sizes = [len(layer_words(build_layer_vectors(10, seed=s)[3]))
             for s in range(400)]
    mean = sum(sizes) / len(sizes)
    expect = math.comb(10, 3) * 24 / 49
    var = sum((x - mean) ** 2 for x in sizes) / (len(sizes) - 1)
    sem = math.sqrt(var / len(sizes))
    assert abs(mean - expect) < 3 * sem


def test_layered_code_structure():
    code = layered_basis_code(build_layer_vectors(10, seed=0))
    assert 0 in code.words
    by_weight = {}
    for w in code.words:
        by_weight.setdefault(w.bit_count(), 0)
        by_weight[w.bit_count()] += 1
    # seed 0 at n=10 clears the density threshold on every layer
    for r in range(1, 11):
        assert by_weight.get(r, 0) > float(DENSITY_THRESHOLD) * math.comb(10, r)


def test_layered_code_rejects_mixed_layers():
    layers = build_layer_vectors(6, seed=0)
    other = build_layer_vectors(7, seed=0)
    layers[3] = other[3]
    with pytest.raises(ValueError):
        layered_basis_code(layers)
    with pytest.raises(ValueError):
        layered_basis_code({})


def test_retry_policy_strict_and_lenient(monkeypatch):
    layers = build_layer_vectors(5, seed=0)
    # no layer can clear a threshold of 1, and no redraw is allowed
    monkeypatch.setattr(codes, "DENSITY_THRESHOLD", Fraction(1))
    monkeypatch.setattr(codes, "MAX_RETRIES", 0)
    with pytest.raises(ConstructionError):
        layered_basis_code(layers, strict=True)
    code = layered_basis_code(layers, strict=False)
    assert len(code) > 1  # best draws kept despite the shortfall


def test_deficient_layer_is_logged_once(monkeypatch, caplog):
    layers = build_layer_vectors(6, seed=0)
    draw = codes._layer_table
    # layer 3 keeps no word on any draw (an empty table), the others keep theirs
    monkeypatch.setattr(codes, "_layer_table", lambda a: 0 if a.weight == 3 else draw(a))
    with caplog.at_level("WARNING", logger="hypercube_codes.codes"):
        code = layered_basis_code(layers)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("hypercube_codes.codes", "WARNING",
         "layers [3] below the density threshold; keeping best draws")]
    assert not any(bin(w).count("1") == 3 for w in code.words)
    caplog.clear()
    with pytest.raises(ConstructionError, match=r"layers \[3\]"):
        layered_basis_code(layers, strict=True)
    assert caplog.records == []


def test_residue_subcode_partitions():
    code = layered_basis_code(build_layer_vectors(9, seed=1))
    pieces = [residue_subcode(code, 3, r) for r in range(3)]
    assert sum(len(p) for p in pieces) == len(code)
    union = frozenset().union(*(p.words for p in pieces))
    assert union == code.words
    for r, piece in enumerate(pieces):
        assert all(w.bit_count() % 3 == r for w in piece.words)
    with pytest.raises(ValueError):
        residue_subcode(code, 0, 0)
    with pytest.raises(ValueError):
        residue_subcode(code, 3, 3)


def test_best_residue_subcode():
    code = layered_basis_code(build_layer_vectors(9, seed=1))
    selection = best_residue_subcode(code, 3)
    sizes = [len(residue_subcode(code, 3, r)) for r in range(3)]
    assert len(selection.code) == max(sizes)
    assert sizes[selection.residue] == max(sizes)
    # a tie resolves to the smallest residue
    tie = best_residue_subcode(Code(1, frozenset({0, 1})), 2)
    assert tie.residue == 0
    assert tie.code.words == frozenset({0})
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            best_residue_subcode(code, modulus)


def test_residue_choice_from_layer_sizes_matches_the_listed_code():
    # the CLI's layered --modulus path counts each class by its layers'
    # popcounts and lists only the class kept: the same code, residue
    # and size as choosing on the whole layered code
    for n in (1, 2, 5, 9, 12):
        for seed in range(3):
            layers = build_layer_vectors(n, seed)
            code = layered_basis_code(layers)
            for modulus in (1, 2, 3, 6, 7, n + 2, 40):
                best = best_residue_subcode(code, modulus)
                assert codes._layered_residue_code(layers, modulus, None, False) \
                    == (best, len(code)), (n, seed, modulus)
                for residue in {0, modulus - 1, best.residue}:
                    selection, size = codes._layered_residue_code(layers, modulus, residue, False)
                    assert selection == ResidueSelection(
                        residue_subcode(code, modulus, residue), residue)
                    assert size == len(code)
    for modulus, residue in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError, match="modulus|residue"):
            codes._layered_residue_code(build_layer_vectors(4), modulus, residue, False)


def test_best_residue_subcode_matches_counting_each_class():
    # the pure-Python choice on seeded codes of any width, against
    # counting each residue class by its words' weights
    rng = random.Random(4)
    for n in (0, 1, 6, 24, 64):
        for size in (0, 1, 50):
            code = Code(n, [rng.getrandbits(n) for _ in range(size)])
            for modulus in (1, 2, 5, 70):
                classes = [[w for w in sorted(code.words) if w.bit_count() % modulus == c]
                           for c in range(modulus)]
                best = max(range(modulus), key=lambda c: (len(classes[c]), -c))
                selection = best_residue_subcode(code, modulus)
                assert selection.residue == best
                assert selection.code.array.tolist() == classes[best]


def test_weight_class_code():
    even = weight_class_code(4, 2, 0)
    assert len(even) == 8
    assert all(w.bit_count() % 2 == 0 for w in even.words)
    assert weight_class_code(3, 3, 0).words == frozenset({0, 0b111})
    sizes = [len(weight_class_code(6, 3, r)) for r in range(3)]
    assert sum(sizes) == 64
    # a modulus above every weight keeps one weight, or none
    assert weight_class_code(4, 300, 2).words \
        == frozenset(w for w in range(16) if w.bit_count() == 2)
    assert len(weight_class_code(4, 300, 299)) == 0
    with pytest.raises(ValueError):
        weight_class_code(4, 2, 2)


def test_save_load_round_trip(tmp_path):
    code = layered_basis_code(build_layer_vectors(8, seed=4))
    path = tmp_path / "code.txt"
    save_code(path, code)
    again = load_code(path)
    assert again.n == code.n
    assert again.words == code.words
    text = path.read_text(encoding="utf-8")
    assert text.startswith("n=8\n")
    assert text.endswith("\n")


def test_load_collapses_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("n=3\n101\n101\n010\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = load_code(path)
    assert code.words == frozenset({0b101, 0b010})
    assert any("duplicate" in str(w.message) for w in caught)


def test_load_reports_line_numbers(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("m=3\n101\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_code(bad_header)

    bad_char = tmp_path / "b.txt"
    bad_char.write_text("n=3\n1x1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_code(bad_char)

    bad_length = tmp_path / "c.txt"
    bad_length.write_text("n=3\n101\n1011\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_code(bad_length)

    empty = tmp_path / "d.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_code(empty)


def test_subcube_hitting_set_structure():
    result = subcube_hitting_set(9, 1, seed=0)
    code = result.code
    assert result.target_size == 1 << 8
    assert result.met_target == (len(code) <= result.target_size)
    assert result.met_target
    cutoff = result.small_layer_cutoff
    assert 0 <= cutoff <= 9
    # below the cutoff whole layers are included
    for w in range(1 << 9):
        if w.bit_count() <= cutoff:
            assert w in code.words
    # the same parameters reproduce exactly
    again = subcube_hitting_set(9, 1, seed=0)
    assert again.code.words == code.words


def test_subcube_hitting_set_when_no_cutoff_fits():
    # even the dependent words alone overshoot the target, so no layer
    # enters in full and the zero word stays out
    result = subcube_hitting_set(16, 3, seed=0)
    assert result.small_layer_cutoff == -1
    assert result.met_target is False
    assert result.target_size == 8192
    assert len(result.code) == 8973
    assert 0 not in result.code.words


def _reference_words(vectors, r):
    return frozenset(sum(1 << i for i in s) for s in independent_subsets(vectors, r))


def _reference_layered(n, seed, redraws):
    """Layer by layer with the depth-first walk, redrawing as
    layered_basis_code does; each redraw is appended to redraws."""
    words = {0}
    for r in range(1, n + 1):
        attempt = codes._draw_layer(n, r, seed, 0)
        target = DENSITY_THRESHOLD * math.comb(n, r)
        best = _reference_words(attempt.vectors, r)
        while len(best) <= target and attempt.retry < codes.MAX_RETRIES:
            attempt = codes._draw_layer(n, r, seed, attempt.retry + 1)
            redraws.append((n, seed, r, attempt.retry))
            candidate = _reference_words(attempt.vectors, r)
            if len(candidate) > len(best):
                best = candidate
        words |= best
    return frozenset(words)


def _reference_hitting(n, k, seed):
    """Dependent supports by combinations minus the walk's independent
    ones, and the largest cutoff whose full low layers fit the target."""
    dependent = {0: frozenset()}
    for r in range(1, n + 1):
        vectors = codes._draw_vectors([seed, r], n, r + k)
        independent = set(independent_subsets(vectors, r))
        dependent[r] = frozenset(sum(1 << i for i in s)
                                 for s in itertools.combinations(range(n), r)
                                 if s not in independent)
    target = 1 << (n - k) if k <= n else 1
    cutoff = -1
    running = sum(map(len, dependent.values()))
    prefix = 0
    for c in range(n + 1):
        prefix += math.comb(n, c)
        running -= len(dependent[c])
        if prefix + running <= target:
            cutoff = c
    words = {w for w in range(1 << n) if w.bit_count() <= cutoff}
    for r in range(cutoff + 1, n + 1):
        words |= dependent[r]
    return frozenset(words), cutoff, target


def test_layered_code_matches_the_walk_assembly():
    redraws = []
    for n in (1, 2, 5, 9, 12, 13, 14):
        for seed in range(3):
            code = layered_basis_code(build_layer_vectors(n, seed))
            assert code.words == _reference_layered(n, seed, redraws)
    assert redraws  # some layers were redrawn, and the redraws agree too


@pytest.mark.parametrize("n", [1, 4, 9, 13, 14])
def test_hitting_set_matches_the_walk_assembly(n):
    for k in range(4):
        for seed in range(3):
            result = subcube_hitting_set(n, k, seed)
            words, cutoff, target = _reference_hitting(n, k, seed)
            assert result.code.words == words
            assert (result.small_layer_cutoff, result.target_size) == (cutoff, target)
            assert result.met_target == (len(words) <= target)


_WORDS = [0, 3, 9, 12]


@pytest.mark.parametrize("words", [
    np.array([9, 3, 12, 3, 0, 9], dtype=np.uint32),
    np.array([12, 0, 9, 3, 9], dtype=np.int64),
    [3, 12, 0, 9, 9, 3],
    {12, 0, 9, 3},
    (w for w in (12, 3, 0, 9, 3)),
], ids=["uint32", "int64", "list", "set", "generator"])
def test_code_stores_one_sorted_distinct_read_only_array(words):
    code = Code(4, words)
    assert code.array.dtype == np.uint64
    assert code.array.tolist() == _WORDS
    assert code.words == frozenset(_WORDS)
    assert len(code) == 4
    with pytest.raises(ValueError):
        code.array[0] = 1
    if isinstance(words, np.ndarray):
        words[:] = 0  # the code keeps its own copy
        assert code.array.tolist() == _WORDS


@pytest.mark.parametrize("n, words", [
    (4, [-1]),
    (4, np.array([5, -1], dtype=np.int64)),
    (4, [16]),
    (4, np.array([3, 16], dtype=np.uint32)),
    (64, [0, -1]),
    (64, np.array([-(1 << 63)], dtype=np.int64)),
    (64, [1 << 64]),
])
def test_code_rejects_words_outside_the_cube(n, words):
    with pytest.raises(ValueError, match="does not fit"):
        Code(n, words)


def test_code_accepts_the_top_bit_at_64_coordinates():
    words = [(1 << 64) - 1, 1 << 63, 0]
    for given_words in (words, np.array(words, dtype=np.uint64)):
        code = Code(64, given_words)
        assert code.array.tolist() == sorted(words)
        assert code.words == frozenset(words)


def test_code_array_is_a_view_built_on_first_access():
    # the words are kept as bytes; the array views them without a copy,
    # and the hash is that of (n, the array's bytes), as before
    code = Code(5, [17, 3, 30, 3])
    assert "array" not in vars(code)
    view = code.array
    assert code.array is view and not view.flags.owndata and not view.flags.writeable
    assert view.tobytes() == code._data and hash(code) == hash((5, view.tobytes()))
    assert list(code._ints()) == view.tolist() == [3, 17, 30]


def test_code_equality_and_hash_follow_value():
    a = Code(3, [7, 0])
    b = Code(3, np.array([0, 7, 7], dtype=np.int64))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Code(4, [0, 7])
    assert a != Code(3, [0])
    assert a != frozenset({0, 7})
    assert Code(3, []) == Code(3, np.zeros(0, dtype=np.uint8))


@st.composite
def codes_of_any_width(draw):
    """Codes on 0, 1, 24, 40 or 64 coordinates, with duplicate draws and
    with words whose top bit is set (bit 63 at n = 64)."""
    n = draw(st.sampled_from([0, 1, 24, 40, 64]))
    top = (1 << n) - 1
    word = st.one_of(st.integers(0, top), st.integers((top + 1) >> 1, top))
    return Code(n, draw(st.lists(word, max_size=40)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(codes_of_any_width(), st.integers(1, 70), st.integers(0, 69))
@example(Code(64, [0, 1 << 63, (1 << 64) - 1, 0b111]), 3, 1)
@example(Code(0, []), 2, 1)
def test_residue_selection_matches_bit_count(code, modulus, residue):
    residue %= modulus
    by_residue = [frozenset(w for w in code.words if w.bit_count() % modulus == r)
                  for r in range(modulus)]
    picked = residue_subcode(code, modulus, residue)
    assert (picked.n, picked.words) == (code.n, by_residue[residue])
    sizes = [len(words) for words in by_residue]
    best = sizes.index(max(sizes))
    selection = best_residue_subcode(code, modulus)
    assert selection.residue == best
    assert (selection.code.n, selection.code.words) == (code.n, by_residue[best])


def _save_per_character(path, code):
    """The per-character writer save_code replaced."""
    lines = [f"n={code.n}"]
    for w in sorted(code.words):
        lines.append("".join("1" if (w >> i) & 1 else "0" for i in range(code.n)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_per_character(path):
    """The per-character reader load_code replaced, on a valid header:
    (n, the set of words), or ValueError with its message."""
    lines = path.read_text(encoding="ascii").splitlines()
    n = int(lines[0][2:])
    words = []
    for lineno, line in enumerate(lines[1:], start=2):
        if len(line) != n:
            raise ValueError(f"line {lineno}: expected {n} characters, got {len(line)}")
        word = 0
        for i, ch in enumerate(line):
            if ch == "1":
                word |= 1 << i
            elif ch != "0":
                raise ValueError(f"line {lineno}: invalid character {ch!r}")
        words.append(word)
    return n, frozenset(words)


def _load_outcome(load, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load(path)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(codes_of_any_width(), st.data())
def test_code_files_match_the_per_character_codec(tmp_path_factory, code, data):
    old_path = tmp_path_factory.getbasetemp() / "per_character.txt"
    new_path = tmp_path_factory.getbasetemp() / "codec.txt"
    _save_per_character(old_path, code)
    save_code(new_path, code)
    assert new_path.read_bytes() == old_path.read_bytes()
    again = load_code(new_path)
    assert (again.n, again.words) == _load_per_character(new_path) == (code.n, code.words)
    for w in code.words:
        assert BitWord(w, code.n).to01() == "".join(
            "1" if (w >> i) & 1 else "0" for i in range(code.n))
        assert BitWord.from01(BitWord(w, code.n).to01()).bits == w

    # a duplicated line, a wrong length or a foreign character on one line
    lines = new_path.read_text(encoding="ascii").splitlines()
    at = data.draw(st.integers(1, len(lines)))
    line = lines[at] if at < len(lines) else "0" * code.n
    change = data.draw(st.sampled_from(["duplicate", "short", "long", "char"]))
    if change == "duplicate":
        lines.insert(at, line)
    elif change == "short":
        lines.insert(at, line[:-1])
    elif change == "long":
        lines.insert(at, line + "1")
    else:  # one or two foreign characters; the first one is reported
        for _ in range(data.draw(st.integers(1, 2))):
            pos = data.draw(st.integers(0, max(0, len(line) - 1)))
            bad = data.draw(st.sampled_from(["x", "2", " ", "_", "+", "-", "\t", "b"]))
            line = line[:pos] + bad + line[pos + 1:]
        lines.insert(at, line)
    new_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    new = _load_outcome(load_code, new_path)
    old = _load_outcome(_load_per_character, new_path)
    assert (new if isinstance(new, str) else (new.n, new.words)) == old
