"""Uniform hypergraphs: construction counts, copy containment and
Lagrangian optimization."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hypercube_codes.basisprob import uniform_basis_probability
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.extremal import max_partition_product_sum
from hypercube_codes.gf2 import rank_ints
from oracles import (blow_up, complete_multipartite, independent_subsets, lagrangian_polynomial,
                     numpy_generator)
from hypercube_codes.hypergraph import (
    LAGRANGIAN_BLOCK,
    LagrangianResult,
    UniformHypergraph,
    augmented_complete,
    basis_hypergraph,
    complete,
    contains_copy,
    lagrangian,
    linear_independence_density,
    linear_independence_hypergraph,
)


def assert_valid_copy(big, small, image):
    assert image is not None
    assert len(set(image.values())) == small.n_vertices
    # a set of tuples: `tuple in array` would test elements, not rows
    big_edges = set(map(tuple, big.edges.tolist()))
    for edge in small.edges.tolist():
        mapped = tuple(sorted(image[v] for v in edge))
        assert mapped in big_edges


def test_hypergraph_validation_and_basics():
    tri = complete(2, 3)
    assert tri.n_vertices == 3
    assert tri.edge_count() == 3
    assert tri.degrees() == [2, 2, 2]
    assert tri.density() == Fraction(1)
    with pytest.raises(ValueError):
        UniformHypergraph(2, 3, frozenset({(0, 1, 2)}))
    with pytest.raises(ValueError):
        UniformHypergraph(2, 3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        UniformHypergraph(2, 3, frozenset({(1, 0)}))


def test_constructor_keeps_one_sorted_read_only_array():
    edges = [(1, 2), (0, 3), (0, 1), (1, 2)]  # one edge repeated
    graph = UniformHypergraph(2, 4, edges)
    assert graph.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert graph.edges.dtype == np.intp
    assert not graph.edges.flags.writeable
    assert graph.edge_count() == 3
    # tuples, an int32 array, a uint8 array and a frozenset give one graph
    for same in (np.array(edges, dtype=np.int32), np.array(edges, dtype=np.uint8),
                 frozenset(edges)):
        other = UniformHypergraph(2, 4, same)
        assert other == graph and hash(other) == hash(graph)
    assert graph != UniformHypergraph(2, 5, edges)
    assert graph != UniformHypergraph(2, 4, edges[1:3])
    empty = UniformHypergraph(3, 4, [])
    assert empty.edges.shape == (0, 3) and empty.edges.dtype == np.intp
    assert empty == UniformHypergraph(3, 4, np.empty((0, 3), dtype=np.int64))
    for r, n, bad in (
            (2, 3, [(0, 1, 2)]),  # width
            (2, 3, [(0, 1), (0, 1, 2)]),  # unequal widths
            (2, 3, [(0, 1), (1, 0)]),  # a row not increasing
            (2, 3, [(0, 1), (1, 1)]),  # a repeated vertex
            (2, 3, [(0, 3)]),  # out of range
            (2, 3, np.array([[-1, 0]])),  # below range
            (2, 3, np.array([[1, 0]], dtype=np.uint8)),  # decreasing unsigned
            (2, 3, np.array([[0.0, 1.0]])),  # floats
            (2, 3, np.array([[True, False]])),  # bools
            (2, 3, np.array([[0, 1, 2]])),  # an array of the wrong width
            (2, 3, np.array([0, 1])),  # not two-dimensional
            (0, 3, [])):
        with pytest.raises(ValueError):
            UniformHypergraph(r, n, bad)


def test_sorted_input_skips_the_sort_with_the_same_result():
    rng = np.random.default_rng(5)
    rows = np.array(list(itertools.combinations(range(9), 3)))  # sorted, distinct
    shuffled = rows[rng.permutation(len(rows))]
    repeated = np.concatenate([shuffled, rows[::3]])
    graphs = [UniformHypergraph(3, 9, edges) for edges in (
        rows, rows.astype(np.uint8), rows.astype(np.int32), shuffled, repeated,
        rows.tolist(), shuffled.tolist())]
    for graph in graphs:
        assert np.array_equal(graph.edges, rows)
        assert graph.edges.dtype == np.intp
        assert not graph.edges.flags.writeable
        assert graph == graphs[0] and hash(graph) == hash(graphs[0])
    # the sorted path copies: the caller's array stays its own and writable
    assert rows.flags.writeable and not np.shares_memory(rows, graphs[0].edges)
    for few in (rows[:0], rows[:1], rows[:2], rows[1::-1], rows[[0, 0]]):
        graph = UniformHypergraph(3, 9, few)
        assert list(map(tuple, graph.edges.tolist())) == sorted(set(map(tuple, few.tolist())))


def test_complete_counts():
    assert complete(3, 5).edge_count() == 10
    assert complete(1, 4).edge_count() == 4
    assert complete(2, 4).density() == Fraction(1)
    # edges are the budget's unit: 1,313,400 and 2,001 edges are built
    assert complete(3, 200).edge_count() == math.comb(200, 3)
    assert complete(2000, 2001).edge_count() == 2001


def test_complete_graphs_over_the_edge_budget_are_refused_at_once():
    for build, shown in ((lambda: complete(3, 320), "hold 5410240 edges"),
                         (lambda: complete(500_000, 1_000_000), "hold at least 2\\^500000 edges"),
                         (lambda: complete(3, 10**12), "hold at least 2\\^117 edges")):
        start = time.perf_counter()
        with pytest.raises(OutOfRegimeError, match=shown):
            build()
        assert time.perf_counter() - start < 0.1


def test_stem_augmentation():
    # three pairs, each completed by the same two stem vertices
    aug = augmented_complete(2, 3, 4)
    assert aug.r == 4
    assert aug.n_vertices == 5
    assert aug.edges.tolist() == [[0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]
    # degenerate: no stem needed when r equals s
    assert augmented_complete(2, 4, 2) == complete(2, 4)


def test_complete_multipartite_counts():
    tri = complete_multipartite((2, 2, 1))
    assert tri.r == 2
    assert tri.n_vertices == 5
    assert tri.edge_count() == 2 * 1 + 2 * 1 + 2 * 2
    # the edge count is exactly the one-class-omitted product sum
    for d in range(2, 11):
        result = max_partition_product_sum(d)
        graph = complete_multipartite(result.parts)
        assert graph.edge_count() == result.value


def test_linear_independence_graph_small():
    pairs = linear_independence_hypergraph(2, 1)
    assert pairs.n_vertices == 7
    # two distinct nonzero vectors are always independent
    assert pairs.edge_count() == 21
    triples = linear_independence_hypergraph(3, 2)
    assert triples.n_vertices == 31
    assert triples.edge_count() == 4340
    assert math.comb(31, 3) == 4495
    # every one of the 4340 distinct edges is independent
    for edge in triples.edges.tolist():
        assert rank_ints(v + 1 for v in edge) == 3
    with pytest.raises(OutOfRegimeError):
        linear_independence_hypergraph(4, 3)


@pytest.mark.parametrize("r, k", [(r, k) for r in range(1, 4) for k in range(5)]
                         + [(t, 0) for t in range(4, 6)])
def test_independence_hypergraphs_match_the_depth_first_oracle(r, k):
    # every (r, k) up to (3, 4), and basis_hypergraph(t) = (t, 0) to t = 5
    m = r + k
    want = UniformHypergraph(r, (1 << m) - 1, independent_subsets(range(1, 1 << m), r))
    got = basis_hypergraph(r) if k == 0 else linear_independence_hypergraph(r, k)
    assert got.edges.dtype == np.intp and not got.edges.flags.writeable
    assert np.array_equal(got.edges, want.edges)
    assert got == want and hash(got) == hash(want)


def test_linear_independence_density_matches_materialization():
    for r in (1, 2, 3):
        for k in (0, 1, 2, 3):
            if r + k > 6:
                continue
            graph = linear_independence_hypergraph(r, k)
            assert graph.density() == linear_independence_density(r, k)


def test_linear_independence_density_beats_threshold():
    for k in range(1, 13):
        for r in (1, 2, 5, 8):
            if r + k > 20:
                continue
            assert linear_independence_density(r, k) > 1 - Fraction(1, 1 << k)


def test_linear_independence_density_to_max_bits():
    # the closed form over r + k <= 64 (gf2.MAX_BITS), far past any build
    for r, k in ((1, 30), (3, 40), (1, 63)):
        m = r + k
        density = linear_independence_density(r, k)
        count = math.prod((1 << m) - (1 << i) for i in range(r)) // math.factorial(r)
        assert density == Fraction(count, math.comb((1 << m) - 1, r))
        assert density > 1 - Fraction(1, 1 << k)
    with pytest.raises(OutOfRegimeError):
        linear_independence_density(1, 64)


def test_blow_up_preserves_lagrangian():
    tri = complete(2, 3)
    base = lagrangian(tri, restarts=16).value
    blown = lagrangian(blow_up(tri, 3), restarts=16).value
    assert abs(base - blown) < 1e-8
    assert abs(base - 1 / 3) < 1e-9


def test_contains_copy_positive():
    big = complete(2, 5)
    small = complete(2, 3)
    image = contains_copy(big, small)
    assert_valid_copy(big, small, image)
    # a hypergraph contains itself
    self_image = contains_copy(small, small)
    assert_valid_copy(small, small, self_image)
    aug = augmented_complete(2, 3, 3)
    host = linear_independence_hypergraph(3, 1)
    found = contains_copy(host, aug)
    assert_valid_copy(host, aug, found)


def test_contains_copy_negative():
    hexagon = UniformHypergraph(2, 6, frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}))
    assert contains_copy(hexagon, complete(2, 3)) is None
    assert contains_copy(complete(2, 3), complete(2, 4)) is None
    with pytest.raises(ValueError):
        contains_copy(complete(3, 5), complete(2, 3))  # arities differ


def test_contains_copy_edgeless_small():
    small = UniformHypergraph(2, 3, frozenset())
    image = contains_copy(complete(2, 4), small)
    assert image is not None
    assert len(set(image.values())) == 3
    assert contains_copy(complete(2, 2), small) is None  # too few vertices


def test_contains_copy_budget():
    with pytest.raises(OutOfRegimeError):
        contains_copy(complete(2, 7), complete(2, 5), node_budget=2)


def test_contains_copy_refuses_before_its_set_up():
    # the twin classes and the vertex order of a 200-vertex path took
    # about 2 s of CPU before the search met its budget
    path = UniformHypergraph(2, 200, np.array([(i, i + 1) for i in range(199)]))
    host = complete(2, 400)
    start = time.process_time()
    with pytest.raises(OutOfRegimeError, match="set-up of 7960000 nodes"):
        contains_copy(host, path, node_budget=1)
    with pytest.raises(OutOfRegimeError, match="node budget"):
        contains_copy(host, path)  # also over the default budget
    assert time.process_time() - start < 0.2


def test_lagrangian_polynomial_evaluation():
    tri = complete(2, 3)
    assert lagrangian_polynomial(tri, [0.5, 0.5, 0.0]) == 0.25
    assert abs(lagrangian_polynomial(tri, [1 / 3] * 3) - 1 / 3) < 1e-12


def test_lagrangian_single_edge():
    for r in (1, 2, 3):
        single = complete(r, r)
        result = lagrangian(single, restarts=8)
        assert abs(result.value - r ** -r) < 1e-9
        assert abs(sum(result.point) - 1) < 1e-9


def test_lagrangian_complete_graphs():
    # lambda(K_t) = (t - 1) / (2 t) for 2-uniform cliques
    for t in (2, 3, 4, 5):
        value = lagrangian(complete(2, t), restarts=16).value
        assert abs(value - (t - 1) / (2 * t)) < 1e-8


def test_lagrangian_monotone_under_edge_addition():
    path = UniformHypergraph(2, 3, frozenset({(0, 1), (1, 2)}))
    tri = complete(2, 3)
    a = lagrangian(path, restarts=16).value
    b = lagrangian(tri, restarts=16).value
    assert b >= a - 1e-12
    assert abs(a - 0.25) < 1e-8  # best point uses one edge fully


def lagrangian_by_add_at(graph, restarts, seed, tol=1e-10, max_iters=20_000):
    """The ascent as first written: gradient by np.add.at and each
    restart's value by lagrangian_polynomial."""
    n = graph.n_vertices
    r = graph.r
    edges = np.array(graph.edges, dtype=np.int64)
    rng = numpy_generator(seed)
    best_value = -1.0
    best_point = None
    for _ in range(restarts):
        x = rng.dirichlet(np.ones(n))
        x = np.clip(x, 1e-12, None)
        x /= x.sum()
        prev = -1.0
        for _ in range(max_iters):
            edge_weights = x[edges]
            products = edge_weights.prod(axis=1)
            value = products.sum()
            if value <= 0.0:
                break
            if abs(value - prev) < tol * max(value, 1.0):
                break
            prev = value
            grad = np.zeros(n)
            np.add.at(grad, edges, products[:, None] / edge_weights)
            x = x * grad / (r * value)
            x = np.clip(x, 1e-300, None)
            s = x.sum()
            if not np.isfinite(s) or s <= 0.0:
                break
            x /= s
        value = float(lagrangian_polynomial(graph, x))
        if value > best_value:
            best_value = value
            best_point = x
    return LagrangianResult(best_value, tuple(float(v) for v in best_point),
                            restarts)


def random_3_uniform(n_vertices, n_edges, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n_edges:
        edges.add(tuple(sorted(rng.sample(range(n_vertices), 3))))
    return UniformHypergraph(3, n_vertices, frozenset(edges))


# Vertex 8 is isolated.  Vertex 0 (degree 10) is alone in its degree
# class, so a block's last restart sums its terms as one column;
# vertices 1-5 (degrees 5 and 4) share a class padded to degree 5.
PADDED = UniformHypergraph(3, 9, frozenset(
    {(0, a, b) for a, b in itertools.combinations(range(1, 6), 2)}
    | {(1, 6, 7), (2, 6, 7)}))


@pytest.mark.parametrize("graph", [
    basis_hypergraph(1), basis_hypergraph(2), basis_hypergraph(3),
    basis_hypergraph(4), complete(2, 5), augmented_complete(2, 4, 3),
    random_3_uniform(9, 30, seed=5), PADDED,
], ids=["basis1", "basis2", "basis3", "basis4", "K5", "augmented", "random3",
        "padded"])
def test_lagrangian_matches_the_add_at_ascent_bit_for_bit(graph):
    counts = (8, 16, 24, 32, 1, LAGRANGIAN_BLOCK - 1, LAGRANGIAN_BLOCK + 1, 70)
    for seed, restarts in enumerate(counts):
        assert lagrangian(graph, restarts=restarts, seed=seed) == \
            lagrangian_by_add_at(graph, restarts, seed)


def test_vectorised_final_value_is_the_edge_polynomial():
    rng = np.random.default_rng(3)
    for graph in (basis_hypergraph(4), random_3_uniform(9, 30, seed=5)):
        for _ in range(20):
            x = rng.dirichlet(np.ones(graph.n_vertices))
            assert float(np.cumsum(x[graph.edges].prod(axis=1))[-1]) == \
                lagrangian_polynomial(graph, x)
        for seed in range(4):
            result = lagrangian(graph, restarts=LAGRANGIAN_BLOCK + 1, seed=seed)
            assert result.value == lagrangian_polynomial(graph, result.point)


def test_lagrangian_restarts_beyond_the_edge_budget_are_refused():
    with pytest.raises(OutOfRegimeError):
        lagrangian(basis_hypergraph(4), restarts=5953)  # 5953 * 840 > 5e6
    assert lagrangian(complete(2, 3), restarts=8).restarts_used == 8


def test_lagrangian_counts_vertices_against_the_edge_budget():
    # one edge but 10^10 vertices: refused before the slot tables and the
    # Dirichlet starts, which would each hold a row per vertex, and the
    # starts take 1-2 us a vertex to draw
    graph = UniformHypergraph(2, 10**10, [(0, 1)])
    start = time.perf_counter()
    with pytest.raises(OutOfRegimeError, match="10000000000 vertices"):
        lagrangian(graph)
    assert time.perf_counter() - start < 0.1


def test_basis_hypergraph_counts():
    assert basis_hypergraph(1).edge_count() == 1
    assert basis_hypergraph(2).edge_count() == 3
    assert basis_hypergraph(3).edge_count() == 28
    assert basis_hypergraph(4).edge_count() == 840
    assert basis_hypergraph(3).n_vertices == 7
    # t = 5: within the edge budget, and equal to the closed form
    five = basis_hypergraph(5)
    assert five.edge_count() == 83_328
    assert five.edge_count() == linear_independence_density(5, 0) * math.comb(31, 5)
    with pytest.raises(OutOfRegimeError):
        basis_hypergraph(6)


def test_independence_hypergraphs_are_refused_by_edge_count_at_once():
    # exact edge counts 5,249,664, 27,998,208 and 9,921,240, all above
    # the edge budget of 5,000,000; refused before any subset is walked
    for r, k, edges in ((5, 1, 5_249_664), (6, 0, 27_998_208), (4, 3, 9_921_240)):
        start = time.perf_counter()
        with pytest.raises(OutOfRegimeError, match=f"hold {edges} edges"):
            linear_independence_hypergraph(r, k)
        assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    with pytest.raises(OutOfRegimeError, match="hold 27998208 edges"):
        basis_hypergraph(6)
    assert time.perf_counter() - start < 0.1
    # far out of range: refused by the 2^(r+k) - 1 floor of the count,
    # before any large integer is formed
    for r, k in ((1, 60), (1, 10**6), (10**6, 0)):
        start = time.perf_counter()
        with pytest.raises(OutOfRegimeError, match=f"at least 2\\^{r + k} - 1 edges"):
            linear_independence_hypergraph(r, k)
        assert time.perf_counter() - start < 0.1
    # r + k > 20 is admitted when the count fits: 2,097,151 edges, the
    # nonzero vectors of GF(2)^21 one by one
    ones = linear_independence_hypergraph(1, 20)
    assert ones.edge_count() == 2_097_151
    assert np.array_equal(ones.edges[:, 0], np.arange(2_097_151))
    # r + k = 7 is admitted when the count fits: 330,708 edges
    graph = linear_independence_hypergraph(3, 4)
    assert graph.edge_count() == 330_708
    assert graph.density() == linear_independence_density(3, 4)


def test_independence_hypergraph_within_the_budget_is_walked(monkeypatch):
    # (1, 21) holds 4,194,303 edges, inside the budget: it reaches the
    # walk, which is stopped here to keep the test short
    class Walked(Exception):
        pass

    def walk(vectors, r):
        raise Walked(len(vectors), r)

    monkeypatch.setattr("hypercube_codes.hypergraph._independent_rows", walk)
    with pytest.raises(Walked) as walked:
        linear_independence_hypergraph(1, 21)
    assert walked.value.args == (4_194_303, 1)
    with pytest.raises(OutOfRegimeError, match="hold 8388607 edges"):
        linear_independence_hypergraph(1, 22)


def test_basis_lagrangian_matches_probability():
    # at the uniform point the edge polynomial counts ordered bases,
    # so t! times the Lagrangian reproduces the basis probability
    for t in (1, 2, 3):
        value = lagrangian(basis_hypergraph(t), restarts=32).value
        expected = float(uniform_basis_probability(t)) / math.factorial(t)
        assert abs(value - expected) < 1e-8
