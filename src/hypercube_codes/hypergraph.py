"""Uniform hypergraphs: augmentation, copy search, Lagrangians.

A UniformHypergraph holds its edges once, as one sorted (m, r) array,
which every builder below produces and every consumer reads.  The
linear-independence hypergraph puts an edge on every independent
r-subset of the nonzero vectors of GF(2)^(r+k); stem augmentation turns
an s-uniform pattern into an r-uniform one by adding r - s shared fresh
vertices to every edge.  The Lagrangian is maximized by multiplicative
(replicator) ascent on the simplex with random restarts, which run
LAGRANGIAN_BLOCK at a time as the columns of one array; every restart
still ends bit for bit where ascending it alone would.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _pcg64
from ._record import Record
from .errors import OutOfRegimeError, _shown, _shown_power
from .gf2 import MAX_BITS, _independent_rows

DEFAULT_COPY_BUDGET = 5_000_000
# Edges a builder may hold; restarts times (edges + vertices) for lagrangian.
DEFAULT_EDGE_BUDGET = 5_000_000
# stopping rule of each Lagrangian restart
ASCENT_TOL = 1e-10
ASCENT_MAX_ITERS = 20_000
# Restarts that lagrangian ascends together as the columns of one array.
# Each holds about r + 1 floats per edge of step buffers (34 kB for
# basis_hypergraph(4)), which peak memory pays once per block member:
# 32 x 34 kB, about 1.1 MB.  On fresh `lagrangian --t 4 --restarts 256`
# runs, 32 took most of the wall time that going from 16 to 64 saves,
# at under half the peak RSS that 64 adds.
LAGRANGIAN_BLOCK = 32


class UniformHypergraph(Record):
    """r-uniform hypergraph on vertices 0..n_vertices-1, given as any
    iterable of r-tuples or an integer (m, r) array (not floats) whose
    rows are strictly increasing.  `edges` stores the rows once: sorted
    lexicographically, distinct and read-only np.intp."""

    r: int
    n_vertices: int
    edges: np.ndarray

    def __init__(self, r: int, n_vertices: int, edges):
        if r < 1 or n_vertices < 0:
            raise ValueError("need r >= 1 and a non-negative vertex count")
        if not isinstance(edges, np.ndarray):
            rows = list(edges)
            if set(map(len, rows)) - {r}:
                raise ValueError(f"every edge needs {r} vertices")
            edges = np.array(rows) if rows else np.empty((0, r), np.intp)
        if edges.dtype.kind not in "iu":
            raise ValueError(f"vertices must be integers, got {edges.dtype}")
        if edges.ndim != 2 or edges.shape[1] != r:
            raise ValueError(f"edges must be {r}-tuples, not an array of shape {edges.shape}")
        for bad, why in (((edges[:, 1:] <= edges[:, :-1]).any(axis=1),
                          f"is not a sorted {r}-tuple of distinct vertices"),
                         ((edges[:, 0] < 0) | (edges[:, -1] >= n_vertices),
                          "leaves the vertex range")):
            if bad.any():
                raise ValueError(f"edge {tuple(edges[bad.argmax()].tolist())} {why}")
        later, earlier = edges[1:], edges[:-1]
        # the rows strictly increase when each is greater than the one before
        # at the first column where the two differ; then neither sort nor dedup
        first = (later != earlier).argmax(axis=1)[:, None]
        if np.take_along_axis(later > earlier, first, axis=1).all():
            edges = edges.astype(np.intp)  # a copy, so the caller's array stays writable
        else:
            edges = edges[np.lexsort(edges.T[::-1])].astype(np.intp, copy=False)
            distinct = np.ones(len(edges), bool)
            distinct[1:] = (edges[1:] != edges[:-1]).any(axis=1)
            edges = edges[distinct]
        edges.flags.writeable = False
        vars(self).update(r=r, n_vertices=n_vertices, edges=edges)  # past the frozen setattr

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniformHypergraph) and self.r == other.r
                and self.n_vertices == other.n_vertices
                and np.array_equal(self.edges, other.edges))

    def __hash__(self) -> int:
        return hash((self.r, self.n_vertices, self.edges.tobytes()))

    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices).tolist()

    def density(self) -> Fraction:
        """Edge count over C(n_vertices, r)."""
        total = math.comb(self.n_vertices, self.r)
        return Fraction(len(self.edges), total) if total else Fraction(0)


def _check_edges(what: str, edges: int, shown: str = "") -> None:
    """Refuse `what` when `edges`, its edge count or a floor of it, is over
    DEFAULT_EDGE_BUDGET.  The message shows `shown`, else the count, or
    past 2^64 the power of two below it."""
    if edges > DEFAULT_EDGE_BUDGET:
        raise OutOfRegimeError(f"{what} {shown or _shown(edges)} edges, "
                               f"over the edge budget {DEFAULT_EDGE_BUDGET}")


def _rows(tuples, r: int) -> np.ndarray:
    """An iterable of r-tuples as an (m, r) np.intp array, with no list of tuples."""
    return np.fromiter(itertools.chain.from_iterable(tuples), np.intp).reshape(-1, r)


def complete(r: int, t: int) -> UniformHypergraph:
    """All r-subsets of t vertices, within DEFAULT_EDGE_BUDGET."""
    if not 1 <= r <= t:
        raise ValueError("need 1 <= r <= t")
    what = f"the complete {_shown(r)}-uniform hypergraph on {_shown(t)} vertices would hold"
    s = min(r, t - r)
    bits = DEFAULT_EDGE_BUDGET.bit_length()
    if s > bits:  # C(t, s) >= 2^s is over the budget; the slow math.comb is skipped
        _check_edges(what, 1 << bits, f"at least {_shown_power(s)}")
    _check_edges(what, math.comb(t, s))
    return UniformHypergraph(r, t, _rows(itertools.combinations(range(t), r), r))


def augment(graph: UniformHypergraph, r: int) -> UniformHypergraph:
    """Raise uniformity to r by appending a stem of r - k fresh vertices
    (indices n..n+r-k-1) to every edge."""
    k = graph.r
    if r < k:
        raise ValueError("target uniformity must be at least the current one")
    n = graph.n_vertices
    stem = np.broadcast_to(np.arange(n, n + r - k), (graph.edge_count(), r - k))
    return UniformHypergraph(r, n + r - k, np.hstack([graph.edges, stem]))


def augmented_complete(s: int, t: int, r: int) -> UniformHypergraph:
    """The complete s-uniform hypergraph on t vertices augmented to
    uniformity r: t leaves, r - s stem vertices, C(t, s) edges."""
    return augment(complete(s, t), r)


def linear_independence_hypergraph(r: int, k: int) -> UniformHypergraph:
    """Edges are the independent r-subsets of the nonzero vectors of
    GF(2)^(r+k); vertex i stands for the vector i + 1.  Refused, before
    any subset is walked, when the edge count (at least 2^(r+k) - 1)
    exceeds DEFAULT_EDGE_BUDGET: (3, 5) and (1, 21) are built, (4, 3)
    and (6, 0) are not.  Use linear_independence_density beyond."""
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    m = r + k
    what = f"the linear-independence hypergraph (r={_shown(r)}, k={_shown(k)}) would hold"
    bits = DEFAULT_EDGE_BUDGET.bit_length()
    if m > bits:  # the count, at least 2^m - 1 > 2^bits, is not formed
        _check_edges(what, 1 << bits, f"at least {_shown_power(m)} - 1")
    _check_edges(what, _independent_count(r, m))
    rows = _independent_rows(np.arange(1, 1 << m, dtype=np.uint32), r)
    return UniformHypergraph(r, (1 << m) - 1, rows)


def _independent_count(r: int, m: int) -> int:
    """Independent r-subsets of the nonzero vectors of GF(2)^m: at least
    2^m - 1 for 1 <= r <= m, as the count does not decrease in r there."""
    return math.prod((1 << m) - (1 << i) for i in range(r)) // math.factorial(r)


def linear_independence_density(r: int, k: int) -> Fraction:
    """Exact edge density of the linear-independence hypergraph, for
    r + k <= MAX_BITS (r factors of MAX_BITS bits): independent r-subsets
    over all r-subsets.  Always strictly above 1 - 2^-k."""
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    m = r + k
    if m > MAX_BITS:
        raise OutOfRegimeError(f"density supported for r + k <= {MAX_BITS}")
    return Fraction(_independent_count(r, m), math.comb((1 << m) - 1, r))


def _twin_classes(graph: UniformHypergraph) -> list[int]:
    """class id per vertex; two vertices are twins when swapping them
    maps the edge set onto itself.  Passing swaps generate the full
    symmetric group inside each class, so ordering images inside a class
    is a sound symmetry break."""
    n = graph.n_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = graph.edges
    for u in range(n):
        for v in range(u + 1, n):
            if find(u) == find(v):
                continue
            swapped = np.where(edges == u, v, np.where(edges == v, u, edges))
            if UniformHypergraph(graph.r, n, np.sort(swapped, axis=1)) == graph:
                parent[find(v)] = find(u)
    return [find(x) for x in range(n)]


def contains_copy(big: UniformHypergraph, small: UniformHypergraph,
                  node_budget: int = DEFAULT_COPY_BUDGET) -> Optional[dict]:
    """An injective vertex map sending every edge of `small` to an edge
    of `big`, or None.  Backtracking assigns the most edge-constrained
    vertex first, prunes by degree, and breaks twin symmetry.

    Raises:
        OutOfRegimeError: when the node budget runs out, so an exhausted
        search is never mistaken for absence; at once when the set-up,
        counted as |V(small)|^2 * |E(small)| nodes, exceeds it.
    """
    if big.r != small.r:
        raise ValueError("uniformities differ")
    m = small.n_vertices
    if m > big.n_vertices:
        return None
    if not small.edge_count():
        return {i: i for i in range(m)}
    # the twin classes and the assignment order each test about m^2
    # vertex pairs against every edge of small; a node per pair and edge
    nodes = m * m * small.edge_count()
    if nodes > node_budget:
        raise OutOfRegimeError(f"copy search set-up of {nodes} nodes exceeds "
                               f"the node budget {node_budget}")

    small_deg = small.degrees()
    big_deg = big.degrees()
    small_edges = small.edges.tolist()

    # order: maximize edges fully anchored, then degree, then index
    order: list[int] = []
    while len(order) < m:
        placed = set(order)
        order.append(max(set(range(m)) - placed, key=lambda v: (
            sum(all(x in placed or x == v for x in e) for e in small_edges if v in e),
            small_deg[v], -v)))

    position = {v: i for i, v in enumerate(order)}
    # edges checkable as soon as their last vertex (in assignment order)
    # is placed
    anchored_at: list[list[list[int]]] = [[] for _ in range(m)]
    for e in small_edges:
        anchored_at[max(position[x] for x in e)].append(e)

    twin = _twin_classes(small)
    # for each vertex, the twin assigned most recently before it in the
    # assignment order (images must increase along each twin class)
    prev_twin: list[Optional[int]] = [None] * m
    last_seen: dict[int, int] = {}
    for i, v in enumerate(order):
        c = twin[v]
        if c in last_seen:
            prev_twin[i] = last_seen[c]
        last_seen[c] = v

    image: dict[int, int] = {}
    used: set[int] = set()
    edge_set = set(map(tuple, big.edges.tolist()))

    def dfs(i: int) -> bool:
        nonlocal nodes
        if i == m:
            return True
        v = order[i]
        floor = -1
        if prev_twin[i] is not None:
            floor = image[prev_twin[i]]
        for u in range(floor + 1, big.n_vertices):
            if u in used or big_deg[u] < small_deg[v]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise OutOfRegimeError(
                    f"copy search exceeded the node budget {node_budget}")
            image[v] = u
            ok = True
            for e in anchored_at[i]:
                mapped = tuple(sorted(image[x] for x in e))
                if mapped not in edge_set:
                    ok = False
                    break
            if ok:
                used.add(u)
                if dfs(i + 1):
                    return True
                used.discard(u)
            del image[v]
        return False

    if dfs(0):
        return dict(image)
    return None


class LagrangianResult(Record):
    value: float
    point: tuple
    restarts_used: int


def _slot_tables(edges: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Where each vertex's gradient terms sit, as one (vertices, slots)
    pair per degree class.

    Vertices whose degrees have the same bit length form a class, so
    padding at most doubles a class's table.  Entry (k, i) of its
    (max degree, class size) slot table is the edge of vertex
    vertices[i]'s k-th occurrence in the flattened sorted edge array,
    and len(edges), a zero product row, past that vertex's degree, so
    summing the gathered terms down the first axis adds each vertex's
    terms in np.bincount's order.  Isolated vertices are in no class.
    """
    m, r = edges.shape
    flat = edges.ravel()
    occurrence = np.argsort(flat, kind="stable")  # by vertex, then flat order
    degree = np.bincount(flat, minlength=n)
    rank = np.empty(flat.size, dtype=np.intp)  # k of each occurrence
    rank[occurrence] = np.arange(flat.size) - np.repeat(np.cumsum(degree) - degree, degree)
    lengths = np.frexp(degree)[1]  # bit length of each degree, 0 if isolated
    column = np.empty(n, dtype=np.intp)  # each vertex's column in its class
    classes = []
    for length in sorted(set(lengths.tolist()) - {0}):
        vertices = np.flatnonzero(lengths == length)
        column[vertices] = np.arange(vertices.size)
        slots = np.full((degree[vertices].max(), vertices.size), m, dtype=np.intp)
        mine = np.flatnonzero(lengths[flat] == length)
        slots[rank[mine], column[flat[mine]]] = mine // r
        classes.append((vertices, slots))
    return classes


def _ascend(x: np.ndarray, r: int, columns: np.ndarray,
            classes: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Final points of the multiplicative ascents started at the columns
    of x, an (n_vertices, restarts) array.

    Every column takes the steps of a lone ascent with the same
    floating-point operations, so it ends bit for bit where that ascent
    ends.  Edge products multiply the r gathered rows in edge order, as
    prod does along one edge.  Sums over the edges of one restart, or
    its vertices, are taken along contiguous rows, as sum does for one
    point.  Each gradient is the sum of the quotients of _slot_tables.
    A column leaves the block when it meets its own stopping test.
    The large arrays are views of buffers sized for the whole block, so
    steps allocate no more than the few (n_vertices, restarts) arrays.
    """
    n, count = x.shape
    m = columns.shape[1]
    done = np.empty_like(x)
    live = np.arange(count)
    prev = np.full(count, -1.0)
    products_buf = np.empty((m + 1) * count)
    # the gathered factors, then the products by restart, then each class's
    # quotients in turn: each is read for the last time before the next
    scratch_buf = np.empty(max(m, *(slots.size for _, slots in classes)) * count)
    for _ in range(ASCENT_MAX_ITERS):
        k = live.size
        products = products_buf[:(m + 1) * k].reshape(m + 1, k)
        products[m] = 0.0  # the padding slot
        # mode="clip" (every index is in range) writes to out unbuffered
        np.take(x, columns[0], axis=0, out=products[:m], mode="clip")
        for column in columns[1:]:
            products[:m] *= np.take(x, column, axis=0, mode="clip",
                                    out=scratch_buf[:m * k].reshape(m, k))
        by_restart = scratch_buf[:m * k].reshape(k, m)  # the gathers are done
        np.copyto(by_restart, products[:m].T)
        value = by_restart.sum(axis=1)
        stop = (value <= 0.0) | (np.abs(value - prev) < ASCENT_TOL * np.maximum(value, 1.0))
        grad = np.zeros_like(x)
        for vertices, slots in classes:
            quotients = np.take(products, slots, axis=0, mode="clip",
                                out=scratch_buf[:slots.size * k].reshape(*slots.shape, k))
            quotients /= x[vertices]
            # np.add.reduce adds down the first axis in sequence, except
            # that it sums a lone column pairwise
            if quotients[0].size > 1:
                grad[vertices] = np.add.reduce(quotients, axis=0)
            else:
                grad[vertices] = np.cumsum(quotients, axis=0)[-1]
        if stop.any():  # these columns end here, unmoved
            done[:, live[stop]] = x[:, stop]
            live, x, grad, value = live[~stop], x[:, ~stop], grad[:, ~stop], value[~stop]
            if not live.size:
                return done
        prev = value
        x = x * grad / (r * value)
        # projection safeguard: keep strictly positive and on the simplex
        x = np.clip(x, 1e-300, None)
        s = np.ascontiguousarray(x.T).sum(axis=1)
        bad = ~np.isfinite(s) | (s <= 0.0)
        if bad.any():  # these columns end here, clipped but not rescaled
            done[:, live[bad]] = x[:, bad]
            live, x, s, prev = live[~bad], x[:, ~bad], s[~bad], prev[~bad]
            if not live.size:
                return done
        x /= s
    done[:, live] = x
    return done


def lagrangian(graph: UniformHypergraph, restarts: int = 64,
               seed: int = 0) -> LagrangianResult:
    """Maximum of the edge polynomial over the probability simplex.

    Multiplicative ascent: x_i <- x_i * dP/dx_i / (r P); by homogeneity
    the update stays on the simplex and never decreases P, so each
    restart climbs until the relative value change drops below
    ASCENT_TOL, or for at most ASCENT_MAX_ITERS steps.  The best of
    `restarts` random interior starts is returned, the first on ties.

    Restarts run LAGRANGIAN_BLOCK at a time as the columns of one
    array, and each ends bit for bit where ascending it alone would
    (see _ascend), so the result does not depend on the block size.
    The starts are the Dirichlet(1) draws of numpy's
    Generator(PCG64(SeedSequence(seed))), bit for bit, from the stream
    of _pcg64 that the layer draws of codes take too.  At 1-2 us a
    coordinate they cost milliseconds up to t = 5 (31 vertices), but
    seconds for a graph of millions of vertices.

    Raises:
        ValueError: if restarts < 1.
        OutOfRegimeError: if restarts times the edge and vertex count
            exceeds DEFAULT_EDGE_BUDGET, before any table or start.
    """
    if restarts < 1:
        raise ValueError("need restarts >= 1")
    n = graph.n_vertices
    m = len(graph.edges)
    _check_edges(f"{_shown(restarts)} restarts x ({m} edges + {_shown(n)} vertices) =",
                 restarts * (m + n))
    if not m:
        return LagrangianResult(0.0, (0.0,) * n, 0)
    columns = graph.edges.T.copy()
    classes = _slot_tables(graph.edges, n)
    starts = _pcg64.dirichlet_rows(
        _pcg64.standard_exponentials(_pcg64.uint64s([seed])), n)
    best_value = -1.0
    best_point = None
    for first in range(0, restarts, LAGRANGIAN_BLOCK):
        x = np.empty((min(LAGRANGIAN_BLOCK, restarts - first), n))
        for row in x:  # one row per restart, in order across blocks
            row[:] = next(starts)
        x = np.clip(x, 1e-12, None)
        x /= x.sum(axis=1)[:, None]
        points = _ascend(np.ascontiguousarray(x.T), graph.r, columns, classes)
        # summed in edge order, as the lagrangian_polynomial oracle of
        # tests/oracles.py sums, to match it bit for bit
        products = points[columns[0]]
        for column in columns[1:]:
            products *= points[column]
        values = np.cumsum(products, axis=0)[-1].tolist()
        del products  # an (edges, block) array, not held through the next ascent
        for value, point in zip(values, points.T):
            if value > best_value:
                best_value = value
                best_point = point
    assert best_point is not None
    return LagrangianResult(best_value, tuple(float(v) for v in best_point),
                           restarts)


def basis_hypergraph(t: int) -> UniformHypergraph:
    """t-uniform hypergraph on the nonzero vectors of GF(2)^t whose edges
    are the bases; vertex i stands for the vector i + 1.  Its Lagrangian
    times t! equals the uniform basis probability.  Under the edge budget
    of linear_independence_hypergraph(t, 0), t = 5 is built, t = 6 not."""
    if t < 1:
        raise ValueError("need t >= 1")
    return _bases(t)


@lru_cache(maxsize=None)
def _bases(t: int) -> UniformHypergraph:
    """basis_hypergraph(t), walked once per t that the edge budget admits."""
    return linear_independence_hypergraph(t, 0)
