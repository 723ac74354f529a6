"""Finite directed multigraphs with positive edge weights.

Vertices are dense integers; parallel edges and self-loops are allowed (a
transverse period of 1 or 2 creates them).  Graphs and weight assignments
are immutable after construction and safe to share across workers.  Every
view derived from one (list forms, the edge lookup and which edges have a
parallel twin, the divergence, the reversal) is a
`functools.cached_property`: built on first access, then shared, so callers
must not modify it.  Reversal swaps every edge's tail and head while keeping
edge ids, so the pairing between an edge and its reversal is the identity on
ids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GraphFormatError, PreconditionError

VertexId = int


class DirectedGraph:
    """Finite directed multigraph with its edge ids grouped both ways.

    `out_edge_ids` lists the edge ids grouped by tail, so vertex v's
    out-edges are `out_edge_ids[out_offsets[v]:out_offsets[v + 1]]`;
    `in_edge_ids` and `in_offsets` group them by head the same way.  Within
    a vertex the ids ascend.  Walks read the first grouping, reversed rows
    and the backward reachability search the second.

    Parameters
    ----------
    n_vertices : int
    edges : (tail, head) pairs, indexed by edge id in order: a sequence of
        pairs or an (n_edges, 2) integer array
    coords : optional integer coordinates per vertex (lattice-derived graphs);
        an entry may be None (e.g. the outside vertex of a cylinder graph).
    directions : optional per-edge (axis, sign) labels for lattice-derived
        graphs, with axis in 1..d and sign +-1; enables step-letter path
        literals.
    """

    def __init__(self, n_vertices: int, edges: Sequence[tuple], coords=None, directions=None):
        if n_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        self.n_vertices = int(n_vertices)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            raise ValueError("graph needs at least one edge")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (tail, head) pairs")
        tails = np.ascontiguousarray(pairs[:, 0])
        heads = np.ascontiguousarray(pairs[:, 1])
        if tails.min() < 0 or tails.max() >= n_vertices or heads.min() < 0 or heads.max() >= n_vertices:
            raise ValueError("edge endpoint out of range")
        self.tails = tails
        self.heads = heads
        self.n_edges = len(tails)
        self.coords = coords
        self.directions = directions

        self.out_edge_ids, self.out_offsets = _group_edges(tails, self.n_vertices)
        self.in_edge_ids, self.in_offsets = _group_edges(heads, self.n_vertices)
        self.out_degrees = np.diff(self.out_offsets)

    # -- basic accessors -------------------------------------------------

    def out_edges(self, v: VertexId) -> np.ndarray:
        """Edge ids leaving v, in increasing id order."""
        return self.out_edge_ids[self.out_offsets[v]:self.out_offsets[v + 1]]

    def min_out_degree(self) -> int:
        return int(self.out_degrees.min())

    def find_edge(self, tail: VertexId, head: VertexId) -> int:
        """Unique edge id tail->head; raises if absent or ambiguous (parallel edges)."""
        hits = self._edge_lookup.get((tail, head))
        if not hits:
            raise ValueError(f"no edge {tail}->{head}")
        if len(hits) > 1:
            raise ValueError(
                f"edge {tail}->{head} is ambiguous (parallel edges {hits}); "
                "use an edge-id or step-letter path literal"
            )
        return hits[0]

    def is_strongly_connected(self) -> bool:
        """Whether every vertex reaches every other: a search from vertex 0
        along the edges and one against them both reach every vertex."""
        return (_reaches_all(self.out_offsets, self.heads[self.out_edge_ids])
                and _reaches_all(self.in_offsets, self.tails[self.in_edge_ids]))

    def validate(self):
        """Raise unless every vertex has out-degree >= 1."""
        if self.min_out_degree() < 1:
            bad = np.flatnonzero(self.out_degrees == 0)
            raise ValueError(f"vertices with out-degree 0: {bad.tolist()}")

    # -- derived views, each built on first access and shared ----------------

    @functools.cached_property
    def out_edge_lists(self) -> list:
        """Per vertex, the list of `out_edges(v)` as Python ints."""
        ids = self.out_edge_ids.tolist()
        offsets = self.out_offsets.tolist()
        return [ids[offsets[v]:offsets[v + 1]] for v in range(self.n_vertices)]

    @functools.cached_property
    def head_list(self) -> list:
        """`heads` as a list of Python ints."""
        return self.heads.tolist()

    @functools.cached_property
    def tail_list(self) -> list:
        """`tails` as a list of Python ints."""
        return self.tails.tolist()

    @functools.cached_property
    def _edge_lookup(self) -> dict:
        """Edge ids by (tail, head), in increasing id order."""
        lookup = {}
        for eid, pair in enumerate(zip(self.tail_list, self.head_list)):
            lookup.setdefault(pair, []).append(eid)
        return lookup

    @functools.cached_property
    def has_parallel_twin(self) -> tuple:
        """Per edge id, whether another edge shares its tail and head, so
        that a step along it is not determined by its two vertices."""
        twin = [False] * self.n_edges
        for hits in self._edge_lookup.values():
            if len(hits) > 1:
                for eid in hits:
                    twin[eid] = True
        return tuple(twin)

    @functools.cached_property
    def reversal(self) -> "DirectedGraph":
        """Every edge's tail and head swapped, directions negated; vertex set,
        coordinates and edge ids unchanged."""
        directions = self.directions
        if directions is not None:
            directions = [(axis, -sign) for axis, sign in directions]
        return DirectedGraph(self.n_vertices, np.column_stack((self.heads, self.tails)),
                             coords=self.coords, directions=directions)


def _group_edges(ends: np.ndarray, n_vertices: int):
    """Edge ids grouped by `ends` (tails or heads), in increasing id order
    within each vertex, and the offset of each vertex's group, with a final
    entry n_edges."""
    counts = np.bincount(ends, minlength=n_vertices)
    return np.argsort(ends, kind="stable"), np.concatenate([[0], np.cumsum(counts)])


def _reaches_all(offsets: np.ndarray, neighbours: np.ndarray) -> bool:
    """Whether a depth-first search from vertex 0 reaches every vertex, where
    the neighbours of v are neighbours[offsets[v]:offsets[v + 1]]."""
    offsets, neighbours = offsets.tolist(), neighbours.tolist()
    seen = [False] * (len(offsets) - 1)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for u in neighbours[offsets[v]:offsets[v + 1]]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return all(seen)


class WeightAssignment:
    """Positive weight per edge, and the out-weight sum per vertex
    (`vertex_sums`, accumulated in edge-id order and read-only), computed
    eagerly so that an overflow is refused here.  Callers must not modify
    `values`."""

    def __init__(self, values, graph: DirectedGraph):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.n_edges,):
            raise ValueError("one weight per edge required")
        if not np.all((values > 0) & (values < np.inf)):
            raise PreconditionError("edge weights must be positive and finite")
        self.values = values
        self.graph = graph
        sums = np.zeros(graph.n_vertices)
        with np.errstate(over="ignore"):
            np.add.at(sums, graph.tails, values)
        if not np.all(np.isfinite(sums)):
            raise PreconditionError("vertex weight sums overflow")
        sums.flags.writeable = False
        self.vertex_sums = sums

    @functools.cached_property
    def value_list(self) -> list:
        """`values` as a list of Python floats."""
        return self.values.tolist()

    @functools.cached_property
    def vertex_sum_list(self) -> list:
        """`vertex_sums` as a list of Python floats."""
        return self.vertex_sums.tolist()

    @functools.cached_property
    def divergence(self) -> np.ndarray:
        """Out-weight sum minus in-weight sum per vertex, read-only; sums to
        zero over vertices."""
        in_sums = np.zeros(self.graph.n_vertices)
        np.add.at(in_sums, self.graph.heads, self.values)
        div = self.vertex_sums - in_sums
        div.flags.writeable = False
        return div

    @functools.cached_property
    def reversal(self) -> "WeightAssignment":
        """The same weights on `graph.reversal`: each edge keeps its weight
        under the id pairing.  Kept by this object alone; another assignment
        on the same graph builds its own on the shared reversed graph."""
        return WeightAssignment(self.values.copy(), self.graph.reversal)


@dataclass(frozen=True)
class LatticeSpec:
    """Nearest-neighbour lattice weights: (alpha_1, beta_1, ..., alpha_d, beta_d).

    alpha_i weighs the +e_i edges, beta_i the -e_i edges, at every vertex.
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w or len(w) % 2 != 0 or not all(0 < x < math.inf for x in w):
            raise PreconditionError(
                "weight vector must be 2d positive finite reals "
                f"(alpha_1,beta_1,...,alpha_d,beta_d), got {w}"
            )
        if not math.isfinite(sum(w)):
            # walks divide by the row total, and Beta draws by alpha_1 + beta_1
            raise PreconditionError(f"weight vector must have a finite sum, got {w}")
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return len(self.weights) // 2

    def alpha(self, axis: int) -> float:
        """Weight of +e_axis edges, axis in 1..d."""
        return self.weights[2 * (axis - 1)]

    def beta(self, axis: int) -> float:
        """Weight of -e_axis edges, axis in 1..d."""
        return self.weights[2 * (axis - 1) + 1]

    def total(self) -> float:
        return float(sum(self.weights))

    def require_drift(self):
        """Raise unless alpha_1 > beta_1, the drift to the right that the
        cylinder identities and the transience lower bound 1 - beta_1/alpha_1
        need."""
        a1, b1 = self.alpha(1), self.beta(1)
        if a1 <= b1:
            raise PreconditionError(f"requires alpha_1 > beta_1 (got alpha_1={a1}, beta_1={b1})")


@dataclass(frozen=True)
class CylinderSpec:
    """Cylinder of length L with transverse torus (Z_N)^(d-1); N = 1 in
    d = 1, where there is no transverse torus."""

    N: int
    L: int
    lattice: LatticeSpec

    def __post_init__(self):
        if self.N < 1 or self.L < 1:
            raise PreconditionError("cylinder requires N >= 1 and L >= 1")
        if self.lattice.dimension == 1 and self.N != 1:
            raise PreconditionError(
                f"a d=1 cylinder has no transverse torus; N must be 1, got {self.N}")


@dataclass
class CylinderGraph:
    """Cylinder with the extra outside vertex and null-divergence weights."""

    graph: DirectedGraph
    weights: WeightAssignment
    outside: VertexId
    left_face: np.ndarray
    right_face: np.ndarray


def build_torus(lattice: LatticeSpec, periods: Sequence[int]):
    """Translation-invariant torus with 2d out-edges per vertex.

    Periods of 1 produce self-loops, periods of 2 parallel edges; both are
    legal.  Returns (graph, weights).
    """
    d = lattice.dimension
    periods = [int(p) for p in periods]
    if len(periods) != d:
        raise PreconditionError(f"need {d} periods for a {d}-dimensional torus")
    if any(p < 1 for p in periods):
        raise PreconditionError("periods must be >= 1")
    return _wire(*_transverse_torus(lattice, periods, 1))


def _transverse_torus(lattice: LatticeSpec, periods: list, first_axis: int):
    """Coordinates of the torus with `periods` along axes first_axis,
    first_axis + 1, ..., in row-major order, and, per coordinate index, its
    out-edges along those axes as (neighbour index, weight, (axis, sign)):
    +e_axis then -e_axis, axis by axis.  This is the edge order of the torus
    and, from axis 2 on, of both cylinder builders.  No periods give the
    one-point torus."""
    trans = list(itertools.product(*map(range, periods)))
    index = {t: i for i, t in enumerate(trans)}
    wiring = []
    for t in trans:
        out = []
        for k, p in enumerate(periods):
            axis = first_axis + k
            for sign, w in ((+1, lattice.alpha(axis)), (-1, lattice.beta(axis))):
                nb = list(t)
                nb[k] = (nb[k] + sign) % p
                out.append((index[tuple(nb)], w, (axis, sign)))
        wiring.append(out)
    return trans, wiring


def _cylinder_rows(spec: CylinderSpec, first: int):
    """Coordinates and out-lists of the cylinder's abscissas first..L.

    Vertex (x1, t) gets id (x1 - first) * N^(d-1) + t, t the row-major index
    of its transverse coordinate, so every edge within these rows joins ids
    at most N^(d-1) apart.  Each out-list holds (head, weight, (axis, sign))
    triples: +e_1, -e_1, then the transverse torus.  The +e_1 heads of row L
    and the -e_1 heads of row `first` lie past the ends of the id range; the
    caller rewires them.  Also returns N^(d-1).
    """
    lat = spec.lattice
    trans, wiring = _transverse_torus(lat, [spec.N] * (lat.dimension - 1), 2)
    n_trans = len(trans)
    # the out-lists of row `first`, with heads relative to the row's first id
    template = [[(ti + n_trans, lat.alpha(1), (1, +1)), (ti - n_trans, lat.beta(1), (1, -1)),
                 *out] for ti, out in enumerate(wiring)]
    coords, outs = [], []
    for x1 in range(first, spec.L + 1):
        row = len(outs)
        coords += [(x1, *t) for t in trans]
        outs += [[(row + head, w, direction) for head, w, direction in out] for out in template]
    return coords, outs, n_trans


def _wire(coords, outs):
    """(graph, weights) whose vertex v has coordinates `coords[v]` and the
    out-edges `outs[v]`, given as (head, weight, (axis, sign)) triples; edge
    ids follow vertex order, then list order."""
    tails, heads, weights, directions = [], [], [], []
    for v, out in enumerate(outs):
        for head, w, direction in out:
            tails.append(v)
            heads.append(head)
            weights.append(w)
            directions.append(direction)
    g = DirectedGraph(len(outs), np.array((tails, heads)).T, coords=coords, directions=directions)
    return g, WeightAssignment(weights, g)


def build_cylinder_graph(spec: CylinderSpec) -> CylinderGraph:
    """Finite cylinder of abscissas 0..L plus an outside vertex, wired so the
    modified weights have zero divergence everywhere.

    Leftmost vertices send their leftward edge (weight beta_1) to the outside
    vertex and receive an entering edge (weight alpha_1) from it; rightmost
    vertices send their rightward edge to the outside vertex with weight
    alpha_1 - beta_1.  The outside vertex comes last, after the rows.
    Requires alpha_1 > beta_1.
    """
    lat = spec.lattice
    lat.require_drift()
    a1, b1 = lat.alpha(1), lat.beta(1)
    coords, outs, n_trans = _cylinder_rows(spec, 0)
    outside = len(outs)
    for v in range(n_trans):
        outs[v][1] = (outside, b1, (1, -1))
        outs[outside - n_trans + v][0] = (outside, a1 - b1, (1, +1))
    coords.append(None)
    outs.append([(v, a1, (1, +1)) for v in range(n_trans)])
    g, w = _wire(coords, outs)
    return CylinderGraph(g, w, outside, np.arange(n_trans), np.arange(outside - n_trans, outside))


@dataclass
class BandGraph:
    """Truncated cylinder {-1..L} x (Z_N)^(d-1) with absorbing end rows."""

    graph: DirectedGraph
    weights: WeightAssignment
    origin: VertexId
    left_absorbing: np.ndarray
    right_absorbing: np.ndarray


def build_cylinder_band(spec: CylinderSpec) -> BandGraph:
    """Finite window of the infinite cylinder for exit experiments.

    Interior abscissas 0..L-1 carry the natural lattice weights; the rows at
    abscissa -1 and L only detect arrival and carry a single self-loop (never
    traversed, since walks stop on arrival).
    """
    coords, outs, n_trans = _cylinder_rows(spec, -1)
    n = len(outs)
    for v in (*range(n_trans), *range(n - n_trans, n)):
        outs[v] = [(v, 1.0, (1, +1))]
    g, w = _wire(coords, outs)
    return BandGraph(g, w, n_trans, np.arange(n_trans), np.arange(n - n_trans, n))


# -- text serialization -------------------------------------------------


def write_graph(g: DirectedGraph, w: WeightAssignment, fh):
    """Line format: header `vertices N`, then `edge <id> <tail> <head> <weight>`."""
    fh.write(f"vertices {g.n_vertices}\n")
    for eid in range(g.n_edges):
        fh.write(f"edge {eid} {g.tails[eid]} {g.heads[eid]} {w.values[eid]:.17g}\n")


def read_graph(fh):
    """Parse the line format written by write_graph; returns (graph, weights)."""
    n_vertices = None
    rows = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed vertices header")
            if n_vertices is not None:
                raise GraphFormatError(f"line {lineno}: repeated vertices header")
            try:
                n_vertices = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed number in {line!r}") from None
            if n_vertices < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
        elif parts[0] == "edge":
            if len(parts) != 5:
                raise GraphFormatError(f"line {lineno}: expected `edge <id> <tail> <head> <weight>`")
            try:
                eid, tail, head, weight = int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed number in {line!r}") from None
            if eid in rows:
                raise GraphFormatError(f"line {lineno}: duplicate edge id {eid}")
            rows[eid] = (tail, head, weight, lineno)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n_vertices is None:
        raise GraphFormatError("missing `vertices` header")
    if not rows:
        raise GraphFormatError("no `edge` records")
    # ids are distinct, so all lying in 0..E-1 means they are dense
    for eid, (tail, head, _, lineno) in rows.items():
        if not 0 <= eid < len(rows):
            raise GraphFormatError(
                f"line {lineno}: edge id {eid} out of range; ids must be dense 0..{len(rows) - 1}")
        if not (0 <= tail < n_vertices and 0 <= head < n_vertices):
            raise GraphFormatError(f"line {lineno}: endpoint out of range 0..{n_vertices - 1}")
    if n_vertices > len(rows):
        # checked before any per-vertex array is allocated
        raise GraphFormatError(
            f"{n_vertices} vertices but {len(rows)} edges: some vertex has out-degree 0")
    edges = [(rows[i][0], rows[i][1]) for i in range(len(rows))]
    weights = [rows[i][2] for i in range(len(rows))]
    g = DirectedGraph(n_vertices, edges)
    try:
        g.validate()
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    return g, WeightAssignment(weights, g)
