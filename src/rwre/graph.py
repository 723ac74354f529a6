"""Finite directed multigraphs with positive edge weights.

Vertices are dense integers; parallel edges and self-loops are allowed (a
transverse period of 1 or 2 creates them).  Graphs are immutable after
construction and safe to share across workers.  Reversal swaps every edge's
tail and head while keeping edge ids, so the pairing between an edge and its
reversal is the identity on ids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphFormatError, PreconditionError

VertexId = int


class DirectedGraph:
    """Finite directed multigraph with per-vertex out-adjacency.

    Parameters
    ----------
    n_vertices : int
    edges : sequence of (tail, head) pairs, indexed by edge id in order
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
        tails = np.asarray([e[0] for e in edges], dtype=np.int64)
        heads = np.asarray([e[1] for e in edges], dtype=np.int64)
        if len(tails) == 0:
            raise ValueError("graph needs at least one edge")
        if tails.min() < 0 or tails.max() >= n_vertices or heads.min() < 0 or heads.max() >= n_vertices:
            raise ValueError("edge endpoint out of range")
        self.tails = tails
        self.heads = heads
        self.n_edges = len(tails)
        self.coords = coords
        self.directions = directions

        # CSR-style out-adjacency: edge ids grouped by tail.
        order = np.argsort(tails, kind="stable")
        counts = np.bincount(tails, minlength=n_vertices)
        self.out_degrees = counts
        self.out_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.out_edge_ids = order.astype(np.int64)
        self._edge_lookup = None
        self._padded = None

    # -- basic accessors -------------------------------------------------

    def out_edges(self, v: VertexId) -> np.ndarray:
        """Edge ids leaving v, in increasing id order."""
        return self.out_edge_ids[self.out_offsets[v]:self.out_offsets[v + 1]]

    def out_edge_lists(self) -> list:
        """Per vertex, the list of `out_edges(v)` as Python ints."""
        ids = self.out_edge_ids.tolist()
        offsets = self.out_offsets.tolist()
        return [ids[offsets[v]:offsets[v + 1]] for v in range(self.n_vertices)]

    def min_out_degree(self) -> int:
        return int(self.out_degrees.min())

    def find_edge(self, tail: VertexId, head: VertexId) -> int:
        """Unique edge id tail->head; raises if absent or ambiguous (parallel edges)."""
        if self._edge_lookup is None:
            lookup = {}
            for eid in range(self.n_edges):
                lookup.setdefault((int(self.tails[eid]), int(self.heads[eid])), []).append(eid)
            self._edge_lookup = lookup
        hits = self._edge_lookup.get((tail, head))
        if not hits:
            raise ValueError(f"no edge {tail}->{head}")
        if len(hits) > 1:
            raise ValueError(
                f"edge {tail}->{head} is ambiguous (parallel edges {hits}); "
                "use an edge-id or step-letter path literal"
            )
        return hits[0]

    def padded_out_tables(self):
        """(edge-id table, head table, degree vector) padded to max out-degree.

        Padding repeats the vertex's last out-edge; selection indices must be
        clamped to degree-1 so padding is never chosen.
        """
        if self._padded is None:
            dmax = int(self.out_degrees.max())
            pad_eid = np.empty((self.n_vertices, dmax), dtype=np.int64)
            for v in range(self.n_vertices):
                ids = self.out_edges(v)
                if len(ids) == 0:
                    raise ValueError(f"vertex {v} has out-degree 0")
                pad_eid[v, :len(ids)] = ids
                pad_eid[v, len(ids):] = ids[-1]
            pad_head = self.heads[pad_eid]
            self._padded = (pad_eid, pad_head, self.out_degrees.copy())
        return self._padded

    def is_strongly_connected(self) -> bool:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        data = np.ones(self.n_edges, dtype=np.int8)
        adj = coo_matrix((data, (self.tails, self.heads)), shape=(self.n_vertices, self.n_vertices))
        n_comp, _ = connected_components(adj.tocsr(), directed=True, connection="strong")
        return n_comp == 1

    def validate(self):
        """Raise unless every vertex has out-degree >= 1."""
        if self.min_out_degree() < 1:
            bad = np.flatnonzero(self.out_degrees == 0)
            raise ValueError(f"vertices with out-degree 0: {bad.tolist()}")


class WeightAssignment:
    """Positive weight per edge; vertex sums cached."""

    def __init__(self, values, graph: DirectedGraph):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.n_edges,):
            raise ValueError("one weight per edge required")
        if not np.all((values > 0) & (values < np.inf)):
            raise PreconditionError("edge weights must be positive and finite")
        self.values = values
        self.graph = graph
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.vertex_sums())):
                raise PreconditionError("vertex weight sums overflow")

    def vertex_sums(self) -> np.ndarray:
        """Out-weight sum per vertex (accumulated in edge-id order)."""
        sums = np.zeros(self.graph.n_vertices)
        np.add.at(sums, self.graph.tails, self.values)
        return sums

    def in_sums(self) -> np.ndarray:
        sums = np.zeros(self.graph.n_vertices)
        np.add.at(sums, self.graph.heads, self.values)
        return sums


@dataclass(frozen=True)
class LatticeSpec:
    """Nearest-neighbour lattice weights: (alpha_1, beta_1, ..., alpha_d, beta_d).

    alpha_i weighs the +e_i edges, beta_i the -e_i edges, at every vertex.
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0 or len(w) % 2 != 0:
            raise PreconditionError("weight vector must have 2d positive entries")
        if any(x <= 0 for x in w):
            raise PreconditionError("weight vector entries must be positive")
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


@dataclass(frozen=True)
class CylinderSpec:
    """Cylinder of length L with transverse torus (Z_N)^(d-1)."""

    N: int
    L: int
    lattice: LatticeSpec

    def __post_init__(self):
        if self.N < 1 or self.L < 1:
            raise PreconditionError("cylinder requires N >= 1 and L >= 1")


@dataclass
class CylinderGraph:
    """Cylinder with the extra outside vertex and null-divergence weights."""

    graph: DirectedGraph
    weights: WeightAssignment
    outside: VertexId
    left_face: np.ndarray
    right_face: np.ndarray


def _torus_vertex_id(coord, periods):
    vid = 0
    for c, p in zip(coord, periods):
        vid = vid * p + (c % p)
    return vid


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

    n = int(np.prod(periods))
    coords = [tuple(np.unravel_index(v, periods)) if d > 1 else (v,) for v in range(n)]
    edges = []
    weights = []
    directions = []
    for v in range(n):
        c = coords[v]
        for axis in range(1, d + 1):
            for sign, w in ((+1, lattice.alpha(axis)), (-1, lattice.beta(axis))):
                nb = list(c)
                nb[axis - 1] = (nb[axis - 1] + sign) % periods[axis - 1]
                edges.append((v, _torus_vertex_id(nb, periods)))
                weights.append(w)
                directions.append((axis, sign))
    g = DirectedGraph(n, edges, coords=coords, directions=directions)
    return g, WeightAssignment(weights, g)


def _transverse_torus(lattice: LatticeSpec, N: int):
    """Coordinates of the transverse torus (Z_N)^(d-1) and, per coordinate
    index, its out-edges along axes 2..d as (neighbour index, weight,
    (axis, sign)), in the edge order of both cylinder builders."""
    d = lattice.dimension
    if d == 1:
        return [()], [[]]
    shape = (N,) * (d - 1)
    trans = [tuple(np.unravel_index(i, shape)) if d > 2 else (i,) for i in range(N ** (d - 1))]
    index = {t: i for i, t in enumerate(trans)}
    wiring = []
    for t in trans:
        out = []
        for axis in range(2, d + 1):
            for sign, w in ((+1, lattice.alpha(axis)), (-1, lattice.beta(axis))):
                nb = list(t)
                nb[axis - 2] = (nb[axis - 2] + sign) % N
                out.append((index[tuple(nb)], w, (axis, sign)))
        wiring.append(out)
    return trans, wiring


def build_cylinder_graph(spec: CylinderSpec) -> CylinderGraph:
    """Finite cylinder of abscissas 0..L plus an outside vertex, wired so the
    modified weights have zero divergence everywhere.

    Leftmost vertices send their leftward edge (weight beta_1) to the outside
    vertex and receive an entering edge (weight alpha_1) from it; rightmost
    vertices send their rightward edge to the outside vertex with weight
    alpha_1 - beta_1.  Requires alpha_1 > beta_1.
    """
    lat = spec.lattice
    d = lat.dimension
    a1, b1 = lat.alpha(1), lat.beta(1)
    if a1 <= b1:
        raise PreconditionError(
            f"cylinder graph requires alpha_1 > beta_1 (got alpha_1={a1}, beta_1={b1})"
        )
    if d == 1 and spec.N != 1:
        warnings.warn("d=1 cylinder has a trivial transverse torus; N ignored", stacklevel=2)
    N = spec.N if d > 1 else 1
    L = spec.L

    trans, wiring = _transverse_torus(lat, N)
    n_trans = len(trans)
    n_cyl = (L + 1) * n_trans
    outside = n_cyl

    def vid(x1, t_idx):
        return x1 * n_trans + t_idx

    coords = [None] * (n_cyl + 1)
    edges, weights, directions = [], [], []

    for x1 in range(L + 1):
        for ti, t in enumerate(trans):
            v = vid(x1, ti)
            coords[v] = (x1, *t)
            # axis 1: rightward then leftward
            if x1 < L:
                edges.append((v, vid(x1 + 1, ti)))
                weights.append(a1)
            else:
                edges.append((v, outside))
                weights.append(a1 - b1)
            directions.append((1, +1))
            if x1 > 0:
                edges.append((v, vid(x1 - 1, ti)))
            else:
                edges.append((v, outside))
            weights.append(b1)
            directions.append((1, -1))
            # transverse axes wrap mod N
            for nb, w, direction in wiring[ti]:
                edges.append((v, vid(x1, nb)))
                weights.append(w)
                directions.append(direction)

    # entering edges: outside -> every leftmost vertex, weight alpha_1
    for ti in range(n_trans):
        edges.append((outside, vid(0, ti)))
        weights.append(a1)
        directions.append((1, +1))

    g = DirectedGraph(n_cyl + 1, edges, coords=coords, directions=directions)
    left = np.array([vid(0, ti) for ti in range(n_trans)], dtype=np.int64)
    right = np.array([vid(L, ti) for ti in range(n_trans)], dtype=np.int64)
    return CylinderGraph(g, WeightAssignment(weights, g), outside, left, right)


@dataclass
class BandGraph:
    """Truncated cylinder {-1..L} x (Z_N)^(d-1) with absorbing end rows."""

    graph: DirectedGraph
    weights: WeightAssignment
    origin: VertexId
    left_absorbing: np.ndarray
    right_absorbing: np.ndarray


def build_cylinder_band(lattice: LatticeSpec, N: int, L: int) -> BandGraph:
    """Finite window of the infinite cylinder for exit experiments.

    Interior abscissas 0..L-1 carry the natural lattice weights; the rows at
    abscissa -1 and L only detect arrival and carry a single self-loop (never
    traversed, since walks stop on arrival).
    """
    d = lattice.dimension
    if L < 1:
        raise PreconditionError("band requires L >= 1")
    if d == 1 and N != 1:
        warnings.warn("d=1 band has a trivial transverse torus; N ignored", stacklevel=2)
    N = N if d > 1 else 1
    trans, wiring = _transverse_torus(lattice, N)
    n_trans = len(trans)
    n = (L + 2) * n_trans

    def vid(x1, t_idx):
        return (x1 + 1) * n_trans + t_idx

    coords = [None] * n
    edges, weights, directions = [], [], []
    for x1 in range(-1, L + 1):
        for ti, t in enumerate(trans):
            v = vid(x1, ti)
            coords[v] = (x1, *t)
            if x1 in (-1, L):
                edges.append((v, v))
                weights.append(1.0)
                directions.append((1, +1))
                continue
            edges.append((v, vid(x1 + 1, ti)))
            weights.append(lattice.alpha(1))
            directions.append((1, +1))
            edges.append((v, vid(x1 - 1, ti)))
            weights.append(lattice.beta(1))
            directions.append((1, -1))
            for nb, w, direction in wiring[ti]:
                edges.append((v, vid(x1, nb)))
                weights.append(w)
                directions.append(direction)

    g = DirectedGraph(n, edges, coords=coords, directions=directions)
    left = np.array([vid(-1, ti) for ti in range(n_trans)], dtype=np.int64)
    right = np.array([vid(L, ti) for ti in range(n_trans)], dtype=np.int64)
    return BandGraph(g, WeightAssignment(weights, g), vid(0, 0), left, right)


def reverse_graph(g: DirectedGraph) -> DirectedGraph:
    """Swap every edge's tail and head; vertex set and edge ids unchanged."""
    rev_directions = None
    if g.directions is not None:
        rev_directions = [(axis, -sign) for axis, sign in g.directions]
    return DirectedGraph(
        g.n_vertices,
        list(zip(g.heads.tolist(), g.tails.tolist())),
        coords=g.coords,
        directions=rev_directions,
    )


def reverse_weights(w: WeightAssignment, reversed_graph: DirectedGraph) -> WeightAssignment:
    """Weights on the reversed graph: each edge keeps its weight under the id pairing."""
    if reversed_graph.n_edges != w.graph.n_edges:
        raise ValueError("reversed graph must pair edges with the original")
    return WeightAssignment(w.values.copy(), reversed_graph)


def divergence(w: WeightAssignment) -> np.ndarray:
    """Out-weight sum minus in-weight sum per vertex; sums to zero over vertices."""
    return w.vertex_sums() - w.in_sums()


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
