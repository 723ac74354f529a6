import hashlib
import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rwre import (
    CylinderSpec,
    DirectedGraph,
    GraphFormatError,
    LatticeSpec,
    PreconditionError,
    WeightAssignment,
    build_cylinder_band,
    build_cylinder_graph,
    build_torus,
    read_graph,
    write_graph,
)


def test_torus_d1_counts():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    assert g.n_vertices == 4
    assert g.n_edges == 8
    assert np.allclose(w.vertex_sums, 3.0)


def test_torus_d2_symmetric_divergence():
    g, w = build_torus(LatticeSpec((1.0, 1.0, 1.0, 1.0)), [3, 3])
    assert np.allclose(w.divergence, 0.0)


def test_torus_d2_vertex_sums():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    assert np.allclose(w.vertex_sums, 5.0)
    assert np.allclose(w.divergence, 0.0)


def test_torus_period_one_self_loops():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [1])
    assert g.n_vertices == 1
    assert g.n_edges == 2
    assert np.all(g.tails == g.heads)


def test_torus_bad_period():
    with pytest.raises(PreconditionError):
        build_torus(LatticeSpec((2.0, 1.0)), [0])
    with pytest.raises(PreconditionError):
        build_torus(LatticeSpec((2.0, 1.0)), [3, 3])


def test_lattice_spec_validation():
    with pytest.raises(PreconditionError):
        LatticeSpec((2.0, 1.0, 3.0))
    with pytest.raises(PreconditionError):
        LatticeSpec((2.0, -1.0))
    lat = LatticeSpec((2.0, 1.0, 0.5, 0.25))
    assert lat.dimension == 2
    assert lat.alpha(2) == 0.5 and lat.beta(2) == 0.25
    assert lat.total() == 3.75


def test_cylinder_delta_weights_minimal():
    cg = build_cylinder_graph(CylinderSpec(1, 1, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    w = cg.weights
    out_delta = w.vertex_sums[cg.outside]
    in_delta = w.reversal.vertex_sums[cg.outside]
    assert out_delta == pytest.approx(2.0)
    assert in_delta == pytest.approx(2.0)


def test_cylinder_null_divergence():
    cg = build_cylinder_graph(CylinderSpec(4, 4, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    assert cg.graph.n_vertices == 21
    assert np.max(np.abs(cg.weights.divergence)) < 1e-12
    assert cg.graph.is_strongly_connected()


def test_cylinder_requires_drift():
    with pytest.raises(PreconditionError):
        build_cylinder_graph(CylinderSpec(2, 3, LatticeSpec((1.0, 2.0, 1.0, 1.0))))


def test_cylinder_divergence_sweep():
    for N in (1, 2, 3):
        for L in (1, 2, 5):
            cg = build_cylinder_graph(CylinderSpec(N, L, LatticeSpec((3.0, 2.0, 0.5, 1.5))))
            assert np.max(np.abs(cg.weights.divergence)) < 1e-12
            assert cg.graph.min_out_degree() >= 1
            assert np.all(cg.weights.vertex_sums > 0)


def test_cylinder_d1_rejects_transverse_period():
    lat = LatticeSpec((2.0, 1.0))
    # the spec itself refuses it, so neither builder ever sees one
    for N in (3, 5):
        with pytest.raises(PreconditionError, match="N must be 1"):
            CylinderSpec(N, 2, lat)
    assert build_cylinder_graph(CylinderSpec(1, 2, lat)).graph.n_vertices == 4


def test_reverse_graph_involution():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 2])
    gg = g.reversal.reversal
    assert np.array_equal(gg.tails, g.tails)
    assert np.array_equal(gg.heads, g.heads)
    assert gg.directions == g.directions
    assert g.reversal.directions == [(axis, -sign) for axis, sign in g.directions]
    assert g.reversal is g.reversal


def test_reverse_two_cycle():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    gr = g.reversal
    assert gr.tails.tolist() == [1, 0]
    assert gr.heads.tolist() == [0, 1]


def test_reverse_cylinder_delta_edges():
    cg = build_cylinder_graph(CylinderSpec(3, 2, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    gr = cg.graph.reversal
    # reversed, the outside vertex sends edges to both faces: its original
    # in-edges came from the left face (leftward) and the right face
    out = gr.out_edges(cg.outside)
    heads = set(int(gr.heads[e]) for e in out)
    assert heads == set(cg.left_face.tolist()) | set(cg.right_face.tolist())
    assert out.size == 2 * 3


def test_reverse_weights_torus_sums():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    wr = w.reversal
    assert np.allclose(wr.vertex_sums, w.vertex_sums)


def test_reverse_weights_cylinder_delta():
    cg = build_cylinder_graph(CylinderSpec(4, 2, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    wr = cg.weights.reversal
    # reversed out-weight at the outside vertex is the original in-weight:
    # N*beta_1 + N*(alpha_1-beta_1) = N*alpha_1
    assert wr.vertex_sums[cg.outside] == pytest.approx(4 * 2.0)


def test_reverse_weights_self_loops_unchanged():
    g = DirectedGraph(1, [(0, 0), (0, 0)])
    w = WeightAssignment([0.7, 1.3], g)
    wr = w.reversal
    assert np.array_equal(wr.values, w.values)


def test_reverse_weights_double_reverse_identity():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    wrr = w.reversal.reversal
    assert np.array_equal(wrr.values, w.values)


def test_divergence_hand_example():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    w = WeightAssignment([2.0, 1.0], g)
    div = w.divergence
    assert div.tolist() == [1.0, -1.0]
    assert div.sum() == 0.0


def test_divergence_sums_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        edges = []
        for v in range(n):
            for _ in range(int(rng.integers(1, 4))):
                edges.append((v, int(rng.integers(n))))
        g = DirectedGraph(n, edges)
        w = WeightAssignment(rng.uniform(0.1, 3.0, size=len(edges)), g)
        assert w.divergence.sum() == pytest.approx(0.0, abs=1e-12)


def test_divergence_is_computed_once_and_read_only():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    w = WeightAssignment([2.0, 1.0], g)
    assert w.divergence is w.divergence
    with pytest.raises(ValueError):
        w.divergence[0] = 0.0
    assert w.divergence.tolist() == [1.0, -1.0]


def test_weight_assignments_share_the_graph_reversal():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    w1 = WeightAssignment(w.values, g)
    w2 = WeightAssignment(3.0 * w.values, g)
    assert w1.reversal.graph is g.reversal
    assert w2.reversal.graph is g.reversal
    assert w1.reversal is not w2.reversal
    assert w1.reversal.values is not w1.values


def test_weights_must_be_positive():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError):
        WeightAssignment([1.0, 0.0], g)


def test_vertex_sums_are_computed_once_and_read_only():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 0.7, 0.3)), [3, 2])
    sums = w.vertex_sums
    assert sums is w.vertex_sums
    assert sums.tolist() == [2.0 + 1.0 + 0.7 + 0.3] * g.n_vertices
    with pytest.raises(ValueError):
        sums[0] = 1.0


def test_python_adjacency_is_built_once():
    g, _ = build_torus(LatticeSpec((2.0, 1.0)), [3])
    assert g.out_edge_lists is g.out_edge_lists
    assert g.out_edge_lists == [g.out_edges(v).tolist() for v in range(g.n_vertices)]
    assert g.head_list is g.head_list
    assert g.head_list == g.heads.tolist()


def test_out_degree_zero_rejected():
    g = DirectedGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.validate()


def test_find_edge_parallel_ambiguous():
    g = DirectedGraph(2, [(0, 1), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        g.find_edge(0, 1)
    assert g.find_edge(1, 0) == 2


def test_strong_connectivity():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    assert g.is_strongly_connected()
    g2 = DirectedGraph(2, [(0, 1), (1, 1)])
    assert not g2.is_strongly_connected()


def _closure_is_complete(n, edges):
    """Brute force: the reflexive transitive closure of the adjacency matrix,
    by repeated boolean squaring, is all True."""
    reach = np.eye(n, dtype=bool)
    for t, h in edges:
        reach[t, h] = True
    for _ in range(n):
        reach |= reach @ reach
    return bool(reach.all())


@st.composite
def multigraphs(draw):
    """1-8 vertices and 1-24 edges drawn with replacement, so self-loops,
    parallel edges and vertices with no in-edges all occur."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=24))


@given(multigraphs())
@example((1, [(0, 0)]))
@example((3, [(0, 1), (1, 0), (2, 0)]))
@example((3, [(0, 1), (1, 2), (1, 2), (2, 0)]))
@example((2, [(1, 0), (1, 1)]))
def test_strong_connectivity_matches_transitive_closure(graph):
    n, edges = graph
    assert DirectedGraph(n, edges).is_strongly_connected() == _closure_is_complete(n, edges)


def test_band_graph_shape():
    band = build_cylinder_band(CylinderSpec(3, 4, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    g = band.graph
    assert g.n_vertices == 6 * 3
    assert band.left_absorbing.size == 3
    assert band.right_absorbing.size == 3
    assert g.coords[band.origin] == (0, 0)
    for v in band.left_absorbing.tolist() + band.right_absorbing.tolist():
        out = g.out_edges(v)
        assert out.size == 1 and int(g.heads[out[0]]) == v


# sha256 of (vertex count, tails, heads, weights, directions, coords, and the
# outside vertex/origin with both faces) for builds whose edge order is pinned:
# edge ids fix the order of the Gamma draws, so any reordering changes every
# sampled environment.
_BUILD_DIGESTS = {
    ("cyl", 1, 1, 1): "69c5b8a06c8cfb68dbeb24903a35b163ac36fd02f03e3e8ad0f1ad0e92e181c1",
    ("band", 1, 1, 1): "b94b65af2e44ab12739903e616a3f0ec759764119e4d137a2784eb1ff17aa327",
    ("cyl", 1, 1, 5): "f0e4c6779aedb279fb5d0038c41c3abd94b416e4539e6e6bd2539409d684e856",
    ("band", 1, 1, 5): "c7a45c6fd71fe62b40b2e6cc2b9e4882e656055ce78328dee3df5a1119a480cf",
    ("cyl", 2, 1, 2): "d4bc68447211250b94b9c4eed16d95f01bce96ed9d01ed7214f44e0326ec583e",
    ("band", 2, 1, 2): "bc30ad9883d5118c0b656953d9446fb85079c3ea737b676c81e2b8004046e845",
    ("cyl", 2, 3, 2): "438b77fb51a96b44078dd806389adff851e0c843b5dc7b58ab9805e904ac17aa",
    ("band", 2, 3, 2): "28c5522742e3ddeb62bb413d9c35c9b1953ca2924e9ec1feee849d16e5f31c6a",
    ("cyl", 2, 4, 5): "9eb58fe2ba9bd3309bab53f4e15af7710c3f2d40f35e53c1f7ee69ab753db91b",
    ("band", 2, 4, 5): "8b9f3ec703fcd69c69b14b600b8f224ededd5fe37bb060c6490ac13fbf6b7756",
    ("cyl", 3, 2, 1): "4bc9e64251498a4903b654a4d181e5427bc3e5ab11cb3fea93939ef8c9c00720",
    ("band", 3, 2, 1): "ffca3aac84840d839fe68ecbd2aec4ca768cc379cca053a45abaffc4cbb92bda",
    ("cyl", 3, 3, 2): "6faed535fcef2cef380986af0f7c5e6f802159b33d844bd52f2c490cc6dc12f8",
    ("band", 3, 3, 2): "dce8096a25462eb57b379547b9354ceb24ecd0533c65624a0ee1b677cfed500b",
}


def _build_digest(kind, d, N, L):
    lat = LatticeSpec({1: (2.0, 1.0), 2: (2.0, 1.0, 0.7, 0.3),
                       3: (3.0, 1.5, 0.7, 0.3, 1.1, 0.9)}[d])
    if kind == "cyl":
        cg = build_cylinder_graph(CylinderSpec(N, L, lat))
        g, w = cg.graph, cg.weights
        ends = (cg.outside, cg.left_face.tolist(), cg.right_face.tolist())
    else:
        band = build_cylinder_band(CylinderSpec(N, L, lat))
        g, w = band.graph, band.weights
        ends = (band.origin, band.left_absorbing.tolist(), band.right_absorbing.tolist())
    return _graph_digest(g, w, ends)


def _graph_digest(g, w, *ends):
    coords = [None if c is None else tuple(int(x) for x in c) for c in g.coords]
    blob = repr((g.n_vertices, g.tails.tolist(), g.heads.tolist(), w.values.tolist(),
                 list(g.directions), coords, *ends))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_BUILD_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_cylinder_builds_keep_their_edge_order(case):
    assert _build_digest(*case) == _BUILD_DIGESTS[case]


# the same digest, without ends, of tori with the weights above per dimension
_TORUS_DIGESTS = {
    (1,): "ce9c3bb3a47b33478c283630a9ac05d66f629e8329383908af63245621da2515",
    (5,): "f6cd38d9ca0dc4fc0a6172861e02a734657a5456948f700ef9f896c5aa64fd0d",
    (2, 3): "c57446c6551da679f711352349b81e5461d78b495de76746af4a303ecbf46336",
    (3, 1): "3ae29e7674f3078285beedecce53522bff1d5b87baeffb978488dfe76fdbfd1e",
    (3, 2, 5): "ae3b833b4464019aacc0eabacffcd506f48ad09bb49efb7aa6650b94dfaf0f31",
    (2, 2, 1): "d54eb563c98c644e37c517c6ac26be783c0a92e42edca518ab80c3fad2c8198b",
}


@pytest.mark.parametrize("periods", sorted(_TORUS_DIGESTS),
                         ids=lambda periods: "x".join(map(str, periods)))
def test_torus_builds_keep_their_edge_order(periods):
    lat = LatticeSpec({1: (2.0, 1.0), 2: (2.0, 1.0, 0.7, 0.3),
                       3: (3.0, 1.5, 0.7, 0.3, 1.1, 0.9)}[len(periods)])
    assert _graph_digest(*build_torus(lat, periods)) == _TORUS_DIGESTS[periods]


def test_graph_text_round_trip():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 0.3, 0.7)), [3, 2])
    buf = io.StringIO()
    write_graph(g, w, buf)
    buf.seek(0)
    g2, w2 = read_graph(buf)
    assert g2.n_vertices == g.n_vertices
    assert np.array_equal(g2.tails, g.tails)
    assert np.array_equal(g2.heads, g.heads)
    assert np.array_equal(w2.values, w.values)


def test_graph_text_comments_and_errors():
    ok = "# comment\nvertices 2\nedge 0 0 1 1.5\nedge 1 1 0 2.5\n"
    g, w = read_graph(io.StringIO(ok))
    assert g.n_edges == 2 and w.values.tolist() == [1.5, 2.5]
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("edge 0 0 1 1.0\n"))  # no header
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("vertices 2\nedge 0 0 1 1.0\nedge 0 1 0 1.0\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("vertices 2\nedge 1 0 1 1.0\n"))  # not dense
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("vertices 2\nwhat 0\n"))


@pytest.mark.parametrize("text, line", [
    ("vertices two\n", 1),
    ("vertices 2\nedge 0 0 x 1\n", 2),
    ("vertices 2\nedge 0 0 1 heavy\n", 2),
    ("vertices 2\nedge 0 0 1 1.0\n# c\nedge 1 1 2 1.0\n", 4),   # head out of range
    ("vertices 2\nedge 0 -1 1 1.0\n", 2),                        # tail out of range
    ("vertices 2\nedge 0 0 1 1.0\nedge 5 1 0 1.0\n", 3),         # edge id out of range
])
def test_graph_text_bad_numbers_and_ranges_name_the_line(text, line):
    with pytest.raises(GraphFormatError, match=f"line {line}:"):
        read_graph(io.StringIO(text))


def test_graph_text_repeated_vertices_header_names_the_line():
    # a second header would otherwise replace the first
    text = "vertices 3\nedge 0 0 1 1.0\nedge 1 1 0 1.0\nvertices 2\n"
    with pytest.raises(GraphFormatError, match="line 4: repeated vertices header"):
        read_graph(io.StringIO(text))


def test_graph_text_structural_errors_are_format_errors():
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("vertices 0\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("vertices 2\n"))  # no edges
    with pytest.raises(GraphFormatError, match="out-degree 0"):
        read_graph(io.StringIO("vertices 2\nedge 0 0 1 1.0\n"))
