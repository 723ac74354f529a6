import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre import (
    CylinderSpec,
    DirectedGraph,
    LatticeSpec,
    PreconditionError,
    RngStream,
    StoppingRule,
    Trajectory,
    WeightAssignment,
    annealed_log_path_probability,
    annealed_log_paths_batch,
    annealed_path_probability_exact,
    annealed_path_probability_mc,
    build_cylinder_band,
    build_torus,
    enumerate_paths,
    format_path_literal,
    log_rising_factorial,
    parse_path_literal,
    quenched_walk,
    reinforced_trace_frequency,
    reinforced_walk,
    sample_environment,
    urn_path_probability,
)
from common import random_path, tree_edge_lists, walk_by_choices


def d1_torus3():
    return build_torus(LatticeSpec((2.0, 1.0)), [3])


def traj_from_edges(g, eids):
    vs = [int(g.tails[eids[0]])]
    for eid in eids:
        vs.append(int(g.heads[eid]))
    return Trajectory(vs, list(eids))


def test_log_rising_factorial_values():
    assert log_rising_factorial(0.7, 0) == 0.0
    assert log_rising_factorial(2.0, 1) == pytest.approx(math.log(2.0), rel=1e-15)
    # 2 * 3 * 4 = 24
    assert log_rising_factorial(2.0, 3) == pytest.approx(math.log(24.0), rel=1e-14)
    with pytest.raises(ValueError):
        log_rising_factorial(1.0, -1)


def test_log_rising_factorial_routes_agree():
    # one route at every count: consecutive counts differ by one log term
    for a in (0.05, 0.7, 2.3):
        for n in (1023, 1024, 1025, 5000):
            direct = math.fsum(math.log(a + k) for k in range(n))
            assert log_rising_factorial(a, n) == pytest.approx(direct, rel=1e-12)
        assert (log_rising_factorial(a, 1024) + math.log(a + 1024.0)
                == pytest.approx(log_rising_factorial(a, 1025), rel=1e-12))


@pytest.mark.parametrize("a", [1e9, 1e12])
def test_log_rising_factorial_long_counts_at_large_weights(a):
    # a log-Gamma difference cancels here (3.3e-6 off in log at 1e9, 3.2e-3
    # at 1e12); the exactly rounded sum of the logs does not
    reference = math.fsum(math.log(a + k) for k in range(2000))
    assert log_rising_factorial(a, 2000) == pytest.approx(reference, rel=1e-15)


def test_exact_single_step_is_mean_weight_fraction():
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1])
    assert annealed_path_probability_exact(w, traj) == pytest.approx(2 / 3, rel=1e-14)


def test_exact_alternating_path_one_sixth():
    # moment oracle: the rightward component is Beta(2,1) with second moment
    # 1/2 and the leftward component at the other vertex has mean 1/3, so the
    # path probability is 1/2 * 1/3 = 1/6
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    assert annealed_path_probability_exact(w, traj) == pytest.approx(1 / 6, rel=1e-13)


def test_exact_deterministic_path_is_one():
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([0.3, 5.0, 1.1], g)
    traj = Trajectory.from_vertices(g, [0, 1, 2, 0, 1, 2])
    assert annealed_path_probability_exact(w, traj) == pytest.approx(1.0, rel=1e-14)


def test_exact_empty_path_is_one():
    g, w = d1_torus3()
    assert annealed_path_probability_exact(w, Trajectory([2], [])) == 1.0


def test_exact_matches_urn_product_all_short_paths():
    # the closed form and the step-by-step reinforcement product are the
    # same rational number for every path
    cases = [
        build_torus(LatticeSpec((2.0, 1.0)), [4]),
        build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3]),
    ]
    for (g, w), max_len in zip(cases, (6, 4)):
        paths = tree_edge_lists(enumerate_paths(g, 0, max_len))
        assert len(paths) > 100
        for eids in paths:
            traj = traj_from_edges(g, eids)
            exact = annealed_path_probability_exact(w, traj)
            urn = urn_path_probability(w, traj)
            assert exact == pytest.approx(urn, rel=1e-12)


def test_batch_log_probabilities_match_urn_product():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    paths = tree_edge_lists(enumerate_paths(g, 0, 3))
    logs = annealed_log_paths_batch(w, paths)
    for i, p in enumerate(paths):
        expected = math.log(urn_path_probability(w, traj_from_edges(g, p)))
        assert logs[i] == pytest.approx(expected, abs=1e-12)


def test_batch_log_probabilities_every_short_torus_path():
    # all 340 paths of length 1..4 from a vertex of the 2x2 torus, plus an
    # empty path, against the urn product path by path
    g, w = build_torus(LatticeSpec((2.0, 0.5, 1.3, 0.7)), [2, 2])
    paths = tree_edge_lists(enumerate_paths(g, 0, 4))
    assert len(paths) == 340
    logs = annealed_log_paths_batch(w, paths + [[]])
    for i, p in enumerate(paths):
        expected = math.log(urn_path_probability(w, traj_from_edges(g, p)))
        assert logs[i] == pytest.approx(expected, rel=1e-12)
    assert logs[-1] == 0.0


@pytest.mark.parametrize("weights", [(1e9, 1.0), (1e12, 3.0), (1e9, 1e9)])
def test_exact_formula_at_large_weights(weights):
    # a log-Gamma difference at weight 1e9 cancels to ~1e-5 in log; the
    # formula must keep full relative accuracy, on its own and in a batch
    g, w = build_torus(LatticeSpec(weights), [3])
    traj = Trajectory.from_vertices(g, [0, 1, 2, 0, 1, 0, 2, 1])
    sums = w.vertex_sums
    crossed = np.zeros(g.n_edges)
    departed = np.zeros(g.n_vertices)
    terms = []
    for v, eid in zip(traj.vertices, traj.edges):
        terms.append(math.log((w.values[eid] + crossed[eid]) / (sums[v] + departed[v])))
        crossed[eid] += 1
        departed[v] += 1
    expected = math.fsum(terms)
    assert annealed_log_path_probability(w, traj) == pytest.approx(expected, rel=1e-12)
    logs = annealed_log_paths_batch(w, [traj.edges, traj.edges[:3]])
    assert logs[0] == pytest.approx(expected, rel=1e-12)
    assert logs[1] == pytest.approx(math.fsum(terms[:3]), rel=1e-12)


@st.composite
def weighted_multigraphs(draw, weights):
    """(graph, weights) on 1-5 vertices: a cycle through every vertex in
    random order keeps the graph strongly connected, and up to 8 extra edges
    drawn with replacement add self-loops and parallel edges.  Edge ids are
    in draw order, so the cycle's edges are not grouped by tail."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    edges += [(order[i], order[(i + 1) % n]) for i in range(n)]
    edges = draw(st.permutations(edges))
    g = DirectedGraph(n, edges)
    return g, WeightAssignment(draw(st.lists(weights, min_size=len(edges),
                                             max_size=len(edges))), g)


def drawn_paths(draw, g, max_paths=6, max_len=12):
    """Paths of 0..max_len steps from drawn starts, along drawn out-edges."""
    return [walk_by_choices(g, draw(st.integers(0, g.n_vertices - 1)),
                            draw(st.lists(st.integers(0, 63), max_size=max_len)))
            for _ in range(draw(st.integers(1, max_paths)))]


real_weights = st.floats(1e-2, 1e3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), graph=weighted_multigraphs(real_weights))
def test_batch_equals_its_single_paths_bit_for_bit(data, graph):
    g, w = graph
    paths = drawn_paths(data.draw, g)
    logs = annealed_log_paths_batch(w, [traj.edges for traj in paths])
    assert isinstance(logs, np.ndarray)
    assert logs.tolist() == [annealed_log_path_probability(w, traj) for traj in paths]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), graph=weighted_multigraphs(real_weights))
def test_exact_equals_the_urn_product(data, graph):
    g, w = graph
    for traj in drawn_paths(data.draw, g):
        assert annealed_path_probability_exact(w, traj) == pytest.approx(
            urn_path_probability(w, traj), rel=1e-12)


def rational_rising(a, n):
    """a(a+1)...(a+n-1) in exact arithmetic."""
    return math.prod((Fraction(a) + k for k in range(n)), start=Fraction(1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), graph=weighted_multigraphs(st.integers(1, 4).map(float)))
def test_exact_equals_the_rational_rising_factorials(data, graph):
    g, w = graph
    sums = [Fraction(0)] * g.n_vertices
    for eid, weight in enumerate(w.values.tolist()):
        sums[g.tail_list[eid]] += Fraction(weight)
    for traj in drawn_paths(data.draw, g, max_len=30):
        crossed = np.bincount(traj.edges, minlength=g.n_edges).tolist()
        departed = np.bincount(traj.vertices[:-1], minlength=g.n_vertices).tolist()
        ref = (math.prod((rational_rising(a, n) for a, n in zip(w.values.tolist(), crossed)),
                         start=Fraction(1))
               / math.prod((rational_rising(s, m) for s, m in zip(sums, departed)),
                           start=Fraction(1)))
        log_ref = math.log(ref.numerator) - math.log(ref.denominator)
        assert annealed_log_path_probability(w, traj) == pytest.approx(log_ref, abs=1e-12)


def test_urn_path_probability_bookkeeping():
    # each step's urn probability is the ratio of the path's prefix products
    g, w = d1_torus3()
    p = [urn_path_probability(w, Trajectory.from_vertices(g, [0, 1, 0, 1][:n]))
         for n in range(1, 5)]
    assert p[0] == 1.0
    assert p[1] / p[0] == pytest.approx(2 / 3, rel=1e-15)
    assert p[2] / p[1] == pytest.approx(1 / 3, rel=1e-15)
    # the 0 -> 1 edge was reinforced: (2 + 1) / (3 + 1)
    assert p[3] / p[2] == pytest.approx(3 / 4, rel=1e-15)
    # an edge that does not leave the current vertex
    with pytest.raises(ValueError):
        urn_path_probability(w, Trajectory([0, 1, 0], [g.find_edge(0, 1), g.find_edge(2, 0)]))


def test_urn_path_probability_alternating():
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    assert urn_path_probability(w, traj) == pytest.approx(1 / 6, rel=1e-12)


def test_reinforced_walk_runs_to_cap():
    g, w = build_torus(LatticeSpec((1.0, 1.0, 1.0, 1.0)), [3, 3])
    traj, report = reinforced_walk(w, 0, StoppingRule(max_steps=50), RngStream(22))
    assert len(traj) == 50 and report.truncated
    traj.check_consistent(g)


@pytest.mark.parametrize("start", [-1, 3])
def test_single_walks_reject_a_start_outside_the_graph(start):
    g, w = d1_torus3()
    env = sample_environment(g, w, RngStream(26))
    rule = StoppingRule(max_steps=5)
    with pytest.raises(PreconditionError, match="start vertex"):
        reinforced_walk(w, start, rule, RngStream(27))
    with pytest.raises(PreconditionError, match="start vertex"):
        quenched_walk(env, start, rule, RngStream(27))


def test_reinforced_walk_matches_trace_frequency():
    # two routes to the same Bernoulli probability: run the full sampler and
    # count exact traces, or use the interval construction
    g, w = d1_torus3()
    target = Trajectory.from_vertices(g, [0, 1, 0, 1])
    rule = StoppingRule(max_steps=3)
    base = RngStream(23)
    n_full = 20_000
    hits = 0
    for i in range(n_full):
        traj, _ = reinforced_walk(w, 0, rule, base.with_stream(i))
        hits += traj.edges == target.edges
    p_full = hits / n_full
    se_full = math.sqrt(p_full * (1 - p_full) / n_full)
    p_fast, se_fast = reinforced_trace_frequency(w, target, 10**6, RngStream(24))
    combined = math.hypot(se_full, se_fast)
    assert abs(p_full - p_fast) <= 3 * combined
    # and both sit near the exact value
    assert abs(p_fast - 1 / 6) <= 3 * se_fast


def test_trace_frequency_deterministic_path():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    w = WeightAssignment([1.0, 1.0], g)
    traj = Trajectory.from_vertices(g, [0, 1, 0])
    p, se = reinforced_trace_frequency(w, traj, 1000, RngStream(25))
    assert p == 1.0 and se == 0.0


def test_mc_single_step():
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1])
    est, se = annealed_path_probability_mc(g, w, traj, 10**5, RngStream(26))
    assert abs(est - 2 / 3) <= 3 * se


def test_mc_deterministic_path():
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([1.0, 1.0, 1.0], g)
    traj = Trajectory.from_vertices(g, [0, 1, 2])
    est, se = annealed_path_probability_mc(g, w, traj, 200, RngStream(27))
    assert est == 1.0 and se == 0.0


def test_mc_agrees_with_exact_path_suite():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    rng = np.random.default_rng(28)
    base = RngStream(29)
    for i in range(20):
        traj = random_path(g, rng, int(rng.integers(1, 5)))
        exact = annealed_path_probability_exact(w, traj)
        est, se = annealed_path_probability_mc(g, w, traj, 10**5, base.with_stream(1 + i))
        assert abs(est - exact) <= 3 * se, f"path {i}: {est} vs {exact} (se {se})"


def test_mc_separates_wrong_value():
    # the iid-mean product 4/27 differs from the correct 1/6 by 1/54; Monte
    # Carlo resolves the gap decisively
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    est, se = annealed_path_probability_mc(g, w, traj, 10**5, RngStream(30))
    wrong = (2 / 3) * (1 / 3) * (2 / 3)
    assert abs(est - 1 / 6) <= 3 * se
    assert abs(est - wrong) > 10 * se


def test_mc_reads_only_departed_rows():
    # the path 0,1,0,1 never departs vertex 2, so the weights there draw
    # nothing and cannot move the estimate
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    moved = w.values.copy()
    moved[g.out_edges(2)] = [0.3, 7.0]
    est = annealed_path_probability_mc(g, w, traj, 20_000, RngStream(32))
    est_moved = annealed_path_probability_mc(g, WeightAssignment(moved, g), traj, 20_000,
                                             RngStream(32))
    assert est == est_moved


def test_mc_requires_enough_replicas():
    g, w = d1_torus3()
    traj = Trajectory.from_vertices(g, [0, 1])
    with pytest.raises(PreconditionError):
        annealed_path_probability_mc(g, w, traj, 99, RngStream(31))


def test_path_literal_vertex_round_trip():
    g, w = d1_torus3()
    traj = parse_path_literal(g, "0,1,0,1")
    assert traj.vertices == [0, 1, 0, 1]
    assert format_path_literal(g, traj) == "0,1,0,1"


def test_path_literal_signed_steps():
    g, w = d1_torus3()
    traj = parse_path_literal(g, "+1,-1,+1", origin=0)
    assert traj.vertices == [0, 1, 0, 1]
    g2, _ = build_torus(LatticeSpec((1.0, 1.0, 1.0, 1.0)), [3, 3])
    traj2 = parse_path_literal(g2, "+1,+2,-1,-2", origin=0)
    assert traj2.start == 0 and traj2.end == 0
    with pytest.raises(ValueError):
        parse_path_literal(g, "+2", origin=0)


def test_path_literal_edge_ids_for_multigraph():
    # the 2x2 torus has parallel edges (+1 and -1 land on the same
    # neighbor), so vertex literals are ambiguous and edge ids take over
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])
    with pytest.raises(ValueError):
        Trajectory.from_vertices(g, [0, 1])
    eid = g.out_edges(0)[0]
    traj = parse_path_literal(g, f"e{eid}")
    assert traj.edges == [eid]
    lit = format_path_literal(g, traj)
    assert lit.startswith("e")
    back = parse_path_literal(g, lit)
    assert back.edges == traj.edges and back.vertices == traj.vertices


@pytest.mark.parametrize("name", ["3x3 torus", "2x2 torus", "N=1 band"])
def test_path_literal_form_matches_a_per_step_check(name):
    # the literal form is read from each edge's parallel-twin flag; it must
    # be the one that resolving every step would choose
    lattice = LatticeSpec((2.0, 1.0, 1.0, 1.0))
    if name == "N=1 band":
        # every transverse edge is a self-loop, two per vertex
        g = build_cylinder_band(CylinderSpec(N=1, L=3, lattice=lattice)).graph
    else:
        g, _ = build_torus(lattice, [3, 3] if name == "3x3 torus" else [2, 2])
    assert any(g.has_parallel_twin) == (name != "3x3 torus")
    rng = np.random.default_rng(68)
    for length in (0, 1, 2, 5):
        for _ in range(20):
            traj = random_path(g, rng, length)
            try:
                vertex_form = Trajectory.from_vertices(g, traj.vertices).edges == traj.edges
            except ValueError:
                vertex_form = False
            expected = (",".join(map(str, traj.vertices)) if vertex_form
                        else ",".join(f"e{eid}" for eid in traj.edges))
            assert format_path_literal(g, traj) == expected


def test_path_literal_empty():
    g, w = d1_torus3()
    traj = parse_path_literal(g, "", origin=2)
    assert traj.vertices == [2] and traj.edges == []


def test_path_literal_broken_edge_chain():
    g, w = d1_torus3()
    e01 = g.find_edge(0, 1)
    e20 = g.find_edge(2, 0)
    with pytest.raises(ValueError):
        parse_path_literal(g, f"e{e01},e{e20}")
