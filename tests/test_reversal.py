import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre import (
    CylinderSpec,
    DirectedGraph,
    Environment,
    LatticeSpec,
    PreconditionError,
    RngStream,
    Trajectory,
    WeightAssignment,
    annealed_log_paths_batch,
    annealed_path_probability_exact,
    build_cylinder_graph,
    build_torus,
    check_cycle_reversal,
    enumerate_paths,
    path_probability,
    reverse_environment,
    reversed_path_ratio,
    sample_environment,
    sample_environment_batch,
    stationary_batch,
    stationary_distribution,
    verify_reversal_distribution,
)
import rwre.parallel
import rwre.reversal
from rwre.parallel import CHUNK_REPLICAS, Moments, run_chunked
from rwre.reversal import _reverse_chunk, _reversed_probabilities, _sibling_plan
from common import (divergent_two_vertex, random_cycle, shuffled_edges, tree_edge_lists,
                    two_state_chain, walk_by_choices)


def test_stationary_two_cycle():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    env = Environment(g, [1.0, 1.0])
    pi = stationary_distribution(env)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_biased_self_loop_chain():
    g, probs = two_state_chain()
    pi = stationary_distribution(Environment(g, probs))
    assert pi == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_stationary_doubly_stochastic_uniform():
    g, _ = build_torus(LatticeSpec((1.0, 1.0)), [5])
    env = Environment(g, np.full(g.n_edges, 0.5))
    pi = stationary_distribution(env)
    assert pi == pytest.approx(np.full(5, 0.2), abs=1e-12)


def test_stationary_requires_strong_connectivity():
    g = DirectedGraph(2, [(0, 1), (1, 1)])
    env = Environment(g, [1.0, 1.0])
    with pytest.raises(PreconditionError):
        stationary_distribution(env)


def exact_stationary(g, probs):
    """Stationary distribution of the float chain `probs`, solved in exact
    rational arithmetic on its generator: off-diagonal entries are the
    summed probabilities of the edges between two vertices, and each
    diagonal entry is minus its row's off-diagonal sum (self-loops drop
    out), so the reference is well posed even though float rows do not sum
    to 1 exactly.  Gauss-Jordan on pi Q = 0 with one equation replaced by
    sum(pi) = 1."""
    n = g.n_vertices
    Q = [[Fraction(0)] * n for _ in range(n)]
    for t, h, p in zip(g.tails.tolist(), g.heads.tolist(), probs.tolist()):
        if t != h:
            Q[t][h] += Fraction(p)
    for i in range(n):
        Q[i][i] = -sum(Q[i][j] for j in range(n) if j != i)
    A = [[Q[j][i] for j in range(n)] for i in range(n - 1)] + [[Fraction(1)] * n]
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        r = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[r], b[c], b[r] = A[r], A[c], b[r], b[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * ac for a, ac in zip(A[r], A[c])]
                b[r] -= f * b[c]
    return [b[i] / A[i][i] for i in range(n)]


def max_rel_error(pi, exact):
    """Largest entrywise relative error of float masses against exact ones."""
    return max(float(abs(Fraction(float(x)) - e) / e) for x, e in zip(pi, exact))


def trap_batch(weight, count):
    """`count` environments of the 3x3 torus at one weight on every edge."""
    g, w = build_torus(LatticeSpec((weight,) * 4), [3, 3])
    return g, sample_environment_batch(g, w, RngStream(5).generator(), count)


@pytest.mark.parametrize("weight", [2.0, 0.1, 0.03, 0.01])
def test_stationary_matches_the_exact_rational_solve(weight):
    # masses reach 1e-152 at weight 0.01, and every one of them keeps full
    # relative accuracy
    g, probs = trap_batch(weight, 24)
    pis = stationary_batch(probs, g)
    for i in range(len(probs)):
        assert max_rel_error(pis[i], exact_stationary(g, probs[i])) <= 1e-13, i


def test_stationary_solves_a_trap_environment_to_the_reference():
    # environment 57 at weight 0.03 has row entries down to 1e-81 and
    # stationary masses down to 3e-21, below the absolute accuracy of a
    # direct LU solve, which gave it a non-positive mass
    g, probs = trap_batch(0.03, 64)
    pi = stationary_distribution(Environment(g, probs[57]))
    exact = exact_stationary(g, probs[57])
    assert min(exact) < 1e-20
    assert max_rel_error(pi, exact) <= 1e-13
    assert np.array_equal(stationary_batch(probs, g)[57], pi)


def solve_blocks(monkeypatch, envs_per_block, g, probs):
    """`stationary_batch` under a budget of `envs_per_block` environments,
    and the block sizes it solved."""
    sizes = []
    eliminate = rwre.reversal._eliminate

    def spy(keys, block, x):
        sizes.append(x.shape[1])
        eliminate(keys, block, x)

    with monkeypatch.context() as m:
        m.setattr(rwre.reversal, "_SOLVE_BYTES", envs_per_block * 8 * g.n_vertices ** 2)
        m.setattr(rwre.reversal, "_eliminate", spy)
        return stationary_batch(probs, g), sizes


def cylinder_44():
    cg = build_cylinder_graph(CylinderSpec(4, 4, LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    return cg.graph, cg.weights


@pytest.mark.parametrize("count", [2, 7, 1001])
@pytest.mark.parametrize("envs_per_block", [1, 2, 3, 16])
@pytest.mark.parametrize("case", ["torus 2x2", "trap torus 5x5", "cylinder N=L=4"])
def test_blocked_solve_equals_the_unblocked_solve(monkeypatch, case, envs_per_block, count):
    # a block of one environment rounds differently, so every block holds
    # at least two, and a trailing block of one joins the block before it
    g, w = {"torus 2x2": lambda: build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2]),
            "trap torus 5x5": lambda: build_torus(LatticeSpec((0.05, 0.02, 0.03, 0.03)), [5, 5]),
            "cylinder N=L=4": cylinder_44}[case]()
    probs = sample_environment_batch(g, w, RngStream(60).generator(), count)
    whole, sizes = solve_blocks(monkeypatch, count, g, probs)
    assert sizes == [count]
    blocked, sizes = solve_blocks(monkeypatch, envs_per_block, g, probs)
    step = max(2, envs_per_block)
    assert sum(sizes) == count and sizes[:-1] == [step] * (len(sizes) - 1)
    assert 2 <= sizes[-1] <= step + 1
    assert blocked.tobytes() == whole.tobytes()


def test_blocked_solve_of_one_environment(monkeypatch):
    g, probs = two_state_chain()
    pi, sizes = solve_blocks(monkeypatch, 1, g, probs[None, :])
    assert sizes == [1]
    assert pi[0] == pytest.approx([1 / 3, 2 / 3], rel=1e-15)


@st.composite
def strongly_connected_chains(draw):
    """(graph, probabilities) on at most 6 vertices: a cycle through every
    vertex in random order keeps the graph strongly connected, and extra
    edges add self-loops and parallel edges; each row normalises edge
    weights drawn from 1e-2..1e3."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=12))
    g = DirectedGraph(n, edges)
    weights = np.array(draw(st.lists(st.floats(1e-2, 1e3), min_size=len(edges),
                                     max_size=len(edges))))
    sums = np.zeros(n)
    np.add.at(sums, g.tails, weights)
    return g, weights / sums[g.tails]


@settings(max_examples=200, deadline=None)
@given(chain=strongly_connected_chains())
def test_stationary_property_matches_the_exact_solve(chain):
    g, probs = chain
    pi = stationary_batch(probs[None, :], g)[0]
    assert max_rel_error(pi, exact_stationary(g, probs)) <= 1e-13


def test_stationary_rejects_a_numerically_reducible_environment():
    # the graph 0 <-> 1 <-> 2 is strongly connected, but an edge of
    # probability 0 cuts the chain: vertex 2 cannot leave (a zero pivot),
    # or no vertex enters it (a zero mass)
    g = DirectedGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
    for probs in ([1.0, 0.5, 0.5, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0, 0.0]):
        with pytest.raises(PreconditionError, match="numerically reducible"):
            stationary_distribution(Environment(g, probs))


@pytest.mark.parametrize("vertex", [0, 4, 8])
def test_stationary_rejects_a_nan_row_and_names_its_environment(vertex):
    # vertex 0 has no pivot of its own: its NaN row spreads into the masses
    g, probs = trap_batch(2.0, 16)
    probs[11, g.tails == vertex] = np.nan
    with pytest.raises(PreconditionError, match=r"in 1 of 16 environment\(s\), first \[11\]"):
        stationary_batch(probs, g)


def test_reverse_environment_detailed_balance():
    # every two-state chain is reversible: reversed edge probabilities equal
    # the forward probabilities of the opposite edges
    g, probs = two_state_chain()
    env = Environment(g, probs)
    pi = stationary_distribution(env)
    rev = reverse_environment(env, pi)
    e01 = g.find_edge(0, 1)
    e10 = g.find_edge(1, 0)
    assert rev.probabilities[e01] == pytest.approx(0.25, abs=1e-12)
    assert rev.probabilities[e10] == pytest.approx(0.5, abs=1e-12)
    assert rev.probabilities[g.find_edge(0, 0)] == pytest.approx(0.5, abs=1e-12)
    rev.validate(1e-10)


def test_reverse_environment_reads_the_graph_reversal():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    env = sample_environment(g, w, RngStream(41))
    pi = stationary_distribution(env)
    first, second = reverse_environment(env, pi), reverse_environment(env, pi)
    assert first.graph is g.reversal
    assert second.graph is first.graph


def test_reverse_environment_sampled_rows_stochastic():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    gr = g.reversal
    gen = RngStream(40).generator()
    probs = sample_environment_batch(g, w, gen, 1000)
    vals = _reversed_probabilities(g, probs, stationary_batch(probs, g))
    sums = np.zeros((1000, g.n_vertices))
    np.add.at(sums, (slice(None), gr.tails), vals)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_reversed_rows_off_are_listed_by_vertex():
    # a pi off by 1e-6 at one vertex, or a NaN row, must name the same
    # vertices as summing the reversed rows with np.add.at (the reference).
    # Every vertex of the 3x3 torus has in-degree 4.  The augmented cylinder,
    # its edge ids shuffled, has in-degrees 3, 4 and 6, so its later in-slots
    # are summed at only some of the vertices.
    cg = build_cylinder_graph(CylinderSpec(N=3, L=2, lattice=LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    graphs = (build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3]),
              shuffled_edges(cg.graph, cg.weights, 5))
    assert sorted(set(np.diff(graphs[1][0].in_offsets).tolist())) == [3, 4, 6]
    for g, w in graphs:
        probs = sample_environment_batch(g, w, RngStream(42).generator(), 64)
        pi = stationary_batch(probs, g)
        _reversed_probabilities(g, probs, pi)  # stationary: no error

        def reference_off(probs, pi):
            vals = probs * pi[..., g.tails] / pi[..., g.heads]
            sums = np.zeros(pi.shape)
            np.add.at(sums, (..., g.heads), vals)
            off = ~(np.abs(sums - 1.0) <= 1e-9)
            return np.flatnonzero(off.reshape(-1, off.shape[-1]).any(axis=0)).tolist()

        off_pi = pi.copy()
        off_pi[17, 4] *= 1.0 + 1e-6
        nan_probs = probs.copy()
        nan_probs[30, g.out_edges(2)] = np.nan
        for p, q in ((probs, off_pi), (nan_probs, pi), (probs[17], off_pi[17])):
            bad = reference_off(p, q)
            assert bad
            with pytest.raises(PreconditionError, match=re.escape(f"at vertices {bad}")):
                _reversed_probabilities(g, p, q)
        assert reference_off(probs, off_pi) == sorted({4, *g.heads[g.out_edges(4)].tolist()})
        assert reference_off(nan_probs, pi) == sorted(set(g.heads[g.out_edges(2)].tolist()))


def test_reverse_environment_involution():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    env = sample_environment(g, w, RngStream(41))
    pi = stationary_distribution(env)
    rev = reverse_environment(env, pi)
    pi_rev = stationary_distribution(rev)
    assert pi_rev == pytest.approx(pi, abs=1e-10)
    back = reverse_environment(rev, pi_rev)
    assert back.probabilities == pytest.approx(env.probabilities, abs=1e-10)


def test_reverse_environment_rejects_wrong_pi():
    g, probs = two_state_chain()
    env = Environment(g, probs)
    with pytest.raises(PreconditionError):
        reverse_environment(env, np.array([0.5, 0.5]))
    with pytest.raises(PreconditionError, match="not stationary"):
        reverse_environment(env, np.array([np.nan, 0.5]))


def test_quenched_cycle_invariance():
    # a cycle has the same quenched probability under the chain and under
    # its reversal
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    env = sample_environment(g, w, RngStream(42))
    pi = stationary_distribution(env)
    rev = reverse_environment(env, pi)
    rng = np.random.default_rng(43)
    for _ in range(1000):
        cyc = random_cycle(g, rng, 10)
        lhs = path_probability(env, cyc)
        rhs = path_probability(rev, cyc.reversed())
        assert rhs == pytest.approx(lhs, rel=1e-10)


def test_reversed_path_ratio_examples():
    g, probs = two_state_chain()
    env = Environment(g, probs)
    pi = stationary_distribution(env)
    one_step = Trajectory.from_vertices(g, [0, 1])
    assert reversed_path_ratio(env, pi, one_step) == pytest.approx(0.25, abs=1e-12)
    cyc = Trajectory.from_vertices(g, [0, 1, 0])
    assert reversed_path_ratio(env, pi, cyc) == pytest.approx(
        path_probability(env, cyc), rel=1e-12)


def test_reversed_path_ratio_deterministic_cycle():
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    env = Environment(g, [1.0, 1.0, 1.0])
    pi = stationary_distribution(env)
    traj = Trajectory.from_vertices(g, [0, 1, 2, 0])
    assert reversed_path_ratio(env, pi, traj) == pytest.approx(1.0, rel=1e-12)


def test_cycle_reversal_two_step():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    rep = check_cycle_reversal(w, Trajectory.from_vertices(g, [0, 1, 0]))
    assert rep.forward == pytest.approx(2 / 9, rel=1e-13)
    assert rep.backward == pytest.approx(2 / 9, rel=1e-13)
    assert rep.ok()


def test_cycle_reversal_full_loop():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    rep = check_cycle_reversal(w, Trajectory.from_vertices(g, [0, 1, 2, 0]))
    assert rep.forward == pytest.approx(8 / 27, rel=1e-13)
    assert rep.rel_diff < 1e-13
    assert rep.ok()


def test_cycle_reversal_random_torus_cycles():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    rng = np.random.default_rng(44)
    for _ in range(100):
        cyc = random_cycle(g, rng, 10)
        rep = check_cycle_reversal(w, cyc)
        assert rep.ok(), f"cycle {cyc.vertices}: {rep.forward} vs {rep.backward}"


def test_cycle_reversal_requires_null_divergence():
    g, w = divergent_two_vertex()
    cyc = Trajectory.from_vertices(g, [0, 1, 0])
    with pytest.raises(PreconditionError, match="divergence at vertices"):
        check_cycle_reversal(w, cyc)


def test_cycle_reversal_rejects_open_path():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    with pytest.raises(PreconditionError):
        check_cycle_reversal(w, Trajectory.from_vertices(g, [0, 1]))


def fresh_backward(w, cycle):
    """The backward side of the cycle identity on a reversal built anew, with
    tails and heads swapped by hand."""
    g = w.graph
    gr = DirectedGraph(g.n_vertices, np.column_stack((g.heads, g.tails)))
    return annealed_path_probability_exact(WeightAssignment(w.values.copy(), gr),
                                           cycle.reversed())


@pytest.mark.parametrize("graph", ["torus", "shuffled cylinder"])
def test_cycle_reversal_backward_equals_a_fresh_reversal(graph):
    if graph == "torus":
        g, w = build_torus(LatticeSpec((2.0, 1.0, 1.3, 0.7)), [3, 3])
    else:
        cg = build_cylinder_graph(CylinderSpec(3, 2, LatticeSpec((2.0, 1.0, 1.3, 0.7))))
        g, w = shuffled_edges(cg.graph, cg.weights, 8)
    rng = np.random.default_rng(47)
    for _ in range(30):
        cyc = random_cycle(g, rng, 10)
        assert check_cycle_reversal(w, cyc).backward == fresh_backward(w, cyc)
    assert w.reversal is w.reversal
    assert w.reversal.graph is not g


def test_weight_assignments_on_one_graph_keep_their_own_reversal():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    w1 = WeightAssignment(w.values, g)
    w2 = WeightAssignment(3.0 * w.values, g)
    cyc = random_cycle(g, np.random.default_rng(48), 10)
    rep1 = check_cycle_reversal(w1, cyc)
    rep2 = check_cycle_reversal(w2, cyc)
    assert w1.reversal is not w2.reversal
    assert np.array_equal(w2.reversal.values, 3.0 * w.values)
    assert rep1.backward == fresh_backward(w1, cyc)
    assert rep2.backward == fresh_backward(w2, cyc)
    assert rep1.backward != rep2.backward


@st.composite
def null_divergence_multigraphs(draw):
    """(graph, weights) on 1-5 vertices whose weights are sums of cycle
    weights, so their divergence vanishes: a cycle through every vertex in
    random order keeps the graph strongly connected, and up to 4 more closed
    vertex sequences (a repeated vertex is a self-loop) are laid on it.  Each
    step takes lane 0 or 1 of its (tail, head), so parallel edges occur, and
    a lane that several steps take sums their cycles' weights."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    cycles = [order] + draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
                                     max_size=4))
    weights = {}
    for cycle in cycles:
        weight = draw(st.floats(1e-2, 1e2))
        for i, tail in enumerate(cycle):
            key = (tail, cycle[(i + 1) % len(cycle)], draw(st.integers(0, 1)))
            weights[key] = weights.get(key, 0.0) + weight
    g = DirectedGraph(n, [key[:2] for key in weights])
    return g, WeightAssignment(list(weights.values()), g)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), graph=null_divergence_multigraphs())
def test_cycle_reversal_is_exact_under_null_divergence(data, graph):
    # a drawn walk, closed by a shortest path back to its start
    g, w = graph
    start = data.draw(st.integers(0, g.n_vertices - 1))
    walk = walk_by_choices(g, start, data.draw(st.lists(st.integers(0, 63), max_size=8)))
    back = {walk.end: []}
    queue = [walk.end]
    for v in queue:
        for eid in g.out_edge_lists[v]:
            head = g.head_list[eid]
            if head not in back:
                back[head] = back[v] + [eid]
                queue.append(head)
    eids = walk.edges + back[start]
    cyc = Trajectory([start] + [g.head_list[eid] for eid in eids], eids)
    rep = check_cycle_reversal(w, cyc)
    assert rep.rel_diff <= 1e-12, (rep.forward, rep.backward)
    assert rep.backward == fresh_backward(w, cyc)


def test_enumerate_paths_counts_and_guard():
    g, _ = build_torus(LatticeSpec((2.0, 1.0)), [4])
    paths = tree_edge_lists(enumerate_paths(g, 0, 4))
    assert len(paths) == 2 + 4 + 8 + 16
    assert all(len(p) >= 1 for p in paths)
    g2, _ = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    with pytest.raises(PreconditionError, match="guard"):
        enumerate_paths(g2, 0, 7)


def test_path_guard_trips_before_long_paths_are_stored():
    # the directed 3-cycle has one path per length, so k = 20000 trips the
    # guard at path 10001; the tree holds one (parent, edge) pair per path,
    # where full edge tuples up to the guard would take about 400 MB
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([1.0, 1.0, 1.0], g)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="10000-path guard"):
            verify_reversal_distribution(g, w, 20_000, 200, RngStream(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_exact_batch_rejects_a_padding_id():
    # a -1-padded edge matrix would otherwise read edge -1 as the last edge
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    with pytest.raises(ValueError, match="negative edge id -1"):
        annealed_log_paths_batch(w, [[0, -1]])
    with pytest.raises(ValueError, match="negative edge id -1"):
        annealed_log_paths_batch(w, np.array([[0, 2], [1, -1]]))


def test_reversal_distribution_policy_passes():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    rep = verify_reversal_distribution(g, w, 4, 20_000, RngStream(45))
    assert len(rep.literals) == 30
    assert rep.replicas == 20_000
    assert rep.policy_ok(), rep.summary()
    # the exact column is the annealed value under the reversed weights
    wr = w.reversal
    gr = wr.graph
    first = tree_edge_lists(enumerate_paths(gr, 0, 1))[0]
    vs = [int(gr.tails[first[0]]), int(gr.heads[first[0]])]
    expected = annealed_path_probability_exact(wr, Trajectory(vs, list(first)))
    assert rep.exact[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("weights", [(2.0, 1.0, 1.0, 1.0), (0.2, 0.1, 0.1, 0.1)])
def test_reversal_distribution_on_the_augmented_cylinder(weights):
    # the augmented cylinder has null divergence by construction and is the
    # graph the paper reverses; paths of up to 3 steps from the outside vertex
    cg = build_cylinder_graph(CylinderSpec(2, 2, LatticeSpec(weights)))
    rep = verify_reversal_distribution(cg.graph, cg.weights, 3, 20_000, RngStream(25),
                                       root=cg.outside)
    assert len(rep.literals) == 70
    assert rep.policy_ok(), rep.summary()


def test_reversal_distribution_deterministic_cycle():
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([1.0, 1.0, 1.0], g)
    rep = verify_reversal_distribution(g, w, 3, 200, RngStream(46))
    assert np.all(rep.exact == 1.0)
    assert np.all(rep.mc == 1.0)
    assert np.all(rep.z == 0.0)
    assert rep.policy_ok()


def test_reversal_distribution_report_lines():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    rep = verify_reversal_distribution(g, w, 2, 500, RngStream(47))
    pattern = re.compile(
        r"^path \S+ exact [0-9.eE+-]+ mc [0-9.eE+-]+ se [0-9.eE+-]+ z -?\d+\.\d{3}$")
    for line in rep.lines():
        assert pattern.match(line), line
    assert "paths" in rep.summary() and "replicas" in rep.summary()


def test_reversal_distribution_guards():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    with pytest.raises(PreconditionError, match="guard"):
        verify_reversal_distribution(g, w, 7, 500, RngStream(48))
    with pytest.raises(PreconditionError, match="replicas"):
        verify_reversal_distribution(g, w, 2, 99, RngStream(49))
    gd, wd = divergent_two_vertex()
    with pytest.raises(PreconditionError, match="divergence"):
        verify_reversal_distribution(gd, wd, 2, 500, RngStream(50))


@pytest.mark.parametrize("k", [0, -1])
def test_reversal_distribution_needs_a_path(k):
    # with no path to test the check would pass vacuously
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    with pytest.raises(PreconditionError, match="k must be at least 1"):
        verify_reversal_distribution(g, w, k, 500, RngStream(52))


def test_reversal_distribution_worker_determinism():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    rep1 = verify_reversal_distribution(g, w, 3, 20_000, RngStream(51), workers=1)
    rep2 = verify_reversal_distribution(g, w, 3, 20_000, RngStream(51), workers=4)
    assert np.array_equal(rep1.mc, rep2.mc)
    assert np.array_equal(rep1.se, rep2.se)


def test_enumerate_paths_lists_every_path_after_its_parent():
    # the reversal check builds each path's product from its parent's
    g, _ = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    tree = enumerate_paths(g, 0, 3)
    assert all(-1 <= parent < i for i, (parent, _) in enumerate(tree))
    paths = [tuple(p) for p in tree_edge_lists(tree)]
    position = {p: i for i, p in enumerate(paths)}
    assert len(position) == len(paths)
    for i, p in enumerate(paths):
        if len(p) > 1:
            assert position[p[:-1]] < i
    depths = [len(p) for p in paths]
    assert depths == sorted(depths)
    # the children of a path are contiguous, in out-slot order, so that the
    # reversal check reduces each sibling group as one block
    for p in [()] + [p for p in paths if len(p) < 3]:
        v = g.head_list[p[-1]] if p else 0
        at = [position[p + (eid,)] for eid in g.out_edge_lists[v]]
        assert at == list(range(at[0], at[0] + len(at)))


def _gathered_reversal_moments(g, w, k, replicas, rng):
    """Mean and SE per path in the earlier full-gather form: one
    (chunk, n_paths, k) gather of reversed probabilities, padded with 1.0
    and multiplied along its last axis."""
    paths = tree_edge_lists(enumerate_paths(g.reversal, 0, k))
    idx = np.full((len(paths), k), -1, dtype=np.int64)
    for i, p in enumerate(paths):
        idx[i, : len(p)] = p
    mask = idx >= 0
    safe_idx = np.where(mask, idx, 0)

    def run_chunk(gen, size):
        probs = sample_environment_batch(g, w, gen, size)
        rev = _reversed_probabilities(g, probs, stationary_batch(probs, g))
        return Moments.of(np.where(mask[None, :, :], rev[:, safe_idx], 1.0).prod(axis=2))

    vals = sum(run_chunked(run_chunk, replicas, rng), Moments())
    return vals.mean, vals.standard_error


@pytest.mark.parametrize("shape, k", [([2, 2], 4), ([3, 3], 3)])
def test_reversal_prefix_products_match_the_full_gather(shape, k):
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), shape)
    rep = verify_reversal_distribution(g, w, k, 9000, RngStream(53), workers=2)
    mc, se = _gathered_reversal_moments(g, w, k, 9000, RngStream(53))
    assert rep.mc.tobytes() == mc.tobytes()
    assert rep.se.tobytes() == se.tobytes()


def _unblocked_reversal_moments(g, w, k, replicas, rng):
    """Mean and SE per path built whole: each chunk's (replica, path)
    products in one Fortran-ordered matrix, filled one path at a time from
    its parent's column, and reduced by the two-pass formula."""
    tree = enumerate_paths(g.reversal, 0, k)

    def run_chunk(gen, size):
        probs = sample_environment_batch(g, w, gen, size)
        rev = _reversed_probabilities(g, probs, stationary_batch(probs, g))
        vals = np.empty((size, len(tree)), order="F")
        for i, (parent, eid) in enumerate(tree):
            vals[:, i] = rev[:, eid] if parent < 0 else vals[:, parent] * rev[:, eid]
        total = vals.sum(axis=0)
        return Moments(size, total, np.square(vals - total / size).sum(axis=0))

    vals = sum(run_chunked(run_chunk, replicas, rng), Moments())
    return vals.mean, vals.standard_error


@pytest.mark.parametrize("replicas", [1000, 8192 + 17])
def test_blocked_reversal_products_match_the_unblocked_build(replicas):
    # products are built and reduced one sibling group at a time; the 17
    # replicas of a second chunk make a chunk of their own
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])
    rep = verify_reversal_distribution(g, w, 4, replicas, RngStream(59))
    mc, se = _unblocked_reversal_moments(g, w, 4, replicas, RngStream(59))
    assert rep.mc.tobytes() == mc.tobytes()
    assert rep.se.tobytes() == se.tobytes()


def test_reversal_keeps_the_scale_of_each_sum_of_squares(monkeypatch):
    # with every sum of squares held times 4 (a floor above them all) the
    # report keeps its bits: each sibling group's exponent reaches the SE,
    # through a second chunk's merge
    g, w = _torus_2x2()
    plain = verify_reversal_distribution(g, w, 3, CHUNK_REPLICAS + 17, RngStream(62))
    monkeypatch.setattr(rwre.parallel, "_M2_FLOOR", math.inf)
    monkeypatch.setattr(rwre.parallel, "_M2_SHIFT", 2)
    scaled = verify_reversal_distribution(g, w, 3, CHUNK_REPLICAS + 17, RngStream(62))
    assert scaled.mc.tobytes() == plain.mc.tobytes()
    assert scaled.se.tobytes() == plain.se.tobytes()


def _mixed_degree_graph():
    """Null divergence with out-degrees 2, 1, 1: 0->1, 0->2, 1->0, 2->0 with
    w10 = w01 and w20 = w02."""
    g = DirectedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    return g, WeightAssignment([2.0, 0.5, 2.0, 0.5], g)


def _torus_2x2():
    return build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])


def _left_to_right_chunk(g, w, paths, gen, size):
    """Moments of one chunk's reversed path probabilities, each path's
    column built left to right from the reversed probabilities and the
    Fortran-ordered (replica, path) matrix reduced whole."""
    probs = sample_environment_batch(g, w, gen, size)
    rev = _reversed_probabilities(g, probs, stationary_batch(probs, g))
    vals = np.empty((size, len(paths)), order="F")
    for i, p in enumerate(paths):
        column = rev[:, p[0]]
        for eid in p[1:]:
            column = column * rev[:, eid]
        vals[:, i] = column
    return Moments.of(vals)


@pytest.mark.parametrize("build, root, k, size", [
    (_torus_2x2, 0, 4, 8192),
    (lambda: shuffled_edges(*_torus_2x2(), seed=3), 1, 4, 8192),
    (_mixed_degree_graph, 0, 6, 8192),
    (_mixed_degree_graph, 1, 5, 1000),
    (_torus_2x2, 0, 3, 1000),
])
def test_sibling_group_kernel_matches_left_to_right_products(build, root, k, size):
    g, w = build()
    tree = enumerate_paths(g.reversal, root, k)
    plan = _sibling_plan(g.reversal, tree, root, k)
    got = _reverse_chunk(g, w, plan, len(tree), RngStream(60).generator(), size)
    ref = _left_to_right_chunk(g, w, tree_edge_lists(tree), RngStream(60).generator(), size)
    assert got.n == ref.n == size
    assert got.total.tobytes() == ref.total.tobytes()
    assert got.m2.tobytes() == ref.m2.tobytes()


def test_reversal_distribution_memory_is_bounded_per_chunk():
    # a chunk holds one sibling group per depth, not a (path, replica)
    # matrix: that would be 1364 x 8192 float64, 89 MB, at k = 5
    g, w = _torus_2x2()
    tracemalloc.start()
    try:
        verify_reversal_distribution(g, w, 5, 8192, RngStream(61))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_reversal_distribution_long_deterministic_cycle():
    # every reversed path probability is exactly 1, so se is 0 and the exact
    # formula's relative rounding, which grows with path length, decides;
    # 1200 steps is deeper than the interpreter's recursion limit
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([1.0, 1.0, 1.0], g)
    rep = verify_reversal_distribution(g, w, 1200, 200, RngStream(62))
    assert len(rep.literals) == 1200
    assert np.all(rep.mc == 1.0) and np.all(rep.se == 0.0)
    assert np.all(rep.z == 0.0)
    assert rep.policy_ok(), rep.summary()


@pytest.mark.parametrize("shift, expected", [(1e-6, -np.inf), (-1e-6, np.inf)])
def test_reversal_distribution_zero_se_gap_keeps_its_sign(monkeypatch, shift, expected):
    real = rwre.reversal.annealed_log_paths_batch
    monkeypatch.setattr(rwre.reversal, "annealed_log_paths_batch",
                        lambda wr, idx: real(wr, idx) + shift)
    g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    w = WeightAssignment([1.0, 1.0, 1.0], g)
    rep = verify_reversal_distribution(g, w, 3, 200, RngStream(63))
    assert np.all(rep.z == expected)
    assert not rep.policy_ok()
