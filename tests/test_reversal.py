import re

import numpy as np
import pytest

from rwre import (
    DirectedGraph,
    Environment,
    LatticeSpec,
    PreconditionError,
    RngStream,
    Trajectory,
    WeightAssignment,
    annealed_path_probability_exact,
    build_torus,
    check_cycle_reversal,
    enumerate_paths,
    path_probability,
    reverse_environment,
    reverse_graph,
    reversed_path_ratio,
    sample_environment,
    sample_environment_batch,
    stationary_batch,
    stationary_distribution,
    verify_reversal_distribution,
)
from rwre.reversal import _reversed_probabilities
from common import divergent_two_vertex, random_cycle, two_state_chain


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


def test_stationary_rejects_a_degenerate_environment():
    # at weight 0.03 sampled rows carry entries far below machine epsilon
    # (down to 1e-81 here), so some stationary masses fall below the solve's
    # absolute accuracy and come out non-positive; that must be reported,
    # not replaced by an answer whose small entries are wrong
    g, w = build_torus(LatticeSpec((0.03, 0.03, 0.03, 0.03)), [3, 3])
    probs = sample_environment_batch(g, w, RngStream(5).generator(), 8192)
    env = Environment(g, probs[57])
    with pytest.raises(PreconditionError, match="numerically degenerate"):
        stationary_distribution(env)
    with pytest.raises(PreconditionError, match=r"\b57\b"):
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


def test_reverse_environment_sampled_rows_stochastic():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    gr = reverse_graph(g)
    gen = RngStream(40).generator()
    probs = sample_environment_batch(g, w, gen, 1000)
    vals = _reversed_probabilities(g, probs, stationary_batch(probs, g))
    sums = np.zeros((1000, g.n_vertices))
    np.add.at(sums, (slice(None), gr.tails), vals)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


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


def test_enumerate_paths_counts_and_guard():
    g, _ = build_torus(LatticeSpec((2.0, 1.0)), [4])
    paths = enumerate_paths(g, 0, 4)
    assert len(paths) == 2 + 4 + 8 + 16
    assert all(len(p) >= 1 for p in paths)
    g2, _ = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    with pytest.raises(PreconditionError, match="guard"):
        enumerate_paths(g2, 0, 7)


def test_reversal_distribution_policy_passes():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    rep = verify_reversal_distribution(g, w, 4, 20_000, RngStream(45))
    assert len(rep.literals) == 30
    assert rep.replicas == 20_000
    assert rep.policy_ok(), rep.summary()
    # the exact column is the annealed value under the reversed weights
    gr = reverse_graph(g)
    from rwre import reverse_weights
    wr = reverse_weights(w, gr)
    first = enumerate_paths(gr, 0, 1)[0]
    vs = [int(gr.tails[first[0]]), int(gr.heads[first[0]])]
    expected = annealed_path_probability_exact(wr, Trajectory(vs, list(first)))
    assert rep.exact[0] == pytest.approx(expected, rel=1e-12)


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
