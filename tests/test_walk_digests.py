"""Pinned outputs of the single-walk routes.

Each case hashes (sha256) the trajectories and stop reports of many seeded
walks, or the exact bits (float.hex) of urn path probabilities and a trace
frequency.  The walks draw their uniforms in a fixed order and pick edges by
a fixed tie rule, so any change to either moves a digest.
"""

import hashlib

import numpy as np
import pytest

from rwre import (
    LatticeSpec,
    RngStream,
    StoppingRule,
    Trajectory,
    build_cylinder_band,
    build_torus,
    quenched_walk,
    reinforced_trace_frequency,
    reinforced_walk,
    sample_environment,
    urn_path_probability,
)
from common import random_path

TORUS_WEIGHTS = {"w2111": (2.0, 1.0, 1.0, 1.0), "w01": (0.1, 0.1, 0.3, 0.7),
                 "w1e9": (1e9, 1.0, 3.3, 0.7)}

_WALK_DIGESTS = {
    ("quenched", "band", "cap"): "6591644ae5640d13c7540e39ab2f10342ff841b505ae8961592238c1c4ceebb4",
    ("quenched", "band", "target"): "0210dfa94490d99def6c41d5fb58849fff6b2f0d523596705f0980cce29ec294",
    ("quenched", "torus", "cap"): "25241c443bfa9c52582d1a795595c5a1707d2838854efac6fcde6417a482259d",
    ("quenched", "torus", "target"): "06d35f470a7b4c10d0c89e579a0254be4e5ca2281ea1a86c0ac48a917a6e6698",
    ("reinforced", "w2111", "cap"): "33138311dad33cc1711c4b385e1f7225db9cacaff2aa1935f9d9183f27400565",
    ("reinforced", "w2111", "target"): "67d0ee7058fcdef9d6ba62820aa7318982628abbc6aa0afa10ac6776d6491796",
    ("reinforced", "w01", "cap"): "57fc7e00654b3dd3c5ceb8649c76ac1e3975cabec98f1c203fdfd4441a774bf5",
    ("reinforced", "w01", "target"): "5ab57ebddb8be144f1930bb2aeb2159cf9b8d2bb501e8d6627e6338e78cfc523",
    ("urn-path", "w2111"): "3d64e92433598a4e9d21deab268c5ae784a2f4e4fe10d209b993a5d90064fda2",
    ("urn-path", "w01"): "51ec698c90a449441032966bc769224400e99375d3398111ee2c4ea0693a2f15",
    ("urn-path", "w1e9"): "9aa08d15a0dfbe6151f9a16a9fcaba240df80b20602c3da0b4be48c6e2ffa8a7",
    ("trace-frequency",): "2376a4147b5077bb7903cc1b588e452d1385e29b6b19f884ae45115c89f5e611",
}


def _rule(kind, target):
    # long caps make some walks run past several blocks of uniforms
    if kind == "cap":
        return StoppingRule(max_steps=700)
    return StoppingRule(max_steps=300, target=target)


def _walks(walk, start, rule, seed, count=120):
    base = RngStream(seed)
    out = []
    for i in range(count):
        traj, report = walk(start(i), rule, base.with_stream(i))
        out.append((traj.vertices, traj.edges, report.reason, report.step, report.vertex))
    return out


def _outputs(case):
    if case[0] == "quenched":
        _, graph, kind = case
        if graph == "band":
            band = build_cylinder_band(LatticeSpec(TORUS_WEIGHTS["w2111"]), 3, 3)
            g, w, origin, target = band.graph, band.weights, band.origin, 7
        else:
            g, w = build_torus(LatticeSpec(TORUS_WEIGHTS["w2111"]), [3, 3])
            origin, target = 0, 4
        env = sample_environment(g, w, RngStream(601))
        return _walks(lambda s, rule, rng: quenched_walk(env, s, rule, rng),
                      lambda i: origin, _rule(kind, target), 602)
    if case[0] == "reinforced":
        _, weights, kind = case
        g, w = build_torus(LatticeSpec(TORUS_WEIGHTS[weights]), [3, 3])
        return _walks(lambda s, rule, rng: reinforced_walk(w, s, rule, rng),
                      lambda i: i % g.n_vertices, _rule(kind, 4), 603)
    if case[0] == "urn-path":
        g, w = build_torus(LatticeSpec(TORUS_WEIGHTS[case[1]]), [3, 3])
        rng = np.random.default_rng(604)
        lengths = [0, 1, 2, 3, 5, 8, 13, 40, 150, 600]
        return [urn_path_probability(w, random_path(g, rng, lengths[i % len(lengths)])).hex()
                for i in range(100)]
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1, 2, 0])
    est, se = reinforced_trace_frequency(w, traj, 50_000, RngStream(605))
    return [est.hex(), se.hex()]


def _digest(case):
    return hashlib.sha256(repr(_outputs(case)).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_WALK_DIGESTS), ids=lambda case: "-".join(case))
def test_single_walk_outputs_are_pinned(case):
    assert _digest(case) == _WALK_DIGESTS[case]
