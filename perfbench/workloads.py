"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one caller issues its calls back to back.  A
call returns the text of its records (the CLI's stdout, or a JSON dump of a
library result with every float written in full), so records from
`workers=1` and `workers=2` can be compared byte for byte.  The inputs come
from the workload seed alone.

Check tolerances: statistical checks pass at |z| <= 5 against the exact value
or the oracle (about 6e-7 chance of failure per check); exact identities pass
at 1e-10 relative; the reversal suite passes when no path is beyond
|z| = 6, the hard clause of its own `policy_ok()`.  A check
that raises or meets a non-finite estimate is an error; one that misses its
reference is wrong.  Every failed check makes a run incorrect, except the
errors listed in KNOWN_ERRORS, which are counted apart.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rwre
import rwre.cli

Z_LIMIT = 5.0
EXACT_RTOL = 1e-10

PASS, WRONG, ERROR = "pass", "wrong", "error"

# Checks that fail at the first commit measured, as errors only.  At weight
# 0.003 some vertices draw Gamma values that all underflow to 0.0, so their
# rows are NaN and so is the Monte Carlo mean (ROADMAP item 4).  Such an
# error is printed and recorded as a known error, outside the result's
# `attempted` and `failed`; a wrong finite estimate is not exempt.
KNOWN_ERRORS = frozenset({"annealed MC at weight 0.003 vs exact"})


@dataclass
class Call:
    """One call of a workload: `run(workers)` returns its record text and
    `check(texts)` grades it, given the texts of every call of the pass."""

    name: str
    replicas: int
    run: Callable[[int], str]
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    calls: list

    @property
    def replicas(self) -> int:
        return sum(c.replicas for c in self.calls)


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def z_check(name, estimate, se, reference, lower_bound=False):
    """|z| <= 5 against `reference`, or z >= -5 when it is a lower bound."""
    if not _finite(estimate, se, reference):
        return (name, ERROR, f"non-finite estimate {estimate!r} (se {se!r})")
    if se > 0:
        z = (estimate - reference) / se
    else:
        z = 0.0 if estimate == reference else math.copysign(math.inf, estimate - reference)
    ok = z >= -Z_LIMIT if lower_bound else abs(z) <= Z_LIMIT
    return (name, PASS if ok else WRONG,
            f"estimate {estimate:.6g} reference {reference:.6g} z {z:+.2f}")


def exact_check(name, value, reference):
    if not _finite(value, reference):
        return (name, ERROR, f"non-finite value {value!r}")
    rel = abs(value - reference) / max(abs(reference), 1e-300)
    return (name, PASS if rel <= EXACT_RTOL else WRONG, f"relative difference {rel:.3e}")


def _records(text: str) -> list:
    obj = json.loads(text)
    return obj if isinstance(obj, list) else [obj]


def _seeds(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def _cli_call(name, replicas, argv, check) -> Call:
    rwre.cli.build_parser().parse_args(argv)

    def run(workers):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rwre.cli.main([*argv, "--workers", str(workers)])
        if code != 0:
            raise RuntimeError(f"rwre {argv[0]} exited with status {code}")
        return buf.getvalue()

    return Call(name, replicas, run, check)


# -- lattice: lazily keyed environments on Z^d -----------------------------

TRANSIENCE_REPLICAS = 100
VELOCITY_REPLICAS = 20
D1_REPLICAS = 700
RUIN_REPLICAS = 20000
TRAP_ALPHA = (0.06, 0.05, 0.05, 0.05)
# Annealed mean first step E[X_1 . e1]: the Dirichlet mean of the origin's row.
FIRST_STEP_MEAN = (TRAP_ALPHA[0] - TRAP_ALPHA[1]) / sum(TRAP_ALPHA)
# At 3000 walks a reversed drift, mean -0.048, lies about 7 standard errors off.
FIRST_STEP_REPLICAS = 3000


def _check_transience(texts):
    return [z_check(f"transience L={r['params']['L']} >= 1-beta1/alpha1", r["estimate"],
                    r["se"], 0.5, lower_bound=True)
            for r in _records(texts["transience"])]


def _check_velocity(texts):
    # No exact value exists at the trap horizons; only a finite estimate is
    # required there.  Horizon 1 has an exact annealed mean, so it is z-tested.
    out = [(f"velocity n={r['params']['horizon']} finite",
            PASS if _finite(r["estimate"], r["se"]) else ERROR,
            f"estimate {r['estimate']!r}") for r in _records(texts["velocity"])]
    first = _records(texts["velocity-first-step"])[0]
    out.append(z_check("velocity n=1 vs (alpha1-beta1)/sum(alpha)", first["estimate"],
                       first["se"], FIRST_STEP_MEAN))
    return out


def _check_d1(texts):
    walk = _records(texts["transience-d1"])[0]
    oracle = _records(texts["ruin"])[0]
    se = math.hypot(walk["se"], oracle["se"])
    return [z_check("d=1 transience vs ruin oracle", walk["estimate"] - oracle["estimate"],
                    se, 0.0)]


def lattice(seed: int) -> Workload:
    s = _seeds(seed, 5)
    alpha = ",".join(map(str, TRAP_ALPHA))
    return Workload("lattice", [
        _cli_call("transience", TRANSIENCE_REPLICAS,
                  ["transience", "--alpha", "2,1,1,1", "--L", "10,30", "--steps", "1000000",
                   "--replicas", str(TRANSIENCE_REPLICAS), "--seed", str(s[0])],
                  _check_transience),
        _cli_call("velocity", VELOCITY_REPLICAS,
                  ["velocity", "--alpha", alpha, "--horizons", "200,2000",
                   "--replicas", str(VELOCITY_REPLICAS), "--seed", str(s[1])],
                  lambda texts: []),
        _cli_call("velocity-first-step", FIRST_STEP_REPLICAS,
                  ["velocity", "--alpha", alpha, "--horizons", "1",
                   "--replicas", str(FIRST_STEP_REPLICAS), "--seed", str(s[4])],
                  _check_velocity),
        _cli_call("transience-d1", D1_REPLICAS,
                  ["transience", "--alpha", "2,1", "--L", "4", "--steps", "1000000",
                   "--replicas", str(D1_REPLICAS), "--seed", str(s[2])],
                  _check_d1),
        _cli_call("ruin", RUIN_REPLICAS,
                  ["ruin", "--alpha", "2,1", "--L", "4", "--replicas", str(RUIN_REPLICAS),
                   "--seed", str(s[3])],
                  lambda texts: []),
    ])


# -- cylinder: lockstep stepping plus batch Dirichlet sampling -------------

CYLINDER_REPLICAS = 16384   # two chunks, so --workers 2 engages
GRID_SIZES = (1, 2, 4)
# A lockstep chunk runs until its slowest walker returns.  On the N=1 cells
# that takes 8k to 140k steps, so at the default cap of 100000 a grid's time
# varies 4x with the seed.  At 5000 about 6 of the grid's 147456 walks are
# capped (excluded from the estimate and reported as truncated), which is
# far below its standard error.
GRID_STEPS = 5000


def _check_grid(texts):
    rows = list(csv.DictReader(io.StringIO(texts["grid"])))
    out = []
    for row in rows:
        p = json.loads(row["params"])
        out.append(z_check(f"cylinder-delta N={p['N']} L={p['L']} == 1-beta1/alpha1",
                           float(row["estimate"]), float(row["se"]), 0.5))
    if len(rows) != len(GRID_SIZES) ** 2:
        out.append(("cylinder-delta grid size", WRONG, f"{len(rows)} rows"))
    return out


def _check_exit(texts):
    r = _records(texts["cylinder-exit"])[0]
    return [z_check("cylinder-exit N=4 L=8 >= 1-beta1/alpha1", r["estimate"], r["se"], 0.5,
                    lower_bound=True)]


def cylinder(seed: int) -> Workload:
    s = _seeds(seed, 2)
    sizes = ",".join(map(str, GRID_SIZES))
    return Workload("cylinder", [
        _cli_call("grid", CYLINDER_REPLICAS * len(GRID_SIZES) ** 2,
                  ["grid", "cylinder-delta", "--alpha", "2,1,1,1", "--N", sizes, "--L", sizes,
                   "--format", "csv", "--replicas", str(CYLINDER_REPLICAS), "--steps", str(GRID_STEPS),
                   "--seed", str(s[0])],
                  _check_grid),
        _cli_call("cylinder-exit", CYLINDER_REPLICAS,
                  ["cylinder-exit", "--alpha", "2,1,1,1", "--N", "4", "--L", "8",
                   "--replicas", str(CYLINDER_REPLICAS), "--seed", str(s[1])],
                  _check_exit),
    ])


# -- identities: exact-versus-sampled checks on finite graphs --------------

REVERSAL_REPLICAS = 2 * 8192
REVERSAL_K = 4
REVERSAL_PATHS = 340          # paths of length <= 4 from a vertex of the 2x2 torus
REVERSAL_Z_LIMIT = 6.0        # ReversalReport.policy_ok's bound on every path
MC_REPLICAS = 50_000
CYCLES = 100
URN_WALKS = 50
URN_STEPS = 12
TRAP_REPLICAS = 20_000
TRAP_WEIGHTS = (0.1, 0.003)   # 0.003 yields NaN rows at this commit (ROADMAP item 4)
TRAP_CYCLE = 50


def _random_cycle(g, rng, max_len=8):
    """Uniform-step walk restarted until it returns to its start within max_len."""
    while True:
        start = int(rng.integers(g.n_vertices))
        vs, eids, v = [start], [], start
        for _ in range(max_len):
            out = g.out_edges(v)
            eid = int(out[rng.integers(out.size)])
            eids.append(eid)
            v = int(g.heads[eid])
            vs.append(v)
            if v == start:
                return rwre.Trajectory(vs, eids)


def identities(seed: int) -> Workload:
    s = _seeds(seed, 6 + len(TRAP_WEIGHTS))
    torus22 = rwre.build_torus(rwre.LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])
    cycle3 = rwre.build_torus(rwre.LatticeSpec((2.0, 1.0)), [3])
    path3 = rwre.Trajectory.from_vertices(cycle3[0], [0, 1, 0, 1])
    torus33 = rwre.build_torus(rwre.LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    cycle_rng = np.random.default_rng(s[3])
    cycles = [_random_cycle(torus33[0], cycle_rng) for _ in range(CYCLES)]

    def reverse_check(workers):
        rep = rwre.verify_reversal_distribution(*torus22, REVERSAL_K, REVERSAL_REPLICAS,
                                                rwre.RngStream(s[0]), workers=workers)
        return json.dumps({"paths": rep.literals, "exact": rep.exact.tolist(),
                      "mc": rep.mc.tolist(), "se": rep.se.tolist(), "z": rep.z.tolist(),
                      "max_abs_z": rep.max_abs_z, "outliers": rep.outliers(),
                      "allowed_outliers": rep.allowed_outliers, "policy_ok": rep.policy_ok()})

    def check_reverse(texts):
        r = json.loads(texts["reverse-check"])
        if not _finite(*r["mc"], *r["se"], *r["exact"]):
            return [("reversal distribution", ERROR, "non-finite estimate")]
        # Graded on the policy's hard clause only (no path beyond |z| = 6).
        # Its other clause, at most 1 path in 100 beyond |z| = 3, failed on
        # 13 of 144 seeds at k=4: the 340 z-scores share their sampled
        # environments, so their excursions come in clusters.  The full
        # verdict stays in the record as `policy_ok`.
        ok = r["max_abs_z"] <= REVERSAL_Z_LIMIT and len(r["paths"]) == REVERSAL_PATHS
        return [(f"reversal distribution, no path beyond |z| {REVERSAL_Z_LIMIT:g}",
                 PASS if ok else WRONG,
                 f"{len(r['paths'])} paths, max |z| {r['max_abs_z']:.3f}, "
                 f"{r['outliers']} beyond 3 (policy allows {r['allowed_outliers']})")]

    def annealed_mc(workers):
        exact = rwre.annealed_path_probability_exact(cycle3[1], path3)
        mc, se = rwre.annealed_path_probability_mc(*cycle3, path3, MC_REPLICAS,
                                                   rwre.RngStream(s[1]), workers=workers)
        return json.dumps({"exact": exact, "estimate": mc, "se": se})

    def check_mc(texts):
        r = json.loads(texts["annealed-mc"])
        return [exact_check("exact formula 0,1,0,1 on the 3-cycle == 1/6", r["exact"], 1 / 6),
                z_check("annealed MC 0,1,0,1 vs 1/6", r["estimate"], r["se"], 1 / 6)]

    def trace_frequency(workers):
        est, se = rwre.reinforced_trace_frequency(cycle3[1], path3, MC_REPLICAS,
                                                  rwre.RngStream(s[2]), workers=workers)
        return json.dumps({"estimate": est, "se": se})

    def check_trace(texts):
        r = json.loads(texts["trace-frequency"])
        return [z_check("reinforced trace frequency 0,1,0,1 vs 1/6", r["estimate"], r["se"],
                        1 / 6)]

    def cycle_reversal(workers):
        reports = [rwre.check_cycle_reversal(torus33[1], c) for c in cycles]
        return json.dumps([[r.forward, r.backward] for r in reports])

    def check_cycles(texts):
        pairs = json.loads(texts["cycle-reversal"])
        worst = max(pairs, key=lambda p: abs(p[0] - p[1]) / max(abs(p[0]), 1e-300))
        return [exact_check(f"cycle reversal, worst of {len(pairs)}", worst[1], worst[0])]

    def urn_product(workers):
        pairs = []
        for i in range(URN_WALKS):
            traj, _ = rwre.reinforced_walk(torus33[1], i % torus33[0].n_vertices,
                                           rwre.StoppingRule(max_steps=URN_STEPS),
                                           rwre.RngStream(s[4], i))
            pairs.append([rwre.urn_path_probability(torus33[1], traj),
                          rwre.annealed_path_probability_exact(torus33[1], traj)])
        return json.dumps(pairs)

    def check_urn(texts):
        pairs = json.loads(texts["urn-product"])
        worst = max(pairs, key=lambda p: abs(p[0] - p[1]) / max(abs(p[1]), 1e-300))
        return [exact_check(f"urn product vs exact formula, worst of {len(pairs)}",
                            worst[0], worst[1])]

    calls = [
        Call("reverse-check", REVERSAL_REPLICAS, reverse_check, check_reverse),
        Call("annealed-mc", MC_REPLICAS, annealed_mc, check_mc),
        Call("trace-frequency", MC_REPLICAS, trace_frequency, check_trace),
        Call("cycle-reversal", CYCLES, cycle_reversal, check_cycles),
        Call("urn-product", URN_WALKS, urn_product, check_urn),
    ]
    for i, weight in enumerate(TRAP_WEIGHTS):
        calls.append(_trap_call(weight, s[6 + i]))
    return Workload("identities", calls)


def _trap_call(weight, seed) -> Call:
    """Annealed MC against the exact value for an 11-vertex path on the
    50-cycle, at a weight below 1 on every edge."""
    name = f"trap-{weight}"
    g, w = rwre.build_torus(rwre.LatticeSpec((weight, weight)), [TRAP_CYCLE])
    path = rwre.Trajectory.from_vertices(g, range(11))

    def run(workers):
        exact = rwre.annealed_path_probability_exact(w, path)
        mc, se = rwre.annealed_path_probability_mc(g, w, path, TRAP_REPLICAS,
                                                   rwre.RngStream(seed), workers=workers)
        return json.dumps({"exact": exact, "estimate": mc, "se": se})

    def check(texts):
        r = json.loads(texts[name])
        return [z_check(f"annealed MC at weight {weight} vs exact", r["estimate"], r["se"],
                        r["exact"])]

    return Call(name, TRAP_REPLICAS, run, check)


WORKLOADS = {"lattice": lattice, "cylinder": cylinder, "identities": identities}

# Distinct inputs that one timed run cycles over.  Pass time varies with the
# inputs, so a run sums over several.  On `lattice` and `identities` each
# input repeats at least three times in a 36 s run, so its median pass time
# is robust to a stall of the host.  A `cylinder` pass's lockstep steps vary
# by 9% (coefficient of variation) between inputs, with the tail of the
# slowest walkers, so it takes 7 inputs, at two passes each.
INPUTS_PER_RUN = {"lattice": 6, "cylinder": 7, "identities": 6}
