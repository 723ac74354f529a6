"""Command-line front end.

Subcommands select an experiment or identity check, flags carry the
parameters, and results go to stdout or --out as JSON, CSV, or plain text.
Runs are reproducible: the seed defaults to a fixed constant (12345), can be
set with --seed or the RWRE_SEED environment variable, and the worker count
never changes the output, only the wall time.  Timing is therefore opt-in
(--timing); without it the wall_time_s field is null so that reruns are
byte-identical.

The weight vector --alpha is ordered (alpha_1, beta_1, alpha_2, beta_2, ...):
alpha_i weighs the +e_i step and beta_i the -e_i step.  Transposing a pair
silently flips the transience direction, so keep the order straight.
`LatticeSpec` rejects weights that are not positive and finite.

The record subcommands (cylinder-delta, cylinder-exit, transience, velocity,
ruin) share one handler, which calls the subcommand's entry of
RECORD_EXPERIMENTS.  `grid` runs each sweep point through the same entry, so
grid row i is the record that the experiment's own subcommand writes for
that point's N and L at seed (seed XOR i).  Both print one warning to
stderr when the step cap leaves more than TRUNCATION_WARN_FRAC of a record's
replicas undecided.  Comma lists of integers (--L of transience and grid,
grid --N, --horizons, --torus) are parsed once, by argparse, whose parser
is built once per process.

Exit status: 0 on success, 2 on precondition or usage errors (including
malformed inputs and files that cannot be read or written), 1 on internal
errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

from .annealed import (
    annealed_path_probability_exact,
    annealed_path_probability_mc,
    parse_path_literal,
)
from .environment import sample_environment, write_environment
from .errors import GraphFormatError, PreconditionError
from .experiments import (
    DEFAULT_STEP_CAP,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
    lattice_transience,
    ruin_exit_probability,
    trap_condition,
    velocity_probe,
)
from .graph import (
    CylinderSpec,
    LatticeSpec,
    build_cylinder_graph,
    build_torus,
    read_graph,
)
from .reversal import check_cycle_reversal, verify_reversal_distribution
from .rng import RngStream

DEFAULT_SEED = 12345
GRID_GUARD = 10_000
# Share of a record's replicas that may be undecided before the record
# handlers warn on stderr: the bound acceptance 08 holds walks to.
TRUNCATION_WARN_FRAC = 0.02

RECORD_COLUMNS = [
    "experiment", "params", "estimate", "se", "replicas",
    "truncated", "undecided", "seed", "wall_time_s",
]


def _parse_weights(text: str) -> LatticeSpec:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise PreconditionError(f"malformed weight vector {text!r}")
    return LatticeSpec(tuple(values))


def _int_list(text: str) -> list:
    """argparse type for a comma list of integers (empty items skipped); a
    malformed list is a usage error (exit 2)."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


def _int_at_least(minimum: int):
    """argparse type for a count of at least `minimum`; anything else is a
    usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("RWRE_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(f"RWRE_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _lattice(args) -> LatticeSpec:
    if not getattr(args, "alpha", None):
        raise PreconditionError("--alpha is required here")
    lat = _parse_weights(args.alpha)
    if getattr(args, "d", None) is not None and lat.dimension != args.d:
        raise PreconditionError(
            f"--alpha has {lat.dimension} axes but --d says {args.d}"
        )
    return lat


def _load_graph(args, allow_cylinder: bool = False):
    """Graph, weights and their record params from --graph-file, --torus, or
    cylinder flags."""
    if getattr(args, "graph_file", None):
        try:
            with open(args.graph_file) as fh:
                return (*read_graph(fh), {"graph_file": args.graph_file})
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{args.graph_file} is not UTF-8 text: {exc.reason}") from None
    if getattr(args, "torus", None):
        lat = _lattice(args)
        return (*build_torus(lat, args.torus), {"alpha": list(lat.weights), "torus": args.torus})
    if allow_cylinder and getattr(args, "alpha", None):
        lat = _lattice(args)
        cg = build_cylinder_graph(CylinderSpec(args.N, args.L, lat))
        return cg.graph, cg.weights, {"alpha": list(lat.weights)}
    raise PreconditionError("need --graph-file, or --alpha with --torus")


def _emit(text: str, args):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args):
    _emit(json.dumps(obj, indent=2) + "\n", args)


def _records_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for rec in records:
        row = []
        for col in RECORD_COLUMNS:
            val = rec[col]
            if col == "params":
                val = json.dumps(val, separators=(",", ":"))
            elif val is None:
                val = ""
            row.append(val)
        writer.writerow(row)
    return buf.getvalue()


def _emit_results(results, args):
    records = [r.to_record() for r in results]
    if args.format == "csv":
        _emit(_records_csv(records), args)
    else:
        _emit_json(records[0] if len(records) == 1 else records, args)


def _warn_truncation(results):
    """Print one warning to stderr when a result's undecided count is above
    TRUNCATION_WARN_FRAC of its replicas.  Undecided walks are the capped
    walks whose outcome the cap hid; they are left out of an estimate or
    counted as failures, and which walks the cap stops depends on where they
    went, so past that share they bias it.  (A capped transience walk has
    decided the levels it already reached; on the cylinders every capped
    walk is undecided.)  Among records with different params, it names the
    record past the threshold, or the worst of several, by the params that
    set it apart (its level L, or its grid point's N and L).  Stdout is not
    touched."""
    over = [r for r in results if r.undecided > TRUNCATION_WARN_FRAC * r.replicas]
    if not over:
        return
    worst = max(over, key=lambda r: r.undecided / r.replicas)
    point = ", ".join(f"{k}={v}" for k, v in worst.params.items()
                      if any(r.params[k] != v for r in results))
    if not point:
        which = ""
    elif len(over) > 1:
        which = f" (worst of {len(over)} records: {point})"
    else:
        which = f" (record {point})"
    print(f"warning: {worst.truncated} of {worst.replicas} replicas hit the step cap "
          f"--steps {worst.params['steps']} and {worst.undecided} are undecided{which}; "
          f"the estimate may be biased, raise --steps", file=sys.stderr)


# -- subcommand handlers ---------------------------------------------------


def _cmd_sample_env(args) -> int:
    g, w, _ = _load_graph(args, allow_cylinder=True)
    seed = _resolve_seed(args)
    env = sample_environment(g, w, RngStream(seed))
    buf = io.StringIO()
    buf.write(f"# seed {seed}\n")
    write_environment(env, buf)
    _emit(buf.getvalue(), args)
    return 0


def _cmd_annealed_prob(args) -> int:
    g, w, params = _load_graph(args)
    traj = parse_path_literal(g, args.path, origin=args.origin)
    seed = _resolve_seed(args)
    exact = annealed_path_probability_exact(w, traj)
    record = {
        "experiment": "annealed-prob",
        "params": {**params, "path": args.path},
        "exact": exact,
        "estimate": None,
        "se": None,
        "z": None,
        "replicas": args.replicas,
        "seed": seed,
        "wall_time_s": None,
    }
    if args.replicas > 0:
        t0 = time.perf_counter()
        mc, se = annealed_path_probability_mc(
            g, w, traj, args.replicas, RngStream(seed), workers=args.workers)
        dt = time.perf_counter() - t0
        if not math.isfinite(mc):
            raise PreconditionError(
                f"Monte Carlo estimate is NaN: a row sampled at the departed vertices "
                f"{sorted(set(traj.vertices[:-1]))} was NaN (all of its Gamma draws "
                f"underflowed to 0)")
        record["estimate"] = mc
        record["se"] = se
        record["z"] = (mc - exact) / se if se > 0 else 0.0
        if args.timing:
            record["wall_time_s"] = dt
    _emit_json(record, args)
    return 0


def _cmd_cycle_check(args) -> int:
    g, w, params = _load_graph(args)
    cycle = parse_path_literal(g, args.path, origin=args.origin)
    report = check_cycle_reversal(w, cycle)
    _emit_json({
        "experiment": "cycle-check",
        "params": {**params, "path": args.path},
        "forward": report.forward,
        "backward": report.backward,
        "rel_diff": report.rel_diff,
        "ok": report.ok(),
    }, args)
    return 0


def _cmd_reverse_check(args) -> int:
    g, w, params = _load_graph(args)
    seed = _resolve_seed(args)
    t0 = time.perf_counter()
    report = verify_reversal_distribution(
        g, w, args.k, args.replicas, RngStream(seed), root=args.root,
        workers=args.workers)
    dt = time.perf_counter() - t0
    if args.format == "json":
        _emit_json({
            "experiment": "reverse-check",
            "params": {**params, "k": args.k, "root": args.root},
            "replicas": args.replicas,
            "seed": seed,
            "paths": [
                {"path": report.literals[i], "exact": float(report.exact[i]),
                 "mc": float(report.mc[i]), "se": float(report.se[i]),
                 "z": float(report.z[i])}
                for i in range(len(report.literals))
            ],
            "max_abs_z": report.max_abs_z,
            "outliers": report.outliers(),
            "allowed_outliers": report.allowed_outliers,
            "policy_ok": report.policy_ok(),
            "wall_time_s": dt if args.timing else None,
        }, args)
    else:
        _emit("\n".join(report.lines() + [report.summary()]) + "\n", args)
    return 0


def _cmd_trap_check(args) -> int:
    lat = _lattice(args)
    check = trap_condition(lat, args.axis)
    _emit_json({"holds": check.holds, "slack": check.slack}, args)
    return 0


# subcommand -> the call of its experiment on (parsed flags, lattice, rng),
# returning its results in output order
RECORD_EXPERIMENTS = {
    "cylinder-delta": lambda a, lat, rng: [cylinder_delta_exit(
        CylinderSpec(a.N, a.L, lat), a.replicas, rng, step_cap=a.steps, workers=a.workers)],
    "cylinder-exit": lambda a, lat, rng: [cylinder_exit_from_origin(
        CylinderSpec(a.N, a.L, lat), a.replicas, rng, step_cap=a.steps, workers=a.workers)],
    "transience": lambda a, lat, rng: lattice_transience(
        lat, a.L, a.replicas, a.steps, rng, workers=a.workers),
    "velocity": lambda a, lat, rng: velocity_probe(
        lat, a.horizons, a.replicas, rng, workers=a.workers),
    "ruin": lambda a, lat, rng: [ruin_exit_probability(
        lat, a.L, a.replicas, rng, workers=a.workers)],
}


def _cmd_records(args) -> int:
    """Run the subcommand's experiment; attach its wall time to the results
    only when --timing is set."""
    lat = _lattice(args)
    rng = RngStream(_resolve_seed(args))
    t0 = time.perf_counter()
    results = RECORD_EXPERIMENTS[args.command](args, lat, rng)
    if args.timing:
        dt = time.perf_counter() - t0
        for r in results:
            r.wall_time_s = dt
    _emit_results(results, args)
    _warn_truncation(results)
    return 0


GRID_EXPERIMENTS = ("cylinder-delta", "cylinder-exit", "transience")


def run_grid(args) -> int:
    """Sweep N and L lists over one experiment, one CSV row per grid point.

    Rows are ordered N-major then L; the point with index i is the record of
    the experiment's own subcommand run with that N and L and seed (base seed
    XOR i), so points are independent but reproducible.  Transience takes
    no N and reads L as its one level.  An empty sweep list yields a
    header-only table.
    """
    if args.experiment not in GRID_EXPERIMENTS:
        raise PreconditionError(
            f"grid supports {', '.join(GRID_EXPERIMENTS)}; got {args.experiment!r}"
        )
    lat = _lattice(args)
    transience = args.experiment == "transience"
    points = [(n, l) for n in ([0] if transience else args.N) for l in args.L]
    if len(points) > GRID_GUARD:
        raise PreconditionError(f"grid has {len(points)} points, guard is {GRID_GUARD}")
    seed = _resolve_seed(args)
    run = RECORD_EXPERIMENTS[args.experiment]
    results = []
    for i, (n, l) in enumerate(points):
        point = argparse.Namespace(**{**vars(args), "N": n, "L": [l] if transience else l})
        results += run(point, lat, RngStream(seed ^ i))
    _emit(_records_csv([r.to_record() for r in results]), args)
    _warn_truncation(results)
    return 0


# -- parser ----------------------------------------------------------------


WEIGHTS_HELP = "weights alpha_1,beta_1,...,alpha_d,beta_d (positive reals)"
RECORD_FORMATS = ("json", "csv")


def _add_weights(p, help=WEIGHTS_HELP):
    p.add_argument("--alpha", default=None, help=help)
    p.add_argument("--d", type=int, default=None,
                   help="dimension check against --alpha (optional)")


def _add_lattice(p):
    """Cylinder size: transverse period --N and length --L."""
    p.add_argument("--N", type=int, default=1, help="transverse torus period (default 1)")
    p.add_argument("--L", type=int, default=4, help="cylinder length (default 4)")


def _add_graph_source(p):
    p.add_argument("--graph-file", default=None,
                   help="graph in the text format (vertices/edge lines)")
    _add_weights(p, help="weights alpha_1,beta_1,... for a lattice-derived graph")
    p.add_argument("--torus", type=_int_list, default=None,
                   help="torus periods p_1,...,p_d to build from --alpha")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: RWRE_SEED env var, else {DEFAULT_SEED})")


def _add_run(p, replicas: int, steps=True, timing=True):
    """Flags of a seeded Monte Carlo run."""
    _add_seed(p)
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="worker processes, the caller included, capped at the available "
                        "CPUs; affects speed only, never results (default 1)")
    if timing:
        p.add_argument("--timing", action="store_true",
                       help="record wall time in the output (off by default so reruns are byte-identical)")
    p.add_argument("--replicas", type=_int_at_least(0), default=replicas,
                   help=f"Monte Carlo replicas (default {replicas})")
    if steps:
        p.add_argument("--steps", type=_int_at_least(1), default=DEFAULT_STEP_CAP,
                       help=f"step cap per walk (default {DEFAULT_STEP_CAP})")


def _add_output(p, formats=()):
    """--out, and --format limited to the formats the subcommand writes
    (the first is the default)."""
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0],
                       help=f"output format (default {formats[0]})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged (each call returns a fresh namespace, string defaults are
    converted anew, and stderr and the terminal width are read at the
    call), so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="rwre",
        description="Random walks in Dirichlet environments: exact identities and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-env", help="sample one environment and dump it")
    _add_graph_source(p)
    _add_lattice(p)
    _add_seed(p)
    _add_output(p, ("text",))
    p.set_defaults(func=_cmd_sample_env)

    p = sub.add_parser("annealed-prob",
                       help="exact annealed path probability, optionally with a Monte Carlo check")
    _add_graph_source(p)
    p.add_argument("--path", required=True,
                   help="path literal: vertex ids `0,1,0`, steps `+1,-1`, or edges `e0,e3`")
    p.add_argument("--origin", type=int, default=0,
                   help="start vertex for step literals (default 0)")
    _add_run(p, replicas=0, steps=False)
    _add_output(p, ("json",))
    p.set_defaults(func=_cmd_annealed_prob)

    p = sub.add_parser("cycle-check", help="exact cycle-reversal identity on one cycle")
    _add_graph_source(p)
    p.add_argument("--path", required=True, help="cycle literal (must return to its start)")
    p.add_argument("--origin", type=int, default=0,
                   help="start vertex for step literals (default 0)")
    _add_output(p, ("json",))
    p.set_defaults(func=_cmd_cycle_check)

    p = sub.add_parser("reverse-check",
                       help="reversed Dirichlet environment vs exact annealed values, all short paths")
    _add_graph_source(p)
    p.add_argument("--k", type=int, default=3, help="maximum path length (default 3)")
    p.add_argument("--root", type=int, default=0, help="path enumeration root (default 0)")
    _add_run(p, replicas=100_000, steps=False)
    _add_output(p, ("text", "json"))
    p.set_defaults(func=_cmd_reverse_check)

    p = sub.add_parser("cylinder-delta",
                       help="right-face return probability of the augmented cylinder")
    _add_weights(p)
    _add_lattice(p)
    _add_run(p, replicas=100_000)
    _add_output(p, RECORD_FORMATS)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("cylinder-exit",
                       help="probability of exiting the plain cylinder to the right")
    _add_weights(p)
    _add_lattice(p)
    _add_run(p, replicas=100_000)
    _add_output(p, RECORD_FORMATS)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("transience", help="lattice estimate of P(T_L < D) per level L")
    _add_weights(p)
    p.add_argument("--L", type=_int_list, default="10,30",
                   help="comma list of levels (default 10,30)")
    _add_run(p, replicas=10_000)
    _add_output(p, RECORD_FORMATS)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("trap-check", help="zero-speed trap inequality for one axis")
    _add_weights(p)
    p.add_argument("--axis", type=int, default=1, help="axis i of the inequality (default 1)")
    _add_output(p)
    p.set_defaults(func=_cmd_trap_check)

    p = sub.add_parser("velocity", help="mean abscissa over n at increasing horizons")
    _add_weights(p)
    p.add_argument("--horizons", type=_int_list, default="1000",
                   help="comma list of horizons n (default 1000)")
    _add_run(p, replicas=1_000, steps=False)
    _add_output(p, RECORD_FORMATS)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("ruin", help="d=1 averaged gambler's-ruin oracle for cylinder-exit")
    _add_weights(p, help="weights alpha_1,beta_1 (d=1)")
    p.add_argument("--L", type=int, default=4, help="target abscissa (default 4)")
    _add_run(p, replicas=100_000, steps=False)
    _add_output(p, RECORD_FORMATS)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("grid", help="sweep N and L lists over one experiment into CSV")
    p.add_argument("experiment", help=f"one of {', '.join(GRID_EXPERIMENTS)}")
    _add_weights(p)
    p.add_argument("--N", type=_int_list, default="1",
                   help="comma list of transverse periods (default 1)")
    p.add_argument("--L", type=_int_list, default="4",
                   help="comma list of lengths/levels (default 4)")
    _add_run(p, replicas=10_000, timing=False)
    _add_output(p, ("csv",))
    # `run_grid` is looked up when called, not when the parser is built, so
    # the cached parser calls whatever the module binds to that name then
    p.set_defaults(func=lambda args: run_grid(args))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
