"""rwre benchmark harness.

    python3 perfbench/run.py --workload {lattice,cylinder,identities} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the harness imports rwre from
`src/` of that checkout and nowhere else, and fails (exit status 1, no
result line) when it is missing.  One process runs the measurement, calling
`rwre.cli.main` in-process and the library API; only the set-up probes and
the host gauge's helper start fresh interpreters.

`--trace 0` measures the end-to-end metrics with tracing off.  The run draws
a fixed number of inputs from the seed and cycles over them until `--seconds`
have passed (at least two rounds); each pass runs one input at `workers=1`
and at `workers=2`, in alternating order.  A throughput is the replicas of
all inputs over the sum of each input's median pass time.  On the
workloads that calibrate.TASKS gauges, each pass time is first divided by
the host factor that calibrate.HostGauge reads during the pass.  `setup_s`
is the
median of nine fresh interpreters that import rwre and build the inputs,
spread over the same window.

`--trace 1` runs untraced and traced passes on fresh inputs (see tracer.py)
and reports the per-layer metrics, medians over the traced passes.

Every pass checks its outputs (see workloads.py) and compares each call's
records byte for byte with the first run of the same inputs.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A check fails as an error (an exception or a non-finite estimate) or as
wrong (a missed reference, or records that differ between runs).  The
printed `failed_frac` counts every failed check.  The result object's
`attempted` and `failed` leave out the known errors named in
workloads.KNOWN_ERRORS, which are printed and recorded on their own;
`correct` is false when any other check failed.  Provenance,
a tally of the checks and the pass times go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import TASKS, HostGauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_PASSES = 2
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "replicas_per_s": "replicas/s",
    "replicas_per_s_w2": "replicas/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.keyed_generator.calls": "count",
    "rng.keyed_generator.busy_s": "s",
    "rng.generator.calls": "count",
    "rng.generator.busy_s": "s",
    "environment.sample_batch.rows": "count",
    "environment.sample_batch.busy_s": "s",
    "environment.sample_batch.rows_per_s": "rows/s",
    "environment.degenerate_rows": "count",
    "experiments.walk.walker_steps": "count",
    "experiments.walk.self_s": "s",
    "experiments.walk.walker_steps_per_s": "steps/s",
    "experiments.lattice.self_s": "s",
    "experiments.undecided_frac": "ratio",
    "annealed.exact.paths": "count",
    "annealed.exact.paths_per_s": "paths/s",
    "annealed.mc.busy_s": "s",
    "annealed.urn.busy_s": "s",
    "reversal.stationary_batch.envs": "count",
    "reversal.stationary_batch.envs_per_s": "envs/s",
    "reversal.verify.self_s": "s",
    "parallel.chunks": "count",
    "parallel.chunk_busy_s": "s",
    "parallel.idle_frac_w2": "ratio",
    "parallel.speedup_w2": "ratio",
    "graph.build_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_rwre():
    """Import rwre from this checkout's src/, refusing any other copy."""
    if not (SRC / "rwre" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rwre package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwre
    if Path(rwre.__file__).resolve().parent != (SRC / "rwre").resolve():
        sys.exit(f"perfbench: imported rwre from {rwre.__file__}, not from {SRC}")
    return rwre


def git_sha():
    """HEAD commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, args):
    import numpy
    import scipy
    import rwre.parallel
    digest = hashlib.sha256()
    for path in sorted((SRC / "rwre").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chunk_replicas": rwre.parallel.CHUNK_REPLICAS,
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- set-up ------------------------------------------------------------------


def probe_setup(workload, seed) -> float:
    """Seconds from starting a fresh interpreter until it has imported rwre and
    built the workload, ready for its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return elapsed


# -- passes ------------------------------------------------------------------


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k: every pass draws fresh inputs, all fixed by --seed."""
    return seed * 1_000_000 + k


def run_call(call, workers, texts, errors):
    """Run one call into texts; a call that raised gets text None and an
    entry in errors."""
    try:
        texts[call.name] = call.run(workers)
    except Exception as exc:   # a failed call is a failed check, not a crash
        texts[call.name] = None
        errors[call.name] = f"{type(exc).__name__}: {exc}"


def run_pass(wl, workers):
    """Run every call once; returns (texts, errors) keyed by call name."""
    texts, errors = {}, {}
    for call in wl.calls:
        run_call(call, workers, texts, errors)
    return texts, errors


def grade(wl, texts, errors):
    """Each call's own checks on one pass."""
    from workloads import ERROR
    out = []
    for call in wl.calls:
        if call.name in errors:
            out.append((call.name, ERROR, errors[call.name]))
            continue
        try:
            out.extend(call.check(texts))
        except Exception as exc:
            out.append((call.name, ERROR, f"check raised {type(exc).__name__}: {exc}"))
    return out


def compare(wl, texts, reference, label):
    """One check per call: its records are byte-identical to the reference's.
    A call without records (it raised) fails."""
    from workloads import ERROR, PASS, WRONG
    out = []
    for call in wl.calls:
        a, b = texts[call.name], reference[call.name]
        if a is None or b is None:
            out.append((f"{call.name} records {label}", ERROR, "no records: the call raised"))
        else:
            out.append((f"{call.name} records {label}", PASS if a == b else WRONG, ""))
    return out


def completed(wl, errors):
    """Replicas of the calls that returned."""
    return sum(call.replicas for call in wl.calls if call.name not in errors)


def timed_pass(wl, workers, gauge=None):
    """Run every call once; returns the calls' time, the host factor, texts
    and errors.  With a gauge, it is read before each call and the host
    factor is the median reading; without one it is 1."""
    texts, errors, refs = {}, {}, []
    dt = 0.0
    for call in wl.calls:
        if gauge is not None:
            refs.append(gauge.read())
        t0 = time.perf_counter()
        run_call(call, workers, texts, errors)
        dt += time.perf_counter() - t0
    factor = statistics.median(refs) if refs else 1.0
    return dt, factor, texts, errors


def measure(build, n_inputs, seconds, probe, gauge):
    """Time passes until `seconds` have passed, cycling over `n_inputs` fixed
    inputs; each pass runs at workers=1 and at workers=2, in alternating
    order.  Returns, per worker count and input, the pass times over the
    host factor, the raw pass times and the replicas completed in each
    pass.

    Set-up probes are spread evenly over the same window.  Every run of an
    input after its first must give byte-identical records."""
    inputs = [build(j + 1) for j in range(n_inputs)]
    times = {w: [[] for _ in inputs] for w in (1, 2)}
    raw = {w: [[] for _ in inputs] for w in (1, 2)}
    done = {w: [[] for _ in inputs] for w in (1, 2)}
    first = [None] * n_inputs
    checks, probes = [], []
    t_start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS * n_inputs or time.perf_counter() < t_start + seconds:
        if (len(probes) < SETUP_PROBES
                and time.perf_counter() >= t_start + len(probes) * seconds / SETUP_PROBES):
            probes.append(probe())
        j = k % n_inputs
        wl = inputs[j]
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            dt, factor, texts, errors = timed_pass(wl, workers, gauge)
            times[workers][j].append(dt / factor)
            raw[workers][j].append(dt)
            done[workers][j].append(completed(wl, errors))
            checks += grade(wl, texts, errors)
            if first[j] is None:
                first[j] = texts
            else:
                checks += compare(wl, texts, first[j],
                                  f"workers={workers} == first run of the same inputs")
        k += 1
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    return times, raw, done, checks, probes


def throughput(done, times):
    """Replicas completed, summed over inputs, over the sum of each input's
    median pass time; both per input are medians over its passes."""
    return (sum(statistics.median(d) for d in done)
            / sum(statistics.median(t) for t in times))


def traced_pass(tracer, run, wl, workers):
    """One pass under the tracer; returns its time, texts, profile and the
    check that every wrapped attribute was restored afterwards."""
    from tracer import pass_profile
    from workloads import PASS, WRONG
    tracer.install()
    try:
        t0 = time.perf_counter()
        texts, errors = tracer.root(run, run_pass, wl, workers)
        dt = time.perf_counter() - t0
    finally:
        patches = tracer.uninstall()
    bad = tracer.restored(patches)
    checks = [("traced pass restores every wrapped attribute", WRONG if bad else PASS,
               f"not restored: {bad}" if bad else "")]
    checks += grade(wl, texts, errors)
    profile = pass_profile([s for s in tracer.spans if s[0] == run], tracer.counts)
    profile["pass_s"] = dt
    return texts, profile, checks


def measure_traced(build, seconds, setup_build_s):
    """Triples of passes on fresh inputs (untraced workers=1, traced
    workers=1, traced workers=2) until `seconds` have passed; returns the
    per-layer metrics, the checks, the tracer and a summary."""
    from tracer import Tracer
    tracer = Tracer()
    untraced, traced = [], {1: [], 2: []}
    checks = []
    t_end = time.perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < t_end:
        k += 1
        wl = build(k)
        order = ("plain", 1, 2) if k % 2 else (1, "plain", 2)
        texts = {}
        for kind in order:
            if kind == "plain":
                dt, _, texts[kind], errors = timed_pass(wl, 1)
                untraced.append(dt)
                checks += grade(wl, texts[kind], errors)
                continue
            texts[kind], profile, more = traced_pass(tracer, f"{wl.name}-p{k}-w{kind}", wl, kind)
            traced[kind].append(profile)
            checks += more
        checks += compare(wl, texts[1], texts["plain"], "traced == untraced")
        checks += compare(wl, texts[2], texts["plain"], "traced workers=2 == untraced workers=1")

    w1, w2 = traced[1], traced[2]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in w1[0]:
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(p[name] for p in w1)
    metrics["graph.build_s"] += setup_build_s
    metrics["parallel.idle_frac_w2"] = statistics.median(
        1.0 - p["parallel.chunk_busy_s"] / (2.0 * p["parallel.run_chunked_s"]) for p in w2)
    metrics["parallel.speedup_w2"] = (
        statistics.median(p["parallel.run_chunked_s"] for p in w1)
        / statistics.median(p["parallel.run_chunked_s"] for p in w2))
    metrics["trace.overhead_frac"] = (
        statistics.median(p["pass_s"] for p in w1) / statistics.median(untraced) - 1.0)
    typical = sorted(w1, key=lambda p: p["wall_s"])[(len(w1) - 1) // 2]
    detail = {"untraced_pass_s": untraced,
              "traced_pass_s": {w: [p["pass_s"] for p in v] for w, v in traced.items()},
              "median_pass_layer_self_s": dict(sorted(typical["layer_self_s"].items())),
              "median_pass_wall_s": typical["wall_s"],
              "median_pass_timed_s": typical["pass_s"]}
    return metrics, checks, tracer, detail


def traced_setup(build):
    """Build the first pass's workload under the tracer; returns it and the
    time its graph builders took."""
    from tracer import Tracer, layer_of
    tracer = Tracer()
    tracer.install()
    try:
        wl = tracer.root("setup", build, 0)
    finally:
        tracer.uninstall()
    names = {s[1]: s[3] for s in tracer.spans}
    build_s = sum(s[5] - s[4] for s in tracer.spans
                  if layer_of(s[3]) == "graph" and layer_of(names.get(s[2], "")) != "graph")
    return wl, build_s


# -- main --------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("lattice", "cylinder", "identities"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_rwre()
    import workloads

    def build(k):
        return workloads.WORKLOADS[args.workload](pass_seed(args.seed, k))

    if args.setup_probe:
        build(0)
        print("ready", flush=True)
        return 0

    if args.trace:
        wl, setup_build_s = traced_setup(build)
    else:
        wl = build(0)
    texts, errors = run_pass(wl, 1)   # warm-up, checked but not timed
    checks = grade(wl, texts, errors)

    if args.trace:
        metrics, more, tracer, detail = measure_traced(build, args.seconds, setup_build_s)
        units = PER_LAYER_UNITS
    else:
        gauged = args.workload in TASKS
        with (HostGauge(args.workload) if gauged else contextlib.nullcontext()) as gauge:
            times, raw, done, more, probes = measure(
                build, workloads.INPUTS_PER_RUN[args.workload], args.seconds,
                lambda: probe_setup(args.workload, args.seed), gauge)
        metrics = {
            "replicas_per_s": throughput(done[1], times[1]),
            "replicas_per_s_w2": throughput(done[2], times[2]),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail = {"host_gauged": gauged,
                  "raw_replicas_per_s": throughput(done[1], raw[1]),
                  "raw_replicas_per_s_w2": throughput(done[2], raw[2]),
                  "pass_s": raw, "gauged_pass_s": times, "replicas_done": done,
                  "setup_probes_s": probes}
    checks += more

    failed = [c for c in checks if c[1] != workloads.PASS]
    known = [c for c in failed if c[1] == workloads.ERROR and c[0] in workloads.KNOWN_ERRORS]
    result = {
        "correct": len(failed) == len(known),
        "attempted": len(checks) - len(known),
        "failed": len(failed) - len(known),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    tally = {}
    for name, status, _ in checks:
        tally.setdefault(name, {}).setdefault(status, 0)
        tally[name][status] += 1

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args.workload, args.seed, args), "result": result,
              "failed_frac": len(failed) / len(checks), "known_errors": len(known),
              "detail": detail, "checks": tally,
              "failed_checks": sorted({(n, s, i) for n, s, i in failed})}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")

    print("provenance " + json.dumps(record["provenance"]))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    if not args.trace and detail["host_gauged"]:
        print(f"raw (not host-gauged) replicas_per_s {detail['raw_replicas_per_s']!r}, "
              f"replicas_per_s_w2 {detail['raw_replicas_per_s_w2']!r} replicas/s")
    print(f"failed_frac {record['failed_frac']!r} ratio ({len(failed)} of {len(checks)} checks, "
          f"{len(known)} of them known errors)")
    for name, status, info in record["failed_checks"]:
        tag = ", known" if status == workloads.ERROR and name in workloads.KNOWN_ERRORS else ""
        print(f"failed check [{status}{tag}] {name}: {info}")
    if args.trace:
        wall = detail["median_pass_wall_s"]
        layers = detail["median_pass_layer_self_s"]
        for layer, s in layers.items():
            print(f"layer {layer} self {s:.6f} s ({s / wall:.1%} of the traced pass)")
        print(f"layer sum {sum(layers.values()):.6f} s, traced wall {wall:.6f} s, "
              f"timed outside the tracer {detail['median_pass_timed_s']:.6f} s "
              "(the traced workers=1 pass of median wall time)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
