"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of every rwre module, plus the two
`RngStream` generator methods, from outside the package: each replaced module
attribute is recorded and put back by `uninstall`.  A wrapped call records a
span (run id, span id, parent span id, name, start, end); spans stay in
memory and are written out once, when the run ends.  A few wrappers also
record counts at the same boundary (rows sampled, degenerate rows, stationary
solves, exact paths, walker-steps), so ratios are measured where the work
happens.

A layer is an rwre module; a span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import math
import threading
import time

import numpy as np

# rwre modules whose public functions are traced; each is one layer.
LAYERS = ("cli", "experiments", "annealed", "reversal", "environment", "graph",
          "parallel", "rng", "stopping")

WALK_FUNCTIONS = ("experiments.cylinder_delta_exit", "experiments.cylinder_exit_from_origin")
LATTICE_FUNCTIONS = ("experiments.lattice_transience", "experiments.velocity_probe")
EXACT_FUNCTIONS = ("annealed.annealed_path_probability_exact",
                   "annealed.annealed_log_path_probability",
                   "annealed.annealed_log_paths_batch")
URN_FUNCTIONS = ("annealed.urn_path_probability", "annealed.reinforced_walk",
                 "annealed.reinforced_trace_frequency")
WALK_CHUNKS = frozenset(f"{name}.chunk" for name in WALK_FUNCTIONS)

WRAPPED_MARK = "__perfbench_wrapped__"


class CountingGenerator:
    """Forwards to a numpy Generator, counting the uniforms that a lockstep
    cylinder chunk draws (one per active walker per step).  The bitstream is
    the wrapped generator's own."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        stack = self._tracer._stack()
        if stack and stack[-1][1] in WALK_CHUNKS:
            # Only this chunk's thread writes its span's counts.
            counts = self._tracer.counts.setdefault(stack[-1][0], {"walker_steps": 0})
            counts["walker_steps"] += size if isinstance(size, int) else math.prod(size)
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _rows_and_degenerate(args, kwargs, probs):
    g = args[0] if args else kwargs["g"]
    finite = np.isfinite(probs[..., g.out_edge_ids])
    rows_ok = np.logical_and.reduceat(finite, g.out_offsets[:-1], axis=-1)
    return {"rows": int(rows_ok.size), "degenerate_rows": int(rows_ok.size - rows_ok.sum())}


def _experiment_outcomes(args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    return {"undecided": sum(r.undecided for r in results),
            "replicas": sum(r.replicas for r in results)}


# Counts recorded on the span of a call, computed from its arguments and result.
COUNTERS = {
    "environment.sample_environment_batch": _rows_and_degenerate,
    "reversal.stationary_batch": lambda a, k, r: {"envs": int(r.shape[0])},
    "annealed.annealed_log_path_probability": lambda a, k, r: {"paths": 1},
    "annealed.annealed_log_paths_batch": lambda a, k, r: {"paths": int(r.shape[0])},
    "experiments.cylinder_delta_exit": _experiment_outcomes,
    "experiments.cylinder_exit_from_origin": _experiment_outcomes,
    "experiments.lattice_transience": _experiment_outcomes,
}


class Tracer:
    """Span recorder plus the set of module attributes it replaced."""

    def __init__(self):
        self.spans = []      # (run, span id, parent id, name, start, end)
        self.counts = {}     # span id -> {counter: value}
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []   # (namespace owner, attribute, original object)

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.run, sid, parent, name, start, end))
        counter = COUNTERS.get(name)
        if counter is not None:
            # Counting is tracing work: it gets its own span so that it is not
            # charged to the caller's self time.
            t0 = time.perf_counter()
            self.counts[sid] = counter(args, kwargs, result)
            t1 = time.perf_counter()
            self.spans.append((self.run, next(self._ids), parent, "trace.count", t0, t1))
        return result

    def root(self, run, fn, *args):
        """Run fn(*args) under a root span `bench.pass` of a fresh run id."""
        self.run = run
        return self._call("bench.pass", fn, args, {})

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "parallel.run_chunked":
            return self._wrap_run_chunked(fn)
        if name == "rng.RngStream.generator":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return CountingGenerator(self._call(name, fn, args, kwargs), self)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _wrap_run_chunked(self, fn):
        name = "parallel.run_chunked"

        @functools.wraps(fn)
        def wrapper(chunk_fn, *args, **kwargs):
            stack = self._stack()
            # Chunk bodies are the caller's code: they are charged to the
            # caller's layer, as children of the run_chunked span.
            owner = stack[-1][1] if stack else "bench.pass"
            box = {}

            def traced_chunk(*cargs):
                return self._call(f"{owner}.chunk", chunk_fn, cargs, {}, parent=box["sid"])

            def run(*rargs, **rkwargs):
                box["sid"] = self._stack()[-1][0]
                return fn(traced_chunk, *rargs, **rkwargs)

            return self._call(name, run, args, kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def install(self):
        """Replace every binding of each traced function in every rwre module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("rwre")
        modules = {layer: importlib.import_module(f"rwre.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for owner in (package, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(owner, attr, hit[1])
        stream = modules["rng"].RngStream
        for attr in ("generator", "keyed_generator"):
            self._patch(stream, attr, self._wrap(f"rng.RngStream.{attr}", stream.__dict__[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every replaced attribute; returns the (owner, attribute,
        original) records of what was replaced."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return patches

    @staticmethod
    def restored(patches) -> list:
        """Attributes that are not the original object again, or wrappers left
        anywhere in the package; empty when uninstall restored everything."""
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
               if vars(o).get(a) is not orig]
        package = importlib.import_module("rwre")
        owners = [package, *(importlib.import_module(f"rwre.{layer}") for layer in LAYERS)]
        owners.append(importlib.import_module("rwre.rng").RngStream)
        for owner in owners:
            for attr, obj in vars(owner).items():
                if getattr(obj, WRAPPED_MARK, False):
                    bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for run, sid, parent, name, start, end in self.spans:
                rec = {"run": run, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if sid in self.counts:
                    rec["counts"] = self.counts[sid]
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    out = {}
    for _, sid, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c in sorted(children.get(sid, ()), key=lambda s: s[4]):
            lo, hi = max(c[4], cursor), min(c[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def family_of(name: str) -> str:
    """Span name without a trailing `.chunk`: a chunk belongs to its caller."""
    return name[: -len(".chunk")] if name.endswith(".chunk") else name


def pass_profile(spans, counts) -> dict:
    """Per-layer figures of one traced pass (one run id, one root span)."""
    selfs = self_times(spans)
    names = {s[1]: s[3] for s in spans}
    root = [s for s in spans if s[3] == "bench.pass"]
    wall = root[0][5] - root[0][4]

    def busy(match):
        """Total duration of outermost spans whose name matches."""
        return sum(s[5] - s[4] for s in spans
                   if match(s[3]) and not match(names.get(s[2], "")))

    def self_of(functions):
        return sum(selfs[s[1]] for s in spans if family_of(s[3]) in functions)

    def count(key):
        return sum(c.get(key, 0) for sid, c in counts.items() if sid in selfs)

    def n_calls(name):
        return sum(1 for s in spans if s[3] == name)

    layer_self = {}
    for s in spans:
        layer = layer_of(s[3])
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s[1]]

    sample_busy = busy(lambda n: n == "environment.sample_environment_batch")
    rows = count("rows")
    walk_self = self_of(WALK_FUNCTIONS)
    exact_busy = busy(lambda n: n in EXACT_FUNCTIONS)
    paths = count("paths")
    stat_busy = busy(lambda n: n == "reversal.stationary_batch")
    envs = count("envs")
    replicas = count("replicas")
    walker_steps = count("walker_steps")
    chunk_spans = [s for s in spans if s[3].endswith(".chunk")]
    return {
        "wall_s": wall,
        "layer_self_s": layer_self,
        "rng.keyed_generator.calls": n_calls("rng.RngStream.keyed_generator"),
        "rng.keyed_generator.busy_s": busy(lambda n: n == "rng.RngStream.keyed_generator"),
        "rng.generator.calls": n_calls("rng.RngStream.generator"),
        "rng.generator.busy_s": busy(lambda n: n == "rng.RngStream.generator"),
        "environment.sample_batch.rows": rows,
        "environment.sample_batch.busy_s": sample_busy,
        "environment.sample_batch.rows_per_s": _ratio(rows, sample_busy),
        "environment.degenerate_rows": count("degenerate_rows"),
        "experiments.walk.walker_steps": walker_steps,
        "experiments.walk.self_s": walk_self,
        "experiments.walk.walker_steps_per_s": _ratio(walker_steps, walk_self),
        "experiments.lattice.self_s": self_of(LATTICE_FUNCTIONS),
        "experiments.undecided_frac": _ratio(count("undecided"), replicas),
        "annealed.exact.paths": paths,
        "annealed.exact.paths_per_s": _ratio(paths, exact_busy),
        "annealed.mc.busy_s": busy(lambda n: n == "annealed.annealed_path_probability_mc"),
        "annealed.urn.busy_s": busy(lambda n: n in URN_FUNCTIONS),
        "reversal.stationary_batch.envs": envs,
        "reversal.stationary_batch.envs_per_s": _ratio(envs, stat_busy),
        "reversal.verify.self_s": self_of(("reversal.verify_reversal_distribution",)),
        "parallel.chunks": len(chunk_spans),
        "parallel.chunk_busy_s": sum(s[5] - s[4] for s in chunk_spans),
        "parallel.run_chunked_s": busy(lambda n: n == "parallel.run_chunked"),
        "graph.build_s": busy(lambda n: layer_of(n) == "graph"),
        "cli.self_s": layer_self.get("cli", 0.0),
    }


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0
