import hashlib
import itertools
import math
import os
import platform
import select
import subprocess
import sys
import textwrap
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwre import (
    CylinderSpec,
    LatticeSpec,
    PreconditionError,
    RngStream,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
    lattice_transience,
    parallel,
    velocity_probe,
)
from rwre.cli import main as cli_main
from rwre.experiments import _walk_chunk_size
from rwre.parallel import CHUNK_REPLICAS, Moments, chunk_sizes, run_chunked
from rwre.rng import block_uniforms
from common import draw, pid, reciprocal, refuse_one, slow_draw

SRC = str(Path(parallel.__file__).resolve().parents[1])


@pytest.fixture
def worker_pool(monkeypatch):
    """A fresh worker pool for one test, with 3 CPUs, so that no test starts
    more than two workers; its workers are stopped when the test ends."""
    fresh = parallel._Pool()
    monkeypatch.setattr(parallel, "_POOL", fresh)
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 3)
    yield fresh
    assert len(fresh.procs) <= 2
    fresh.close()


def serving(pool, count):
    """Start `count` workers of `pool` and wait until each serves, so that
    the next call sends them their shares (a call does not wait for a worker
    that is still starting)."""
    for proc in pool._workers(count):
        select.select([proc.stdout], [], [], 60)
        assert pool._ready(proc)


def test_stream_reproducible_and_restartable():
    s = RngStream(123, 4)
    a = s.generator().random(10)
    b = s.generator().random(10)
    assert np.array_equal(a, b)


def test_streams_differ():
    s = RngStream(123)
    a = s.with_stream(0).generator().random(10)
    b = s.with_stream(1).generator().random(10)
    c = RngStream(124).generator().random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, -2)


def test_block_uniforms_equal_one_draw():
    # blocks of 64, 128, ..., 1024, 1024, ... give the uniforms of one call
    uniforms = block_uniforms(RngStream(9).generator())
    drawn = list(itertools.islice(uniforms, 5000))
    assert drawn == RngStream(9).generator().random(5000).tolist()


def test_numpy_bitstream_canary():
    # Every digest test pins records drawn from numpy's Philox uniforms and
    # standard_gamma, which rwre reproduces only per numpy version.  If this
    # digest moves, numpy changed the stream and those digests fail with it;
    # shapes below and above 1 cover both of numpy's Gamma samplers.
    gen = RngStream(2009, 3).generator()
    uniforms = gen.random(64)
    gammas = gen.standard_gamma([0.01, 0.3, 1.0, 2.0, 7.5], size=(8, 5))
    blob = np.concatenate([uniforms, gammas.ravel()]).astype("<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "d011d6ad58657aa0f1a9e9a8eaf462a82b032140a8b6bf50c102eb30440580ff"
    ), f"numpy {np.__version__} draws a different Philox/standard_gamma stream"


def test_numpy_scalar_gamma_shape_canary():
    # sample_rows draws the Gammas of rows that share one shape with that
    # shape as a scalar, which skips numpy's broadcast loop; the records stay
    # put only while both forms draw the same values
    for shape in (0.003, 0.3, 1.0, 2.5):
        scalar = RngStream(2009, 3).generator().standard_gamma(shape, size=(64, 7))
        array = RngStream(2009, 3).generator().standard_gamma(np.full(7, shape), size=(64, 7))
        assert scalar.tobytes() == array.tobytes(), f"numpy {np.__version__}, shape {shape}"


def test_numpy_reduceat_order_canary():
    # Dirichlet rows of up to 8 out-edges are summed by strided column adds
    # in the order `np.add.reduceat` adds a segment of up to 8 terms,
    # a0 + ((a1 + a2) + a3), one term at a time after the first, and the
    # sampler tests compare them with reduceat bit for bit.  If numpy changes
    # that order, those tests fail with this one, which says why.  With
    # a0 = 1 and two terms of 2^-53 the orders differ: ((1 + 2^-53) + 2^-53)
    # rounds to 1, and 1 + (2^-53 + 2^-53) does not.
    tiny = 2.0 ** -53
    for d in range(3, 9):
        row = np.array([1.0, tiny, tiny] + [0.0] * (d - 3))
        got = np.add.reduceat(np.tile(row, (2, 3)), [0, d, 2 * d], axis=-1)
        assert got.tolist() == [[1.0 + 2 * tiny] * 3] * 2, \
            f"numpy {np.__version__} reorders reduceat at d={d}"
    rows = np.random.default_rng(5).standard_gamma(0.3, size=(64, 8 * 5))
    for d in range(2, 9):
        seg = rows[:, :d * 5]
        strided = seg[:, 1::d].copy()
        for j in range(2, d):
            strided += seg[:, j::d]
        strided = seg[:, ::d] + strided
        assert np.add.reduceat(seg, np.arange(0, d * 5, d), axis=-1).tobytes() == \
            strided.tobytes(), f"numpy {np.__version__} reorders reduceat at d={d}"


def test_keyed_generator_independent_of_access_order():
    s = RngStream(9, 2)
    first = s.keyed_generator(5, 7).random(4)
    # draw from other keys in between; the keyed stream must not move
    s.keyed_generator(5, 8).random(100)
    s.generator().random(100)
    again = s.keyed_generator(5, 7).random(4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, s.keyed_generator(7, 5).random(4))


def test_keyed_generator_disjoint_from_plain_stream():
    # even key element 0 must not collide with the unkeyed stream
    s = RngStream(9, 2)
    assert not np.array_equal(s.generator().random(4), s.keyed_generator(0).random(4))


def test_chunk_sizes_partition():
    assert chunk_sizes(5, 2) == [2, 2, 1]
    assert chunk_sizes(4, 2) == [2, 2]
    assert chunk_sizes(1, 2) == [1]
    assert sum(chunk_sizes(3 * CHUNK_REPLICAS + 17)) == 3 * CHUNK_REPLICAS + 17
    with pytest.raises(ValueError):
        chunk_sizes(0)


def test_run_chunked_order_and_worker_invariance(worker_pool):
    rng = RngStream(55)
    seq = run_chunked(draw, 10, rng, workers=1, chunk=3)
    serving(worker_pool, 2)
    for workers in (2, 3, 4):
        assert run_chunked(draw, 10, rng, workers=workers, chunk=3) == seq
    assert len(worker_pool.procs) == 2
    assert [s for s, _ in seq] == [3, 3, 3, 1]
    # chunk c draws from stream c of the seed
    assert [u for _, u in seq] == [float(RngStream(55, c).generator().random())
                                   for c in range(4)]


def test_caller_runs_share_zero_and_workers_the_rest(worker_pool):
    # chunk c runs in share c mod 3; share 0 is the calling process
    serving(worker_pool, 2)
    pids = run_chunked(pid, 5, RngStream(1), workers=3, chunk=1)
    workers = [p.pid for p in worker_pool.procs]
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] == workers[0] and pids[2] == workers[1]


def test_closure_runs_in_process(worker_pool):
    def local_pid(gen, size):
        return os.getpid(), draw(gen, size)

    got = run_chunked(local_pid, 10, RngStream(55), workers=2, chunk=3)
    assert [p for p, _ in got] == [os.getpid()] * 4
    assert [d for _, d in got] == run_chunked(draw, 10, RngStream(55), chunk=3)
    assert worker_pool.procs == []


def test_function_a_worker_cannot_load_runs_in_process(worker_pool, monkeypatch):
    # pickled by reference to a module that only this process has
    module = types.ModuleType("rwre_chunks_of_this_process_only")
    exec("import os\ndef pid(gen, size):\n    return os.getpid(), float(gen.random())",
         vars(module))
    monkeypatch.setitem(sys.modules, module.__name__, module)
    serving(worker_pool, 1)
    got = run_chunked(module.pid, 3, RngStream(6), workers=2, chunk=1)
    assert got == [(os.getpid(), u) for _, u in run_chunked(draw, 3, RngStream(6), chunk=1)]
    assert len(worker_pool.procs) == 1


def test_calls_from_several_threads_share_the_pool(worker_pool):
    # while one thread's call holds the pool the others run in-process
    serving(worker_pool, 1)
    expected = {s: run_chunked(draw, 6, RngStream(s), chunk=1) for s in range(8)}
    with ThreadPoolExecutor(max_workers=4) as threads:
        got = dict(zip(expected, threads.map(
            lambda s: run_chunked(slow_draw, 6, RngStream(s), workers=2, chunk=1),
            expected, timeout=60)))
    assert got == expected
    assert len(worker_pool.procs) == 1


def test_worker_error_reaches_the_caller(worker_pool):
    # sizes [2, 1]: the chunk of 1 runs on the worker
    serving(worker_pool, 1)
    with pytest.raises(PreconditionError, match="^chunk of 1 refused$"):
        run_chunked(refuse_one, 3, RngStream(2), workers=2, chunk=2)
    # the worker answered, so it serves the next call
    (worker,) = worker_pool.procs
    assert run_chunked(refuse_one, 4, RngStream(2), workers=2, chunk=2) == [2, 2]
    assert worker_pool.procs == [worker]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exits_two_on_a_worker_chunk_error(worker_pool, capsys):
    # at weight 0.004 and seed 8 chunk 0 samples no NaN row and chunk 1 one,
    # so the stationary solve fails in the worker's chunk
    argv = ["reverse-check", "--alpha", "0.004,0.004,0.004,0.004", "--torus", "2,2",
            "--k", "1", "--replicas", "16384", "--seed", "8"]
    serving(worker_pool, 1)
    errs = []
    for workers in ("1", "2"):
        assert cli_main([*argv, "--workers", workers]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: stationary solve gave a mass") and "first [8187]" in errs[0]
    assert len(worker_pool.procs) == 1


@pytest.mark.parametrize("experiment", [cylinder_delta_exit, cylinder_exit_from_origin])
def test_cylinder_record_equal_through_a_worker(worker_pool, experiment):
    # two chunks, so at two workers the 50-replica chunk crosses the pipe
    spec = CylinderSpec(N=1, L=1, lattice=LatticeSpec((2.0, 1.0, 1.0, 1.0)))
    serving(worker_pool, 1)
    records = [experiment(spec, CHUNK_REPLICAS + 50, RngStream(27), step_cap=5000,
                          workers=workers).to_record() for workers in (1, 2)]
    assert records[0] == records[1]
    assert len(worker_pool.procs) == 1


@pytest.mark.parametrize("run", [
    lambda workers: lattice_transience(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 4], 50, 200,
                                       RngStream(28), workers),
    lambda workers: velocity_probe(LatticeSpec((0.06, 0.05, 0.05, 0.05)), [8, 2], 50,
                                   RngStream(29), workers),
], ids=["transience", "velocity"])
def test_lattice_records_equal_through_a_worker(worker_pool, run):
    # 50 walks give two 25-walk chunks, so at two workers one crosses the pipe
    serving(worker_pool, 1)
    records = [[r.to_record() for r in run(workers)] for workers in (1, 2)]
    assert records[0] == records[1]
    assert len(worker_pool.procs) == 1


def test_lattice_walk_calls_split_in_halves_below_two_full_chunks():
    counts = (1, 2, 3, 50, 16382, 16383, 16385)
    assert {n: chunk_sizes(n, _walk_chunk_size(n)) for n in counts} == {
        1: [1], 2: [1, 1], 3: [2, 1], 50: [25, 25], 16382: [8191, 8191],
        16383: [8192, 8191], 16385: [8192, 8192, 1]}


def test_worker_warning_is_issued_again_in_the_caller(worker_pool):
    # sizes [2, 1]: numpy warns in the worker's chunk only
    serving(worker_pool, 1)
    for workers in (1, 2):
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            run_chunked(reciprocal, 3, RngStream(3), workers=workers, chunk=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_chunked(reciprocal, 3, RngStream(3), workers=workers,
                               chunk=2) == [1.0, np.inf]
        assert [(w.category, w.filename) for w in caught] == [
            (RuntimeWarning, reciprocal.__code__.co_filename)]
        # the worker runs under the caller's numpy error state
        with np.errstate(divide="ignore"):
            assert run_chunked(reciprocal, 3, RngStream(3), workers=workers,
                               chunk=2) == [1.0, np.inf]
    assert len(worker_pool.procs) == 1


def test_killed_worker_is_replaced(worker_pool):
    serving(worker_pool, 1)
    (dead,) = worker_pool.procs
    assert run_chunked(pid, 2, RngStream(4), workers=2, chunk=1) == [os.getpid(), dead.pid]
    dead.kill()
    dead.wait(timeout=10)
    # the next call starts a new worker and, not waiting for it, runs both
    # chunks itself
    assert run_chunked(pid, 2, RngStream(4), workers=2, chunk=1) == [os.getpid()] * 2
    (fresh,) = worker_pool.procs
    assert fresh.pid != dead.pid and fresh.poll() is None
    serving(worker_pool, 1)
    assert run_chunked(pid, 2, RngStream(4), workers=2, chunk=1) == [os.getpid(), fresh.pid]


def test_workers_capped_at_available_cpus(worker_pool, monkeypatch):
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
    rng = RngStream(5)
    assert (run_chunked(draw, 10, rng, workers=64, chunk=1)
            == run_chunked(draw, 10, rng, workers=1, chunk=1))
    assert len(worker_pool.procs) == 1


def test_workers_inherit_no_pipe_and_stop_with_their_caller():
    # The child holds an inheritable pipe across a workers=2 call: its read
    # end sees EOF once the child closes the write end only if no worker
    # kept a copy.  The workers are gone once the child has exited.
    script = textwrap.dedent("""
        import os, select
        from rwre import LatticeSpec, RngStream, parallel
        from rwre.experiments import ruin_exit_probability
        parallel._available_cpus = lambda: 2
        r, w = os.pipe()
        os.set_inheritable(w, True)
        ruin_exit_probability(LatticeSpec((2.0, 1.0)), 3, 20000, RngStream(1), workers=2)
        print(*[p.pid for p in parallel._POOL.procs])
        os.close(w)
        ready, _, _ = select.select([r], [], [], 10)
        print("eof" if ready and os.read(r, 1) == b"" else "held open")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.split("\n")
    pids = [int(p) for p in out[0].split()]
    assert len(pids) == 1 and out[1] == "eof"
    for p in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(p, 0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc's thresholds are fixed on glibc only")
def test_warm_calls_reuse_the_memory_freed_before_them():
    # A fresh interpreter, in which no earlier test has freed a block large
    # enough to raise malloc's thresholds.  With glibc's defaults, each
    # call below faulted in over 1000 fresh pages: its heap was trimmed
    # when the call before it ended.
    script = textwrap.dedent("""
        import resource
        import rwre
        torus = rwre.build_torus(rwre.LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])
        g, w = rwre.build_torus(rwre.LatticeSpec((0.1, 0.1)), [50])
        path = rwre.Trajectory.from_vertices(g, range(11))
        calls = [lambda s: rwre.verify_reversal_distribution(*torus, 4, 16384, rwre.RngStream(s)),
                 lambda s: rwre.annealed_path_probability_mc(g, w, path, 20000, rwre.RngStream(s))]
        for call in calls:
            faults = []
            for seed in range(4):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                call(seed)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(min(faults[2:]))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.split()
    assert [int(f) < 100 for f in out] == [True, True], out


def pool(parts):
    return sum((Moments.of(p) for p in parts), Moments())


def test_moments_pool_matches_numpy():
    rng = np.random.default_rng(56)
    data = rng.normal(3.0, 2.0, size=1000)
    m = pool(np.array_split(data, 7))
    assert m.n == data.size
    assert m.mean == pytest.approx(data.mean(), rel=1e-12)
    expected_se = data.std(ddof=1) / np.sqrt(data.size)
    assert m.standard_error == pytest.approx(expected_se, rel=1e-9)


def test_moments_columns_pool_independently():
    rng = np.random.default_rng(57)
    data = rng.normal([0.0, 5.0, -1e6], [1.0, 0.1, 3.0], size=(500, 3))
    m = pool(np.array_split(data, 4))
    assert m.mean == pytest.approx(data.mean(axis=0), rel=1e-12)
    expected_se = data.std(axis=0, ddof=1) / np.sqrt(500)
    assert m.standard_error == pytest.approx(expected_se, rel=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 340])
@pytest.mark.parametrize("n", [1, 3, 8192])
def test_moments_of_is_the_two_pass_formula_bit_for_bit(n, width, order):
    # in either memory order every bit equals the plain two-pass formula
    rng = np.random.default_rng(n * 1000 + width)
    values = np.asarray(rng.lognormal(0.0, 3.0, (n, width)), order=order)
    total = values.sum(axis=0)
    m2 = np.square(values - total / n).sum(axis=0)
    got = Moments.of(values)
    assert got.n == n
    assert got.total.tobytes() == total.tobytes()
    assert got.m2.tobytes() == m2.tobytes()


def test_moments_degenerate():
    m = Moments.of([4.0])
    assert m.mean == 4.0 and m.standard_error == 0.0
    assert (Moments() + m) is m and (m + Moments.of([])) is m
    assert np.isnan(Moments().mean) and Moments().standard_error == 0.0


def test_moments_bernoulli_values():
    # hits out of n: sample sd of the 0/1 indicators over sqrt n
    assert pool([np.zeros(0)]).standard_error == 0.0
    assert pool([np.ones(1)]).standard_error == 0.0
    hits = np.array([1.0] * 5 + [0.0] * 5)
    assert pool([hits]).standard_error == pytest.approx(1 / 6, rel=1e-12)
    assert pool(np.split(hits, [3, 4, 9])).standard_error == pytest.approx(1 / 6, rel=1e-12)


def exact_mean_and_se(values):
    """The mean and the standard error of `values` in exact rationals, each
    rounded once to a float at the end."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    mean = sum(xs) / n
    if n < 2:
        return float(mean), 0.0
    var = sum((x - mean) ** 2 for x in xs) / (n - 1) / n
    if var == 0:
        return float(mean), 0.0
    # scale by 4**k to about 1 first, so that the float is not subnormal
    k = (var.denominator.bit_length() - var.numerator.bit_length()) // 2
    return float(mean), math.ldexp(math.sqrt(var * 4 ** k), -k)


TINY = [6.09160780346593e-160, 4.521809517022454e-162, 2.5445367115811155e-159,
        5.985450005304746e-162]


# squared deviations below the normal range: at TINY the plain two-pass SE
# is off by 3.9e-6 relative, and at the second input numpy's `std` by 4e-9
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=300),
       st.lists(st.integers(0, 300), max_size=12))
@example(TINY, [])
@example(TINY, [1, 3])
@example([0.0] * 5 + [2.27e-158], [])
@example([0.0] * 5 + [2.27e-158], [5])
def test_moments_any_chunking_matches_two_pass(values, cuts):
    data = np.array(values)
    m = pool(np.split(data, sorted(cuts)))
    mean, se = exact_mean_and_se(values)
    # rounding scale: the error of any summation order is bounded by
    # n * eps * max|x|, so compare with that absolute slack as well
    scale = np.abs(data).max() * 1e-12
    assert m.n == data.size
    assert m.mean == pytest.approx(mean, rel=1e-12, abs=scale)
    assert m.standard_error == pytest.approx(se, rel=1e-9, abs=scale)


def test_moments_rescale_only_columns_below_the_floor():
    # a column of tiny values next to a plain one, pooled over three
    # chunks: the tiny column's SE is exact to rounding, and the plain
    # column keeps the two-pass formula's bits
    rng = np.random.default_rng(58)
    data = np.stack([rng.normal(size=400) * 1e-160, rng.normal(size=400)], axis=1)
    parts = np.split(data, [100, 250])
    m = pool(parts)
    assert m.standard_error[0] == pytest.approx(exact_mean_and_se(data[:, 0])[1], rel=1e-14)
    assert m.m2_exp[0] < 0 and m.m2_exp[1] == 0

    def two_pass(p):
        total = p.sum(axis=0)
        return len(p), total, np.square(p - total / len(p)).sum(axis=0)

    n, total, m2 = two_pass(parts[0])
    for p in parts[1:]:
        k, t, q = two_pass(p)
        delta = t / k - total / n
        n, total, m2 = n + k, total + t, m2 + q + delta * delta * (n * k / (n + k))
    assert m.m2[1] == m2[1]
