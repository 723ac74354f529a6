import itertools
import os
import select
import subprocess
import sys
import textwrap
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre import PreconditionError, RngStream, parallel
from rwre.cli import main as cli_main
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
    # Fortran-ordered input is reduced in column blocks and C-ordered input
    # whole; either way every bit equals the plain two-pass formula.  The
    # (8192, 9) C case is the one that a column block would change.
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=300),
       st.lists(st.integers(0, 300), max_size=12))
def test_moments_any_chunking_matches_two_pass(values, cuts):
    data = np.array(values)
    m = pool(np.split(data, sorted(cuts)))
    # rounding scale: the error of any summation order is bounded by
    # n * eps * max|x|, so compare with that absolute slack as well
    scale = np.abs(data).max() * 1e-12
    assert m.n == data.size
    assert m.mean == pytest.approx(data.mean(), rel=1e-12, abs=scale)
    if data.size > 1:
        expected_se = data.std(ddof=1) / np.sqrt(data.size)
        assert m.standard_error == pytest.approx(expected_se, rel=1e-9, abs=scale)
