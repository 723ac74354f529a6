"""Deterministic chunked execution of replicated simulations.

Replicas are split into fixed-size chunks; chunk c always draws from RNG
stream c regardless of how many workers run, and results are reduced in
chunk order.  Worker count therefore affects wall time only, never output.

Workers are processes, because the lockstep kernel's numpy calls and the
pure-Python walks hold the interpreter lock; the calling process is worker
0.  Each worker is a fresh interpreter, started on first use and kept for
the life of the calling process, so its start-up (about a quarter of a
second) is paid once, not per call, and no call waits for it: until a
worker is ready, the caller runs the chunks of its share itself.  Workers
are started with `subprocess` and talk over their stdin and stdout pipes
only, with every other descriptor closed.  (Fork-started workers,
`multiprocessing`'s default on Linux, inherit every descriptor the caller
holds, so a process waiting for EOF on a pipe the caller shares would wait
on the workers too; spawn- or forkserver-started ones re-import the
caller's `__main__` and leave a resource-tracker process beside the pool.)
An `atexit` hook closes each worker's stdin and waits for it, so no worker
outlives the interpreter.

Every Monte Carlo mean and standard error comes from one reduction: each
chunk keeps the count, sum and sum of squared deviations (n, sum, M2) of its
own replicas, and chunks are pooled in chunk order with the merge of Chan,
Golub & LeVeque (1979, "Algorithms for computing the sample variance").
Sums are still added chunk by chunk, so estimates are bit-identical to a
plain ordered fold of chunk sums; standard errors come from the pooled M2,
which has no sum-of-squares cancellation, and may differ from a
sum-of-squares formula in the last bits.

Within a chunk, `Moments.of` reduces a Fortran-ordered matrix (one
contiguous column per quantity, as `reverse-check` builds its path
products) a few columns at a time, so its temporaries stay in cache, and
any other layout whole, because only in Fortran order does a column block
keep numpy's order of adds.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Fixed chunk granularity.  Do not derive this from the worker count or
# results would depend on it.
CHUNK_REPLICAS = 8192

# Columns per block of `Moments.of` on a Fortran-ordered matrix: 8 columns
# of a full chunk are 512 KB.
_COLUMN_BLOCK = 8

# A worker reads the caller's sys.path, so it imports the same rwre and the
# same modules of the chunk functions, then serves tasks until EOF.
_BOOT = ("import pickle, sys; sys.path[:] = pickle.load(sys.stdin.buffer); "
         "import rwre.parallel; rwre.parallel._serve()")


def chunk_sizes(total: int, chunk: int = CHUNK_REPLICAS):
    """Sizes of the consecutive chunks covering `total` replicas."""
    if total <= 0:
        raise PreconditionError("at least one replica required")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def run_chunked(fn, total: int, rng, workers: int = 1, chunk: int = CHUNK_REPLICAS):
    """Run fn(gen, size) over all chunks, returning results in chunk order.

    `gen` is a fresh generator of stream c of `rng` (an `RngStream`) for
    chunk c, so which draws a replica sees never depends on `workers`.

    With n = min(workers, chunks, CPUs available) of at least 2, chunk c
    runs in share c mod n: the calling process runs share 0 and worker
    process s share s, once it has started (`_Pool.run`).  `fn` is pickled
    by reference, so it must be a module-level function (bound with
    `functools.partial` to picklable arguments); any other callable runs
    every chunk in the calling process, as with one worker.  A chunk's
    exception reaches the caller with its type and message, and its
    warnings are issued again in the caller, in chunk order, under the
    caller's warning filters and numpy error state.
    """
    sizes = chunk_sizes(total, chunk)
    n = min(workers, len(sizes))
    if n > 1:
        n = min(n, _available_cpus())
    if n > 1:
        try:
            blob = pickle.dumps(fn)
        except (pickle.PicklingError, AttributeError, TypeError):
            pass  # a closure or lambda: run it here
        else:
            results = _POOL.run(fn, blob, rng, sizes, n)
            if results is not None:
                return results
    gens = [rng.with_stream(c).generator() for c in range(len(sizes))]
    return [fn(gen, size) for gen, size in zip(gens, sizes)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(fn, rng, c, sizes):
    """(c, warnings, result, exception) of chunk c, its warnings issued as
    they happen (so the list is empty) and its exception caught, to be
    raised in chunk order."""
    try:
        return c, [], fn(rng.with_stream(c).generator(), sizes[c]), None
    except Exception as exc:
        return c, [], None, exc


def _record_share(fn, rng, ids, sizes):
    """`_run_chunk` over chunks `ids` in order, stopping after the first
    that raises, with each chunk's warnings recorded whatever the filters,
    as (message, category, filename, lineno), for the caller to issue again.
    Only workers record: changing the filters resets every module's record
    of the warnings it has shown."""
    out = []
    for c in ids:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, result, error = _run_chunk(fn, rng, c, sizes)
        out.append((c, [(w.message, w.category, w.filename, w.lineno) for w in caught],
                    result, error))
        if error is not None:
            break
    return out


class _Pool:
    """The worker processes of this interpreter; a call with n shares runs
    share s on `procs[s - 1]`.  Workers are started when a call first needs
    them, replaced when found dead, and stopped at exit."""

    def __init__(self):
        self.procs = []
        self._started = set()  # workers that have said they are ready
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def _workers(self, count: int) -> list:
        if self._pid != os.getpid():  # a forked child: the pipes are its parent's
            self.procs, self._started, self._pid = [], set(), os.getpid()
        for proc in [p for p in self.procs if p.poll() is not None]:
            self._stop(proc)
        while len(self.procs) < count:
            proc = subprocess.Popen([sys.executable, "-c", _BOOT], stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, close_fds=True)
            self.procs.append(proc)
            _send(proc, sys.path)
        return self.procs[:count]

    def _ready(self, proc) -> bool:
        """Whether `proc` has started serving; never blocks."""
        if proc not in self._started:
            if not select.select([proc.stdout], [], [], 0)[0]:
                return False
            _receive(proc)  # its ready message, or EOF if it died starting
            self._started.add(proc)
        return True

    def _stop(self, proc):
        """Close `proc`'s pipes and wait for it: a worker that has started
        exits at EOF on its stdin, one still starting is killed."""
        self.procs.remove(proc)
        if proc not in self._started:
            proc.kill()
        self._started.discard(proc)
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # unflushed bytes to a worker that has exited
                pass
        proc.wait()

    def close(self):
        """Stop every worker (registered with `atexit`)."""
        if self._pid == os.getpid():
            for proc in list(self.procs):
                self._stop(proc)

    def run(self, fn, blob, rng, sizes, n):
        """`run_chunked` over n shares, or None while the pool serves another
        call (of another thread, or one that this call is a chunk of), so
        that this one runs in the calling process.

        Each worker that has started is sent its share.  The caller runs
        share 0, then takes chunks from the head of any share whose worker
        is still starting, so a call never waits for a worker to start.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            outcomes = self._outcomes(fn, blob, rng, sizes, n)
        finally:
            self._lock.release()
        done = {c: rest for c, *rest in outcomes}
        results = []
        for c in range(len(sizes)):
            caught, result, error = done[c]
            for message, category, filename, lineno in caught:
                _warn_again(message, category, filename, lineno)
            if error is not None:
                raise error
            results.append(result)
        return results

    def _outcomes(self, fn, blob, rng, sizes, n):
        """The (chunk id, warnings, result, exception) of every chunk `run`
        needs."""
        own = list(range(0, len(sizes), n))
        unsent = {proc: list(range(s, len(sizes), n))
                  for s, proc in enumerate(self._workers(n - 1), 1)}
        sent = []  # (worker, chunk ids) whose reply is pending
        outcomes = []
        try:
            while True:
                for proc in [p for p in unsent if self._ready(p)]:
                    ids = unsent.pop(proc)
                    if ids:
                        sent.append((proc, ids))
                        _send(proc, (blob, rng, ids, sizes, np.geterr()))
                ids = own or next((ids for ids in unsent.values() if ids), None)
                if ids is None:
                    break
                outcomes.append(_run_chunk(fn, rng, ids.pop(0), sizes))
            while sent:
                proc, ids = sent[0]
                reply = _receive(proc)
                sent.pop(0)
                try:
                    outcomes += pickle.loads(reply)
                except Exception:  # None, or outcomes this process cannot load
                    outcomes += [_run_chunk(fn, rng, c, sizes) for c in ids]
        except BaseException:
            for proc, _ in sent:  # its reply is pending: it cannot serve another call
                proc.kill()
                self._stop(proc)
            raise
        return outcomes


def _warn_again(message, category, filename, lineno):
    """Issue a worker's warning here as `warnings.warn` would have from the
    line that raised it: under this process's filters, and shown once per
    module under the "default" action."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(message, category, filename, lineno, module=module.__name__,
                               registry=vars(module).setdefault("__warningregistry__", {}))


def _send(proc, message):
    try:
        pickle.dump(message, proc.stdin)
        proc.stdin.flush()
    except OSError as exc:
        raise RuntimeError(f"worker process {proc.pid} has exited") from exc


def _receive(proc):
    try:
        return pickle.load(proc.stdout)
    except EOFError as exc:
        raise RuntimeError(f"worker process {proc.pid} exited during a call "
                           f"(status {proc.wait()})") from exc


def _serve():
    """A worker's main loop: say "ready" on stdout, then read (pickled chunk
    function, RngStream, chunk ids, sizes, numpy error state) tasks from
    stdin and reply with the pickled outcomes of `_record_share`, or None when
    the function cannot be loaded or the outcomes cannot be pickled, so that
    the caller runs the share itself.  Returns at EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    tasks = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything printed goes to stderr, not into the replies

    def reply(message):
        try:
            pickle.dump(message, replies)
            replies.flush()
        except BrokenPipeError:  # the caller has gone
            os._exit(0)

    reply("ready")
    while True:
        try:
            blob, rng, ids, sizes, err = pickle.load(tasks)
        except EOFError:
            return
        np.seterr(**err)
        try:
            outcomes = pickle.dumps(_record_share(pickle.loads(blob), rng, ids, sizes))
        except Exception:  # loading the function or pickling the outcomes failed
            outcomes = None
        reply(outcomes)


_POOL = _Pool()
atexit.register(_POOL.close)


def _sum_squared_deviations(values: np.ndarray, mean) -> np.ndarray:
    """Column sums of (values - mean)**2, squared in place in one temporary."""
    dev = values - mean
    np.square(dev, out=dev)
    return dev.sum(axis=0)


@dataclass(frozen=True, eq=False)
class Moments:
    """Replica count `n`, sum `total` and sum of squared deviations from the
    mean `m2` of per-replica values, per column.

    `Moments()` holds no replicas; `a + b` pools two disjoint sets.
    """

    n: int = 0
    total: np.ndarray = 0.0
    m2: np.ndarray = 0.0

    @classmethod
    def of(cls, values) -> "Moments":
        """Moments of one chunk's values, one replica per row (a 1-D array
        gives scalar columns).

        The result is bit-identical to `total = values.sum(axis=0)` and
        `np.square(values - total / n).sum(axis=0)`.  A Fortran-ordered
        matrix is reduced `_COLUMN_BLOCK` columns at a time, squaring the
        deviations in place, so the temporaries stay in cache rather than
        being two copies of the whole chunk; numpy sums each contiguous
        column pairwise whether or not it is a block of a wider matrix.
        Any other layout is reduced whole: numpy sums a C-ordered matrix
        row by row, and a one-column block of it would be summed pairwise
        instead, which rounds differently.
        """
        values = np.asarray(values, dtype=np.float64)
        n = values.shape[0]
        if values.ndim != 2 or not values.flags.f_contiguous or n == 0:
            total = values.sum(axis=0)
            return cls(n, total, _sum_squared_deviations(values, total / n) if n else total)
        total = np.empty(values.shape[1])
        m2 = np.empty(values.shape[1])
        for lo in range(0, values.shape[1], _COLUMN_BLOCK):
            block = values[:, lo:lo + _COLUMN_BLOCK]
            total[lo:lo + _COLUMN_BLOCK] = block.sum(axis=0)
            m2[lo:lo + _COLUMN_BLOCK] = _sum_squared_deviations(
                block, total[lo:lo + _COLUMN_BLOCK] / n)
        return cls(n, total, m2)

    def __add__(self, other: "Moments") -> "Moments":
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.total / other.n - self.total / self.n
        return Moments(n, self.total + other.total,
                       self.m2 + other.m2 + delta * delta * (self.n * other.n / n))

    @property
    def mean(self):
        """Sample mean per column; NaN without replicas."""
        return self.total / self.n if self.n else self.total * np.nan

    @property
    def standard_error(self):
        """Sample standard deviation over sqrt(n) per column; 0 below two
        replicas."""
        if self.n < 2:
            return np.zeros_like(self.total)
        return np.sqrt(self.m2 / (self.n - 1) / self.n)
