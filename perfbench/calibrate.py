"""Host-speed gauge: a reference task per gauged workload, timed next to its
calls.

On a shared host a pass time swings by 1.25x to 1.6x within seconds, and
whole runs drift, because the CPU itself slows down (CPU time grows with
wall time).  The gauge times a fixed reference task built like the
workload's hot path, in numpy and Python only, right before each call of the
workload.  Dividing a pass time by the reference time measured next to it
cancels the host's speed; the nominal time in NOMINAL_S states the result at
the speed of a host on which the task takes that long.

The task runs in a helper process, so nothing the measured package does to
its own interpreter (threads, GC settings, trace hooks) reaches it.  The
helper blocks on its pipe while a call runs, and the kernel wakes it on the
CPU of the process that asked.

    python3 perfbench/calibrate.py      # prints each task's median time
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SEED = 20090521
WEIGHTS = (2.0, 1.0, 1.0, 1.0)
# Median time of each reference task, run standalone, on the 2-vCPU host the
# baseline was measured on.  They only scale the gauged throughputs; changing
# one breaks the comparison with earlier entries of the trajectory.
NOMINAL_S = {"lattice": 0.0040, "identities": 0.0060}
WARMUP = 5
HELPER_TIMEOUT_S = 10


def _generator(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(SEED, spawn_key=key)))


LATTICE_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))
LATTICE_STEPS = 160


def lattice_task() -> int:
    """A keyed-environment walk like rwre's lattice kernel: a keyed Philox
    generator, a Gamma draw and a cumulative row per new site; a dict
    lookup, a linear pick and a tuple update per step.  Returns the sites
    visited."""
    weights = np.asarray(WEIGHTS)
    u = _generator(0).random(LATTICE_STEPS)
    env = {}
    coord = (0, 0)
    for step in range(LATTICE_STEPS):
        row = env.get(coord)
        if row is None:
            key = ((coord[0] & 0xFFFF) << 16) | (coord[1] & 0xFFFF)
            gammas = _generator(0, key).gamma(weights)
            total = gammas.sum()
            acc, row = 0.0, []
            for g in gammas:
                acc += g / total
                row.append(acc)
            env[coord] = row
        k = 0
        while k < 3 and u[step] >= row[k]:
            k += 1
        coord = tuple(c + m for c, m in zip(coord, LATTICE_MOVES[k]))
    return len(env)


# The 2x2 torus of the reversal check: 4 vertices, 4 out-edges each.
IDENTITIES_TAILS = np.repeat(np.arange(4), 4)
IDENTITIES_HEADS = np.array([1, 1, 2, 2, 0, 0, 3, 3, 3, 3, 0, 0, 2, 2, 1, 1])
IDENTITIES_BATCH = 512
IDENTITIES_PATHS = _generator(3).integers(16, size=(340, 4))
TRAP_EDGES = 50
TRAP_WEIGHT = 0.1


def identities_task() -> float:
    """Batched exact-versus-sampled work like rwre's identities: Dirichlet
    batches, stationary distributions by a batched solve, reversed-path
    products gathered over many paths, and Gamma draws at a weight below 1.
    Returns a checksum."""
    gen = _generator(4)
    gammas = gen.standard_gamma(WEIGHTS * 4, size=(IDENTITIES_BATCH, 16))
    grouped = gammas.reshape(IDENTITIES_BATCH, 4, 4)
    probs = (grouped / grouped.sum(axis=2, keepdims=True)).reshape(IDENTITIES_BATCH, 16)
    P = np.zeros((IDENTITIES_BATCH, 4, 4))
    np.add.at(P, (np.arange(IDENTITIES_BATCH)[:, None], IDENTITIES_TAILS[None, :],
                  IDENTITIES_HEADS[None, :]), probs)
    A = np.transpose(P, (0, 2, 1)) - np.eye(4)[None, :, :]
    A[:, -1, :] = 1.0
    b = np.zeros((IDENTITIES_BATCH, 4, 1))
    b[:, -1, 0] = 1.0
    pis = np.linalg.solve(A, b)[:, :, 0]
    pcheck = probs * pis[:, IDENTITIES_TAILS] / pis[:, IDENTITIES_HEADS]
    total = pcheck[:, IDENTITIES_PATHS].prod(axis=2).sum()
    trap = gen.standard_gamma(TRAP_WEIGHT, size=(IDENTITIES_BATCH, TRAP_EDGES, 2))
    total += (trap[..., 0] / trap.sum(axis=2)).prod(axis=1).sum()
    return float(total)


# `cylinder` has no task.  A task built like its kernels (batch Dirichlet
# rows, lockstep steps) made its spread larger, not smaller, on this host:
# much of a cylinder pass is the tail of its slowest walkers, which varies
# with the input, not with the host.
TASKS = {"lattice": lattice_task, "identities": identities_task}


def timed(task) -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


class HostGauge:
    """Context manager around the helper process of one workload; `read()`
    runs its reference task now and returns the host factor: the task's
    time over its nominal time."""

    def __init__(self, workload):
        self.workload = workload

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve", self.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("host gauge helper did not start")
        except BaseException:
            self.close()
            raise
        return self

    def read(self) -> float:
        self.proc.stdin.write("t\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host gauge helper exited")
        return float(line) / NOMINAL_S[self.workload]

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=HELPER_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __exit__(self, *exc):
        self.close()


def serve(task):
    for _ in range(WARMUP):
        task()
    print("ready", flush=True)
    for _ in sys.stdin:
        # The call before evicted the task from the caches: an untimed run
        # first, so the time does not depend on the measured code's footprint.
        task()
        print(repr(timed(task)), flush=True)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--serve":
        serve(TASKS[argv[1]])
        return 0
    for name, task in TASKS.items():
        for _ in range(WARMUP):
            task()
        times = [timed(task) for _ in range(200)]
        print(f"{name}: median {statistics.median(times):.6f} s, min {min(times):.6f} s, "
              f"nominal {NOMINAL_S[name]} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
