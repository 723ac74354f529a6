import numpy as np
import pytest

from rwre import RngStream
from rwre.parallel import CHUNK_REPLICAS, MeanAccumulator, chunk_sizes, run_chunked


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


def test_run_chunked_order_and_worker_invariance():
    def job(index, size):
        return (index, size, float(RngStream(55, index).generator().random()))

    seq = run_chunked(job, 10, workers=1, chunk=3)
    par = run_chunked(job, 10, workers=4, chunk=3)
    assert seq == par
    assert [s for _, s, _ in seq] == [3, 3, 3, 1]
    assert [i for i, _, _ in seq] == [0, 1, 2, 3]


def test_mean_accumulator_matches_numpy():
    rng = np.random.default_rng(56)
    data = rng.normal(3.0, 2.0, size=1000)
    acc = MeanAccumulator()
    for part in np.array_split(data, 7):
        acc.add(part.sum(), np.square(part).sum(), part.size)
    assert acc.mean() == pytest.approx(data.mean(), rel=1e-12)
    expected_se = data.std(ddof=1) / np.sqrt(data.size)
    assert acc.standard_error() == pytest.approx(expected_se, rel=1e-9)


def test_mean_accumulator_degenerate():
    acc = MeanAccumulator()
    acc.add(4.0, 16.0, 1)
    assert acc.mean() == 4.0 and acc.standard_error() == 0.0
