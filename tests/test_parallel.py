import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre import RngStream
from rwre.parallel import CHUNK_REPLICAS, Moments, chunk_sizes, run_chunked
from rwre.rng import block_uniforms


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


def test_run_chunked_order_and_worker_invariance():
    def job(gen, size):
        return (size, float(gen.random()))

    rng = RngStream(55)
    seq = run_chunked(job, 10, rng, workers=1, chunk=3)
    par = run_chunked(job, 10, rng, workers=4, chunk=3)
    assert seq == par
    assert [s for s, _ in seq] == [3, 3, 3, 1]
    # chunk c draws from stream c of the seed
    assert [u for _, u in seq] == [float(RngStream(55, c).generator().random())
                                   for c in range(4)]


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
