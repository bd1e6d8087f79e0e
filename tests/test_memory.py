"""Peak memory of the Monte Carlo kernels does not grow with the number
of draws: both work in fixed-size chunks, keep nothing per draw, and
hold at most one chunk per thread at once.  Within a chunk they work on
the unit quaternions of the draws and never form a rotation matrix.  The
CLI's CSV writer likewise holds one block of rows at a time."""

import tracemalloc

import numpy as np
import pytest

from rotgram import classifier as cls
from rotgram import distributions as dist
from rotgram import cli, radon, so3

# From two chunks on: one chunk's results are still held while the next
# is drawn.
CHUNK_COUNTS = (2, 3, 5)


def peak_bytes(fn):
    fn(1000)  # first-call allocations are not per draw
    tracemalloc.start()
    try:
        fn(None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_peaks(run, chunk):
    return [peak_bytes(lambda n, c=c: run(n or c * chunk)) for c in CHUNK_COUNTS]


def assert_flat(run, chunk):
    peaks = chunk_peaks(lambda n: run(n, 1), chunk)
    # five chunks of draws may not cost more than two, give or take 1%
    assert max(peaks) <= 1.01 * min(peaks), peaks
    # Two threads draw up to two chunks at once, whatever n is.  How far
    # the two chunks' temporaries overlap varies from run to run, so their
    # peak lies anywhere from one to two chunks' worth.
    threaded = chunk_peaks(lambda n: run(n, 2), chunk)
    assert max(threaded) <= 2.02 * min(peaks), (peaks, threaded)


def test_mc_accuracy_peak_is_flat():
    pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0),
                         dist.cayley(2.0))
    assert_flat(lambda n, threads: cls.mc_accuracy(pair, n, np.random.default_rng(1),
                                                   threads=threads),
                cls.MC_CHUNK)


def test_mc_projected_gram_peak_is_flat():
    V = np.random.default_rng(2).normal(size=(3, 4))
    spec = dist.cayley(2.0)
    assert_flat(lambda n, threads: radon.mc_projected_gram(spec, V, n, np.random.default_rng(3),
                                                           threads=threads),
                radon.MC_CHUNK)


# A chunk's (m, 3, 3) rotations alone take 9 floats per draw, and the
# rotations shifted by the modal matrix 9 more.
FLOATS_PER_DRAW = 18


def gram_run(n):
    V = np.random.default_rng(2).normal(size=(3, 4))
    return radon.mc_projected_gram(dist.cayley(2.0), V, n or radon.MC_CHUNK,
                                   np.random.default_rng(3))


def accuracy_run(n):
    pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0),
                         dist.cayley(2.0))
    return cls.mc_accuracy(pair, n or cls.MC_CHUNK, np.random.default_rng(1))


@pytest.mark.parametrize("run, chunk", [(gram_run, radon.MC_CHUNK),
                                        (accuracy_run, cls.MC_CHUNK)],
                         ids=["mc_projected_gram", "mc_accuracy"])
def test_one_chunk_peak_per_draw(run, chunk):
    assert peak_bytes(run) < FLOATS_PER_DRAW * 8 * chunk


@pytest.mark.parametrize("run", [gram_run, accuracy_run],
                         ids=["mc_projected_gram", "mc_accuracy"])
def test_kernels_form_no_rotation_matrix(run, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rotation matrix was formed")

    monkeypatch.setattr(so3, "from_quaternion_batch", refuse)
    monkeypatch.setattr(dist, "sample_rotations", refuse)
    run(3000)


def test_csv_writer_holds_one_block(tmp_path):
    # ``cli._write_csv`` formats ROW_BLOCK rows at a time: writing forty
    # blocks of a 14-column table may not peak above writing four
    header = ["c%d" % j for j in range(14)]
    path = str(tmp_path / "t.csv")

    def peak(blocks):
        table = np.random.default_rng(4).normal(size=(blocks * cli.ROW_BLOCK, 14))
        cli._write_csv(path, header, (table,))  # first-call allocations are not per row
        tracemalloc.start()
        try:
            cli._write_csv(path, header, (table,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(40)
    assert large <= 1.05 * small, (small, large)
