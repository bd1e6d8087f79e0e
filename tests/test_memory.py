"""Peak memory of the Monte Carlo kernels does not grow with the number
of draws: both work in fixed-size chunks, keep nothing per draw, and
hold at most one chunk per thread at once.  Within a chunk they work on
the unit quaternions of the draws and never form a rotation matrix.  The
CLI's CSV writer likewise holds one block of rows at a time, and
``sample`` draws in the same chunks, writing each before the next.
``mc_sum`` gives each worker one workspace, reused from chunk to chunk,
so its pages are not returned to the OS and faulted back in chunk after
chunk."""

import functools
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from rotgram import classifier as cls
from rotgram import distributions as dist
from rotgram import cli, fake_uniformity, radon, so3

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
                dist.MC_CHUNK)


def test_mc_projected_gram_peak_is_flat():
    spec = dist.cayley(2.0)
    for k in (4, 128):
        V = np.random.default_rng(2).normal(size=(3, k))
        assert_flat(lambda n, threads: radon.mc_projected_gram(spec, V, n, np.random.default_rng(3),
                                                               threads=threads),
                    dist.MC_CHUNK)


def test_sample_peak_is_flat(tmp_path, monkeypatch):
    # small chunks keep the test fast: at 2048 draws the peaks stayed within
    # 0.2% of each other over repeats, and a sample that held every row
    # still grew 2x from 2 to 5 chunks
    monkeypatch.setattr(dist, "MC_CHUNK", 2048)
    path = str(tmp_path / "s.csv")
    peaks = chunk_peaks(lambda n: cli.main(["sample", "--family", "cayley", "--kappa", "2",
                                            "--n", str(n), "--seed", "5", "--out", path]),
                        dist.MC_CHUNK)
    # five chunks of rows may not cost more than two, give or take 1%
    assert max(peaks) <= 1.01 * min(peaks), peaks


# One worker's workspace, in floats per draw: ``mc_projected_gram`` holds
# 14 rows whatever the number k of landmarks (the quaternions, the
# sampler's scratch, the third rows with their scratch and their six
# products r_i r_j), checked at k = 4 and 128; its k x k results come
# after the workspace is freed, and at k = 128 they are small beside it.
# ``mc_accuracy`` holds 9 rows (the quaternions, K q, whose first two rows
# are the sampler's scratch, and the statistic) and no labels, since every
# draw is a class-1 observation.  Each bound leaves room for the small
# arrays.
GRAM_FLOATS_PER_DRAW = 18
ACCURACY_FLOATS_PER_DRAW = 10


def gram_run(n, k=4):
    V = np.random.default_rng(2).normal(size=(3, k))
    return radon.mc_projected_gram(dist.cayley(2.0), V, n or dist.MC_CHUNK,
                                   np.random.default_rng(3))


def accuracy_run(n):
    pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0),
                         dist.cayley(2.0))
    return cls.mc_accuracy(pair, n or dist.MC_CHUNK, np.random.default_rng(1))


@pytest.mark.parametrize("run, floats_per_draw", [
    (gram_run, GRAM_FLOATS_PER_DRAW),
    (functools.partial(gram_run, k=128), GRAM_FLOATS_PER_DRAW),
    (accuracy_run, ACCURACY_FLOATS_PER_DRAW),
], ids=["mc_projected_gram", "mc_projected_gram-128-landmarks", "mc_accuracy"])
def test_one_chunk_peak_per_draw(run, floats_per_draw):
    assert peak_bytes(run) < floats_per_draw * 8 * dist.MC_CHUNK


# ``sample`` holds one chunk at a time: at the matmul the sampler's
# workspace (6 rows), its normal triples (3), R (9) and P (9), 27 floats
# per draw.  Holding the last chunk's P, angles, axes and workspace
# (19 floats) while the next is drawn would read 46.
SAMPLE_FLOATS_PER_DRAW = 28


def test_sample_peak_per_draw(tmp_path):
    path = str(tmp_path / "s.csv")
    peak = peak_bytes(lambda n: cli.main(["sample", "--family", "cayley", "--kappa", "1", "--n",
                                          str(n or 3 * dist.MC_CHUNK), "--out", path]))
    assert peak < SAMPLE_FLOATS_PER_DRAW * 8 * dist.MC_CHUNK


def test_fvm_curve_peak_per_point():
    # ``log_bessel_gap`` takes BESSEL_BLOCK kappas at a time, so its term
    # tables, about 1 KB per kappa, do not grow with the grid
    n = 10 ** 5
    assert peak_bytes(lambda m: fake_uniformity.scan_curve("fvm", 10.0, m or n)) < 400 * n


FAULTS_PER_CHUNK = 32
FAULT_SCRIPT = textwrap.dedent("""
    import contextlib, io, resource, sys
    from rotgram import cli, distributions

    n = str(16 * distributions.MC_CHUNK)
    common = ["--family", "cayley", "--kappa", "2", "--n-mc", n, "--seed", "1",
              "--threads", "1", "--modal-axis", "0,0,1"]
    gram = ["gram", *common, "--modal-angle", "0.7", "--landmarks", sys.argv[1]]
    classify = ["classify", *common, "--modal-angle", "0",
                "--modal2-axis", "0,0,1", "--modal2-angle", "1.0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(gram) == 0 and cli.main(classify) == 0 and cli.main(classify) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(classify) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_classify_chunks_do_not_fault_their_pages_back_in(tmp_path):
    # Arrays allocated per chunk can go back to the OS as each chunk ends,
    # and the next chunk faults them back in: about 500 minor faults per
    # chunk when classify follows gram in one process.  A kernel's one
    # workspace is faulted in at most once per call.  The warm-up runs
    # classify twice: glibc maps the first block of a new, larger size on
    # its own and raises its mmap threshold when that block is freed, so
    # only the second classify takes its workspace from the heap, which
    # then keeps the pages.
    landmarks = tmp_path / "landmarks.csv"
    landmarks.write_text("1,0,0,0.5\n0,1,0,-0.5\n0,0,1,2\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, str(landmarks)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= FAULTS_PER_CHUNK * 16, proc.stdout


@pytest.mark.parametrize("run", [gram_run, accuracy_run],
                         ids=["mc_projected_gram", "mc_accuracy"])
def test_kernels_form_no_rotation_matrix(run, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rotation matrix was formed")

    monkeypatch.setattr(dist, "sample_rotations", refuse)
    run(3000)


def test_csv_writer_holds_one_block(tmp_path):
    # ``cli._write_csv`` formats ROW_BLOCK rows at a time: writing forty
    # blocks of a 14-column table may not peak above writing four
    header = ["c%d" % j for j in range(14)]
    path = str(tmp_path / "t.csv")

    def peak(blocks):
        table = np.random.default_rng(4).normal(size=(blocks * cli.ROW_BLOCK, 14))
        cli._write_csv(path, header, [(table,)])  # first-call allocations are not per row
        tracemalloc.start()
        try:
            cli._write_csv(path, header, [(table,)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(40)
    assert large <= 1.05 * small, (small, large)
