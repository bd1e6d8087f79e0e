"""``_csv.format_rows`` against '%.17g' itself, byte for byte."""

import numpy as np
import pytest

from rotgram import _csv, cli
from rotgram import distributions as dist

DECADES = range(-4, 1)  # the decades the kernel spells itself
EDGES = [1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0]


def percent_rows(values):
    """The oracle: each row of ``values`` through one '%.17g' row format."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return "".join([row % tuple(v) for v in values.tolist()])


def assert_matches_oracle(values, cols=14):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values]).reshape(-1, cols)
    before = values.copy()
    # compared line by line, so that a failure names the first bad row
    assert _csv.format_rows(values).split("\n") == percent_rows(values).split("\n")
    assert np.array_equal(values.view(np.uint64), before.view(np.uint64))


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2**64, size=40 * 256 * 14, dtype=np.uint64)
    assert_matches_oracle(bits.view(np.float64))


def test_random_mantissas_in_and_around_the_decades():
    # every binade from 2^-15 (below 1e-4) to 2^4 (above 10)
    rng = np.random.default_rng(2)
    mantissa = rng.uniform(0.5, 1.0, size=40 * 256 * 14)
    assert_matches_oracle(np.ldexp(mantissa, rng.integers(-14, 5, size=mantissa.size)))


@pytest.mark.parametrize("k", DECADES)
def test_exact_ties_round_half_to_even(k):
    # a 2^-(s+1), a odd, with s = 16 - k: |x| 10^s is an odd multiple of
    # 1/2, so the 17th digit is an exact tie
    s = 16 - k
    lo, hi = int(np.ceil(10.0**k * 2.0 ** (s + 1))), int(10.0 ** (k + 1) * 2.0 ** (s + 1))
    a = np.random.default_rng(10 + k).integers(lo // 2, hi // 2, size=256 * 14) * 2 + 1
    x = np.ldexp(a.astype(float), -(s + 1))
    assert np.all(np.ldexp(x, s + 1) == a) and np.all((x >= 10.0**k) & (x < 10.0 ** (k + 1)))
    assert_matches_oracle(x)


def test_neighbours_of_the_decade_edges():
    near = []
    for edge in EDGES:
        x = edge
        for _ in range(8):
            x = np.nextafter(x, 0.0)
        for _ in range(16):
            near.append(x)
            x = np.nextafter(x, np.inf)
    assert_matches_oracle(near, cols=8)


@pytest.mark.parametrize("k", DECADES)
def test_neighbours_of_the_split_at_ten_to_the_eight(k):
    # the 17-digit integer D is split as 10^8 top + bottom: these D lie
    # within a few units of a multiple of 10^8, on both sides
    m = np.random.default_rng(20 + k).integers(10**8, 10**9, size=64)
    x = m * 10.0 ** (k - 8)
    near = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(3):
            y = np.nextafter(y, toward)
            near.append(y)
    assert_matches_oracle(np.concatenate(near), cols=8)


def test_whole_numbers_and_short_fractions():
    digits = np.arange(1.0, 10.0)
    assert_matches_oracle(np.concatenate([digits * 10.0**k for k in DECADES]), cols=9)


def test_special_values():
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 10.0, 1e300,
               1.7976931348623157e308, np.inf, np.nan]
    assert_matches_oracle(special, cols=5)


def test_sample_far_outside_the_decades(tmp_path):
    # at kappa 1e12 the off-diagonal entries and theta are about 1e-6, so
    # '%.17g' spells half of the values of each row
    n, seed = 3 * cli.ROW_BLOCK + 7, 4
    out = tmp_path / "s.csv"
    assert cli.main(["sample", "--family", "cayley", "--kappa", "1e12", "--n", str(n),
                     "--seed", str(seed), "--out", str(out)]) == 0
    spec = dist.cayley(1e12)
    tables = []
    for m, rng in dist.mc_chunks(n, np.random.default_rng(seed)):
        P, axes, angles, x = dist.sample_rotations(spec, m, rng)
        tables.append(np.column_stack([P.reshape(-1, 9), angles, axes, x]))
    values = np.concatenate(tables)
    assert np.mean(np.abs(values) < 1e-4) > 0.4
    header = "r11,r12,r13,r21,r22,r23,r31,r32,r33,theta,u1,u2,u3,x\n"
    assert out.read_text(encoding="utf-8").split("\n") == (header + percent_rows(values)).split("\n")

