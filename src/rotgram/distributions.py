"""Rotation distribution families and their samplers.

Three conjugation-invariant families are supported, each parametrised by
a modal rotation M and a concentration kappa >= 0 (kappa = 0 is the Haar
case for every family):

- Haar: the uniform law on SO(3).
- Cayley-LMR: density proportional to (1 + tr(P M^T))^kappa, for which
  the angle variate X = (1 + cos Theta)/2 is Beta(kappa + 1/2, 3/2).
- Fisher-von Mises: density proportional to exp(kappa tr(P M^T)).

Shifted samples use the right-multiplication convention P = R M, where R
is the centred (modal = I) conjugation-invariant rotation.  All samplers
mutate only the caller-supplied numpy Generator.  Normalisers are taken
on the log scale, so every finite kappa is supported.  ``mc_chunks`` seeds
every run of draws chunk by chunk, for the CLI's ``sample`` and for
``mc_sum``, the Monte Carlo driver behind the Gram and classifier estimates.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
# bound at import, so that the first threaded mc_sum call loads no module
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import so3
from .errors import DomainError, NoConvergence

_LGAMMA_3_2 = math.lgamma(1.5)
# Draws per Monte Carlo chunk: small enough that a chunk's arrays stay in
# a core's L2 cache.
MC_CHUNK = 1 << 14
# The modal of every spec built without one: a rotation, so not validated.
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


class Family(str, Enum):
    HAAR = "haar"
    CAYLEY = "cayley"
    FVM = "fvm"


@dataclass(frozen=True)
class DistributionSpec:
    """Family tag plus modal rotation and concentration.

    Immutable and freely shareable; the modal matrix is stored as a
    read-only copy, and every spec without one shares one read-only
    identity.
    """

    family: Family
    modal: np.ndarray = None
    kappa: float = 0.0

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        kappa = float(self.kappa)
        if not 0.0 <= kappa < math.inf:
            raise DomainError("concentration kappa must be finite and >= 0")
        if family is Family.HAAR and kappa != 0.0:
            raise DomainError("the Haar family has kappa = 0 by definition")
        object.__setattr__(self, "kappa", kappa)
        if self.modal is None:
            modal = _IDENTITY
        else:
            modal = np.array(self.modal, dtype=float)
            so3.require_rotation(modal)
            modal.flags.writeable = False
        object.__setattr__(self, "modal", modal)

    @property
    def beta_p(self) -> float | None:
        """p = kappa + 1/2 if X ~ Beta(p, 3/2); None for Fisher-von Mises at kappa > 0."""
        return None if self.family is Family.FVM and self.kappa > 0.0 else self.kappa + 0.5

    @functools.cached_property
    def log_h(self):
        """h(x) = sqrt(x / (1 - x)) f_X(x) on the log scale, as the pair
        (log_norm, tilt) with log h(x) = log_norm + tilt(x, w), w = 1 - x:
        x^kappa / B(kappa + 1/2, 3/2) for Haar and Cayley-LMR, the tilt taken
        as kappa log1p(-w) where w < 1/2 and kappa log x elsewhere, and
        c e^(-4 kappa w) for Fisher-von Mises, with log c = log(2/pi) - L_0(kappa)
        (``log_bessel_gap``).  The tilt reads whichever of x and w the caller
        holds to full relative accuracy; both must lie in (0, 1) and are not
        checked.  Computed once per spec."""
        k = self.kappa
        if self.beta_p is None:
            return math.log(2.0 / math.pi) - log_bessel_gap(0, k), lambda x, w: -4.0 * (k * w)
        return -log_beta_cayley(k), lambda x, w: k * (math.log1p(-w) if w < 0.5 else math.log(x))


def haar() -> DistributionSpec:
    return DistributionSpec(Family.HAAR)


def cayley(kappa: float, modal=None) -> DistributionSpec:
    return DistributionSpec(Family.CAYLEY, modal=modal, kappa=kappa)


def fisher_von_mises(kappa: float, modal=None) -> DistributionSpec:
    return DistributionSpec(Family.FVM, modal=modal, kappa=kappa)


# ---------------------------------------------------------------------------
# Log-scale normalisers


def _each(f, values: np.ndarray) -> np.ndarray:
    """f(v) of each v of the 1-d float array values, as Python floats."""
    return np.fromiter(map(f, values.tolist()), float, values.size)


# The term tables of ``log_bessel_gap``, for n = 0 and 2, by term j.  The
# series runs to j = 72, where its longest sum (at the double below
# kappa = 10) stops, with ratios -kappa / d_j; the expansion runs to j = 44,
# as for every kappa >= 10 a ratio num_j / (16 (j - 1) kappa) of size >= 1
# comes by j = 43.
_SERIES_J = np.arange(1.0, 73.0)[:, None]
_SERIES_D = {n: np.where(_SERIES_J % 2.0 == 0.0, _SERIES_J / 2.0, (_SERIES_J + 1.0) / 2.0 + n)
             for n in (0, 2)}
_EXPANSION_J = np.arange(2.0, 45.0)[:, None]
_EXPANSION_NUM = {n: (2.0 * n + 2.0 * _EXPANSION_J - 1.0) * (2.0 * _EXPANSION_J - 2.0 * n - 3.0)
                  for n in (0, 2)}
_EXPANSION_DEN = 16.0 * (_EXPANSION_J - 1.0)
# Kappas per block of ``log_bessel_gap``: its tables and their running
# terms and sums hold a few KB per kappa.
BESSEL_BLOCK = 4096


def _sum_to_stop(table: np.ndarray, stop) -> np.ndarray:
    """Column by column, the sum of the terms np.multiply.accumulate(table)
    in row order, up to the first row at which the bool array
    stop(terms, sums) holds; NoConvergence if it holds in no row."""
    terms = np.multiply.accumulate(table, axis=0)
    sums = np.add.accumulate(terms, axis=0)
    held = stop(terms, sums)
    last, columns = np.argmax(held, axis=0), np.arange(table.shape[1])
    if np.count_nonzero(held[last, columns]) < len(columns):
        raise NoConvergence("a Bessel sum did not stop within %d terms" % len(held))
    return sums[last, columns]


def log_bessel_gap(n: int, kappa):
    """L_n(kappa) = log(e^-z (I_n(z) - I_{n+1}(z))) at z = 2 kappa, n = 0 or 2,
    kappa > 0 (or 0 for n = 0), at a float or at each kappa of an array: a
    float (or a 0-d array) gives a float, an array an array of its shape.

    Below z = 20 the power series in kappa with kappa^n factored out; above,
    the large-z expansions (DLMF 10.40.1) summed term by term from their
    coefficient differences with 1/kappa factored out, so nothing cancels
    or overflows.  Relative error below 1e-15.

    The kappas are taken ``BESSEL_BLOCK`` at a time, so memory stays
    bounded whatever their number.  In a block each branch builds one
    table for all its kappas, the term index on axis 0: the first term,
    then the ratios of consecutive terms.  Its terms and their partial
    sums are ``np.multiply.accumulate`` and ``np.add.accumulate`` of it,
    both strictly in row order.  Each kappa stops at its first term below
    1e-17 of the sum (also once the terms underflow) or, in the expansion,
    before the first ratio of size >= 1, where the divergent tail starts.
    Every log is ``math.log`` of one value (``np.log`` rounds a few inputs
    differently), so each result is bitwise that of adding the terms one
    by one in a loop.
    """
    k = np.asarray(kappa, dtype=float)
    flat = k.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, BESSEL_BLOCK):
        block = slice(start, start + BESSEL_BLOCK)
        out[block] = _log_bessel_gap_block(n, flat[block])
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def _log_bessel_gap_block(n: int, flat: np.ndarray) -> np.ndarray:
    """``log_bessel_gap`` at each kappa of the 1-d array flat."""
    out = np.empty(flat.shape)
    low = flat < 10.0
    n_low = np.count_nonzero(low)
    if n_low:
        ks = flat[low]
        table = np.empty((len(_SERIES_J) + 1, ks.size))
        table[0] = 1.0 / math.factorial(n)
        np.divide(-ks, _SERIES_D[n], out=table[1:])
        total = _sum_to_stop(table, lambda t, s: ~(np.abs(t) > 1e-17 * s))
        out[low] = _each(math.log, total) - 2.0 * ks + (n * _each(math.log, ks) if n else 0.0)
    if n_low < flat.size:
        ks = flat[~low]
        table = np.empty((len(_EXPANSION_J) + 1, ks.size))
        table[0] = (2.0 * n + 1.0) / 4.0
        with np.errstate(over="ignore"):  # 16 (j - 1) kappa is inf above kappa ~ 2.6e305
            np.divide(_EXPANSION_NUM[n], _EXPANSION_DEN * ks, out=table[1:])
        total = _sum_to_stop(table, lambda t, s: ~(np.abs(t[:-1]) > 1e-17 * s[:-1])
                             | (np.abs(table[1:]) >= 1.0))
        out[~low] = _each(math.log, total) - 0.5 * math.log(4.0 * math.pi) - 1.5 * _each(math.log, ks)
    return out


# The ratios of ``log_i0e``: its sums stop by j = 35 (z < 20) and k = 27 (ratios < 1 to k = 40).
_I0_SERIES_J2 = np.arange(1.0, 41.0)[:, None] ** 2
_I0_EXPANSION = (2.0 * np.arange(1.0, 31.0)[:, None] - 1.0) ** 2 / (8.0 * np.arange(1.0, 31.0)[:, None])


def log_i0e(z: float) -> float:
    """log(e^-z I_0(z)) at a float z >= 0 (inf gives -inf): the log of
    1 + sum_{j>=1} (z/2)^(2j) / j!^2, less z, below z = 20, and above it of
    1 + sum_{k>=1} ((2k - 1)!!)^2 / (k! (8z)^k) (DLMF 10.40.1), less
    (log 2 pi + log z) / 2, so nothing overflows.  Every term is positive;
    ``_sum_to_stop`` stops at the first below 1e-17 of the sum, as in
    ``log_bessel_gap``.  Error below 2e-15 max(1, |result|)."""
    if z < 20.0:
        ratios, shift = 0.25 * z * z / _I0_SERIES_J2, z
    else:
        ratios, shift = _I0_EXPANSION / z, 0.5 * (math.log(2.0 * math.pi) + math.log(z))
    total = _sum_to_stop(np.vstack(([[1.0]], ratios)), lambda t, s: ~(t > 1e-17 * s))[0]
    return math.log(total) - shift


def log_beta_cayley(kappa: float) -> float:
    """log B(kappa + 1/2, 3/2).  Above kappa = 30 the large-kappa expansion
    of log Gamma(kappa + 1/2) - log Gamma(kappa + 1), which a difference of
    lgammas would cancel; it is exact to 1e-16 there."""
    if kappa < 30.0:
        return math.lgamma(kappa + 0.5) + _LGAMMA_3_2 - math.lgamma(kappa + 2.0)
    t = 1.0 / kappa
    return (_LGAMMA_3_2 - math.log1p(kappa) - 0.5 * math.log(kappa)
            + t * (-1.0 / 8.0 + t * t * (1.0 / 192.0 + t * t * (-1.0 / 640.0 + 17.0 * t * t / 14336.0))))


def fx_density(spec: DistributionSpec, x: float) -> float:
    """Density of the angle variate X = (1 + cos Theta)/2 on (0, 1),
    with respect to Lebesgue measure: sqrt((1 - x) / x) h(x), h as in
    ``DistributionSpec.log_h``."""
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in the open interval (0, 1)")
    log_norm, tilt = spec.log_h
    return math.sqrt(1.0 - x) / math.sqrt(x) * math.exp(log_norm + tilt(x, 1.0 - x))


# ---------------------------------------------------------------------------
# Samplers


def _fvm_envelope(kappa: float) -> tuple[float, float, float]:
    """Constants of the angular-central-Gaussian envelope for the
    Fisher-von Mises law at kappa > 0, seen as the Bingham law
    exp(-4 kappa (1 - w^2)) of the unit quaternion (Kent, Ganeiber and
    Mardia, JCGS 2018): Omega = diag(1, omega, omega, omega) with
    omega = 1 + 8 kappa / b, where b > 0 solves 1/b + 3/(b + 8 kappa) = 1.

    Returns (1/omega, 4 kappa / omega, log M), M being the envelope
    bound exp(-(4 - b)/2) (4/b)^2.  With c = 8 kappa - 4, b is
    (sqrt(c^2 + 32 kappa) - c)/2 for c <= 0 and 16 kappa / (c + sqrt(c^2 +
    32 kappa)) for c > 0, there divided through by 8 kappa, and 1/omega
    is (b/8) / (b/8 + kappa): nothing cancels or overflows for any kappa.
    """
    if kappa > 0.5:
        c = 1.0 - 0.5 / kappa
        b = 2.0 / (c + math.sqrt(c * c + 0.5 / kappa))
    else:
        c = 8.0 * kappa - 4.0
        b = 0.5 * (math.sqrt(c * c + 32.0 * kappa) - c)
    log_m = 0.5 * b - 2.0 + 2.0 * math.log(4.0 / b)
    return 0.125 * b / (0.125 * b + kappa), 4.0 * b / (b / kappa + 8.0), log_m


def _sample_quaternions(spec: DistributionSpec, rng: np.random.Generator, work: np.ndarray,
                        z: np.ndarray = None) -> np.ndarray:
    """Fill the C-contiguous (6, m) float array work with m centred draws:
    the unit quaternions q in work[:4], one draw per column, the complement
    x_c = 1 - X in work[4] and X in work[5].  Returns the C-contiguous
    (3, m) normal triples z that the draws were built from: the caller's z
    if given, else work[1:4], where the vector parts of q overwrite them.

    X = g1 / (g1 + t) and x_c = t / (g1 + t) are formed separately, from
    g1 ~ Gamma(a) and t = |z|^2 / (2 omega) for a standard normal triple z:
    |z|^2 / 2 is Gamma(3/2), and the axis u = z / |z| is uniform on the
    sphere and independent of |z| (Muller, CACM 1959), so one normal triple
    gives the second gamma and the axis with no trigonometry.  The
    quaternion of a draw is (w, v) with w = sqrt(X) and
    v = sqrt(1 - X) u = z sqrt(1 / (2 omega (g1 + t))), which never
    divides by a sqrt(1 - X) that has underflowed.

    Haar and Cayley-LMR (and Fisher-von Mises at kappa = 0) take
    a = ``spec.beta_p`` and omega = 1, so X is Beta(kappa + 1/2, 3/2), and
    keep every proposal.  Fisher-von Mises at kappa > 0 is the Bingham
    law exp(-4 kappa (1 - w^2)) of the quaternion scalar w; it takes
    a = 1/2 and the omega of the angular-central-Gaussian envelope
    ``_fvm_envelope`` (Kent, Ganeiber and Mardia, JCGS 2018), and
    accepts a proposal when

        log U <= -4 kappa (1 - X) + 2 log(X + omega (1 - X)) - log M,

    which happens at a rate bounded below uniformly in kappa (0.73 at
    kappa = 1, about 0.45 from kappa = 20 on).

    One loop serves every family.  Each round fills, for the m draws still
    missing, the tails of the rows from column ``filled`` on, in this order
    (part of the seeded-reproducibility contract): ``standard_gamma(a)``,
    ``standard_normal`` into each row of z in turn (the values of one
    (3, m) block), |z|^2 / 2 summed as (z0^2 + z1^2) + z2^2 and, for
    Fisher-von Mises at kappa > 0 only, ``uniform(size=m)``, after which
    the kept proposals move, in order, to the front of the tails.  Only
    that round allocates: its uniforms, acceptance test and moved copies.
    """
    p = spec.beta_p
    inv_omega, slope, log_m = (1.0, 0.0, 0.0) if p is not None else _fvm_envelope(spec.kappa)
    n = work.shape[1]
    z = work[1:4] if z is None else z
    t, s = work[4], work[5]
    filled = 0
    while filled < n:
        m = n - filled
        g1, h, r, zm = work[0, filled:], t[filled:], s[filled:], z[:, filled:]
        rng.standard_gamma(0.5 if p is None else p, out=g1)
        for row in zm:
            rng.standard_normal(out=row)
        np.multiply(zm[0], zm[0], out=h)
        h += np.multiply(zm[1], zm[1], out=r)
        h += np.multiply(zm[2], zm[2], out=r)
        h *= 0.5
        if p is not None:
            break
        # with r = g1 + h / omega: X = g1 / r, 4 kappa (1 - X) = slope h / r
        # and X + omega (1 - X) = (g1 + h) / r, so nothing is subtracted
        # from 1 or multiplied by omega, which overflows above kappa ~ 2e307
        np.multiply(h, inv_omega, out=r)
        r += g1
        keep = rng.uniform(size=m) <= np.exp(2.0 * np.log((g1 + h) / r) - slope * (h / r) - log_m)
        kept = np.count_nonzero(keep)
        for row in (g1, h, *zm):
            row[:kept] = row[keep]
        filled += kept
    t *= inv_omega
    np.add(work[0], t, out=s)
    work[0] /= s
    t /= s
    np.divide(0.5 * inv_omega, s, out=s)
    np.sqrt(s, out=s)
    np.multiply(z, s, out=work[1:4])
    np.copyto(s, work[0])
    np.sqrt(s, out=work[0])
    return z


def sample_rotations(spec: DistributionSpec, n: int, rng: np.random.Generator):
    """n rotation draws and their parts, as the tuple (P, axes, angles, x)
    of shapes (n, 3, 3), (n, 3), (n,) and (n,).

    Each sample is built as P = R M, with R the rotation of the unit
    quaternion (w, v) of ``_sample_quaternions``, which is the axis-angle
    rotation about u by theta = 2 atan2(sqrt(1 - X), sqrt(X)).  Row i of
    every R is ``so3.rotation_row`` in block i of a C-contiguous (3, 3, n)
    array, and M^T times each block gives P in one (3, 3, n) array,
    returned as its (n, 3, 3) view.  The angles come from the complement
    1 - X, so they keep full relative accuracy near theta = 0.
    """
    work = np.empty((6, n))
    z = _sample_quaternions(spec, rng, work, np.empty((3, n)))
    q = work[:4]
    R, w2 = np.empty((3, 3, n)), np.empty(n)
    for i in range(3):
        so3.rotation_row(q, i, R[i], w2)
    del w2  # each scratch array is freed once spent, so a chunk peaks at R and P
    P = np.matmul(spec.modal.T, R).transpose(2, 0, 1)
    del R
    axes = (z / np.sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2])).T
    return P, axes, 2.0 * np.arctan2(np.sqrt(work[4]), q[0]), work[5]


# ---------------------------------------------------------------------------
# Monte Carlo driver


def mc_chunks(n: int, rng: np.random.Generator):
    """n >= 1 draws as an iterator of (m, chunk_rng) pairs in chunk order:
    chunk i holds ``MC_CHUNK`` draws (the last may hold fewer) from the
    i-th child of ``rng.spawn``, spawned as the chunk is taken (children
    are numbered consecutively, as in one spawn).  n is checked at once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((min(MC_CHUNK, n - start), rng.spawn(1)[0]) for start in range(0, n, MC_CHUNK))


def mc_sum(kernel, rows: int, n: int, rng: np.random.Generator, threads: int = 1):
    """Elementwise sum of the tuples kernel(work, chunk_rng) over the chunks
    of ``mc_chunks(n, rng)``, work being a C-contiguous (rows, m) float
    workspace for a chunk of m draws.

    At most workers = min(threads, CPU count, number of chunks) chunks
    run at once, slot i of every round in the leading rows * m entries of
    the i-th of workers flat arrays, allocated once per call for the
    largest chunk.  Each round ends before the next starts, so no
    workspace holds two chunks at once.  The results are added in chunk
    order, so the sum is the same bitwise for every ``threads``, and
    memory holds at most one round of chunks and workers workspaces,
    whatever n is.
    """
    if threads < 1:
        raise DomainError("threads must be >= 1")
    chunks = mc_chunks(n, rng)
    workers = min(threads, os.cpu_count() or 1, -(-n // MC_CHUNK))
    flats = [np.empty(rows * min(n, MC_CHUNK)) for _ in range(workers)]

    def run(flat, chunk):
        m, chunk_rng = chunk
        return kernel(flat[:rows * m].reshape(rows, m), chunk_rng)

    total = None
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        while batch := list(itertools.islice(chunks, workers)):
            for part in (pool.map if pool else map)(run, flats, batch):
                total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return total
