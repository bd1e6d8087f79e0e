"""Output checks for the benchmark commands.

Every check reads only what a command printed or wrote, and compares it
with an independent closed form or with a bound on Monte Carlo error.
None compares bytes with a recorded run, so a change of draw stream does
not fail a check.  A failed check raises ``CheckFailed`` naming the
first violation.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

FVM_REFERENCE = Path(__file__).resolve().parent / "reference" / "figure1_fvm.json"

SAMPLE_HEADER = ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
                 "theta", "u1", "u2", "u3", "x"]
ROTATION_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
ROOT_TOL = 1e-8
Z_LIMIT = 6.0

# Gauss-Legendre rule on t in [0, pi/2] for the Fisher-von Mises X-law
# after x = sin^2 t, where the density becomes smooth:
# f_X(x) dx  is proportional to  cos^2 t exp(-4 kappa cos^2 t) dt.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(400)
_GL_T = 0.25 * math.pi * (_GL_NODES + 1.0)
_GL_W = 0.25 * math.pi * _GL_WEIGHTS


class CheckFailed(Exception):
    """A command's output violates its check."""


def cayley_tau2(kappa):
    """Second zonal moment of the Cayley-LMR family,
    (2 + k + k^2) / (6 + 5k + k^2)."""
    kappa = np.asarray(kappa, dtype=float)
    return (2.0 + kappa + kappa * kappa) / (6.0 + 5.0 * kappa + kappa * kappa)


def fvm_x_moments(kappa: float) -> tuple[float, float]:
    """(E[X], E[X^2]) of the Fisher-von Mises angle variate, by a
    400-point Gauss-Legendre rule in t with x = sin^2 t."""
    c2 = np.cos(_GL_T) ** 2
    x = np.sin(_GL_T) ** 2
    w = _GL_W * c2 * np.exp(-4.0 * kappa * c2)
    mass = w.sum()
    return float((w * x).sum() / mass), float((w * x * x).sum() / mass)


def fvm_tau2(kappa: float) -> float:
    """Second zonal moment of the Fisher-von Mises family through the
    moment map tau2 = 7/15 - (8/5) rho1 + (32/15) rho2."""
    rho1, rho2 = fvm_x_moments(kappa)
    return 7.0 / 15.0 - 1.6 * rho1 + (32.0 / 15.0) * rho2


def expected_x(family: str, kappa: float) -> float:
    if family == "cayley":
        return (kappa + 0.5) / (kappa + 2.0)
    if family == "fvm":
        return fvm_x_moments(kappa)[0]
    raise ValueError("no expected X for family %r" % family)


def axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues' rotation about ``axis`` (normalised here) by ``angle``."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    S = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * S + (1.0 - math.cos(angle)) * (S @ S)


def cayley_projected_gram(V, kappa: float, axis, angle: float) -> np.ndarray:
    """E[Gram(H P V)] = Gram(V) - Gram(D M V) for the Cayley-LMR law with
    modal rotation M, D^2 = diag((1 - tau2)/2, (1 - tau2)/2, tau2)."""
    tau2 = float(cayley_tau2(kappa))
    W = axis_angle(axis, angle) @ np.asarray(V, dtype=float)
    d2 = np.array([0.5 * (1.0 - tau2), 0.5 * (1.0 - tau2), tau2])
    return W.T @ W - W.T @ (d2[:, None] * W)


def load_fvm_reference() -> dict:
    with open(FVM_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Parsers for the printed reports


def parse_matrices(text: str) -> dict:
    """Map each printed label line (ending in ':') to the matrix printed
    under it as indented rows."""
    blocks: dict = {}
    label = None
    for line in text.splitlines():
        if line.startswith(" ") and label is not None:
            blocks[label].append([float(v) for v in line.split()])
        elif line.rstrip().endswith(":"):
            label = line.rstrip()[:-1]
            blocks[label] = []
        else:
            label = None
    return {k: np.array(v) for k, v in blocks.items() if v}


def parse_assignments(text: str) -> dict:
    """Map 'name = value ...' lines to their first value token."""
    out = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and rest.split():
            out[name.strip()] = rest.split()[0]
    return out


def _block(blocks: dict, prefix: str) -> np.ndarray:
    for label, G in blocks.items():
        if label.startswith(prefix):
            return G
    raise CheckFailed("no %r block in the gram report" % prefix)


def _number(values: dict, name: str) -> float:
    if name not in values:
        raise CheckFailed("report has no %r line" % name)
    value = float(values[name])
    if not math.isfinite(value):
        raise CheckFailed("%s is not finite" % name)
    return value


# ---------------------------------------------------------------------------
# Checks, one per command


def check_gram(text: str, V, kappa: float, axis, angle: float, n_mc: int) -> None:
    """Closed block equals the Cayley closed form to 1e-9; the MC block
    lies within 6 |v_i||v_j| / sqrt(n) of it entrywise."""
    V = np.asarray(V, dtype=float)
    blocks = parse_matrices(text)
    closed = _block(blocks, "closed-form")
    mc = _block(blocks, "monte-carlo")
    k = V.shape[1]
    if closed.shape != (k, k) or mc.shape != (k, k):
        raise CheckFailed("gram blocks are not %d x %d" % (k, k))
    expected = cayley_projected_gram(V, kappa, axis, angle)
    err = np.abs(closed - expected)
    if not err.max() <= CLOSED_FORM_TOL:
        i, j = np.unravel_index(np.argmax(err), err.shape)
        raise CheckFailed("closed-form entry (%d,%d) is off by %.3g" % (i, j, err[i, j]))
    norms = np.linalg.norm(V, axis=0)
    limit = Z_LIMIT * np.outer(norms, norms) / math.sqrt(n_mc)
    excess = np.abs(mc - closed) - limit
    if not excess.max() <= 0.0:
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        raise CheckFailed("MC entry (%d,%d) is %.3g from the closed form (limit %.3g)"
                          % (i, j, abs(mc[i, j] - closed[i, j]), limit[i, j]))


def check_classify(text: str) -> None:
    """The reported |closed - mc| gap is within 6 MC standard errors."""
    values = parse_assignments(text)
    gap = _number(values, "gap |closed - mc|")
    stderr = _number(values, "mc_stderr")
    if not 0.0 < stderr:
        raise CheckFailed("mc_stderr %g is not positive" % stderr)
    if not gap <= Z_LIMIT * stderr:
        raise CheckFailed("gap %.3g exceeds %g standard errors (%.3g)" % (gap, Z_LIMIT, stderr))


def check_sample(path, n: int, family: str, kappa: float, chunk: int = 10000) -> None:
    """Every row is a rotation to 1e-9, x lies in (0, 1), and the mean of
    x is within 6 standard errors of E[X].  The file is read in chunks so
    the check adds little to the process's peak memory."""
    mean_x = expected_x(family, kappa)
    rows = 0
    s1 = s2 = 0.0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != SAMPLE_HEADER:
            raise CheckFailed("unexpected sample header %r" % header)
        while True:
            lines = list(itertools.islice(fh, chunk))
            if not lines:
                break
            a = np.loadtxt(lines, delimiter=",", ndmin=2)
            if a.shape[1] != len(SAMPLE_HEADER) or not np.all(np.isfinite(a)):
                raise CheckFailed("malformed sample rows after row %d" % rows)
            R = a[:, :9].reshape(-1, 3, 3)
            ortho = np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max(axis=(1, 2))
            bad = (ortho > ROTATION_TOL) | (np.abs(np.linalg.det(R) - 1.0) > ROTATION_TOL)
            if bad.any():
                raise CheckFailed("row %d is not a rotation" % (rows + int(np.argmax(bad)) + 1))
            x = a[:, 13]
            outside = ~((x > 0.0) & (x < 1.0))
            if outside.any():
                raise CheckFailed("row %d has x outside (0, 1)" % (rows + int(np.argmax(outside)) + 1))
            d = x - mean_x
            s1 += float(d.sum())
            s2 += float((d * d).sum())
            rows += len(a)
    if rows != n:
        raise CheckFailed("sample wrote %d rows, expected %d" % (rows, n))
    shift = s1 / n
    stderr = math.sqrt(max(s2 / n - shift * shift, 0.0) / max(n - 1, 1))
    if not abs(shift) <= Z_LIMIT * stderr:
        raise CheckFailed("mean x is %.3g from E[X] = %.6f (stderr %.3g)" % (shift, mean_x, stderr))


def check_figure1(path, kappa_max: float, n_points: int, fvm_reference) -> None:
    """The kappa grid is uniform; the cayley column matches the closed
    form and the fvm column the reference values, both to 1e-9."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["kappa", "cayley", "fvm"]:
            raise CheckFailed("unexpected figure1 header %r" % header)
        a = np.loadtxt(fh, delimiter=",", ndmin=2)
    if a.shape != (n_points, 3) or not np.all(np.isfinite(a)):
        raise CheckFailed("figure1 table is not %d x 3 and finite" % n_points)
    kappa = kappa_max * np.arange(n_points) / (n_points - 1)
    if not np.abs(a[:, 0] - kappa).max() <= 1e-12 * kappa_max:
        raise CheckFailed("figure1 kappa grid is not uniform on [0, %g]" % kappa_max)
    fvm_reference = np.asarray(fvm_reference, dtype=float)
    for col, expected, name in ((1, cayley_tau2(kappa) - 1.0 / 3.0, "cayley"),
                                (2, fvm_reference, "fvm")):
        err = np.abs(a[:, col] - expected)
        if not err.max() <= CLOSED_FORM_TOL:
            i = int(np.argmax(err))
            raise CheckFailed("%s column at kappa=%g is off by %.3g" % (name, kappa[i], err[i]))


_ROOTS = re.compile(r"^fake-uniformity roots: (.*)$", re.MULTILINE)


def check_fakeuni(text: str, family: str) -> None:
    """Cayley-LMR reports the single root kappa = 1 (to 1e-8);
    Fisher-von Mises reports none."""
    match = _ROOTS.search(text)
    if match is None:
        raise CheckFailed("fakeuni printed no roots line")
    found = match.group(1)
    if family == "fvm":
        if not found.startswith("none"):
            raise CheckFailed("fvm reported roots %s" % found)
        return
    if found.startswith("none"):
        raise CheckFailed("cayley reported no root")
    roots = [float(v) for v in found.split(",")]
    if len(roots) != 1 or not abs(roots[0] - 1.0) <= ROOT_TOL:
        raise CheckFailed("cayley roots %s, expected the single root 1" % found)
