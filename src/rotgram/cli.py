"""Command-line interface.

Subcommands: sample, figure1, gram, classify, fakeuni.  Every command is
deterministic given --seed and its flags; the generator is numpy's
PCG64, so a seed reproduces output byte for byte.  Every number printed
or written is formatted '%.17g', which round-trips every float64; a CSV
is a header row and float columns, written in row blocks by
``_write_csv`` with LF line endings in UTF-8.  Flags are spelled in
full; argparse's prefix matching is off.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings

import numpy as np

from . import classifier, distributions, fake_uniformity, moments, radon, so3
from .errors import DomainError, NoConvergence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOCONV = 4
ROW_BLOCK = 256  # rows per block of ``_write_csv``: one block's Python floats stay small


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_csv(path, header, columns):
    """Write ``header`` and the float ``columns`` (1-D or 2-D arrays of
    equal length, side by side) to ``path``, or to stdout with no path,
    every value as '%.17g', in blocks of ROW_BLOCK rows."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with contextlib.nullcontext(sys.stdout) if path is None else _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), ROW_BLOCK):
            block = np.column_stack([c[start:start + ROW_BLOCK] for c in columns]).tolist()
            fh.write("".join([row % tuple(values) for values in block]))


def _parse_modal(stem: str, axis: str | None, angle: float | None) -> np.ndarray:
    """Modal rotation from the flags ``stem``-axis ('x,y,z', any nonzero finite
    length) and ``stem``-angle (radians); the identity when neither is given."""
    if axis is None and angle is None:
        return np.eye(3)
    if axis is None or angle is None:
        raise DomainError("axis-angle input needs both %s-axis and %s-angle" % (stem, stem))
    if not math.isfinite(angle):
        raise DomainError("%s-angle must be finite" % stem)
    vec = np.array([float(v) for v in axis.split(",")], dtype=float)
    if vec.shape != (3,):
        raise DomainError("%s-axis expects three comma-separated values" % stem)
    if not (np.all(np.isfinite(vec)) and np.any(vec != 0.0)):
        raise DomainError("%s-axis must be finite and nonzero" % stem)
    # scaled exactly by a power of two, so that the norm cannot under- or overflow
    vec = np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1])
    return so3.from_axis_angle(vec / np.linalg.norm(vec), float(angle))


def _spec(args) -> distributions.DistributionSpec:
    modal = _parse_modal("--modal", args.modal_axis, args.modal_angle)
    return distributions.DistributionSpec(args.family, modal=modal, kappa=args.kappa)


def cmd_sample(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    spec = _spec(args)
    rng = np.random.default_rng(args.seed)
    P, axes, angles, x = distributions.sample_rotations(spec, args.n, rng, return_parts=True)
    _write_csv(args.out or None, ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
                                  "theta", "u1", "u2", "u3", "x"],
               (P.reshape(args.n, 9), angles, axes, x))
    return EXIT_OK


def cmd_figure1(args) -> int:
    cay = fake_uniformity.scan_curve("cayley", args.kappa_max, args.n_points)
    fvm = fake_uniformity.scan_curve("fvm", args.kappa_max, args.n_points)
    _write_csv(args.out, ["kappa", "cayley", "fvm"], (cay, fvm[:, 1]))
    print("wrote %s (%d rows)" % (args.out, len(cay)))
    return EXIT_OK


def _load_landmarks(path: str) -> np.ndarray:
    """The 3 x k landmark matrix, stored row-major and headerless: three
    CSV rows, one landmark per column."""
    try:
        with warnings.catch_warnings():  # an empty file is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError("could not parse landmark CSV: %s" % exc) from exc
    if raw.ndim != 2 or raw.shape[0] != 3 or raw.shape[1] < 1:
        raise ValueError("landmark CSV must hold a 3 x k matrix (three rows)")
    if not np.all(np.isfinite(raw)):
        raise ValueError("landmark CSV contains non-finite entries")
    with np.errstate(over="ignore"):  # every printed block is at most twice Gram(V) in size
        if not np.all(np.isfinite(2.0 * radon.gram(raw))):
            raise ValueError("landmark CSV entries are too large: Gram(V) overflows")
    return raw


def _print_matrix(label: str, G: np.ndarray) -> None:
    print(label)
    for row in G:
        print("  " + "  ".join(["%.17g" % v for v in row]))


def cmd_gram(args) -> int:
    if args.n_mc < 1:
        raise DomainError("--n-mc must be >= 1")
    spec = _spec(args)
    try:
        V = _load_landmarks(args.landmarks)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    closed = radon.expected_projected_gram(spec, V)
    mc, mc_se = radon.mc_projected_gram(spec, V, args.n_mc, np.random.default_rng(args.seed),
                                        threads=args.threads)
    deviation = mc - closed
    naive_bias = radon.recover_gram(closed, 1.0 / 3.0, (spec.modal @ V)[2]) - radon.gram(V)
    _print_matrix("closed-form expected projected Gram:", closed)
    _print_matrix("monte-carlo estimate (n=%d):" % args.n_mc, mc)
    _print_matrix("entrywise deviation (mc - closed):", deviation)
    _print_matrix("naive uniform-law recovery bias (1.5 E - Gram(V)):", naive_bias)
    print("max |deviation| = %.17g" % np.max(np.abs(deviation)))
    print("max |naive bias| = %.17g" % np.max(np.abs(naive_bias)))
    _print_matrix("entrywise MC standard error:", mc_se)
    spread = mc_se > 0.0
    if np.all(deviation[~spread] == 0.0):
        z = np.abs(deviation[spread]) / mc_se[spread]
        print("max |z| = %.17g" % np.max(z, initial=0.0))
    else:
        print("max |z| = undefined (zero standard error)")
    if args.out:
        with _open_out(args.out) as fh:
            fh.write("block,i,j,value\n")
            for name, G in (("closed", closed), ("mc", mc), ("bias", naive_bias)):
                fh.writelines(["%s,%d,%d,%.17g\n" % (name, i, j, v)
                               for (i, j), v in np.ndenumerate(G)])
        print("wrote %s" % args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.n_mc < 1:
        raise DomainError("--n-mc must be >= 1")
    m1 = _parse_modal("--modal", args.modal_axis, args.modal_angle)
    m2 = _parse_modal("--modal2", args.modal2_axis, args.modal2_angle)
    common = distributions.DistributionSpec(args.family, kappa=args.kappa)
    pair = classifier.ClassPair(m1=m1, m2=m2, common=common)
    psi = classifier.psi_closed(pair)
    dpsi = classifier.psi_derivative(pair)
    acc, _, _ = classifier.mc_accuracy(pair, args.n_mc, np.random.default_rng(args.seed),
                                       threads=args.threads)
    if 0.0 < acc < 1.0:
        stderr = "%.17g" % math.sqrt(acc * (1.0 - acc) / args.n_mc)
    else:
        # one verdict for every draw: the 95% rule-of-three bound, not a 0 stderr
        stderr = "%.17g (rule-of-three bound 3/n; MC accuracy is exactly %.17g)" % (
            3.0 / args.n_mc, acc)
    print("alpha = %.17g" % pair.alpha)
    print("psi_closed = %.17g" % psi)
    print("psi_derivative = %.17g" % dpsi)
    print("mc_accuracy = %.17g (n=%d)" % (acc, args.n_mc))
    print("mc_stderr = %s" % stderr)
    print("gap |closed - mc| = %.17g" % abs(psi - acc))
    return EXIT_OK


def cmd_fakeuni(args) -> int:
    slope = fake_uniformity.initial_slope(args.family)
    root = fake_uniformity.find_fake_uniformity(args.family, 0.0, args.kappa_max)
    if args.out:
        points = fake_uniformity.scan_curve(args.family, args.kappa_max, args.n_points)
    print("family = %s" % args.family)
    print("initial_slope = %.17g" % slope)
    if root is not None:
        print("fake-uniformity roots: %.17g" % root)
    else:
        print("fake-uniformity roots: none in (0, %.17g]" % args.kappa_max)
    if args.out:
        _write_csv(args.out, ["kappa", "tau2_minus_third"], (points,))
        print("curve written to %s" % args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="PCG64 seed (default 0)")
    parser.add_argument("--family", choices=["haar", "cayley", "fvm"], default="haar")
    parser.add_argument("--kappa", type=float, default=0.0, help="concentration (>= 0)")
    parser.add_argument("--modal-axis", help="modal rotation axis 'x,y,z' (default: identity modal)")
    parser.add_argument("--modal-angle", type=float, help="modal rotation angle in radians")


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=1,
                        help="MC chunks run at once (>= 1, default 1); output does not depend on it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotgram",
        allow_abbrev=False,
        description="Random-rotation shape transforms: sampling, fake-uniformity "
                    "curves, projected-Gram experiments, and the two-class Bayes "
                    "accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", allow_abbrev=False,
                       help="draw rotations and emit one CSV row per draw")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("figure1", allow_abbrev=False,
                       help="tau2(kappa) - 1/3 curves for both families")
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=101)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("gram", allow_abbrev=False,
                       help="closed-form vs MC projected Gram on a landmark file")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--landmarks", required=True,
                   help="headerless CSV holding the 3 x k landmark matrix "
                        "(three rows, one landmark per column)")
    p.add_argument("--n-mc", type=int, default=100000)
    p.add_argument("--out", help="optional CSV path for the closed/mc/bias blocks")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("classify", allow_abbrev=False,
                       help="closed-form and MC accuracy for two modal rotations")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--modal2-axis", help="second modal rotation axis 'x,y,z'")
    p.add_argument("--modal2-angle", type=float, help="second modal rotation angle")
    p.add_argument("--n-mc", type=int, default=100000)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fakeuni", allow_abbrev=False,
                       help="initial slope and fake-uniformity roots of tau2(kappa)")
    p.add_argument("--family", choices=["cayley", "fvm"], default="cayley")
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=129,
                   help="grid points of the --out curve (>= 2, default 129); unused without --out")
    p.add_argument("--out", help="optional CSV path for the curve")
    p.set_defaults(func=cmd_fakeuni)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError, OSError, NoConvergence) as exc:  # DomainError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return (EXIT_DATA if isinstance(exc, OSError)
                else EXIT_NOCONV if isinstance(exc, NoConvergence) else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
