"""Byte-exact vectorised '%.17g' for the CSV writer.

``format_rows(values)`` spells a (rows, cols) float64 block as CSV text:
every value exactly as ``"%.17g" % value``, commas between the columns
and LF after each row.  A value with 1e-4 <= |x| < 10, in one of the
five decades that '%.17g' writes in fixed notation with one integer
digit, is spelt here in numpy; every other value (zeros, |x| < 1e-4,
|x| >= 10, nan and infinities) by '%.17g' itself.

For |x| in decade k (10^k <= |x| < 10^(k+1), -4 <= k <= 0):

- k is found by comparing |x| with the doubles 1e-4, 1e-3, 0.01, 0.1, 1
  and 10.  The first four lie above the powers of ten they round, and no
  double below one of them rounds up to that power at 17 digits, so the
  comparison gives the decade of the rounded value too.
- |x| 10^(16-k) lies in [1e16, 1e17).  10^(16-k) is a double (16-k <= 22),
  so Dekker's product with Veltkamp's split at 2^27 + 1 (Numer. Math. 18,
  1971) gives it without error as hi + lo.
- hi >= 1e16 > 2^53 is an even integer, so D = hi + rint(lo), rounded
  half to even as '%.17g' rounds, is the 17-digit integer of |x|.  It is
  split exactly, in float64, into its lead digit and four 4-digit groups.
- Each value gets a 32-byte slot: 8 bytes of head (sign, then '0.', the
  decade's zeros and the lead digit, or the lead digit and '.'), the four
  groups from a table of 4-digit ASCII strings, and the separator.  A
  byte that '%.17g' does not write (a trailing zero, a '.' with no digit
  after it) is NUL in the tables, and one boolean mask drops every NUL.

A value left to '%.17g' gets the head '?' and no digits; the text is
split at each '?' and the value's '%.17g' spelling put in between.

numpy maps the code of each kind of loop into memory the first time it
runs one, so the tables are built from bytes and copies, and the kernel
keeps to loops the sampler runs anyway and frees each array once spent.
"""

from __future__ import annotations

import numpy as np

# decade k = i - 5 where _EDGES[i - 1] <= |x| < _EDGES[i], i = 1..5; i = 0
# and i = 6 (with nan) are left to '%.17g'
_EDGES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
_FALLBACK = np.array([True, False, False, False, False, False, True])
_SCALE = np.array([1e16, 1e20, 1e19, 1e18, 1e17, 1e16, 1e16])  # 10^(16 - k)
_SPLIT = 134217729.0  # 2^27 + 1
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
_HEAD_BASE = np.arange(0.0, 280.0, 40.0)


def _group_table() -> np.ndarray:
    """The four ASCII digits of g, 0 <= g < 10^4, as one uint32 at
    [10^4 + g], and at [g] with the trailing zeros NUL."""
    pairs = np.frombuffer(b"".join([b"%02d" % i for i in range(100)]), dtype=np.uint16)
    digits = np.empty((100, 100, 2), dtype=np.uint16)
    digits[:, :, 0] = pairs[:, None]
    digits[:, :, 1] = pairs
    full = digits.tobytes()
    trimmed = bytearray(full)
    for j in range(4):  # digit j of g is trailing when 10^(4 - j) divides g
        step = 4 * 10 ** (4 - j)
        trimmed[j::step] = bytes(len(range(j, len(full), step)))
    return np.frombuffer(bytes(trimmed) + full, dtype=np.uint32)


def _head_table() -> np.ndarray:
    """The NUL-padded 8-byte head at [40 i + 4 d + 2 neg + dot] for the
    decade index i and lead digit d: a '-' if neg, and a '.' if dot or
    in a decade below 0."""
    heads = []
    for i in range(7):
        for d in range(10):
            for sign in ("", "-"):
                for dot in ("", "."):
                    if _FALLBACK[i]:
                        head = "?"
                    elif i == 5:
                        head = "%s%d%s" % (sign, d, dot)
                    else:
                        head = "%s0.%s%d" % (sign, "0" * (4 - i), d)
                    heads.append(head.ljust(8, "\0"))
    return np.frombuffer("".join(heads).encode("ascii"), dtype=np.uint64)


_GROUPS = _group_table()
_HEADS = _head_table()


def _slots(a: np.ndarray, decade: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The (rows, cols, 4) uint64 slots of the magnitudes ``a``, which are
    overwritten; the separators are left to the caller."""
    # |x| 10^(16 - k) = hi + lo exactly, with a = a_hi + a_lo
    hi = a * _SCALE[decade]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi
    s_hi = _SCALE_HI[decade]
    lo = a_hi * s_hi - hi
    s_lo = _SCALE_LO[decade]
    lo += a_hi * s_lo
    lo += a * s_hi
    lo += a * s_lo
    del a_hi, s_hi, s_lo
    # D = 10^8 top + bottom: floor(hi / 10^8) is exact, and rint(lo) may borrow
    top = np.floor(hi / 1e8)
    bottom = hi
    bottom -= top * 1e8
    bottom += np.rint(lo)
    del lo
    carry = np.floor(bottom / 1e8)
    top += carry
    bottom -= carry * 1e8
    del carry
    lead = np.floor(top / 1e8)
    top -= lead * 1e8
    groups = np.empty((4,) + a.shape)
    np.floor(top / 1e4, out=groups[0])
    np.subtract(top, groups[0] * 1e4, out=groups[1])
    np.floor(bottom / 1e4, out=groups[2])
    np.subtract(bottom, groups[2] * 1e4, out=groups[3])
    del top, bottom
    # a group is written in full while a later group is not 0, and the
    # last group that is not 0 drops its trailing zeros
    later = np.zeros(a.shape)
    for group in groups[::-1]:
        full = np.where(later == 0.0, 0.0, 1e4)
        later += group
        group += full
    del full
    code = lead
    code *= 4.0
    code += _HEAD_BASE[decade]
    code += negative * 2.0
    code += np.where(later == 0.0, 0.0, 1.0)  # a '.' after a lead digit with digits to follow
    del later
    slots = np.empty(a.shape + (4,), dtype=np.uint64)
    slots[..., 0] = _HEADS[code.astype(np.intp)]
    del code
    quarters = slots.view(np.uint32)
    for i, group in enumerate(groups):
        quarters[..., 2 + i] = _GROUPS[group.astype(np.intp)]
    return slots


def format_rows(values: np.ndarray) -> str:
    """The CSV text of the float64 block ``values``, (rows, cols), exactly
    as the rows ``",".join(["%.17g"] * cols) + "\\n"`` give it."""
    a = np.abs(values)
    decade = np.searchsorted(_EDGES, a, side="right")
    fallback = _FALLBACK[decade]
    spliced = np.count_nonzero(fallback)
    if spliced:
        a[fallback] = 1.0  # in a decade, so the slot is valid; its head is '?' alone
    slots = _slots(a, decade, values < 0.0)
    del a, decade
    separators = np.zeros((values.shape[1], 8), dtype=np.uint8)
    separators[:, 0] = ord(",")
    separators[-1, 0] = ord("\n")
    slots[..., 3] = separators.view(np.uint64).ravel()
    spelt = slots.view(np.uint8).ravel()
    text = spelt[spelt != 0].tobytes().decode("ascii")
    if not spliced:
        return text
    parts = text.split("?")
    out = [""] * (2 * len(parts) - 1)
    out[0::2] = parts
    out[1::2] = ["%.17g" % v for v in values[fallback].tolist()]
    return "".join(out)
