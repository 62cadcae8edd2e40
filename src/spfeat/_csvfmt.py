"""CSV text for float64 matrices, byte-identical to Python's ``repr``.

Joined, the chunks of ``csv_chunks(data)`` are exactly
``"".join(",".join(map(repr, row)) + "\\n" for row in data.tolist())``
as ASCII bytes, computed block by block with whole-array NumPy operations.

* Scale.  Each |x| becomes S = |x| * 10**k in [1e16, 1e17), with
  k = 16 - floor(log10 |x|).  10**k is a double-double ph + pl, and
  |x| * ph is split exactly by Dekker's TwoProduct, so S is held as an
  int64 N plus a float fraction f with an error below 1e-14.
* Interval.  Every real within half an ulp of x rounds back to x; scaled
  by 10**k that half-ulp is U, always above 0.55, so the integer nearest
  to S lies inside (S - U, S + U).
* Shortest digits.  For m = 1, 2, ... the multiple of 10**m nearest to S
  is kept while it stays strictly inside the interval.  The largest such
  m gives 17 - m digits: the shortest string and, among the shortest,
  the nearest to x.  That is what ``repr`` prints (Gay's dtoa, mode 0).
* Certify or fall back.  ``repr`` itself, once per distinct bit pattern,
  formats every element whose decision lies within _MARGIN of an
  interval edge or of an equidistant tie (the edge is inclusive for an
  even significand, and ties go to the even digit), and every element
  outside the fast path: 0, inf, NaN, subnormals, exact powers of two
  (their interval is asymmetric), and |x| outside [1e-280, 1e280].
* Layout.  Each value gets a fixed-width frame of _WIDTH bytes: sign,
  the "0.000" lead of fixed notation, 17 digit / decimal-point slot
  pairs, a trailing "0", "e+ddd", then the separator.  Unused bytes are
  NUL and are dropped by ``bytes.translate`` at the end.  As in
  ``repr``, decimal exponents -4 .. 15 print in fixed notation and the
  rest in exponent notation.

No table is built at import; powers of ten are cached per exponent on
first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Values per formatted block: a few hundred feature rows.  Bounds the
# frame (_WIDTH bytes a value) and the int64 temporaries to a few MB.
BLOCK_VALUES = 10_000

# Distance from an interval edge or a tie, in units of the 17th digit,
# inside which a decision is left to repr.  S and U are good to 1e-14.
_MARGIN = 1e-9

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_LOW, _HIGH = 10**16, 10**17
_MANTISSA = (1 << 52) - 1

# frame layout, in bytes: [0] sign, [1:6] "0.000" lead, [6:40] digit i at
# 6 + 2i with the decimal point slot after it at 7 + 2i, [40] trailing "0",
# [41:46] "e+ddd", [46] separator, [47] NUL
_WIDTH = 48
_DIGITS = 6
_SUFFIX = 40
_EXP_MAX = 300


@cache
def _pow10(k: int) -> tuple:
    """10**k as ph + pl, and ph as Dekker halves (hh, hl); exact to ~2**-106."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    ph = num / den  # int / int rounds correctly, as does the remainder below
    p, q = ph.as_integer_ratio()
    pl = (num * q - p * den) / (den * q)
    t = ph * _SPLIT
    hh = t - (t - ph)
    return ph, pl, hh, ph - hh


@cache
def _tables() -> tuple:
    """Frame words: prefixes, digit quads, digit masks and suffixes, as uint64."""
    # bytes 0..5: sign (0 or 1) * 5 + lead (0: none, 1: "0.", 2: "0.0", ...)
    prefix = [
        int.from_bytes((b"-" if sign else b"\0") + (b"0." + b"0" * (lead - 1) if lead else b""), "little")
        for sign in (0, 1) for lead in range(5)
    ]
    # four ASCII digits, each followed by an empty decimal point slot
    v = np.arange(10_000, dtype=np.uint64)
    quads = sum((v // 10**(3 - i) % 10 + 48) << (16 * i) for i in range(4))
    # digit bytes of frame words 1..4 kept when the first `shown` digits print
    masks = np.array([[sum(0xFF << (16 * i) for i in range(4) if 4 * w + i + 1 < shown) for w in range(4)]
                      for shown in range(18)], np.uint64)
    # bytes 40..47: 0 nothing, 1 trailing "0", 2 + E + _EXP_MAX "e" and the exponent E
    suffix = [0, ord("0")]
    for e in range(-_EXP_MAX, _EXP_MAX + 1):
        text = b"%+03d" % e
        suffix.append(int.from_bytes(b"\0e" + text[:1] + text[1:].rjust(3, b"\0"), "little"))
    return np.array(prefix, np.uint64), quads, masks, np.array(suffix, np.uint64)


def _scaled(a):
    """k, N, f and U: |x| * 10**k = N + f, N an int64, |f| <= 0.5, U the scaled half-ulp.

    ``a`` holds positive normal values in the fast range.  N has 17
    digits except next to a power of ten, where log10 can be one off;
    the caller sends those values to repr.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    k_min = int(k.min())
    tab = np.array([_pow10(j) for j in range(k_min, int(k.max()) + 1)]).T
    ph, pl, hh, hl = (col.take(k - k_min) for col in tab)
    p = a * ph
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * pl
    r = np.rint(lo)
    n0 = p.astype(np.int64) + r.astype(np.int64)
    # half an ulp of a, 2**(exponent - 53), times 10**k
    half_ulp = ((a.view(np.int64) >> 52) - 53 << 52).view(np.float64)
    return k, n0, lo - r, half_ulp * ph


def _nearest(n0, f, u, step):
    """The multiple of step nearest to N + f, as its quotient q and a step up.

    Returns (q, up, inside, edge, tie): the multiple is (q + up) * step;
    inside when it lies strictly inside (N + f - U, N + f + U); edge and
    tie when its distance is within _MARGIN of U or of the other neighbour's.
    """
    q = n0 // step
    rem = n0 - q * step
    below = rem + f
    above = (step - rem) - f  # not step - below: rem may exceed 2**53
    dist = np.minimum(below, above)
    return (q, above < below, dist < u - _MARGIN, np.abs(dist - u) <= _MARGIN,
            np.abs(below - above) <= _MARGIN)


def _shortest(n0, f, u):
    """The 17-digit integer whose leading digits repr prints, their count, and doubt.

    Returns (c, m, doubt): c is the multiple of 10**m nearest to N + f
    for the largest m that keeps it strictly inside (N + f - U, N + f + U);
    doubt marks decisions within _MARGIN of an edge or a tie.
    """
    # level 1 over every value, deeper levels over those still inside
    q, up, inside, edge, tie = _nearest(n0, f, u, 10)
    c = np.where(inside, (q + up) * 10, n0)
    m = inside.astype(np.int64)
    doubt = edge | np.where(inside, tie, np.abs(0.5 - np.abs(f)) <= _MARGIN)
    live = np.flatnonzero(inside)
    for level in range(2, 17):
        if not live.size:
            break
        step = 10**level
        q, up, inside, edge, tie = _nearest(n0[live], f[live], u[live], step)
        doubt[live[edge]] = True
        live = live[inside]
        c[live] = (q[inside] + up[inside]) * step
        m[live] = level
        doubt[live] = tie[inside]
    return c, m, doubt


def _fallback(x, where, frame):
    """Write repr of x[where] into those frames, once per distinct bit pattern."""
    patterns, inverse = np.unique(x.view(np.int64)[where], return_inverse=True)
    text = b"".join(repr(v).encode().ljust(_SUFFIX, b"\0") for v in patterns.view(np.float64).tolist())
    frame[where, :_SUFFIX] = np.frombuffer(text, np.uint8).reshape(-1, _SUFFIX)[inverse]


def _fill(x, frame, separators):
    """Write the frame words of the values x into ``frame`` (len(x) x 6 uint64)."""
    prefix_tab, quad_tab, mask_tab, suffix_tab = _tables()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX) & (a.view(np.int64) & _MANTISSA != 0)
    a[~fast] = 1.5  # any fast-path value; these elements fall back
    k, n0, f, u = _scaled(a)
    c, m, doubt = _shortest(n0, f, u)
    fast &= ~doubt & (n0 >= _LOW) & ((n0 > _LOW) | (f >= 0)) & (n0 < _HIGH)
    slow = np.flatnonzero(~fast)

    carry = c == _HIGH  # rounded up to 10**17: one digit, one more place
    c[carry] = _LOW
    digits = 17 - m
    point = 17 - k + carry  # x = 0.d1d2... * 10**point
    fixed = (point > -4) & (point <= 16)

    # words: [0] sign, "0.000" lead, digit 0 and its point slot; [1..4]
    # digits 1..16, each with its point slot; [5] trailing "0", "e+ddd",
    # separator
    quads = np.empty((x.size, 4), np.int64)
    for w in range(3, -1, -1):
        q = c // 10_000
        quads[:, w] = c - q * 10_000
        c = q
    shown = np.where(fixed & (point > digits), point, digits)
    frame[:, 1:5] = quad_tab.take(quads)
    frame[:, 1:5] &= mask_tab.take(shown, axis=0)
    lead = np.where(fixed & (point <= 0), 1 - point, 0)
    frame[:, 0] = prefix_tab.take(np.signbit(x) * 5 + lead) | (c + 48).view(np.uint64) << 48
    code = np.where(fixed, point >= digits, point + (1 + _EXP_MAX))
    code[slow] = 0
    frame[:, 5] = suffix_tab.take(code) | separators

    bytes8 = frame.view(np.uint8)
    dot = np.flatnonzero(np.where(fixed, point >= 1, digits > 1))
    slot = np.where(fixed, point - 1, 0)[dot]
    bytes8.reshape(-1)[dot * _WIDTH + (_DIGITS + 1) + 2 * slot] = ord(".")
    if slow.size:
        _fallback(x, slow, bytes8)


def csv_chunks(data):
    """Yield the CSV text of a 2-D array, BLOCK_VALUES at a time, as bytes.

    Joined, the chunks are ``",".join(map(repr, row)) + "\\n"`` for every
    row of ``data`` as float64.
    """
    data = np.asarray(data, dtype=np.float64)
    rows, cols = data.shape
    if cols == 0:
        if rows:
            yield b"\n" * rows
        return
    step = max(1, BLOCK_VALUES // cols)
    # one frame buffer for every block: a fresh frame per block page-faults
    # (10-20 % of the formatting time, measured on 256 x 39 blocks)
    buf = bytearray(min(rows, step) * cols * _WIDTH)
    frame = np.frombuffer(buf, np.uint64).reshape(-1, _WIDTH // 8)
    separators = np.full(cols, ord(","), np.uint64)
    separators[-1] = ord("\n")
    separators = np.tile(separators << 48, len(frame) // cols)
    for start in range(0, rows, step):
        x = np.ascontiguousarray(data[start : start + step]).reshape(-1)
        _fill(x, frame[: x.size], separators[: x.size])
        if x.size == len(frame):
            yield buf.translate(None, b"\0")
        else:
            yield buf[: x.size * _WIDTH].translate(None, b"\0")
