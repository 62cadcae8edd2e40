"""CSV text for float64 matrices, byte-identical to Python's ``repr``.

Joined, the chunks of ``csv_chunks(data)`` are exactly
``"".join(",".join(map(repr, row)) + "\\n" for row in data.tolist())``
as ASCII bytes, computed block by block with whole-array NumPy operations.

* Scale.  Each |x| becomes S = |x| * 10**k in [1e16, 1e17), with
  k = 16 - floor(log10 |x|).  10**k is a double-double ph + pl, and
  |x| * ph is split exactly by Dekker's TwoProduct, so S is held as an
  int64 N plus a float fraction f with an error below 1e-14.
* Interval.  Every real within half an ulp of x rounds back to x; scaled
  by 10**k that half-ulp is U, between 0.55 and 11.2, so the integer
  nearest to S lies inside (S - U, S + U).
* Shortest digits.  For m = 1, 2, ... the multiple of 10**m nearest to S
  is kept while it stays strictly inside the interval.  The largest such
  m gives 17 - m digits: the shortest string and, among the shortest,
  the nearest to x.  That is what ``repr`` prints (Gay's dtoa, mode 0).
  Levels 1 and 2 are tested on every value; an interval narrower than
  23 holds at most one multiple of 100, so past level 2 the multiple
  stays the same and m grows while a higher power of ten divides it.
* Certify or fall back.  ``repr`` itself, once per distinct bit pattern,
  formats every element whose decision lies within _MARGIN of an
  interval edge or of an equidistant tie (the edge is inclusive for an
  even significand, and ties go to the even digit), and every element
  outside the fast path: 0, inf, NaN, subnormals, exact powers of two
  (their interval is asymmetric), and |x| outside [1e-280, 1e280].
* Layout.  Each value gets a fixed-width frame of _WIDTH bytes: sign,
  the "0.000" lead of fixed notation, the digits with the decimal point
  among them, a trailing "0", "e+ddd", then the separator.  The digit
  count and the point's place (the layout class) decide which bytes show
  and which digits move up one byte to make room for the point; the
  frame words of each class are tabulated.  Unused bytes are NUL and are
  dropped by ``bytes.translate`` at the end.  As in ``repr``, decimal
  exponents -4 .. 15 print in fixed notation and the rest in exponent
  notation.

No table is built at import; powers of ten are cached per exponent and
the layout tables on first use.
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

# frame layout, in bytes: [0] sign, [1:6] "0.000" lead, [6:24] up to 17
# digits with the decimal point among them, [24] trailing "0", [25:30]
# "e+ddd", [30] separator, [31] NUL
_WIDTH = 32
_DIGITS = 6
_SUFFIX = 24
_SEPARATOR = 30
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
    """Digit quads, frame words by layout class, and exponent suffixes, as uint64."""
    # four ASCII digits, most significant first
    v = np.arange(10_000, dtype=np.uint64)
    quads = sum((v // 10**(3 - i) % 10 + 48) << (8 * i) for i in range(4))
    # layout class 18 * (point + 3) + digits: a digit count 0 .. 17 and a
    # decimal point place -3 .. 16 of fixed notation, or 17 for exponent
    # notation, whose point follows the first digit
    point, digits = np.divmod(np.arange(21 * 18)[:, None], 18)
    point -= 3
    fixed = point <= 16
    dotted = np.where(fixed, point >= 1, digits > 1)
    dot = np.where(dotted, _DIGITS + np.where(fixed, point, 1), _WIDTH)
    end = _DIGITS + dotted + np.maximum(digits, point * fixed)
    lead = np.where(fixed & (point <= 0), 3 - point, 0)  # past "0." and its zeros
    b = np.arange(_WIDTH)
    keep = (b >= _DIGITS) & (b < np.minimum(dot, end))  # digits before the point
    move = (b > dot) & (b < end)  # digits after it, one byte up
    text = (np.where(b == dot, ord("."), 0)
            + np.where((b > 0) & (b < lead), np.where(b == 2, ord("."), ord("0")), 0)
            + np.where((b == _SUFFIX) & fixed & (point >= digits), ord("0"), 0))
    words = (np.ascontiguousarray(t, np.uint8).view(np.uint64).T.copy()
             for t in (keep * 0xFF, move * 0xFF, text))
    # bytes 24..31 of exponent notation: "e" and the exponent E, E + _EXP_MAX
    suffix = [int.from_bytes(b"\0e" + (b"%+03d" % e)[:1] + (b"%+03d" % e)[1:].rjust(3, b"\0"), "little")
              for e in range(-_EXP_MAX, _EXP_MAX + 1)]
    return quads, *words, np.array(suffix, np.uint64)


def _scaled(a):
    """k, N, f and U: |x| * 10**k = N + f, N an int64, |f| <= 0.5, U the scaled half-ulp.

    ``a`` holds positive normal values in the fast range.  N has 17
    digits except next to a power of ten, where log10 can be one off;
    the caller sends those values to repr.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    k_min = int(k.min())
    tab = np.array([_pow10(j) for j in range(k_min, int(k.max()) + 1)])
    ph, pl, hh, hl = tab.take(k - k_min, axis=0).T
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
    """The multiple of step (10 or 100) nearest to N + f, as its quotient q and a step up.

    Returns (q, up, inside, edge, tie): the multiple is (q + up) * step;
    inside when it lies strictly inside (N + f - U, N + f + U); edge and
    tie when its distance is within _MARGIN of U or of the other neighbour's.
    """
    q = n0 // step
    below = (n0 - q * step) + f
    above = step - below
    dist = np.minimum(below, above)
    return (q, above < below, dist < u - _MARGIN, np.abs(dist - u) <= _MARGIN,
            np.abs(below - above) <= _MARGIN)


def _shortest(n0, f, u):
    """The 17-digit integer whose leading digits repr prints, their count, and doubt.

    Returns (c, m, doubt): c is the multiple of 10**m nearest to N + f
    for the largest m that keeps it strictly inside (N + f - U, N + f + U);
    doubt marks decisions within _MARGIN of an edge or a tie.
    """
    q, up, inside, edge, tie = _nearest(n0, f, u, 10)
    q2, up2, inside2, edge2, _ = _nearest(n0, f, u, 100)
    inside2 &= inside
    c = np.where(inside, (q + up) * 10, n0)
    m = inside.astype(np.int64) + inside2
    doubt = edge | (inside ^ inside2) & (tie | edge2) | ~inside & (np.abs(0.5 - np.abs(f)) <= _MARGIN)
    live = np.flatnonzero(inside2)
    c[live] = (q2[live] + up2[live]) * 100
    # U < 11.2, so an interval holding a multiple of 100 holds no other:
    # every deeper level keeps that c exactly while 10**level divides it,
    # as far from an edge or a tie as level 2 was
    for level in range(3, 17):
        live = live[c[live] % 10**level == 0]
        if not live.size:
            break
        m[live] = level
    return c, m, doubt


def _fallback(x, where, frame):
    """Write repr of x[where] into those frames, once per distinct bit pattern."""
    patterns, inverse = np.unique(x.view(np.int64)[where], return_inverse=True)
    text = b"".join(repr(v).encode().ljust(_SEPARATOR, b"\0") for v in patterns.view(np.float64).tolist())
    frame[where, :_SEPARATOR] = np.frombuffer(text, np.uint8).reshape(-1, _SEPARATOR)[inverse]


def _fill(x, frame, separators):
    """Write the frame words of the values x into ``frame`` (len(x) x 4 uint64)."""
    quad_tab, keep, move, text, suffix_tab = _tables()
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

    # the 17 digits from byte 6 (d0, p1, p2) and from byte 7 (moved past a
    # point), masked and joined with the text of the layout class j
    head = c // 10**16
    tail = c - head * 10**16
    high = tail // 10**8
    low = tail - high * 10**8
    hi = high // 10_000
    p1 = quad_tab.take(hi) | quad_tab.take(high - hi * 10_000) << 32
    hi = low // 10_000
    p2 = quad_tab.take(hi) | quad_tab.take(low - hi * 10_000) << 32
    head = (head + 48).view(np.uint64)
    j = np.where(fixed, point + 3, 20) * 18 + digits  # exponent notation: point class 17
    sign = (x.view(np.uint64) >> 63) * ord("-")
    frame[:, 0] = (head << 48 | p1 << 56) & keep[0].take(j) | text[0].take(j) | sign
    frame[:, 1] = (p1 >> 8 | p2 << 56) & keep[1].take(j) | p1 & move[1].take(j) | text[1].take(j)
    frame[:, 2] = p2 >> 8 & keep[2].take(j) | p2 & move[2].take(j) | text[2].take(j)
    frame[:, 3] = np.where(fixed, text[3].take(j), suffix_tab.take(point + (_EXP_MAX - 1))) | separators
    if slow.size:
        _fallback(x, slow, frame.view(np.uint8))


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
    frame = np.empty((min(rows, step) * cols, _WIDTH // 8), np.uint64)
    separators = np.full(cols, ord(","), np.uint64)
    separators[-1] = ord("\n")
    separators = np.tile(separators << 48, len(frame) // cols)
    for start in range(0, rows, step):
        x = np.ascontiguousarray(data[start : start + step]).reshape(-1)
        _fill(x, frame[: x.size], separators[: x.size])
        # bytes.translate runs ~20 % faster than bytearray.translate, copy included
        yield frame[: x.size].tobytes().translate(None, b"\0")
