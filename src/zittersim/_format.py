"""The bytes of every CSV, ``repr_csv``'s grid table and ``path_csv``'s path
rows: decimal text of numpy arrays, built as NUL-padded ``uint8`` matrices
whose bytes, once ``translate`` drops the NULs, are the text.

``repr_csv`` writes each float64 exactly as Python's ``repr`` does: the
shortest decimal that reads back as the same double, of those the nearest,
and of two nearest the one with an even last digit.  The digits come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), which
gives the digits of Ryu and of CPython's dtoa in mode 0; the layout is
CPython's: scientific when the decimal point would sit more than 16 digits
after the first digit or more than 3 zeros before it, with at least two
exponent digits, else positional with a digit after the point.  Subnormals
take the same route; zeros, infinities and nans are the fixed text ``0.0``,
``inf`` and ``nan``, signed but for nan.
"""

from __future__ import annotations

import numpy as np

_LOW_32 = (1 << 32) - 1
_LOW_63 = (1 << 63) - 1
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
# The text of zeros, infinities and nans, one column each.
_FIXED = np.frombuffer(b"0.0infnan", dtype=np.uint8).reshape(3, 3).T


def digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the unsigned ``v`` in decimal into ``out``'s columns, right-aligned,
    with NUL bytes for its leading zeros."""
    for j in range(out.shape[1] - 1, -1, -1):
        q = v // 10
        out[:, j] = v - q * 10 + 48
        if j < out.shape[1] - 1:
            out[:, j] *= v != 0
        v = q


def repr_csv(table: np.ndarray) -> bytes:
    """The CSV lines of the rows of the 2-d float64 ``table``, each field the
    ``repr`` of its value."""
    x = table.ravel()
    bits = x.view(np.uint64) & _LOW_63
    inf, nan = np.isinf(x), np.isnan(x)
    fixed = inf | nan | (bits == 0)
    bits[fixed] = 0x3FF0_0000_0000_0000  # 1.0, whose text gives way to the fixed one
    text = _text(*_shortest(bits))
    text[:, fixed] = 0
    text[:3, fixed] = _FIXED[:, inf[fixed] + 2 * nan[fixed]]
    # Byte planes: plane i holds byte i of every field, NUL where it has none:
    # the sign, the text and the separator.
    planes = np.empty((len(text) + 2, x.size), dtype=np.uint8)
    planes[0] = np.uint8(45) * (np.signbit(x) & ~nan)
    planes[1:-1] = text
    planes[-1] = ord(",")
    planes[-1, table.shape[1] - 1 :: table.shape[1]] = ord("\n")
    return planes.T.tobytes().translate(None, b"\0")


def path_csv(tick: int, total: int, right: np.ndarray) -> bytes:
    """The path CSV rows ``f"{t},{d},{x}.0\\n"`` of ticks t from ``tick`` on,
    steps d = +1 where ``right`` else -1, and positions x = ``total`` + the
    running sum of d: the one place where a tick is a +/-1 step.  Each position
    is its exact int64 tick count; up to 2**53 ``<count>.0`` is also
    ``repr(float(count))``."""
    positions = total + np.cumsum(np.where(right, 1, -1), dtype=np.int64)
    wt, wp = len(str(tick + right.size - 1)), len(str(int(np.abs(positions).max())))
    rows = np.empty((right.size, wt + wp + 8), dtype=np.uint8)
    digits(rows[:, :wt], np.arange(right.size, dtype=np.uint64) + np.uint64(tick))
    rows[:, wt : wt + 4] = np.frombuffer(b",+1,", np.uint8)
    rows[:, wt + 1] = 45 - 2 * right
    rows[:, wt + 4] = 45 * (positions < 0)
    digits(rows[:, wt + 5 : -3], np.abs(positions).astype(np.uint64))
    rows[:, -3:] = np.frombuffer(b".0\n", np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits d and exponents k, d 10**k, of the shortest nearest decimals
    of the positive finite nonzero doubles with IEEE ``bits``; d has at most
    17 digits, the last ones maybe zeros."""
    e, t = bits >> 52, bits & (1 << 52) - 1
    # A subnormal's exponent field 0 scales like 1, without the hidden bit.
    c = np.where(e > 0, t | 1 << 52, t)
    q = np.maximum(e, 1).astype(np.int64) - 1075
    # A power of two above the subnormal spacing has a closer neighbour below,
    # so its rounding interval is lopsided: Schubfach's irregular case.
    irregular = (t == 0) & (q > -1074)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    g1, g0 = _g(k)
    # v and its interval's ends are 4c and 4c +/- 2 (- 1 at an irregular low
    # end) times 2**h g / 2**127, so the ends' products are v's plus or minus
    # g 2**(h+1), or g 2**h.  An even c keeps the ends in its interval.
    cp, odd = c << h + 2, c & 1
    y, x = _mul(g1, cp), _mul(g0, cp)
    vb = _rop(y, x)
    h += 1
    vbr = _rop(_plus(y, g1, h, 1), _plus(x, g0, h, 1)) - odd
    h -= irregular
    vbl = _rop(_plus(y, g1, h, -1), _plus(x, g0, h, -1)) + odd
    # One digit fewer than s (which has 16 or 17) if just one of its two
    # neighbours is in the interval, else the one of s and s + 1 that is, or
    # the nearer, ties to even.
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, sp10 + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    up = np.where(uin == win, vb + (s & 1) > (s << 2) + 2, win)
    return np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10), s + up), k


def _g(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g = floor(10**-k / 2**r) + 1 for each k, as its top and
    bottom 63 bits, with r the power of two that puts g in [2**125, 2**126);
    computed once per distinct k."""
    lo = int(k.min())
    k = k - lo
    g1, g0 = np.zeros((2, int(k.max()) + 1), dtype=np.uint64)
    for i in np.flatnonzero(np.bincount(k)).tolist():
        p = 10 ** abs(i + lo)
        if i + lo <= 0:
            shift = 126 - p.bit_length()
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            g = (1 << 125 + p.bit_length()) // p + 1
        g1[i], g0[i] = g >> 63, g & _LOW_63
    return g1[k], g0[k]


def _mul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products ``a * b`` of uint64 arrays as (high, low) words,
    the high one from the 32-bit halves of a and b."""
    a0, a1, b0, b1 = a & _LOW_32, a >> 32, b & _LOW_32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _LOW_32) + (p10 & _LOW_32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _plus(
    product: tuple[np.ndarray, np.ndarray], a: np.ndarray, m: np.ndarray, sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (high, low) ``product`` plus ``sign`` * a * 2**m, for 0 < m < 64."""
    hi, lo = product
    step, high = a << m, a >> 64 - m
    if sign < 0:
        low = lo - step
        return hi - high - (low > lo), low
    low = lo + step
    return hi + high + (low < lo), low


def _rop(y: tuple[np.ndarray, np.ndarray], x: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Schubfach's r_o(g cp): g cp / 2**127 rounded down, its last bit set when
    the division is inexact, from y = g1 cp and x = g0 cp, g = g1 2**63 + g0."""
    z = (y[1] >> 1) + x[0]
    return y[0] + (z >> 63) | ((z & _LOW_63) != 0)


def _text(d: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The byte planes of each d 10**k as repr writes it, but for its sign:
    "0." and zeros before a point left of the digits; the 17 digits, a slot
    for the point after each of the first few, NUL past the last one repr
    keeps; in scientific form, "e", the exponent's sign and its digits."""
    # d has n digits; d17 is d with 17, point of which precede the decimal point
    n = np.searchsorted(_POW10, d, side="right")
    d17 = d * _POW10[17 - n]
    point = k + n
    sci = (point < -3) | (point > 16)
    lead = np.maximum(point, 0) * ~sci + sci
    # The 17 digits as two uint32 halves, whose leading NULs become zeros.
    chars = np.empty((17, d.size), dtype=np.uint8)
    hi = d17 // 10**8
    digits(chars[:9].T, hi.astype(np.uint32))
    digits(chars[9:].T, (d17 - hi * 10**8).astype(np.uint32))
    chars |= 48
    # Keep the digits up to the last nonzero one and, in positional form, up
    # to the one after the point.
    m = int(lead.max())
    keep = chars != 48
    for i in range(15, -1, -1):
        keep[i] |= keep[i + 1]
    keep[: m + 1] |= np.arange(m + 1)[:, None] <= lead * ~sci
    chars *= keep
    planes = np.empty((17 + m, d.size), dtype=np.uint8)
    planes[: 2 * m : 2] = chars[:m]
    planes[1 : 2 * m : 2] = np.uint8(46) * ((np.arange(m)[:, None] == lead - 1) & keep[1 : m + 1])
    planes[2 * m :] = chars[m:]
    zeros = -point * (lead == 0)
    prefix = [np.uint8(48) * (lead == 0), np.uint8(46) * (lead == 0)]
    prefix += [np.uint8(48) * (zeros > j) for j in range(zeros.max())]
    if not sci.any():
        return np.concatenate([np.stack(prefix), planes])
    # "e", then "+" or "-", then at least two digits (NUL | "0" is "0")
    exp = np.zeros((5, d.size), dtype=np.uint8)
    exp[0] = 101
    exp[1] = 43 + 2 * (point < 1)
    digits(exp[2:].T, np.abs(point - 1).astype(np.uint64))
    exp[3] |= 48
    return np.concatenate([np.stack(prefix), planes, exp * sci])
