"""Exact vectorized conversion between float64 values and their decimals.

:func:`parse` writes ``float(token)`` of every token of a block of
comma-joined fields into an array, bit for bit, with a few numpy passes over
the block's bytes in place of one ``float`` call per token.  A token of the
shape ``-?D+(.D+)?`` (``D`` an ASCII digit) with at most 19 digits, less
the ``0`` of a ``0.xxx`` token, takes the vectorized path.  Every other
token (an exponent, ``+``, ``_``, whitespace, a non-ASCII byte, ``nan``,
``inf``, more digits, an empty or malformed token) goes through ``float``
itself, so it keeps ``float``'s value or its error.  The two halves are
apart: :func:`tokens` is the one pass that classifies the tokens of a
block, and :func:`convert` turns them into values; a reader that only
checks some rows runs :func:`floats` on their slow tokens instead.

A vectorized token is m / 10**s, with m its digits read as one integer
(m < 10**19 < 2**64, parsed by one ``np.fromstring`` call that sees only
digit runs and commas) and s its number of fraction digits (s <= 19):

* m < 2**53: m and 10**s are exact float64 values, so one IEEE division
  gives the correctly rounded quotient (Clinger, "How to Read Floating
  Point Numbers Accurately", PLDI 1990).
* m >= 2**53: the quotient is corrected once and then certified: the
  residual m - q * 10**s, computed exactly with a Veltkamp/Dekker
  two-product (numpy has no fused multiply-add), must be below half an ulp
  of q times 10**s, with a margin for the residual's one rounding.  A
  quotient the check cannot certify (a near-tie, a power of two) goes to
  ``float``.

:func:`slots` is the inverse, the one float formatter of the table writer
:func:`.tsvcolumns.write`: the bytes of each value of a flat float64 array,
its ``repr`` and a comma, in a fixed-width slot.  A value with 1e-4 <= |x|
< 1e16, whose ``repr`` is its shortest round-trip digits with a point among
them (``-?0.``, zeros and the digits below 1), takes the vectorized path
when its digits are certified (Steele & White, "How to Print Floating-Point
Numbers Accurately", PLDI 1990); every other value, and every value the
check cannot certify, goes through ``repr``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: 10**s as float64, exact for every s <= 19
_POW10 = np.array([float(10**s) for s in range(20)])
#: Veltkamp's splitter for float64, 2**27 + 1
_SPLIT = 134217729.0
#: a residual this much below half an ulp certifies the quotient whatever
#: the residual's one rounding error (relative 2**-53)
_MARGIN = 1.0 - 2.0**-50
#: the fraction field of a float64, 0 for a power of two
_FRACTION = np.uint64((1 << 52) - 1)
_COMMA, _MINUS, _DOT, _ZERO = b",-.0"


class MalformedToken(ValueError):
    """``float`` rejects token ``index`` of the fields."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


def parse(fields: list[str], out: np.ndarray) -> np.ndarray:
    """Write ``float(token)`` of each token of the comma-joined ``fields``
    into the float64 array ``out``, which has one element per token, and
    return ``out``.  Raises :class:`MalformedToken` with the index of the
    first token that ``float`` rejects."""
    # a comma before each token and after the last
    return parse_bytes(bytearray(",".join(["", *fields, ""]), "utf-8", "surrogatepass"), out)


def parse_bytes(raw: bytearray, out: np.ndarray) -> np.ndarray:
    """:func:`parse` of the UTF-8 ``raw``, which holds a comma before each
    token and after the last; it overwrites ``raw``."""
    found = tokens(raw)
    if len(found.start) != len(out):
        raise ValueError(f"fields hold {len(found.start)} tokens for {len(out)} values")
    return convert(raw, found, out)


class Tokens(NamedTuple):
    """The tokens of a buffer: each one's byte range, whether a '-' leads
    it, its digits after the '.', and whether it takes the vectorized path
    (``frac`` is 0 where it does not)."""

    start: np.ndarray
    end: np.ndarray
    neg: np.ndarray
    frac: np.ndarray
    fast: np.ndarray


def tokens(raw) -> Tokens:
    """The :class:`Tokens` of the bytes ``raw``, which hold a comma before
    each token and after the last.  A fast token's value is finite and at
    most 1e19 in magnitude."""
    a = np.frombuffer(raw, np.uint8)
    pos = np.flatnonzero(a - np.uint8(48) > 9)  # the non-digit bytes
    byte = a[pos]
    comma = np.flatnonzero(byte == _COMMA)
    start, end = pos[comma[:-1]] + 1, pos[comma[1:]]
    # token t's non-digit bytes are byte[comma[t] + 1 : comma[t + 1] + 1]; the
    # vectorized shape has only a leading '-' and a '.' before the comma
    neg = (byte[comma[:-1] + 1] == _MINUS) & (pos[comma[:-1] + 1] == start)
    has_dot = byte[comma[1:] - 1] == _DOT
    point = np.where(has_dot, pos[comma[1:] - 1], end)
    extra = np.diff(comma)
    extra -= 1
    extra -= neg
    extra -= has_dot
    fast = extra == 0
    del pos, byte, comma, extra  # make room for the per-token arrays below
    whole = point - start - neg  # digits before the point
    frac = np.where(has_dot, end - point - 1, 0)  # digits after it
    fast &= (whole > 0) & ((frac > 0) | ~has_dot)
    # 19 digits, or 0.xxx with 19 after the point
    fast &= (whole + frac <= 19) | (whole == 1) & (a[point - 1] == _ZERO) & (frac <= 19)
    frac[~fast] = 0
    return Tokens(start, end, neg, frac.astype(np.uint8), fast)


def convert(raw: bytearray, found: Tokens, out: np.ndarray) -> np.ndarray:
    """Write ``float`` of each of the tokens ``found`` in ``raw`` into
    ``out``, one element per token, and return ``out``; raises
    :class:`MalformedToken` at the first token ``float`` rejects.  It
    overwrites ``raw``."""
    slow = np.flatnonzero(~found.fast)
    values = floats(raw, found, slow)  # before _mantissas overwrites their bytes
    if len(slow) < len(out):  # no token is empty (malformed) here
        m = _mantissas(raw, found)
        q = np.divide(m, _POW10[found.frac], out=out)
        big = np.flatnonzero(found.fast & (m >= np.uint64(1 << 53)))
        if len(big):
            q[big], certified = _corrected(m[big], q[big], _POW10[found.frac[big]])
            big = big[~certified]  # left to float below
        q.view(np.uint64)[found.neg] |= np.uint64(1 << 63)  # q >= 0: set the sign bit
        out[big] = floats(raw, found, big)
    out[slow] = values
    return out


def floats(raw, found: Tokens, which: np.ndarray) -> np.ndarray:
    """``float`` of each token ``which`` (ascending indices) of ``raw``;
    raises :class:`MalformedToken` at the first token ``float`` rejects."""
    out = np.empty(len(which))
    for c in range(0, len(which), 256):  # Python ints for 256 tokens at a time
        part = which[c : c + 256]
        spans = zip(part.tolist(), found.start[part].tolist(), found.end[part].tolist())
        for k, (t, s, e) in enumerate(spans, c):
            try:
                out[k] = float(raw[s:e].decode("utf-8", "surrogatepass"))
            except ValueError:
                raise MalformedToken(t) from None
    return out


def _mantissas(raw, found: Tokens):
    """The digits of each token as one integer m < 10**19 (uint64): ``m /
    10**frac`` is its magnitude where ``fast``.  Every byte of a slow token
    in ``raw`` becomes '0'."""
    start, end, neg, _, fast = found
    a = np.frombuffer(raw, np.uint8)
    minus = start[neg & fast]
    a[minus] = _ZERO
    for s, e in zip(start[~fast].tolist(), end[~fast].tolist()):
        a[s:e] = _ZERO
    runs = bytes(memoryview(raw)[1:-1]).replace(b".", b"")  # one run of digits per token
    a[minus] = _MINUS  # a fast token may still go to float
    return np.fromstring(runs, np.uint64, len(start), sep=",")


def _two_product(a, b):
    """``(hi, lo)`` with hi = fl(a * b) and hi + lo = a * b exactly: Dekker's
    two-product over Veltkamp's splits, for products that neither overflow
    nor underflow."""
    hi = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    lo = ah * bh
    lo -= hi
    lo += np.multiply(ah, bl, out=ah)
    lo += np.multiply(al, bh, out=bh)
    lo += np.multiply(al, bl, out=bl)
    return hi, lo


def _residual(mh, ml, q, scale):
    """m - q * scale for m = mh + ml, rounded once: q * scale = hi + lo by
    :func:`_two_product`, mh - hi is exact (Sterbenz), and ml < 2**32."""
    hi, lo = _two_product(q, scale)
    np.subtract(mh, hi, out=hi)
    hi += ml
    hi -= lo
    return hi


def _corrected(m, q, scale):
    """The quotients m / scale of mantissas 2**53 <= m < 10**19 from their
    first approximations ``q``, corrected once, and whether each is certified
    correctly rounded."""
    mh = (m >> np.uint64(32)).astype(np.float64) * 2.0**32
    ml = (m & np.uint64(0xFFFFFFFF)).astype(np.float64)
    q += _residual(mh, ml, q, scale) / scale
    r = np.abs(_residual(mh, ml, q, scale))
    # a power of two has a smaller ulp below it: left to float
    mantissa = q.view(np.uint64) & _FRACTION
    return q, (r < 0.5 * np.spacing(q) * scale * _MARGIN) & (mantissa != 0)


# -- writing -------------------------------------------------------------------

#: 1e-3, 1e-2, ..., 1e15: a value with 1e-4 <= |x| < 1e16 has the decimal
#: exponent e = -4 + the number of these at or below |x| (no float64 lies
#: between 10**k and the float64 nearest it, which is above it for k < 0)
_DECADES = np.array([float(f"1e{k}") for k in range(-3, 16)])
#: 10**(16 - e) for e4 = e + 4 = 0 .. 19, exact float64 values (5**20 < 2**53)
_SCALE = np.array([float(10 ** (20 - e4)) for e4 in range(20)])
#: 10**(16 - e) for e = 0 .. 15 as int64, to split the 17 digits at the point
_UNIT = np.array([10 ** (16 - e) for e in range(16)], np.int64)
#: distances within this of a decision boundary go to ``repr``; see
#: :func:`_digits` for the errors it covers
_SLACK = 2.0**-20
#: one value's bytes: '-', 16 integer digits, '.', three zeros, 17 digits
#: and ','; a float64 ``repr`` has at most 24 bytes
_WIDTH = 39
_SLOT = np.dtype((np.void, _WIDTH))
_TEMPLATE = np.frombuffer(b"-" + b"0" * 16 + b".000" + b"0" * 17 + b",", np.uint8)
_TEMPLATE = _TEMPLATE.view(_SLOT)[0]
#: the digits of a value, written as four 4-digit groups before the point,
#: and a leading digit and four 4-digit groups after the zeros
_DIGITS = np.dtype(
    {
        "names": ["i1", "i2", "i3", "i4", "lead", "g1", "g2", "g3", "g4"],
        "formats": ["<u4"] * 4 + ["u1"] + ["<u4"] * 4,
        "offsets": [1, 5, 9, 13, 21, 22, 26, 30, 34],
        "itemsize": _WIDTH,
    }
)
#: the ASCII digits of 0000 .. 9999, each as one little-endian uint32; built
#: from uint8 columns, as an int64 temporary would add to a stage's peak RSS
_GROUPS = np.stack(
    np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"), axis=-1
).view("<u4").ravel()


def _layouts():
    """The bytes of a slot a value keeps, for each code ``160 * negative + 8 *
    (e + 4) + trimmed``, with k = 17 - trimmed digits: the sign, then for e < 0
    '0.', -1 - e zeros and the k digits after them, and for e >= 0 the last e
    + 1 integer digits, '.' and the max(k - e - 1, 1) digits after the zeros;
    then the comma."""
    keep = np.zeros((2, 20, 8, _WIDTH), bool)
    keep[1, ..., 0] = True
    keep[..., 17] = True
    keep[..., -1] = True
    for e4 in range(20):
        e = e4 - 4
        for trimmed in range(8):
            k = 17 - trimmed
            if e < 0:
                keep[:, e4, trimmed, 16] = True
                keep[:, e4, trimmed, 18 : 17 - e] = True
                keep[:, e4, trimmed, 21 : 21 + k] = True
            else:
                keep[:, e4, trimmed, 16 - e : 17] = True
                keep[:, e4, trimmed, 21 : 21 + max(k - e - 1, 1)] = True
    return keep.reshape(320, _WIDTH).view(_SLOT).ravel()


_LAYOUTS = _layouts()


def slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(out, keep)``, two (len(x), W) arrays of uint8 and bool for the flat
    float64 ``x``: ``out[i][keep[i]]`` is the ASCII ``repr`` of x[i] and a
    comma, which is byte W - 1.

    Each value fills a fixed-width slot of bytes: a value :func:`_digits`
    certifies gets its sign, its digits and a point among them (and zeros
    before them for e < 0), and every other value its ``repr``.
    """
    top, low, e4, trimmed, fast = _digits(x)
    out = np.full(len(x), _TEMPLATE, _SLOT)
    digits = out.view(_DIGITS)
    whole = np.flatnonzero(fast & (e4 >= 4))  # e >= 0: a point inside the digits
    if len(whole):
        unit = _UNIT.take(e4[whole] - 4)
        d = top[whole].astype(np.int64) * 10**8 + low[whole].astype(np.int64)
        integer, fraction = np.divmod(d, unit)
        fraction *= 10**17 // unit  # its 16 - e digits lead the 17 after the zeros
        top[whole], low[whole] = np.divmod(fraction, 10**8)
        rest, i4 = np.divmod(integer, 10000)
        rest, i3 = np.divmod(rest, 10000)
        i1, i2 = np.divmod(rest, 10000)
        for name, group in (("i1", i1), ("i2", i2), ("i3", i3), ("i4", i4)):
            digits[name][whole] = _GROUPS.take(group)
    high, g2 = np.divmod(top.astype(np.int32), 10000)
    lead, g1 = np.divmod(high, 10000)
    g3, g4 = np.divmod(low.astype(np.int32), 10000)
    digits["lead"] = lead + ord("0")
    for name, group in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4)):
        digits[name] = _GROUPS.take(group)
    code = (x < 0).astype(np.uint16) * 160
    code += e4 * np.uint8(8)  # at most 152
    code += trimmed
    keep = _LAYOUTS.take(code).view(bool).reshape(len(x), _WIDTH)
    out = out.view(np.uint8).reshape(len(x), _WIDTH)
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = np.array([repr(v) for v in x[slow].tolist()], f"S{_WIDTH - 1}")
        texts = texts.view(np.uint8).reshape(len(slow), _WIDTH - 1)  # NUL-padded
        out[slow, :-1] = texts
        keep[slow, :-1] = texts != 0
    return out, keep


def _digits(x):
    """``(top, low, e4, trimmed, fast)``: the shortest round-trip digits of
    each value of the flat float64 ``x`` as the 17-digit integer 1e8 * top +
    low with ``trimmed`` trailing zeros, its decimal exponent e as e4 = e +
    4, and whether it is certified; ``top`` and ``low`` are 1e8 and 0 where
    it is not.

    A value with 1e-4 <= |x| < 1e16 has e = floor(log10 |x|) in -4 .. 15,
    which comparisons with 1e-3, 1e-2, ..., 1e15 give exactly:

    * X = |x| * 10**(16 - e), in [1e16, 1e17), is hi + lo exactly by
      :func:`_two_product`; hi is an integer, and hi = 1e8 * top + rem
      exactly.  Half an ulp of |x| on that grid, h = spacing(|x|) / 2 *
      10**(16 - e), is exact (a power of two times 5**(16 - e) < 2**53)
      and lies in (0.55, 11.2).
    * For j = 0, 1, ..., 8, q is the multiple of 10**j nearest X and d =
      |(rem - q) + lo| its distance, rounded once: below 16, where it meets
      h, d errs by at most 2**-49 (rem + lo rounded first would err by up
      to 2**-27).  q comes from fl(rem + lo) / 10**j, so it misses the
      nearest multiple only within 2**-25 of a tie, d = 10**j / 2.
    * The largest j with d < h - 2**-20 gives the shortest digits that read
      back as x, and the nearest of them, which is what ``repr`` writes.
      17 digits (j = 0) always pass, since h > 0.5.

    A value is not certified when d is within 2**-20 of h, or of a tie
    between two candidates (j <= 1; for j >= 2, 10**j / 2 > h), where the
    margin covers the errors above; when x is a power of two (fraction field
    0), whose interval below is half as wide; when 9 digits or fewer pass
    (j = 8); when hi is not inside (1e16, 1e17); or when rem or the last 8
    digits leave [0, 1e8).  Nor is any other value: 0.0, -0.0, |x| >= 1e16,
    |x| < 1e-4, nan and infinities.  The arithmetic is float64 throughout,
    every integer below 2**53.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) & _FRACTION != 0)
    a[~fast] = 0.5  # keeps every later step finite and quiet
    e4 = np.searchsorted(_DECADES, a, side="right").astype(np.uint8)
    scale = _SCALE.take(e4)
    hi, lo = _two_product(a, scale)
    fast &= (hi > 1e16) & (hi < 1e17)
    half = np.spacing(a) * scale
    half *= 0.5
    top = np.floor(hi / 1e8)
    rem = hi - top * 1e8  # exact; below 0 where hi / 1e8 rounded up to an integer
    t = rem + lo
    low, d = _nearest(t, rem, lo, 1.0)
    unsure = np.abs(d - 0.5) <= _SLACK
    q, d = _nearest(t, rem, lo, 10.0)
    unsure |= (np.abs(d - half) <= _SLACK) | (np.abs(d - 5.0) <= _SLACK)
    shorter = d < half - _SLACK
    np.copyto(low, q, where=shorter)
    trimmed = shorter.astype(np.uint8)
    live = np.flatnonzero(shorter & fast)  # 16 digits or fewer: try fewer still
    for j in range(2, 9):
        h = half[live]
        q, d = _nearest(t[live], rem[live], lo[live], 10.0**j)
        unsure[live[np.abs(d - h) <= _SLACK]] = True
        shorter = d < h - _SLACK
        live = live[shorter]
        if j == 8:
            unsure[live] = True
        else:
            low[live] = q[shorter]
            trimmed[live] += 1
    fast &= ~unsure & (rem >= 0) & (low >= 0) & (low < 1e8)
    top[~fast] = 1e8
    low[~fast] = 0
    return top, low, e4, trimmed, fast


def _nearest(t, rem, lo, step):
    """``(q, d)``: the multiple q of ``step`` nearest rem + lo, chosen from
    its rounded sum ``t``, and d = |(rem - q) + lo|."""
    q = np.rint(t / step)
    q *= step
    d = rem - q
    d += lo
    return q, np.abs(d, out=d)
