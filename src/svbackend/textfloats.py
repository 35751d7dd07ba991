"""Exact vectorized conversion of comma-separated decimals to float64.

:func:`parse` writes ``float(token)`` of every token of a block of
comma-joined fields into an array, bit for bit, with a few numpy passes over
the block's bytes in place of one ``float`` call per token.  A token of the
shape ``-?D+(.D+)?`` (``D`` an ASCII digit) with at most 19 digits, less
the ``0`` of a ``0.xxx`` token, takes the vectorized path.  Every other
token (an exponent, ``+``, ``_``, whitespace, a non-ASCII byte, ``nan``,
``inf``, more digits, an empty or malformed token) goes through ``float``
itself, so it keeps ``float``'s value or its error.

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
"""

from __future__ import annotations

import numpy as np

#: 10**s as float64, exact for every s <= 19
_POW10 = np.array([float(10**s) for s in range(20)])
#: Veltkamp's splitter for float64, 2**27 + 1
_SPLIT = 134217729.0
#: a residual this much below half an ulp certifies the quotient whatever
#: the residual's one rounding error (relative 2**-53)
_MARGIN = 1.0 - 2.0**-50
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
    raw = bytearray(",".join(["", *fields, ""]), "utf-8", "surrogatepass")
    start, end, neg, frac, fast = _tokens(np.frombuffer(raw, np.uint8))
    if len(start) != len(out):
        raise ValueError(f"fields hold {len(start)} tokens for {len(out)} values")
    slow = {t: raw[start[t] : end[t]] for t in np.flatnonzero(~fast).tolist()}
    if fast.any() and (end > start).all():  # an empty token (malformed) would leave an empty run
        m = _mantissas(raw, start, end, neg, fast)
        q = np.divide(m, _POW10[frac], out=out)
        big = np.flatnonzero(fast & (m >= np.uint64(1 << 53)))
        if len(big):
            q[big], certified = _corrected(m[big], q[big], _POW10[frac[big]])
            slow.update((t, raw[start[t] : end[t]]) for t in big[~certified].tolist())
        q.view(np.uint64)[neg] |= np.uint64(1 << 63)  # q >= 0: set the sign bit
    for t in sorted(slow):
        try:
            out[t] = float(slow[t].decode("utf-8", "surrogatepass"))
        except ValueError:
            raise MalformedToken(t) from None
    return out


def _tokens(a):
    """``(start, end, neg, frac, fast)`` of each token of the bytes ``a``,
    which hold a comma before each token and after the last: its byte range,
    whether a '-' leads it, its digits after the '.', and whether it takes
    the vectorized path."""
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
    return start, end, neg, frac.astype(np.uint8), fast


def _mantissas(raw, start, end, neg, fast):
    """The digits of each token as one integer m < 10**19 (uint64): ``m /
    10**frac`` is its magnitude where ``fast``.  Every byte of a slow token
    in ``raw`` becomes '0'."""
    a = np.frombuffer(raw, np.uint8)
    minus = start[neg & fast]
    a[minus] = _ZERO
    for s, e in zip(start[~fast].tolist(), end[~fast].tolist()):
        a[s:e] = _ZERO
    runs = bytes(memoryview(raw)[1:-1]).replace(b".", b"")  # one run of digits per token
    a[minus] = _MINUS  # a fast token may still go to float
    return np.fromstring(runs, np.uint64, len(start), sep=",")


def _residual(mh, ml, q, scale):
    """m - q * scale for m = mh + ml, rounded once: q * scale = hi + lo by
    Dekker's two-product, mh - hi is exact (Sterbenz), and ml < 2**32."""
    hi = q * scale
    qh = _SPLIT * q
    qh -= qh - q
    ql = q - qh
    sh = _SPLIT * scale
    sh -= sh - scale
    sl = scale - sh
    lo = qh * sh
    lo -= hi
    lo += np.multiply(qh, sl, out=qh)
    lo += np.multiply(ql, sh, out=sh)
    lo += np.multiply(ql, sl, out=sl)
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
    mantissa = q.view(np.uint64) & np.uint64((1 << 52) - 1)
    return q, (r < 0.5 * np.spacing(q) * scale * _MARGIN) & (mantissa != 0)
