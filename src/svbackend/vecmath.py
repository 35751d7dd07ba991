"""Vector primitives shared by every pipeline stage.

All arithmetic runs in float64 regardless of how inputs were stored;
normalization statistics and cost sweeps downstream are sensitive to
accumulation error, so nothing here computes in float32.

:func:`unit_rows` is the one place that divides a vector by its norm.  The
two exact row kernels are :func:`row_norms` (used by :func:`unit_rows`,
:func:`check_row_norms` and the AAM loss and gradients) and
:func:`pair_cosines` (used by :func:`cosine`, the raw trial scores of
``scoring.score_trials`` and :func:`top_cosines`, the one top-N ranking).
Both take numpy's pairwise ``np.sum`` along each C-contiguous row, not
BLAS, ``ROW_BLOCK`` rows or ``PAIR_BLOCK`` pairs at a time.  A row's sum does
not depend on its block or its neighbours, so every caller gets the same bits
for the same vectors.  :func:`group_means` is the one averaging kernel (cohort
speakers and enrollment models): exact column sums, equal to ``math.fsum``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateAverage,
    DimensionMismatch,
    EmptySet,
    NormOverflow,
    NormUnderflow,
    ValidationError,
)

#: Norm floor below which a vector counts as degenerate.  Far below any
#: realistic embedding norm; flags only genuinely corrupt data.
NORM_EPS = 1e-12

#: Rows per block of :func:`row_norms` and of the text vector readers: keeps
#: the (block, D) temporaries cache-sized (128 KB each at D = 256).
ROW_BLOCK = 64
#: Pairs per block of :func:`pair_cosines`: at D = 256, blocks of 128 or 256
#: pairs took 12% less time than 64 but raised planning's peak RSS 0.4-1 MB.
PAIR_BLOCK = 64
#: Query rows per block of :func:`top_cosines`' BLAS filter (larger raised peak RSS).
TOP_BLOCK_ROWS = 64
#: Groups per block of :func:`group_means`: its five (block, D) buffers take
#: 64 KB each at D = 256.  Blocks of 64 groups were 10% faster on 8k groups of
#: 8 rows but raised the sdsv-eval ``score`` stage's peak RSS by up to 0.8 MB.
GROUP_BLOCK = 32


class Domain(enum.Enum):
    VOX = "VOX"
    LIBRI = "LIBRI"
    DEEPMINE = "DEEPMINE"


class Language(enum.Enum):
    FARSI = "FARSI"
    ENGLISH = "ENGLISH"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


# The mode of ``scoring.score_trials`` and its default top-N live here, next
# to Domain and Language, so the CLI parser can name them without loading
# the scoring code.
class ScoringMode(enum.Enum):
    RAW = "raw"
    SNORM = "snorm"
    SNORM_LID = "snorm-lid"


#: Imposter scores kept per side by the s-norm statistics of ``scoring``.
DEFAULT_TOP_N = 40


_ID_COLUMNS = ("utt_ids", "speaker_ids", "domains", "languages")


class EmbeddingIds(NamedTuple):  # the two id columns of an EmbeddingTable
    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]


@dataclass(frozen=True)
class EmbeddingTable:
    """Utterance embeddings as columns: row ``r`` is utterance ``utt_ids[r]``.

    ``vectors`` is an (n, D) float64 matrix with finite entries, stored by
    :func:`frozen_rows`.  ``row_of`` maps an utterance id to its row; on a
    repeated id the last row wins.
    """

    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]
    domains: tuple[Domain, ...]
    languages: tuple[Language, ...]
    vectors: np.ndarray

    def __post_init__(self):
        cols = {name: tuple(getattr(self, name)) for name in _ID_COLUMNS}
        vecs = frozen_rows(self.vectors)
        n = len(cols["utt_ids"])
        if vecs.ndim != 2 or len(vecs) != n or any(len(c) != n for c in cols.values()):
            raise DimensionMismatch(f"{n} utterance ids for vectors of shape {vecs.shape}")
        check_columns(np.isfinite(vecs).all(), cols["utt_ids"], cols["speaker_ids"])
        for name, col in cols.items():
            object.__setattr__(self, name, col)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "row_of", dict(zip(cols["utt_ids"], range(n))))

    def __len__(self) -> int:
        return len(self.utt_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def frozen_rows(x, dtype=np.float64) -> np.ndarray:
    """``x`` as a read-only C-contiguous ``dtype`` array, the storage rule of
    every array a record keeps: such an array is kept as given, anything
    else is copied once."""
    kept = type(x) is np.ndarray and x.dtype == dtype and x.flags.c_contiguous
    if not kept or x.flags.writeable:
        x = np.array(x, dtype=dtype, order="C")
        x.setflags(write=False)
    return x


def check_columns(finite: bool, utt_ids, speaker_ids) -> None:
    """The checks :class:`EmbeddingTable` makes after its shape check, in its
    order: finite vectors, then non-empty ids (also run by id-only readers)."""
    if not finite:
        raise ValidationError("vector contains non-finite entries")
    if not (all(utt_ids) and all(speaker_ids)):
        raise ValidationError("utt_id and speaker_id must be non-empty")


def unit_rows(vecs, dim: int | None = None) -> np.ndarray:
    """(n, dim) array of the vectors (a sequence or the rows of an array),
    each divided by its Euclidean norm from :func:`row_norms`, a correctly
    rounded division.

    Raises:
        ValidationError: a non-finite entry.
        NormUnderflow: a norm at or below ``NORM_EPS`` (degenerate vector,
            e.g. all zeros).
        NormOverflow: a norm beyond the float64 range.
    """
    try:
        x = np.asarray(vecs, dtype=np.float64, order="C")
    except ValueError:
        raise DimensionMismatch("vectors have mixed dimensions") from None
    if x.size == 0:
        x = x.reshape(len(x), dim or 0)
    if x.ndim != 2 or (dim is not None and x.shape[1] != dim):
        raise DimensionMismatch(f"expected (n, {dim}) vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("vector contains non-finite entries")
    return x / check_row_norms(x)[:, None]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (n, D) array ``x``: the pairwise sum
    of squares along the row and a correctly rounded sqrt, taken over
    C-contiguous blocks of ``ROW_BLOCK`` rows (no (n, D) temporary).  A sum
    of squares beyond the float64 range gives an infinite norm, silently."""
    out = np.empty(len(x))
    with np.errstate(over="ignore"):
        for s in range(0, len(x), ROW_BLOCK):
            b = np.ascontiguousarray(x[s : s + ROW_BLOCK])
            out[s : s + ROW_BLOCK] = np.sqrt(np.sum(b * b, axis=1))
    return out


def check_row_norms(x: np.ndarray) -> np.ndarray:
    """The :func:`row_norms` of ``x``; raises as :func:`unit_rows` does:
    NormUnderflow when one is at or below ``NORM_EPS``, else NormOverflow
    when one is infinite."""
    norms = row_norms(x)
    low = norms.min(initial=np.inf)
    if low <= NORM_EPS:
        raise NormUnderflow(f"vector norm {low:g} <= {NORM_EPS:g}")
    if norms.max(initial=0.0) == np.inf:
        raise NormOverflow("vector norm beyond the float64 range")
    return norms


def pair_cosines(a: np.ndarray, ia, b: np.ndarray, ib) -> np.ndarray:
    """``clip(np.sum(a[ia] * b[ib], axis=1), -1, 1)``: the cosine of each
    pair of unit rows ``a[ia[k]]``, ``b[ib[k]]``, ``PAIR_BLOCK`` pairs at a time.

    Clipped to [-1, 1]: the sum can overshoot by an ulp on (near-)parallel
    vectors, and downstream consumers rely on the bound.
    """
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    out = np.empty(len(ia))
    for s in range(0, len(ia), PAIR_BLOCK):
        pairs = slice(s, s + PAIR_BLOCK)
        x = a[ia[pairs]]
        x *= b[ib[pairs]]
        out[pairs] = np.sum(x, axis=1)
    return np.clip(out, -1.0, 1.0, out=out)


def top_cosines(a, ia, b, n: int, exclude) -> tuple[np.ndarray, np.ndarray]:
    """The n rows of ``b`` with the largest :func:`pair_cosines` against each
    row ``a[ia[k]]`` (unit rows; ``ia`` an int array; 0 <= n <= len(b)):
    (len(ia), n) arrays of their indices and values, descending, ties by
    ascending index; the pairs (k, j) of ``exclude`` (k ascending) rank last at -inf.

    Exactness.  Per block of TOP_BLOCK_ROWS queries a clipped BLAS product
    filters: with t the n-th largest filtered value, those >= t - 2*delta
    (delta = 8*D*eps) are re-scored exactly and sorted at once.  Any
    floating-point D-term dot product (any order, blocking, threads, FMA) is
    within gamma_D * sum|u_i v_i| + D*2**-1074 of the real one (Higham,
    Accuracy and Stability, 3.1; gamma_D = D*u/(1 - D*u), u = eps/2).  Unit
    rows have norms within 2*D*eps of 1, so for D*eps <= 0.01 filter and
    kernel differ by < 2.1*gamma_D + 2*D*2**-1074 < 2*D*eps <= delta, clipped
    or not.  The n rows filtered >= t have exact values >= t - delta, so the
    n-th largest exact value e* >= t - delta; each of the exact top n (ties at
    e* included) is >= e*, so it filters >= t - 2*delta and is a candidate.
    The filter's bits vary with the BLAS; the output does not.
    """
    ek, ej = (np.asarray(e, dtype=np.intp) for e in exclude)
    cols, vals = np.empty((len(ia), n), dtype=np.intp), np.empty((len(ia), n))
    window = 2 * (8 * b.shape[1] * np.finfo(np.float64).eps)  # 2 * delta
    kth = len(b) - max(n, 1)  # ascending position of the n-th largest (n = 0 takes none)
    for start in range(0, len(ia), TOP_BLOCK_ROWS):
        block = ia[start : start + TOP_BLOCK_ROWS]
        approx = np.clip(a[block] @ b.T, -1.0, 1.0)
        lo, hi = np.searchsorted(ek, [start, start + len(block)])
        approx[ek[lo:hi] - start, ej[lo:hi]] = -np.inf
        floor = np.partition(approx, kth, axis=1)[:, kth] - window
        rows, cand = np.nonzero(approx >= floor[:, None])
        exact = pair_cosines(a, block[rows], b, cand)
        exact[approx[rows, cand] == -np.inf] = -np.inf  # a -inf floor lets the excluded in
        order = np.lexsort((-exact, rows))  # row-major like rows; ties keep nonzero's cand order
        pick = order[np.searchsorted(rows, np.arange(len(block)))[:, None] + np.arange(n)]
        cols[start : start + len(block)], vals[start : start + len(block)] = cand[pick], exact[pick]
    return cols, vals


def cosine(a, b) -> float:
    """Cosine similarity ``<a,b> / (|a||b|)`` of two vectors, symmetric in its
    arguments: both go through one :func:`unit_rows` call, then
    :func:`pair_cosines`."""
    u = unit_rows([a, b])
    return float(pair_cosines(u, [0], u, [1])[0])


def average_embedding(vectors) -> np.ndarray:
    """Arithmetic mean of the L2-normalized vectors: :func:`group_means` of
    the :func:`unit_rows` as one group."""
    unit = unit_rows(vectors)
    return group_means(unit, np.ones(len(unit)), [range(len(unit))])[0]


def group_means(x: np.ndarray, norms: np.ndarray, groups) -> np.ndarray:
    """(len(groups), D) column means of unit rows: row g is the mean of the
    rows ``x[r] / norms[r]`` for r in ``groups[g]``, each column
    ``math.fsum(column) / len(groups[g])`` bit for bit, so it does not depend
    on the order of a group's rows.  ``norms`` are the :func:`row_norms` of
    ``x`` (or ones for unit rows), so ``x[r] / norms[r]`` is the row of
    :func:`unit_rows`.  The means are not re-normalized: cosine scoring is
    scale-invariant.

    Exactness.  Groups go longest first, ``GROUP_BLOCK`` at a time; step k
    gathers the k-th unit row of each group in the block, -0.0 past a
    group's end (x + -0.0 == x, also for x = +0.0).  Each step takes
    s, e = TwoSum(s, x) and c, e2 = TwoSum(c, e) from s = c = +0.0.  TwoSum
    (Knuth; Ogita, Rump and Oishi, "Accurate Sum and Dot Product", 2005) is
    error-free: a + b == s + e exactly for any finite a, b without overflow
    (subnormal sums are exact), and |partial sums| <= group size here.  So
    after the last step the column's exact sum is s + c + (sum of all e2).
    Where every e2 was 0, s + c is the exact sum and fl(s + c) is its
    correctly rounded value, ties to even: the value ``math.fsum``
    (Shewchuk's algorithm) returns.  Neither s nor c is ever -0.0 (a
    cancellation rounds to +0.0), so an exactly zero sum is +0.0, as fsum
    gives it.  Each column where some e2 != 0 goes to ``math.fsum``.  Only
    correctly rounded elementwise + and - touch the sums, so no BLAS or SIMD
    setting moves a bit.

    Raises:
        EmptySet: a group without rows.
        DegenerateAverage: a group's rows cancel to (near) zero.
        The first group in order that is either raises.
    """
    sizes = np.array([len(g) for g in groups], dtype=np.intp)
    flat = np.fromiter(itertools.chain.from_iterable(groups), np.intp, int(sizes.sum()))
    first = np.cumsum(sizes) - sizes  # each group's offset in flat
    order = np.argsort(-sizes, kind="stable")
    out = np.empty((len(groups), x.shape[1]))
    buffers = [np.empty((min(len(groups), GROUP_BLOCK), x.shape[1])) for _ in range(5)]
    flags = np.empty(buffers[0].shape, dtype=bool)
    for start in range(0, len(order), GROUP_BLOCK):
        block = order[start : start + GROUP_BLOCK]
        n = sizes[block]
        s, c, t, u, v = (b[: len(block)] for b in buffers)
        s.fill(0.0)
        c.fill(0.0)
        inexact = flags[: len(block)]
        inexact.fill(False)
        for k in range(int(n.max(initial=0))):
            live = int(np.count_nonzero(n > k))  # n descends: live groups come first
            rows = flat[first[block[:live]] + k]
            np.take(x, rows, axis=0, out=u[:live], mode="clip")  # "raise" would buffer out
            np.divide(u[:live], norms[rows, None], out=u[:live])
            u[live:] = -0.0
            _two_sum(s, u, t, v)  # t = s + u rounded, u = its error
            _two_sum(c, u, s, v)  # s = c + u rounded, u = its error
            s, c, t = t, s, c
            np.logical_or(inexact, u, out=inexact)
        total = np.add(s, c, out=s)
        for g, j in zip(*np.nonzero(inexact)):
            rows = flat[first[block[g]] : first[block[g]] + n[g]]
            total[g, j] = math.fsum((x[rows, j] / norms[rows]).tolist())
        out[block] = np.divide(total, np.maximum(n, 1)[:, None], out=total)  # empty: 0
    bad = np.flatnonzero(row_norms(out) <= NORM_EPS)
    if len(bad) and sizes[bad[0]] == 0:
        raise EmptySet("cannot average an empty set of embeddings")
    if len(bad):
        raise DegenerateAverage("member vectors cancel; average is degenerate")
    return out


def _two_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Knuth's TwoSum in place: ``out`` = fl(a + b) and ``b`` = a + b - out,
    exactly; ``a`` and ``scratch`` are overwritten."""
    np.add(a, b, out=out)
    np.subtract(out, a, out=scratch)  # b's share of the rounded sum
    np.subtract(b, scratch, out=b)
    np.subtract(out, scratch, out=scratch)  # a's share
    np.subtract(a, scratch, out=a)
    np.add(a, b, out=b)
