"""Vector primitives shared by every pipeline stage.

All arithmetic runs in float64 regardless of how inputs were stored;
normalization statistics and cost sweeps downstream are sensitive to
accumulation error, so nothing here computes in float32.

Dot products go through :func:`unit_dot`'s pairwise-summation kernel.  The
speaker-similarity matrix reuses the same kernel row-wise, which keeps its
entries bit-identical to scalar ``cosine`` calls on the same vectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateAverage,
    DimensionMismatch,
    EmptySet,
    NormUnderflow,
    ValidationError,
)

#: Norm floor below which a vector counts as degenerate.  Far below any
#: realistic embedding norm; flags only genuinely corrupt data.
NORM_EPS = 1e-12


class Domain(enum.Enum):
    VOX = "VOX"
    LIBRI = "LIBRI"
    DEEPMINE = "DEEPMINE"


class Language(enum.Enum):
    FARSI = "FARSI"
    ENGLISH = "ENGLISH"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


def as_f64_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Embedding:
    """One utterance embedding plus its bookkeeping metadata.

    ``vec`` is stored as a read-only float64 copy; all embeddings of one
    corpus share the same dimension (enforced where collections are built).
    """

    utt_id: str
    speaker_id: str
    domain: Domain
    language: Language
    vec: np.ndarray

    def __post_init__(self):
        arr = as_f64_vector(self.vec).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)
        if not self.utt_id or not self.speaker_id:
            raise ValidationError("utt_id and speaker_id must be non-empty")

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


def unit_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product via numpy's pairwise reduction.

    Deliberately not BLAS: the reduction is order-stable, symmetric in its
    arguments, and identical between a scalar call and a row of the
    similarity-matrix kernel, which downstream exactness checks rely on.
    """
    return float(np.sum(a * b))


def l2_normalize(v, eps: float = NORM_EPS) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    Raises:
        NormUnderflow: if the norm is at or below ``eps`` (degenerate
            embedding, e.g. an all-zero vector).
    """
    arr = as_f64_vector(v)
    norm = math.sqrt(unit_dot(arr, arr))
    if norm <= eps:
        raise NormUnderflow(f"vector norm {norm:g} <= {eps:g}")
    return arr / norm


def unit_rows(vecs: Iterable, dim: int) -> np.ndarray:
    """(n, dim) array of the vectors, each scaled by :func:`l2_normalize`."""
    unit = [l2_normalize(v) for v in vecs]
    if any(u.shape[0] != dim for u in unit):
        raise DimensionMismatch(f"vectors must all have dimension {dim}")
    return np.reshape(unit, (len(unit), dim))


def cosine(a, b, eps: float = NORM_EPS) -> float:
    """Cosine similarity ``<a,b> / (|a||b|)``, symmetric in its arguments.

    Clipped to [-1, 1]: the raw quotient can overshoot by an ulp on
    (near-)parallel vectors, and downstream consumers rely on the bound.
    """
    av = as_f64_vector(a)
    bv = as_f64_vector(b)
    if av.shape != bv.shape:
        raise DimensionMismatch(f"vector shapes differ: {av.shape} vs {bv.shape}")
    return min(1.0, max(-1.0, unit_dot(l2_normalize(av, eps), l2_normalize(bv, eps))))


def average_embedding(members: Sequence[Embedding] | Iterable[Embedding]) -> np.ndarray:
    """Arithmetic mean of the L2-normalized member vectors.

    The result is intentionally not re-normalized: cosine scoring is
    scale-invariant, so the extra division would be immaterial downstream.
    Accumulation uses exact summation, making the result independent of
    member order.

    Raises:
        EmptySet: no members.
        NormUnderflow: a member is degenerate.
        DegenerateAverage: the members cancel to (near) zero.
    """
    units = [l2_normalize(m.vec) for m in members]
    if not units:
        raise EmptySet("cannot average an empty set of embeddings")
    dims = {u.shape[0] for u in units}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed embedding dimensions: {sorted(dims)}")
    stacked = np.stack(units)
    mean = np.array([math.fsum(col) for col in stacked.T]) / len(units)
    if math.sqrt(unit_dot(mean, mean)) <= NORM_EPS:
        raise DegenerateAverage("member vectors cancel; average is degenerate")
    return mean
