"""Trial scoring: enrollment models, adaptive s-norm, and the language offset.

The imposter cohort for trial scoring is built from training embeddings
(one averaged vector per speaker); the cross-language compensation offset
is estimated on the speaker prototypes.  Those are two distinct populations and
are kept as two separate inputs throughout.  Both use :func:`snorm_stats` on the exact
``vecmath.top_cosines``; :meth:`Cohort.imposter_stats` leaves enrollment speakers
out, and the offset leaves each Farsi prototype out of its own ranking by index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ClassTooSmall,
    DegenerateCohort,
    DimensionMismatch,
    EmptySet,
    MissingEmbedding,
    MissingLidDecision,
    ParamInvalid,
    ValidationError,
)
# unused here: perfbench counts scoring.cosine calls
from .vecmath import cosine  # noqa: F401
from .vecmath import DEFAULT_TOP_N, Domain, EmbeddingTable, Language, PrototypeMatrix
from .vecmath import NORM_EPS, check_row_norms, frozen_rows, group_means
from .vecmath import pair_cosines, row_norms, top_cosines, unit_rows

if TYPE_CHECKING:
    from .scores import TrialKeys

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Cohort:
    """Imposter cohort as columns: ``speaker_ids``, one (typically averaged)
    ``means`` row per speaker, and the unit-normalized :attr:`unit_rows`."""

    speaker_ids: tuple[str, ...]
    means: np.ndarray

    def __post_init__(self):
        ids = tuple(self.speaker_ids)
        if not ids:
            raise EmptySet("cohort must contain at least one speaker")
        if len(set(ids)) != len(ids):
            raise ValidationError("cohort speaker_ids must be unique")
        means = frozen_rows(self.means)
        unit = unit_rows(means)
        if len(means) != len(ids):
            raise ValidationError(f"{len(means)} cohort means for {len(ids)} speakers")
        unit.setflags(write=False)
        object.__setattr__(self, "speaker_ids", ids)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "_unit_rows", unit)

    def __len__(self) -> int:
        return len(self.speaker_ids)

    @property
    def unit_rows(self) -> np.ndarray:
        return self._unit_rows

    def imposter_stats(self, units, speakers, top_n: int = DEFAULT_TOP_N) -> tuple:
        """:func:`snorm_stats` of each row of ``units``, leaving out the cohort
        rows of that row's ``speakers``.  EmptySet if none is left."""
        column = dict(zip(self.speaker_ids, range(len(self))))
        pairs = [(i, column[s]) for i, drop in enumerate(speakers) for s in column.keys() & drop]
        rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        if np.bincount(rows).max(initial=0) == len(self):
            raise EmptySet("excluding enrollment speakers emptied the cohort")
        return snorm_stats(units, self.unit_rows, top_n, exclude=(rows, cols))

    @classmethod
    def from_embeddings(
        cls, table: EmbeddingTable, domains: Iterable[Domain] | None = None
    ) -> "Cohort":
        """Average each speaker's length-normalized embeddings into one mean.

        Speaker order follows first appearance.  With ``domains``, only
        speakers whose first utterance is in one of them are kept, and only
        their rows are normalized and averaged, by one :func:`.group_means`
        call.  Every row's norm is still checked, so a degenerate row raises
        NormUnderflow wherever it is.
        """
        norms = check_row_norms(table.vectors)
        groups: dict[str, list[int]] = {}
        for row, sid in enumerate(table.speaker_ids):
            groups.setdefault(sid, []).append(row)
        allowed = set(Domain if domains is None else domains)
        kept = {sid: rows for sid, rows in groups.items() if table.domains[rows[0]] in allowed}
        if domains is not None and not kept:
            names = "+".join(sorted(d.value for d in allowed))
            raise EmptySet(f"no cohort speakers left for domains {names}")
        return cls(tuple(kept), group_means(table.vectors, norms, list(kept.values())))


@dataclass(frozen=True)
class AlphaProvenance:
    top_n: int
    n_farsi: int
    n_usa: int
    mu_imposter_farsi: float
    mu_imposter_usa: float


@dataclass(frozen=True)
class LanguageOffset:
    """Compensation subtracted from the enrollment-side imposter mean when
    the test utterance is detected to be English."""

    alpha: float
    provenance: AlphaProvenance | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValidationError("offset must be finite")


def snorm_stats(units, rows, top_n: int = DEFAULT_TOP_N, exclude=((), ())) -> tuple:
    """Statistics of the top-N cohort scores for each row of ``units``.

    Ranks the unit cohort rows ``rows`` (e.g. :attr:`Cohort.unit_rows`) by
    cosine against each unit row of the (m, D) block ``units`` with
    ``vecmath.top_cosines``, less the (unit row, cohort row) pairs of
    ``exclude``, and returns the ``np.mean`` and population ``np.std`` of each
    row's top_n exact scores in descending order (two length-m arrays).  A row
    with fewer rows left uses all of them, one warning per such count and call.
    """
    if top_n < 2:
        raise ParamInvalid(f"top_n must be >= 2, got {top_n}")
    if units.shape[1] != rows.shape[1]:
        raise DimensionMismatch(f"vector dim {units.shape[1]} vs cohort dim {rows.shape[1]}")
    _, top = top_cosines(units, np.arange(len(units)), rows, min(top_n, len(rows)), exclude)
    counts = np.count_nonzero(top > -np.inf, axis=1)
    mu, sigma = np.empty(len(units)), np.empty(len(units))
    for n in np.flatnonzero(np.bincount(counts)).tolist():
        if n < top_n:
            log.warning("top_n=%d exceeds cohort size %d; using the whole cohort", top_n, n)
        group = counts == n
        mu[group], sigma[group] = np.mean(top[group, :n], axis=1), np.std(top[group, :n], axis=1)
    if np.any(sigma <= 0.0):
        raise DegenerateCohort("selected cohort scores have zero variance")
    return mu, sigma


def _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, shift):
    """Two-sided s-norm, elementwise; ``shift`` lowers mu_e, and 0.0 is an exact no-op."""
    return (raw - mu_t) / sigma_t + (raw - (mu_e - shift)) / sigma_e


def estimate_alpha(protos: PrototypeMatrix, top_n: int = DEFAULT_TOP_N) -> LanguageOffset:
    """Cross-language offset estimated on unit-normalized prototypes.

    mu_imposter_farsi: mean over Farsi prototypes of the top-N imposter
    mean against the other Farsi prototypes (leave-one-out; a prototype's
    self-score of 1.0 would bias the mean upward).  mu_imposter_usa: the
    same statistic for English-labeled prototypes against the full Farsi
    cohort.  alpha is their difference.
    """
    farsi = [i for i, lang in enumerate(protos.languages) if lang is Language.FARSI]
    usa = [i for i, lang in enumerate(protos.languages) if lang is Language.ENGLISH]
    if len(farsi) < top_n + 1:
        raise ClassTooSmall(
            f"need at least top_n+1={top_n + 1} Farsi prototypes, have {len(farsi)}"
        )
    if not usa:
        raise ClassTooSmall("need at least one English-labeled prototype")

    unit = protos.unit_rows
    fa = unit_rows(unit[farsi])  # the unit prototypes normalized once more
    own = np.arange(len(farsi))
    mu_fa = float(np.mean(snorm_stats(fa, fa, top_n, exclude=(own, own))[0]))
    mu_usa = float(np.mean(snorm_stats(unit_rows(unit[usa]), fa, top_n)[0]))
    return LanguageOffset(
        alpha=mu_fa - mu_usa,
        provenance=AlphaProvenance(
            top_n=top_n,
            n_farsi=len(farsi),
            n_usa=len(usa),
            mu_imposter_farsi=mu_fa,
            mu_imposter_usa=mu_usa,
        ),
    )


def score_trials(
    trials: TrialKeys | Sequence[tuple[str, str]],
    enrollment_map: Mapping[str, Sequence[str]],
    table: EmbeddingTable,
    cohort: Cohort | None = None,
    offset: LanguageOffset | None = None,
    lid_decisions: Mapping[str, Language] | None = None,
    top_n: int = DEFAULT_TOP_N,
) -> np.ndarray:
    """Score every (model, test utterance) trial: one float64 per trial, in order.

    The inputs given pick the score: without a cohort, the raw cosine of
    enrollment model and test vector; with one, adaptive s-norm; with a
    cohort, an ``offset`` and ``lid_decisions``, language-dependent s-norm.
    Any other combination raises ParamInvalid.  ``trials`` is a
    :class:`.TrialKeys` or (model id, test id) pairs.  Enrollment and test
    utterances are looked up in ``table`` by id; each enrollment model is the
    average of its L2-normalized utterances, all models by one
    :func:`.group_means` call.  A model's defects rank as :func:`.average_embedding`
    of its rows would raise them, model by model: MissingEmbedding, then the
    norm check of its rows, then EmptySet or DegenerateAverage.  Normalization
    statistics come from one :func:`snorm_stats` call for all test utterances
    and one for the models, through :meth:`Cohort.imposter_stats`, which
    leaves each model's enrollment speakers out of its cohort.
    """
    if (offset is None) != (lid_decisions is None):
        raise ParamInvalid("a language offset and language decisions are only used together")
    if offset is not None and cohort is None:
        raise ParamInvalid("a language offset and language decisions require a cohort")
    from .scores import TrialKeys, first_appearance

    keys = TrialKeys.of(trials)

    def row_of(utt_id: str) -> int:
        try:
            return table.row_of[utt_id]
        except KeyError:
            raise MissingEmbedding(f"no embedding for utterance {utt_id!r}") from None

    model_ids = list(enrollment_map)
    model_row = {m: k for k, m in enumerate(model_ids)}
    norms = row_norms(table.vectors)
    unfit = set(np.flatnonzero((norms <= NORM_EPS) | (norms == np.inf)).tolist())
    groups = []
    for model_id in model_ids:
        rows = [table.row_of.get(u, -1) for u in enrollment_map[model_id]]
        if -1 in rows or not unfit.isdisjoint(rows):
            group_means(table.vectors, norms, groups)  # an earlier model's defect comes first
            check_row_norms(table.vectors[[row_of(u) for u in enrollment_map[model_id]]])
        groups.append(rows)
    # normalized at once, so the means are freed before the per-trial arrays exist
    model_unit = unit_rows(group_means(table.vectors, norms, groups), table.dim)
    model_speakers = [{table.speaker_ids[r] for r in rows} for rows in groups]

    # trial -> (model row, test row); test rows in order of first appearance
    mi = np.array([model_row.get(m, -1) for m in keys.model_ids], np.intp)[keys.models]
    unknown = np.flatnonzero(mi < 0)
    if len(unknown):
        raise MissingEmbedding(f"trial references unknown model {keys[int(unknown[0])][0]!r}")
    first, ti = first_appearance(keys.tests)
    test_ids = [keys.test_ids[c] for c in keys.tests[first].tolist()]
    test_vecs = table.vectors[[row_of(u) for u in test_ids]]

    test_unit = unit_rows(test_vecs, table.dim)
    raw = pair_cosines(model_unit, mi, test_unit, ti)  # the kernel of ``cosine``
    if cohort is None:
        return raw

    used = mi[first_appearance(mi)[0]]  # models in order of first trial
    mu_e, sigma_e = np.zeros(len(model_ids)), np.ones(len(model_ids))
    mu_e[used], sigma_e[used] = cohort.imposter_stats(
        model_unit[used], [model_speakers[m] for m in used], top_n
    )
    mu_t, sigma_t = snorm_stats(test_unit, cohort.unit_rows, top_n)
    shift = np.zeros(len(test_vecs))
    if offset is not None:
        for t, utt_id in enumerate(test_ids):
            if utt_id not in lid_decisions:
                raise MissingLidDecision(f"no language decision for {utt_id!r}")
            if lid_decisions[utt_id] is Language.ENGLISH:
                shift[t] = offset.alpha
    return _snorm(raw, mu_e[mi], sigma_e[mi], mu_t[ti], sigma_t[ti], shift[ti])
