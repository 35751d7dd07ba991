"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths under test: metrics are
computed by explicit per-threshold counting loops, the margin-loss oracle
goes through scipy's log_softmax, gradients come from central differences,
and calibration is re-fit with a generic quasi-Newton optimizer.  The
scalar scoring, alpha and LID references are the per-item loops the batch
implementations replaced: one scalar cosine (two :func:`l2_normalize`
calls) and one written-out s-norm per trial, one rebuilt ``Cohort`` per
left-out prototype or enrollment model, and two triangular solves per llr.
:func:`l2_normalize` is the scalar reference for ``unit_rows``,
:func:`snorm_stats` (one vector in, one :class:`SnormStats` out) for the
block ``scoring.snorm_stats``, and :func:`adaptive_snorm` and
:func:`language_dependent_snorm` for ``scoring._snorm``.  The embedding
readers are the per-row parsers the columnar ones replaced (one ``float``
list or one ``struct.unpack`` per row), the text vector writer is the
per-row one (one ``repr`` per value, one join per row), and so are the trial
and score readers and writers (text-mode lines, one ``split`` and one
``float`` or f-string per row), with ``fuse``'s per-key dict alignment.  The batch
planner's reference draws each group speaker's utterances with its own
``choice`` call.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_softmax

from svbackend import formats, planner
from svbackend.errors import (
    DegenerateAverage,
    DegenerateCohort,
    DimensionMismatch,
    EmptySet,
    FormatError,
    MissingEmbedding,
    MissingLidDecision,
    NormUnderflow,
    ParamInvalid,
    ValidationError,
)
from svbackend.scoring import DEFAULT_TOP_N, Cohort, LanguageOffset
from svbackend.vecmath import ScoringMode
from svbackend.vecmath import NORM_EPS, Domain, Language, philox_rng, unit_rows

log = logging.getLogger(__name__)


def l2_normalize(v):
    """One vector divided by its Euclidean norm, the scalar way: ``math.sqrt``
    of numpy's pairwise sum of squares.  The reference for ``unit_rows``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector contains non-finite entries")
    norm = math.sqrt(float(np.sum(arr * arr)))
    if norm <= NORM_EPS:
        raise NormUnderflow(f"vector norm {norm:g} <= {NORM_EPS:g}")
    return arr / norm


def scalar_cosine(a, b):
    """Cosine of two vectors from two :func:`l2_normalize` calls, clipped to
    [-1, 1]."""
    return min(1.0, max(-1.0, float(np.sum(l2_normalize(a) * l2_normalize(b)))))


@dataclass(frozen=True)
class SnormStats:
    """Mean and population standard deviation of the top-N cohort scores."""

    mu: float
    sigma: float
    top_n: int

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")


def snorm_stats(x, rows: np.ndarray, top_n: int = DEFAULT_TOP_N) -> SnormStats:
    """Statistics of the top-N cohort scores for one vector.

    Scores x by cosine against every row of ``rows`` (unit-normalized cohort
    vectors, e.g. :attr:`Cohort.unit_rows` or a row subset of it), one
    written-out ``np.sum`` of the elementwise products per row, clipped to
    [-1, 1]; keeps the top_n highest in (-score, row) order, and returns
    their mean and population standard deviation.  A top_n beyond the
    cohort size falls back to the whole cohort with a warning so small runs
    stay usable.
    """
    if top_n < 2:
        raise ParamInvalid(f"top_n must be >= 2, got {top_n}")
    (xhat,) = unit_rows([x])
    if xhat.shape[0] != rows.shape[1]:
        raise DimensionMismatch(f"vector dim {xhat.shape[0]} vs cohort dim {rows.shape[1]}")
    scores = np.clip(np.sum(rows * xhat, axis=1), -1.0, 1.0)
    if top_n > len(scores):
        log.warning(
            "top_n=%d exceeds cohort size %d; using the whole cohort", top_n, len(scores)
        )
        top_n = len(scores)
    selected = scores[np.lexsort((np.arange(len(scores)), -scores))[:top_n]]
    mu = float(np.mean(selected))
    sigma = float(np.std(selected))
    if sigma <= 0.0:
        raise DegenerateCohort("selected cohort scores have zero variance")
    return SnormStats(mu=mu, sigma=sigma, top_n=top_n)


def adaptive_snorm(raw, stats_e, stats_t):
    """Two-sided adaptive s-norm of one score, written out."""
    return (raw - stats_t.mu) / stats_t.sigma + (raw - stats_e.mu) / stats_e.sigma


def language_dependent_snorm(raw, stats_e, stats_t, offset, test_is_english):
    """:func:`adaptive_snorm` with the enrollment-side imposter mean lowered
    by ``offset.alpha`` when the test utterance is English."""
    mu_e = stats_e.mu - offset.alpha if test_is_english else stats_e.mu
    return (raw - stats_t.mu) / stats_t.sigma + (raw - mu_e) / stats_e.sigma


def roc_points(scores, labels):
    """(far, frr) per threshold, descending sweep with a reject-all sentinel.

    Decision rule: accept iff score >= threshold.  Plain counting loops.
    """
    scores = [float(s) for s in scores]
    labels = [bool(l) for l in labels]
    tar = [s for s, l in zip(scores, labels) if l]
    non = [s for s, l in zip(scores, labels) if not l]
    thresholds = [float("inf")] + sorted(set(scores), reverse=True)
    points = []
    for t in thresholds:
        far = sum(1 for s in non if s >= t) / len(non)
        frr = sum(1 for s in tar if s < t) / len(tar)
        points.append((far, frr))
    return points


def brute_force_eer(scores, labels):
    """Crossover of the (far, frr) sweep, linearly interpolated."""
    points = roc_points(scores, labels)
    for k in range(len(points)):
        far2, frr2 = points[k]
        if frr2 - far2 <= 0.0:
            if frr2 == far2:
                return far2
            far1, frr1 = points[k - 1]
            t = (frr1 - far1) / ((far2 - far1) + (frr1 - frr2))
            return far1 + t * (far2 - far1)
    raise AssertionError("no crossover found")


def brute_force_min_dcf(scores, labels, p_target, c_miss, c_fa):
    miss_weight = c_miss * p_target
    fa_weight = c_fa * (1.0 - p_target)
    best = None
    for far, frr in roc_points(scores, labels):
        cost = miss_weight * frr + fa_weight * far
        best = cost if best is None else min(best, cost)
    return best / min(miss_weight, fa_weight)


def softmax_ce_on_cosines(embeddings, labels, w):
    """Mean softmax cross-entropy over raw cosine logits (no margin, scale 1)."""
    x = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    wn = w / np.linalg.norm(w, axis=0, keepdims=True)
    logits = xn @ wn
    logp = log_softmax(logits, axis=1)
    return float(-np.mean(logp[np.arange(len(labels)), labels]))


def central_difference_grads(loss_fn, x, w, step=1e-5):
    """Gradients of ``loss_fn(x, w)`` by central differences, one component
    at a time."""
    gx = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        for d in range(x.shape[1]):
            hi, lo = x.copy(), x.copy()
            hi[i, d] += step
            lo[i, d] -= step
            gx[i, d] = (loss_fn(hi, w) - loss_fn(lo, w)) / (2 * step)
    gw = np.zeros_like(w, dtype=np.float64)
    for d in range(w.shape[0]):
        for j in range(w.shape[1]):
            hi, lo = w.copy(), w.copy()
            hi[d, j] += step
            lo[d, j] -= step
            gw[d, j] = (loss_fn(x, hi) - loss_fn(x, lo)) / (2 * step)
    return gx, gw


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def fit_logreg_reference(scores, labels, l2=1e-6):
    """(a, b) maximizing the same penalized likelihood via scipy BFGS."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)

    def objective(theta):
        z = theta[0] * s + theta[1]
        nll = np.sum(np.logaddexp(0.0, z) - y * z)
        return nll + 0.5 * l2 * (theta[0] ** 2 + theta[1] ** 2)

    def gradient(theta):
        z = theta[0] * s + theta[1]
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        r = p - y
        return np.array([np.sum(r * s) + l2 * theta[0], np.sum(r) + l2 * theta[1]])

    res = minimize(
        objective, x0=np.zeros(2), jac=gradient, method="BFGS", options={"gtol": 1e-12}
    )
    return float(res.x[0]), float(res.x[1])


def average_vectors(vecs):
    """Mean of the vectors after one ``l2_normalize`` call each, summed
    exactly column by column (:func:`mean_of_units`)."""
    return mean_of_units(np.array([l2_normalize(v) for v in vecs]))


def mean_of_units(unit):
    """Column mean of unit rows, one ``math.fsum`` per column: the reference
    for ``vecmath.group_means``.

    Raises:
        EmptySet: no rows.
        DegenerateAverage: the rows cancel to (near) zero.
    """
    if not len(unit):
        raise EmptySet("cannot average an empty set of embeddings")
    mean = np.array([math.fsum(col) for col in unit.T.tolist()]) / len(unit)
    if math.sqrt(np.sum(mean * mean)) <= NORM_EPS:
        raise DegenerateAverage("member vectors cancel; average is degenerate")
    return mean


def enrollment_means(enrollment_map, table):
    """The enrollment models of ``score_trials``, one model at a time in map
    order: look its utterances up (MissingEmbedding at the first absent
    one), normalize them with ``unit_rows`` and average with
    :func:`mean_of_units`, so the first model with a defect raises it."""
    means = []
    for utt_ids in enrollment_map.values():
        rows = []
        for utt_id in utt_ids:
            if utt_id not in table.row_of:
                raise MissingEmbedding(f"no embedding for utterance {utt_id!r}")
            rows.append(table.row_of[utt_id])
        means.append(mean_of_units(unit_rows(table.vectors[rows])))
    return means


def full_cohort(table):
    """Cohort of every speaker in the table, each averaged from its rows with
    :func:`average_vectors`."""
    groups = {}
    for k, sid in enumerate(table.speaker_ids):
        groups.setdefault(sid, []).append(k)
    means = [average_vectors([table.vectors[k] for k in rows]) for rows in groups.values()]
    return Cohort(tuple(groups), np.array(means))


def cohort_from_all_rows(table, domains):
    """Cohort.from_embeddings as it was built from every row normalized at
    once: unit rows of the whole table, then the kept speakers' means."""
    unit = unit_rows(table.vectors, table.dim)
    groups = {}
    for k, sid in enumerate(table.speaker_ids):
        groups.setdefault(sid, []).append(k)
    kept = {sid: rows for sid, rows in groups.items() if table.domains[rows[0]] in set(domains)}
    return Cohort(tuple(kept), [mean_of_units(unit[rows]) for rows in kept.values()])


def first_row_domains(table):
    """speaker_id -> domain of the speaker's first row."""
    out = {}
    for sid, domain in zip(table.speaker_ids, table.domains):
        out.setdefault(sid, domain)
    return out


def _keep_rows(cohort, rows):
    return Cohort(tuple(cohort.speaker_ids[k] for k in rows), cohort.means[rows])


def restrict_domains(cohort, domain_of, domains):
    """The cohort speakers whose ``domain_of[speaker_id]`` is one of
    ``domains``."""
    allowed = set(domains)
    rows = [k for k, sid in enumerate(cohort.speaker_ids) if domain_of[sid] in allowed]
    if not rows:
        names = "+".join(sorted(d.value for d in allowed))
        raise EmptySet(f"no cohort speakers left for domains {names}")
    return _keep_rows(cohort, rows)


def excluding_speakers(cohort, speaker_ids):
    """A new Cohort without the given speakers (the cohort itself if none
    of them is in it)."""
    drop = set(speaker_ids)
    rows = [k for k, sid in enumerate(cohort.speaker_ids) if sid not in drop]
    if not rows:
        raise EmptySet("excluding enrollment speakers emptied the cohort")
    if len(rows) == len(cohort):
        return cohort
    return _keep_rows(cohort, rows)


def score_trials_loop(
    trials, enrollment_map, table, cohort, mode, offset=None, lid_decisions=None, top_n=40
):
    """Per-trial scoring: a list of (raw, normalized) pairs aligned with
    ``trials``.  Statistics are recomputed for every trial on a cohort
    rebuilt without the model's enrollment speakers."""
    emb = {u: (s, v) for u, s, v in zip(table.utt_ids, table.speaker_ids, table.vectors)}
    if mode is not ScoringMode.RAW and cohort is None:
        raise ParamInvalid(f"mode {mode.value} requires a cohort")
    if mode is ScoringMode.SNORM_LID and (offset is None or lid_decisions is None):
        raise ParamInvalid("mode snorm-lid requires an offset and language decisions")

    def embedding_of(utt_id):
        try:
            return emb[utt_id]
        except KeyError:
            raise MissingEmbedding(f"no embedding for utterance {utt_id!r}") from None

    model_vecs, model_speakers = {}, {}
    for model_id, utt_ids in enrollment_map.items():
        members = [embedding_of(u) for u in utt_ids]
        model_vecs[model_id] = average_vectors([vec for _, vec in members])
        model_speakers[model_id] = {speaker for speaker, _ in members}

    out = []
    for model_id, utt_id in trials:
        if model_id not in model_vecs:
            raise MissingEmbedding(f"trial references unknown model {model_id!r}")
        test_vec = embedding_of(utt_id)[1]
        raw = scalar_cosine(model_vecs[model_id], test_vec)
        if mode is ScoringMode.RAW:
            out.append((raw, raw))
            continue
        pruned = excluding_speakers(cohort, model_speakers[model_id])
        st_e = snorm_stats(model_vecs[model_id], pruned.unit_rows, top_n)
        st_t = snorm_stats(test_vec, cohort.unit_rows, top_n)
        if mode is ScoringMode.SNORM:
            out.append((raw, adaptive_snorm(raw, st_e, st_t)))
            continue
        if utt_id not in lid_decisions:
            raise MissingLidDecision(f"no language decision for {utt_id!r}")
        english = lid_decisions[utt_id] is Language.ENGLISH
        out.append((raw, language_dependent_snorm(raw, st_e, st_t, offset, english)))
    return out


def mode_inputs(mode, cohort, offset, lid_decisions) -> dict:
    """The ``score_trials`` inputs that give the scores of ``mode``: no cohort
    for raw cosines, a cohort for s-norm, and with it the offset and the
    language decisions for language-dependent s-norm."""
    if mode is ScoringMode.RAW:
        return {"cohort": None}
    if mode is ScoringMode.SNORM:
        return {"cohort": cohort}
    return {"cohort": cohort, "offset": offset, "lid_decisions": lid_decisions}


def estimate_alpha_rebuild(protos, top_n=40):
    """alpha with one Cohort built per left-out Farsi prototype."""
    farsi = [i for i, lang in enumerate(protos.languages) if lang is Language.FARSI]
    usa = [i for i, lang in enumerate(protos.languages) if lang is Language.ENGLISH]
    unit = protos.unit_rows
    ids = tuple(protos.speaker_ids[i] for i in farsi)
    full = Cohort(ids, unit[farsi])
    mu_fa = float(
        np.mean(
            [
                snorm_stats(unit[i], excluding_speakers(full, [ids[k]]).unit_rows, top_n).mu
                for k, i in enumerate(farsi)
            ]
        )
    )
    mu_usa = float(np.mean([snorm_stats(unit[i], full.unit_rows, top_n).mu for i in usa]))
    return LanguageOffset(alpha=mu_fa - mu_usa)


def similarity_matrix_full(protos):
    """Every row of S from the full row-wise kernel, with no use of symmetry."""
    rows = protos.unit_rows
    s = np.empty((protos.count, protos.count))
    for i in range(protos.count):
        s[i] = np.sum(rows[i][None, :] * rows, axis=1)
    return np.clip(s, -1.0, 1.0)


def top_similar_full(s, speaker_index, k):
    """The ``k`` speakers most similar to ``speaker_index`` from its full row
    of ``s`` (from :func:`similarity_matrix_full`): the speaker first, then
    the others by descending similarity, ties by ascending index."""
    others = np.delete(np.arange(len(s)), speaker_index)
    order = others[np.lexsort((others, -s[speaker_index, others]))]
    return [speaker_index] + order[: k - 1].tolist()


def build_batches_loop(cfg, sim, inv, anchor_order, pass_id):
    """``planner._build_batches`` with one ``sample_utterances`` call per
    group speaker, whatever ``utts_per_speaker``, and each group ranked by
    :func:`top_similar_full`."""
    s = similarity_matrix_full(sim.protos)
    a = cfg.anchors_per_batch
    anchors = np.resize(anchor_order, math.ceil(len(anchor_order) / a) * a)
    batches, entries = [], []
    for pos, anchor in enumerate(anchors.tolist()):
        g_utts = philox_rng(cfg.seed, pass_id, planner._STREAM_UTTS, pos)
        for spk in top_similar_full(s, anchor, cfg.imposters_per_anchor):
            for utt in planner.sample_utterances(inv, spk, cfg.utts_per_speaker, g_utts):
                entries.append((utt, spk))
        if (pos + 1) % a == 0:
            batches.append(tuple(entries))
            entries = []
    return planner.BatchManifest(batches=tuple(batches), pass_id=pass_id, epoch_tag=sim.epoch_tag)


def log_density(gb, x, mu):
    """log N(x; mu, shared_cov) through the Cholesky factor of the covariance."""
    chol = np.linalg.cholesky(gb.shared_cov)
    u = np.linalg.solve(chol, x - mu)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return -0.5 * (float(u @ u) + logdet + gb.dim * np.log(2.0 * np.pi))


def log_likelihood_ratio(gb, vec):
    """log N(x; mu_EN, cov) - log N(x; mu_FA, cov) on the normalized input."""
    x = l2_normalize(vec)
    return log_density(gb, x, gb.mu_english_effective) - log_density(gb, x, gb.mu_farsi)


def read_embeddings_text_rows(path):
    """(utt_id, speaker_id, domain, language, vector) per row, parsed one row
    at a time."""
    out = []
    for line in formats._data_lines(Path(path), "embeddings"):
        utt_id, speaker_id, domain, language, values = line.split("\t")
        vec = np.array([float(v) for v in values.split(",")], dtype=np.float64)
        out.append((utt_id, speaker_id, Domain(domain), Language(language), vec))
    return out


def read_embeddings_binary_rows(path):
    """The same rows from the binary container, one ``struct.unpack`` and
    one float32 -> float64 cast per record."""
    data = Path(path).read_bytes()
    payload = data[data.index(b"\n") + 1 :]
    if payload[:4] != b"SVEB":
        raise FormatError("bad magic")
    _, dim, count = struct.unpack_from("<HIQ", payload, 4)
    offset = 18
    mat = np.frombuffer(payload, dtype="<f4", count=dim * count, offset=offset)
    mat = mat.reshape(count, dim)
    offset += 4 * dim * count
    (n_strings,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    strings = []
    for _ in range(n_strings):
        (slen,) = struct.unpack_from("<I", payload, offset)
        strings.append(payload[offset + 4 : offset + 4 + slen].decode("utf-8"))
        offset += 4 + slen
    out = []
    for row in range(count):
        utt_i, spk_i, dom_i, lang_i = struct.unpack_from("<IIBB", payload, offset)
        offset += 10
        out.append(
            (
                strings[utt_i],
                strings[spk_i],
                list(Domain)[dom_i],
                list(Language)[lang_i],
                mat[row].astype(np.float64),
            )
        )
    if offset != len(payload):
        raise FormatError("trailing bytes")
    return out


def write_vector_rows(path, fmt, ids, table):
    """An embeddings or prototypes file, one ``repr`` per value and one join
    per row: each row's values of the ``(what, values)`` id columns ``ids``,
    its Domain and Language, and its vector's values joined by commas."""
    columns = (*(values for _, values in ids), table.domains, table.languages)
    rows = zip(*columns, table.vectors.tolist())
    lines = (
        "\t".join([*row_ids, domain.value, language.value, ",".join(map(repr, vec))]) + "\n"
        for *row_ids, domain, language, vec in rows
    )
    formats._write_text(path, fmt, lines, ids)


# -- trial and score files: the per-row readers and writers the columnar ones
# replaced (text-mode lines, one ``split`` and one ``float`` per row), and the
# per-key dict alignment of ``fuse``.  A score set is (keys, scores, labels):
# a list of (model id, test id) tuples, a float64 array and a bool array or
# None, checked as ``ScoreSet`` checked it.


def _key_rows(path, fmt, what, *counts):
    """The fields of each data row; every row has one of ``counts`` fields,
    and all rows have the same number."""
    arity = None
    for line in formats._data_lines(path, fmt):
        parts = line.split("\t")
        if len(parts) != arity:
            if len(parts) not in counts:
                needs = " or ".join(map(str, counts))
                raise FormatError(f"{what} row needs {needs} fields, got {len(parts)}")
            if arity is not None:
                raise FormatError(f"{what} file mixes labeled and unlabeled rows")
            arity = len(parts)
        yield parts


def _label_of(text, what):
    if text not in ("target", "nontarget"):
        raise FormatError(f"unknown {what} label {text!r}")
    return text == "target"


def score_set_rows(keys, scores, labels=None):
    """``(keys, scores, labels)`` after the checks ``ScoreSet`` made, in its
    order, on keys that are pairs of str."""
    keys = [tuple(k) for k in keys]
    scores = np.array(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) != len(keys):
        raise ValidationError("scores must be one float per trial key")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores contain non-finite values")
    if len(set(keys)) != len(keys):
        raise ValidationError("trial keys must be unique")
    labels = None if labels is None else np.array(labels, dtype=bool)
    if labels is not None and labels.shape != scores.shape:
        raise ValidationError("labels must align with scores")
    return keys, scores, labels


def read_trials_rows(path):
    """``(trials, labels)``: the (model id, test id) tuples and a bool array,
    or None when the rows carry no label."""
    trials, labels = [], []
    for parts in _key_rows(path, "trials", "trial", 2, 3):
        trials.append((parts[0], parts[1]))
        if len(parts) == 3:
            labels.append(_label_of(parts[2], "trial"))
    if not trials:
        raise FormatError("trial file holds no rows")
    return trials, (np.array(labels, dtype=bool) if labels else None)


def read_scores_rows(path):
    """``(keys, scores, labels)`` of a score file, one ``float`` per row."""
    keys, values, labels = [], [], []
    for parts in _key_rows(path, "scores", "score", 3, 4):
        keys.append((parts[0], parts[1]))
        try:
            values.append(float(parts[2]))
        except ValueError:
            raise FormatError(f"malformed score for {parts[0]}/{parts[1]}") from None
        if len(parts) == 4:
            labels.append(_label_of(parts[3], "score"))
    if not keys:
        raise FormatError("score file holds no rows")
    return score_set_rows(keys, values, labels or None)


def write_key_rows(path, fmt, keys, scores=None, labels=None):
    """A trials (``scores`` None) or scores file, one f-string per row with
    each score's ``repr``."""
    tails = [""] * len(keys) if labels is None else [
        "\t" + ("target" if t else "nontarget") for t in np.asarray(labels).tolist()
    ]
    values = [""] * len(keys) if scores is None else [
        "\t" + repr(s) for s in np.asarray(scores, dtype=np.float64).tolist()
    ]
    lines = (f"{m}\t{u}{v}{tail}\n" for (m, u), v, tail in zip(keys, values, tails))
    ids = [("model_id", [m for m, _ in keys]), ("utt_id", [u for _, u in keys])]
    formats._write_text(path, fmt, lines, ids)


def fuse_rows(score_sets, weights):
    """The weighted per-trial average of ``(keys, scores, labels)`` sets,
    aligned to the first set's keys through a dict per set."""
    from svbackend.errors import KeyMismatch, WeightInvalid

    if not score_sets:
        raise WeightInvalid("nothing to fuse")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) != len(score_sets):
        raise WeightInvalid(f"{len(w)} weights for {len(score_sets)} score sets")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise WeightInvalid("weights must be positive and finite")
    base_keys, base_scores, labels = score_sets[0]
    key_set = set(base_keys)
    unit = w / np.sum(w)
    fused = unit[0] * base_scores
    for k, (keys, scores, set_labels) in enumerate(score_sets[1:], start=1):
        if set(keys) != key_set:
            raise KeyMismatch(f"score set {k} covers different trials")
        idx = {key: i for i, key in enumerate(keys)}
        order = [idx[key] for key in base_keys]
        aligned = scores[order]
        aligned_labels = None if set_labels is None else set_labels[order]
        if aligned_labels is not None:
            if labels is None:
                labels = aligned_labels
            elif not np.array_equal(labels, aligned_labels):
                raise KeyMismatch(f"score set {k} disagrees on trial labels")
        fused = fused + unit[k] * aligned
    return score_set_rows(base_keys, fused, labels)
