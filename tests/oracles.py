"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths under test: metrics are
computed by explicit per-threshold counting loops, the margin-loss oracle
goes through scipy's log_softmax, gradients come from central differences,
and calibration is re-fit with a generic quasi-Newton optimizer.  The
scalar scoring, alpha and LID references are the per-item loops the batch
implementations replaced: one ``cosine`` and one written-out s-norm per
trial, one rebuilt ``Cohort`` per left-out prototype or enrollment model,
and two triangular solves per llr.  The embedding readers are the per-row
parsers the columnar ones replaced (one ``float`` list or one
``struct.unpack`` per row).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_softmax

from svbackend import formats
from svbackend.errors import (
    DegenerateAverage,
    EmptySet,
    FormatError,
    MissingEmbedding,
    MissingLidDecision,
    ParamInvalid,
)
from svbackend.scoring import Cohort, LanguageOffset, ScoringMode, snorm_stats
from svbackend.vecmath import NORM_EPS, Domain, Language, cosine, l2_normalize


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
    exactly column by column."""
    units = [l2_normalize(v) for v in vecs]
    if not units:
        raise EmptySet("cannot average an empty set of embeddings")
    mean = np.array([math.fsum(col) for col in np.stack(units).T]) / len(units)
    if math.sqrt(float(np.sum(mean * mean))) <= NORM_EPS:
        raise DegenerateAverage("member vectors cancel; average is degenerate")
    return mean


def full_cohort(table):
    """Cohort of every speaker in the table, each averaged from its rows with
    :func:`average_vectors`."""
    groups = {}
    for k, sid in enumerate(table.speaker_ids):
        groups.setdefault(sid, []).append(k)
    means = [average_vectors([table.vectors[k] for k in rows]) for rows in groups.values()]
    return Cohort(tuple(groups), np.array(means))


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
        raw = cosine(model_vecs[model_id], test_vec)
        if mode is ScoringMode.RAW:
            out.append((raw, raw))
            continue
        pruned = excluding_speakers(cohort, model_speakers[model_id])
        st_e = snorm_stats(model_vecs[model_id], pruned.unit_rows, top_n)
        st_t = snorm_stats(test_vec, cohort.unit_rows, top_n)
        mu_e = st_e.mu
        if mode is ScoringMode.SNORM_LID:
            if utt_id not in lid_decisions:
                raise MissingLidDecision(f"no language decision for {utt_id!r}")
            if lid_decisions[utt_id] is Language.ENGLISH:
                mu_e = st_e.mu - offset.alpha
        out.append((raw, (raw - st_t.mu) / st_t.sigma + (raw - mu_e) / st_e.sigma))
    return out


def estimate_alpha_rebuild(protos, top_n=40):
    """alpha with one Cohort built per left-out Farsi prototype."""
    farsi = [i for i, sp in enumerate(protos.speakers) if sp.language is Language.FARSI]
    usa = [i for i, sp in enumerate(protos.speakers) if sp.language is Language.ENGLISH]
    unit = protos.unit_rows
    ids = tuple(protos.speakers[i].speaker_id for i in farsi)
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
