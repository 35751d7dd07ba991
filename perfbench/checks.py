"""Independent checks of every artifact the benchmarked CLI chain writes.

Nothing here imports svbackend.  Every file is parsed by the readers below,
which follow the layouts documented in the repository README, and every
number is recomputed with plain matrix code or tested against a property
the method must have.  Each check returns a list of problems; an empty
list means the artifact passed.

Tolerances are absolute and stated next to each comparison.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import STAGES, WORKLOADS

DOMAINS = ("VOX", "LIBRI", "DEEPMINE")  # enum order of the binary container
LANGUAGES = ("FARSI", "ENGLISH", "OTHER", "UNKNOWN")

#: L2 penalty of the calibration objective, as documented by the method.
CAL_L2_PENALTY = 1e-6


# -- readers -------------------------------------------------------------------


def _lines(path: Path, fmt: str) -> list[str]:
    """Data lines after a ``#fmt:<fmt>:1`` header; blank and ``#`` lines skipped."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != f"#fmt:{fmt}:1":
            raise ValueError(f"{path.name}: header {header!r}, expected #fmt:{fmt}:1")
        return [ln for ln in fh.read().split("\n") if ln and not ln.startswith("#")]


def _matrix(vec_fields: list[str], where: str) -> np.ndarray:
    rows = len(vec_fields)
    if rows == 0:
        return np.zeros((0, 0))
    flat = np.array(",".join(vec_fields).split(","), dtype=np.float64)
    if flat.size % rows:
        raise ValueError(f"{where}: ragged vectors")
    return flat.reshape(rows, flat.size // rows)


@dataclass
class Embeddings:
    utt: list[str]
    speaker: list[str]
    domain: list[str]
    language: list[str]
    vec: np.ndarray  # (n, d) float64


def read_embeddings(path: Path) -> Embeddings:
    with open(path, "rb") as fh:
        head = fh.readline()
    if head == b"#fmt:embeddings-bin:1\n":
        return read_embeddings_binary(path)
    utt, spk, dom, lang, vecs = [], [], [], [], []
    for ln in _lines(path, "embeddings"):
        parts = ln.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path.name}: embedding row with {len(parts)} fields")
        utt.append(parts[0])
        spk.append(parts[1])
        dom.append(parts[2])
        lang.append(parts[3])
        vecs.append(parts[4])
    return Embeddings(utt, spk, dom, lang, _matrix(vecs, path.name))


def read_embeddings_binary(path: Path) -> Embeddings:
    """``SVEB`` container: header line, magic, u16 version, u32 dim, u64 count,
    count*dim little-endian float32, string table (u32 count, then u32 length
    + UTF-8 bytes each), then per record u32 utt, u32 speaker, u8 domain,
    u8 language."""
    raw = path.read_bytes()
    nl = raw.index(b"\n") + 1
    if raw[:nl] != b"#fmt:embeddings-bin:1\n" or raw[nl : nl + 4] != b"SVEB":
        raise ValueError(f"{path.name}: not an embeddings-bin v1 file")
    version, dim, count = struct.unpack_from("<HIQ", raw, nl + 4)
    if version != 1:
        raise ValueError(f"{path.name}: container version {version}")
    off = nl + 4 + 14
    vec = np.frombuffer(raw, dtype="<f4", count=dim * count, offset=off)
    vec = vec.reshape(count, dim).astype(np.float64)
    off += 4 * dim * count
    (n_str,) = struct.unpack_from("<I", raw, off)
    off += 4
    strings = []
    for _ in range(n_str):
        (slen,) = struct.unpack_from("<I", raw, off)
        strings.append(raw[off + 4 : off + 4 + slen].decode("utf-8"))
        off += 4 + slen
    rec = np.frombuffer(
        raw,
        dtype=np.dtype([("utt", "<u4"), ("spk", "<u4"), ("dom", "u1"), ("lang", "u1")]),
        count=count,
        offset=off,
    )
    if off + rec.nbytes != len(raw):
        raise ValueError(f"{path.name}: trailing or missing record bytes")
    return Embeddings(
        utt=[strings[i] for i in rec["utt"]],
        speaker=[strings[i] for i in rec["spk"]],
        domain=[DOMAINS[i] for i in rec["dom"]],
        language=[LANGUAGES[i] for i in rec["lang"]],
        vec=vec,
    )


@dataclass
class Prototypes:
    speaker: list[str]
    domain: list[str]
    language: list[str]
    w: np.ndarray  # (n, d): one speaker per row


def read_prototypes(path: Path) -> Prototypes:
    spk, dom, lang, vecs = [], [], [], []
    for ln in _lines(path, "prototypes"):
        parts = ln.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path.name}: prototype row with {len(parts)} fields")
        spk.append(parts[0])
        dom.append(parts[1])
        lang.append(parts[2])
        vecs.append(parts[3])
    return Prototypes(spk, dom, lang, _matrix(vecs, path.name))


def read_trials(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    keys, labels = [], []
    for ln in _lines(path, "trials"):
        m, u, lab = ln.split("\t")
        keys.append((m, u))
        labels.append(lab == "target")
    return keys, np.array(labels, dtype=bool)


def read_enroll(path: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for ln in _lines(path, "enroll"):
        m, u = ln.split("\t")
        out.setdefault(m, []).append(u)
    return out


def read_scores(path: Path) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    keys, values, labels = [], [], []
    for ln in _lines(path, "scores"):
        parts = ln.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path.name}: score row with {len(parts)} fields")
        keys.append((parts[0], parts[1]))
        values.append(parts[2])
        if parts[3] not in ("target", "nontarget"):
            raise ValueError(f"{path.name}: label {parts[3]!r}")
        labels.append(parts[3] == "target")
    return keys, np.array(values, dtype=np.float64), np.array(labels, dtype=bool)


def read_kv(path: Path, fmt: str) -> dict[str, str]:
    out = {}
    for ln in _lines(path, fmt):
        k, v = ln.split("\t")
        if k in out:
            raise ValueError(f"{path.name}: duplicate key {k!r}")
        out[k] = v
    return out


def read_lid(path: Path) -> list[tuple[str, str, float]]:
    out = []
    for ln in _lines(path, "lid"):
        u, lang, llr = ln.split("\t")
        out.append((u, lang, float(llr)))
    return out


def read_gb(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "#fmt:gb-model:1":
            raise ValueError(f"{path.name}: bad header")
        return json.load(fh)


def read_manifest(path: Path) -> list[dict]:
    """[{pass_id, epoch_tag, batches: [[(utt, speaker_idx), ...], ...]}]"""
    passes: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "#fmt:manifest:1":
            raise ValueError(f"{path.name}: bad header")
        for ln in fh.read().split("\n"):
            if not ln:
                continue
            parts = ln.split("\t")
            if parts[0] == "#pass":
                passes.append({"pass_id": int(parts[1]), "epoch_tag": int(parts[2]), "batches": []})
                continue
            if len(parts) != 5 or not passes:
                raise ValueError(f"{path.name}: malformed row {ln!r}")
            pid, b, pos, utt, spk = int(parts[0]), int(parts[1]), int(parts[2]), parts[3], int(parts[4])
            cur = passes[-1]
            if pid != cur["pass_id"]:
                raise ValueError(f"{path.name}: row of pass {pid} inside pass {cur['pass_id']}")
            if b == len(cur["batches"]) and pos == 0:
                cur["batches"].append([])
            if b != len(cur["batches"]) - 1 or pos != len(cur["batches"][-1]):
                raise ValueError(f"{path.name}: batch/position out of sequence at {ln!r}")
            cur["batches"][-1].append((utt, spk))
    return passes


# -- shared math -----------------------------------------------------------------


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _close(name: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} vs {want.shape}"]
    if got.size == 0:
        return []
    err = float(np.max(np.abs(got - want)))
    return [] if err <= tol else [f"{name}: max |diff| {err:.3e} > {tol:g}"]


def top_mean_std(scores: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise mean and population std of the n largest entries.

    -inf marks an excluded entry; a row with fewer than n others keeps all
    of them."""
    top = -np.sort(-scores, axis=1)[:, :n]
    if np.isfinite(top).all():
        return top.mean(axis=1), top.std(axis=1)
    kept = [row[np.isfinite(row)] for row in top]
    return np.array([k.mean() for k in kept]), np.array([k.std() for k in kept])


# -- inputs ------------------------------------------------------------------------


def check_corpus(data: Path, wl) -> list[str]:
    """The synthetic corpus has the requested shape and unit-norm vectors."""
    problems = []
    protos = read_prototypes(data / "prototypes.tsv")
    train = read_embeddings(data / wl.train_file)
    ev = read_embeddings(data / "eval_embeddings.tsv")
    trials, labels = read_trials(data / "trials.tsv")
    enroll = read_enroll(data / "enroll.tsv")
    s = wl.synth
    n_spk = s["vox"] + s["libri"] + s["deepmine"]
    if len(protos.speaker) != n_spk or protos.w.shape[1] != s["dim"]:
        problems.append(f"prototypes: {protos.w.shape}, expected ({n_spk}, {s['dim']})")
    if set(train.speaker) != set(protos.speaker):
        problems.append("train embeddings and prototypes cover different speakers")
    if len(enroll) != s["eval_speakers"] or any(len(v) != s["enroll_utts"] for v in enroll.values()):
        problems.append("enrollment map does not hold enroll_utts per eval speaker")
    if int(labels.sum()) != s["targets"] or int((~labels).sum()) != s["nontargets"]:
        problems.append(f"trials: {int(labels.sum())}/{int((~labels).sum())} target/nontarget")
    ev_ids = set(ev.utt)
    if any(u not in ev_ids for _, u in trials) or any(m not in enroll for m, _ in trials):
        problems.append("trials reference unknown models or utterances")
    vec_tol = 1e-6 if wl.binary else 1e-12  # the binary container stores float32
    for name, e in (("train", train), ("eval", ev)):
        problems += _close(f"{name} vector norms", np.linalg.norm(e.vec, axis=1), np.ones(len(e.utt)), vec_tol)
    return problems


# -- manifest ---------------------------------------------------------------------


def check_manifest(data: Path, path: Path, wl) -> list[str]:
    """Passes, batch sizes and groups well formed; each group is its anchor
    followed by the anchor's most similar speakers under our own cosines
    (descending, ties to the lower index; a position may differ only where
    the two similarities differ by < 1e-12); balanced passes anchor every
    target-domain speaker once plus as many distinct other speakers; every
    utterance belongs to its speaker."""
    p = wl.plan
    protos = read_prototypes(data / "prototypes.tsv")
    train = read_embeddings(data / wl.train_file)
    n = len(protos.speaker)
    u = unit(protos.w)
    utt_speaker = dict(zip(train.utt, train.speaker))
    n_utts = {}
    for spk in train.speaker:
        n_utts[spk] = n_utts.get(spk, 0) + 1
    passes = read_manifest(path)
    problems = []
    if [q["pass_id"] for q in passes] != list(range(p["passes"])):
        return [f"manifest: pass ids {[q['pass_id'] for q in passes]}"]
    group = p["imposters"] * p["utts_per_speaker"]
    k = p["imposters"]
    target = [j for j, d in enumerate(protos.domain) if d == wl.target_domain]
    target_set = set(target)
    for q in passes:
        if q["epoch_tag"] != 0:
            problems.append(f"pass {q['pass_id']}: epoch tag {q['epoch_tag']}")
        anchors, groups = [], []
        for b, batch in enumerate(q["batches"]):
            if len(batch) != p["batch_size"]:
                problems.append(f"pass {q['pass_id']} batch {b}: {len(batch)} entries")
                continue
            for g in range(0, len(batch), group):
                entries = batch[g : g + group]
                spk = [s for _, s in entries[:: p["utts_per_speaker"]]]
                blocks = [entries[i : i + p["utts_per_speaker"]] for i in range(0, group, p["utts_per_speaker"])]
                for s, block in zip(spk, blocks):
                    if not 0 <= s < n:
                        problems.append(f"speaker index {s} out of range")
                        continue
                    sid = protos.speaker[s]
                    if any(e[1] != s or utt_speaker.get(e[0]) != sid for e in block):
                        problems.append(f"pass {q['pass_id']} batch {b}: utterance not of speaker {sid}")
                    if n_utts[sid] >= len(block) and len({e[0] for e in block}) != len(block):
                        problems.append(f"pass {q['pass_id']} batch {b}: repeated utterance of {sid}")
                anchors.append(spk[0])
                groups.append(spk)
        if not groups:
            problems.append(f"pass {q['pass_id']}: no groups")
            continue
        # our own ranking: stable sort of -cosine keeps ties in index order
        a_idx = np.array(anchors)
        sims = u[a_idx] @ u.T
        sims[np.arange(len(a_idx)), a_idx] = 2.0  # above any cosine: anchor first
        order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        got = np.array(groups)
        if got.shape != order.shape:
            problems.append(f"pass {q['pass_id']}: group shape {got.shape}")
            continue
        if np.any(got[:, 0] != a_idx) or any(len(set(r)) != k for r in got.tolist()):
            problems.append(f"pass {q['pass_id']}: a group repeats a speaker")
        rows = np.arange(len(a_idx))[:, None]
        gap = np.abs(sims[rows, got] - sims[rows, order])
        gap[got == order] = 0.0
        if float(np.max(gap)) >= 1e-12:
            bad = int(np.argmax(gap.max(axis=1)))
            problems.append(
                f"pass {q['pass_id']}: group of anchor {anchors[bad]} is {got[bad].tolist()}, "
                f"own ranking gives {order[bad].tolist()}"
            )
        # anchor set, then the cyclic fill of the last batch
        if p["mode"] == "balanced":
            lap = 2 * len(target)
            first = anchors[:lap]
            tgt = sorted(a for a in first if a in target_set)
            ood = [a for a in first if a not in target_set]
            if tgt != target or len(set(ood)) != len(target) or len(ood) != len(target):
                problems.append(f"pass {q['pass_id']}: anchors are not the {len(target)} target speakers plus as many distinct others")
        else:
            lap = n
            if sorted(anchors[:lap]) != list(range(n)):
                problems.append(f"pass {q['pass_id']}: broad pass does not anchor every speaker once")
        want_len = -(-lap // p["anchors"]) * p["anchors"]
        if len(anchors) != want_len or any(anchors[i] != anchors[i - lap] for i in range(lap, len(anchors))):
            problems.append(f"pass {q['pass_id']}: {len(anchors)} anchors, fill is not cyclic")
    return problems


# -- language backend ---------------------------------------------------------------


def check_gb(data: Path, path: Path, wl) -> list[str]:
    """Class means are the unit-prototype means per language label; the
    covariance is symmetric positive definite; mu_EN = w*mu_USA + (1-w)*mu_FA."""
    protos = read_prototypes(data / "prototypes.tsv")
    gb = read_gb(path)
    u = unit(protos.w)
    lang = np.array(protos.language)
    fa = (lang == "FARSI").astype(np.float64)
    us = (lang == "ENGLISH").astype(np.float64)
    problems = _close("gb mu_farsi", gb["mu_farsi"], fa @ u / fa.sum(), 1e-12)
    problems += _close("gb mu_usa", gb["mu_usa"], us @ u / us.sum(), 1e-12)
    w = wl.interpolation_weight
    if gb["interpolation_weight"] != w:
        problems.append(f"gb interpolation weight {gb['interpolation_weight']} != {w}")
    want_en = w * np.array(gb["mu_usa"]) + (1.0 - w) * np.array(gb["mu_farsi"])
    problems += _close("gb mu_english_effective", gb["mu_english_effective"], want_en, 1e-12)
    cov = np.array(gb["shared_cov"])
    if cov.shape != (u.shape[1], u.shape[1]):
        return problems + [f"gb covariance shape {cov.shape}"]
    problems += _close("gb covariance symmetry", cov, cov.T, 1e-12)
    if float(np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T)))) <= 0.0:
        problems.append("gb covariance is not positive definite")
    return problems


def lid_affine(gb: dict) -> tuple[np.ndarray, float]:
    """Closed form of the shared-covariance llr: llr(x) = a.x + b."""
    cov = np.array(gb["shared_cov"])
    mf = np.array(gb["mu_farsi"])
    me = np.array(gb["mu_english_effective"])
    a = np.linalg.solve(cov, me - mf)
    b = -0.5 * (me @ np.linalg.solve(cov, me) - mf @ np.linalg.solve(cov, mf))
    return a, float(b)


def check_lid(data: Path, gb_path: Path, path: Path) -> list[str]:
    """One row per eval utterance; llr equals the affine llr of gb.json within
    1e-9; ENGLISH exactly when llr > 0."""
    ev = read_embeddings(data / "eval_embeddings.tsv")
    rows = read_lid(path)
    ids = [r[0] for r in rows]
    if len(ids) != len(ev.utt) or set(ids) != set(ev.utt):
        return [f"lid: {len(ids)} rows for {len(ev.utt)} eval utterances"]
    a, b = lid_affine(read_gb(gb_path))
    pos = {utt: i for i, utt in enumerate(ev.utt)}
    x = unit(ev.vec)[[pos[i] for i in ids]]
    llr = np.array([r[2] for r in rows])
    problems = _close("lid llr", llr, x @ a + b, 1e-9)
    english = np.array([r[1] == "ENGLISH" for r in rows])
    if any(r[1] not in ("ENGLISH", "FARSI") for r in rows) or np.any(english != (llr > 0.0)):
        problems.append("lid: a decision disagrees with llr > 0")
    return problems


def lid_agreement(data: Path, path: Path) -> float:
    """Share of eval utterances whose LID decision matches the synth label."""
    ev = read_embeddings(data / "eval_embeddings.tsv")
    truth = dict(zip(ev.utt, ev.language))
    rows = read_lid(path)
    return sum(truth[u] == lang for u, lang, _ in rows) / len(rows)


# -- alpha -------------------------------------------------------------------------


def own_alpha(protos: Prototypes, top_n: int) -> tuple[float, float, float]:
    """Leave-one-out F x F product for the Farsi side, E x F for English."""
    u = unit(protos.w)
    lang = np.array(protos.language)
    fa = u[lang == "FARSI"]
    en = u[lang == "ENGLISH"]
    ff = fa @ fa.T
    np.fill_diagonal(ff, -np.inf)
    mu_fa = float(np.mean(top_mean_std(ff, top_n)[0]))
    mu_en = float(np.mean(top_mean_std(en @ fa.T, top_n)[0]))
    return mu_fa - mu_en, mu_fa, mu_en


def check_alpha(data: Path, path: Path, wl) -> list[str]:
    """alpha equals a leave-one-out matrix-product recomputation within 1e-12
    and is positive."""
    kv = read_kv(path, "alpha")
    protos = read_prototypes(data / "prototypes.tsv")
    alpha, mu_fa, mu_en = own_alpha(protos, wl.top_n)
    problems = _close("alpha", float(kv["alpha"]), alpha, 1e-12)
    problems += _close("alpha mu_imposter_farsi", float(kv["mu_imposter_farsi"]), mu_fa, 1e-12)
    problems += _close("alpha mu_imposter_usa", float(kv["mu_imposter_usa"]), mu_en, 1e-12)
    lang = protos.language
    want = (str(wl.top_n), str(lang.count("FARSI")), str(lang.count("ENGLISH")))
    if (kv.get("top_n"), kv.get("n_farsi"), kv.get("n_usa")) != want:
        problems.append(f"alpha provenance {kv}")
    if not float(kv["alpha"]) > 0.0:
        problems.append(f"alpha {kv['alpha']} is not positive")
    return problems


# -- scores ------------------------------------------------------------------------


def own_snorm_lid(data: Path, work: Path, wl) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """snorm-lid scores of trials.tsv from our own readers and matrix code."""
    ev = read_embeddings(data / "eval_embeddings.tsv")
    train = read_embeddings(data / wl.train_file)
    trials, labels = read_trials(data / "trials.tsv")
    enroll = read_enroll(data / "enroll.tsv")
    alpha = float(read_kv(work / "alpha.tsv", "alpha")["alpha"])
    english = {u: lang == "ENGLISH" for u, lang, _ in read_lid(work / "lid.tsv")}
    ev_unit = unit(ev.vec)
    pos = {utt: i for i, utt in enumerate(ev.utt)}
    speaker_of = dict(zip(ev.utt, ev.speaker))

    # cohort: per training speaker the mean of its unit vectors, domain of
    # its first utterance, restricted to the cohort domain, unit-normalized
    tr_unit = unit(train.vec)
    spk_ids, first = np.unique(np.array(train.speaker), return_index=True)
    inv = {s: i for i, s in enumerate(spk_ids)}
    member = np.array([inv[s] for s in train.speaker])
    sums = np.zeros((len(spk_ids), tr_unit.shape[1]))
    np.add.at(sums, member, tr_unit)
    means = sums / np.bincount(member)[:, None]
    keep = np.array([train.domain[i] == wl.cohort_domain for i in first])
    cohort = unit(means[keep])
    cohort_spk = spk_ids[keep]

    models = list(enroll)
    m_vec = np.stack([ev_unit[[pos[x] for x in enroll[m]]].mean(axis=0) for m in models])
    m_unit = unit(m_vec)
    m_scores = m_unit @ cohort.T
    for i, m in enumerate(models):  # enrolment speakers leave the model's cohort
        own = np.isin(cohort_spk, [speaker_of[x] for x in enroll[m]])
        m_scores[i, own] = -np.inf
    m_mu, m_sd = top_mean_std(m_scores, wl.top_n)
    t_mu, t_sd = top_mean_std(ev_unit @ cohort.T, wl.top_n)

    m_pos = {m: i for i, m in enumerate(models)}
    mi = np.array([m_pos[m] for m, _ in trials])
    ti = np.array([pos[u] for _, u in trials])
    raw = np.clip(np.einsum("ij,ij->i", m_unit[mi], ev_unit[ti]), -1.0, 1.0)
    off = np.array([alpha if english[u] else 0.0 for _, u in trials])
    s = (raw - t_mu[ti]) / t_sd[ti] + (raw - (m_mu[mi] - off)) / m_sd[mi]
    return trials, s, labels


def check_scores(data: Path, work: Path, wl) -> list[str]:
    """Every snorm-lid score equals our recomputation within 1e-9; keys,
    order and labels follow trials.tsv."""
    keys, got, labels = read_scores(work / "scores.tsv")
    trials, want, want_labels = own_snorm_lid(data, work, wl)
    if keys != trials:
        return ["scores: keys or order differ from trials.tsv"]
    problems = _close("snorm-lid scores", got, want, 1e-9)
    if not np.array_equal(labels, want_labels):
        problems.append("scores: labels differ from trials.tsv")
    return problems


# -- calibration, fusion, metrics ----------------------------------------------------


def check_calibration(work: Path) -> list[str]:
    """The penalized logistic-loss gradient vanishes at (a, b) (|g| <= 1e-7),
    and calibrated = a*s + b within 1e-12."""
    kv = read_kv(work / "cal.tsv", "cal-model")
    a, b = float(kv["a"]), float(kv["b"])
    keys, s, y = read_scores(work / "scores.tsv")
    z = a * s + b
    p = 0.5 * (1.0 + np.tanh(0.5 * z))  # logistic sigmoid
    r = p - y
    grad = np.array([r @ s + CAL_L2_PENALTY * a, r.sum() + CAL_L2_PENALTY * b])
    problems = []
    if float(np.max(np.abs(grad))) > 1e-7:
        problems.append(f"calibration gradient {grad.tolist()} does not vanish")
    ck, cs, cl = read_scores(work / "calibrated.tsv")
    if ck != keys or not np.array_equal(cl, y):
        problems.append("calibrated.tsv keys or labels differ from scores.tsv")
    else:
        problems += _close("calibrated scores", cs, z, 1e-12)
    return problems


def check_fused(work: Path) -> list[str]:
    """Fusing scores.tsv with itself reproduces it within 1e-12."""
    sk, ss, sl = read_scores(work / "scores.tsv")
    fk, fs, fl = read_scores(work / "fused.tsv")
    if fk != sk or not np.array_equal(fl, sl):
        return ["fused.tsv keys or labels differ from scores.tsv"]
    return _close("fused scores", fs, ss, 1e-12)


def own_sweep(s: np.ndarray, tar: np.ndarray, p_target: float) -> tuple[float, float]:
    """EER (linear interpolation at the FRR/FAR crossing) and normalized
    MinDCF (c_miss = c_fa = 1) over every distinct threshold, accept iff
    score >= threshold, plus reject-all."""
    order = np.argsort(-s, kind="stable")
    ss, tt = s[order], tar[order]
    n_t, n_n = int(tt.sum()), int((~tt).sum())
    ends = np.flatnonzero(np.append(ss[1:] != ss[:-1], True))  # last of each tie group
    acc_t = np.cumsum(tt)[ends]
    acc_n = np.cumsum(~tt)[ends]
    far = np.concatenate(([0.0], acc_n / n_n))
    frr = np.concatenate(([1.0], (n_t - acc_t) / n_t))
    d = frr - far
    k = int(np.flatnonzero(d <= 0.0)[0])
    if d[k] == 0.0:
        eer = float(far[k])
    else:
        t = d[k - 1] / (d[k - 1] - d[k])
        eer = float(far[k - 1] + t * (far[k] - far[k - 1]))
    wm, wf = p_target, 1.0 - p_target
    dcf = float(np.min(wm * frr + wf * far) / min(wm, wf))
    return eer, dcf


def check_metrics(work: Path, wl) -> list[str]:
    """EER and MinDCF equal our own threshold sweep within 1e-12; the trial
    counts match; EER < 0.5."""
    kv = read_kv(work / "metrics.tsv", "metrics")
    _, s, y = read_scores(work / "fused.tsv")
    eer, dcf = own_sweep(s, y, wl.p_target)
    problems = _close("eer", float(kv["eer"]), eer, 1e-12)
    problems += _close("min_dcf", float(kv["min_dcf"]), dcf, 1e-12)
    if (int(kv["n_target"]), int(kv["n_nontarget"])) != (int(y.sum()), int((~y).sum())):
        problems.append("metrics: trial counts differ from fused.tsv")
    if not float(kv["eer"]) < 0.5:
        problems.append(f"eer {kv['eer']} is not below 0.5")
    return problems


def check_stage(stage: str, data: Path, work: Path, wl) -> list[str]:
    """Problems with the artifacts ``stage`` wrote (stage names as in the CLI)."""
    if stage == "synth":
        return check_corpus(data, wl)
    if stage == "plan-batches":
        return check_manifest(data, work / "manifest.tsv", wl)
    if stage == "lid-train":
        return check_gb(data, work / "gb.json", wl)
    if stage == "lid-classify":
        return check_lid(data, work / "gb.json", work / "lid.tsv")
    if stage == "alpha":
        return check_alpha(data, work / "alpha.tsv", wl)
    if stage == "score":
        return check_scores(data, work, wl)
    if stage == "calibrate":
        return check_calibration(work)
    if stage == "fuse":
        return check_fused(work)
    if stage == "eval":
        return check_metrics(work, wl)
    raise KeyError(stage)


def check_run(data: Path, work: Path, wl) -> dict[str, list[str]]:
    """Problems per stage, ``synth`` included; an unreadable file is a problem."""
    out = {}
    for stage in ("synth",) + STAGES:
        try:
            out[stage] = check_stage(stage, data, work, wl)
        except (ValueError, KeyError, IndexError, TypeError, OSError, struct.error) as exc:
            out[stage] = [f"unreadable: {type(exc).__name__}: {exc}"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Check a corpus and the artifacts of one round.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    problems = check_run(args.data, args.work, wl)
    agreement = None
    if not problems["lid-classify"]:
        agreement = lid_agreement(args.data, args.work / "lid.tsv")
    print(json.dumps({"problems": problems, "lid_agreement": agreement}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
