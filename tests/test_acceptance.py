"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Directional criteria (7, 8) run on fixed-seed synthetic corpora sized so
every clause holds with a visible margin; the margins are printed.
"""

import contextlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import svbackend
from svbackend.aam import AamConfig, LabeledBatch, aam_grad, aam_loss
from svbackend.calibration import fit_calibration, fuse
from svbackend.lid import adapt_english_mean, affine_coefficients, classify, train_gb
from svbackend.metrics import eer, min_dcf
from svbackend.planner import (
    PlannerConfig,
    UtteranceInventory,
    plan_pass_balanced,
    plan_pass_broad,
)
from svbackend.prototypes import PrototypeMatrix, SpeakerInfo, similarity_matrix
from svbackend.scores import ScoreSet
from svbackend.scoring import (
    Cohort,
    LanguageOffset,
    ScoringMode,
    SnormStats,
    adaptive_snorm,
    estimate_alpha,
    language_dependent_snorm,
    score_trials,
)
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import Domain, Language, l2_normalize

from conftest import make_protos
from oracles import (
    brute_force_eer,
    brute_force_min_dcf,
    central_difference_grads,
    fit_logreg_reference,
    log_likelihood_ratio,
    rel_err,
    softmax_ce_on_cosines,
)


@contextlib.contextmanager
def criterion(number, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    print(f"[criterion {number:02d}] PASS {name} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_margin_loss_equals_softmax_ce():
    with criterion(1, "zero-margin loss equals independent softmax cross-entropy"):
        rng = np.random.default_rng(101)
        cfg = AamConfig(margin=0.0, scale=1.0)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            n_spk = int(rng.integers(2, 11))
            dim = int(rng.integers(2, 17))
            batch = LabeledBatch(
                embeddings=rng.normal(size=(n, dim)),
                labels=rng.integers(0, n_spk, size=n),
            )
            protos = make_protos(rng.normal(size=(dim, n_spk)))
            ours = aam_loss(batch, protos, cfg)
            ref = softmax_ce_on_cosines(batch.embeddings, batch.labels, protos.w)
            worst = max(worst, abs(ours - ref))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"max abs diff {worst:.2e}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_gradients_match_finite_differences():
    with criterion(2, "analytic gradients match central finite differences"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            n_spk = int(rng.integers(2, 11))
            dim = int(rng.integers(2, 17))
            batch = LabeledBatch(
                embeddings=rng.normal(size=(n, dim)),
                labels=rng.integers(0, n_spk, size=n),
            )
            protos = make_protos(rng.normal(size=(dim, n_spk)))
            # scales above ~10 push saturated-softmax components below the
            # resolution of step-1e-5 differencing
            cfg = AamConfig(
                margin=float(rng.uniform(0.0, 0.3)), scale=float(rng.uniform(1.0, 10.0))
            )

            def loss_fn(x, w, labels=batch.labels, c=cfg):
                return aam_loss(LabeledBatch(x, labels), make_protos(w), c)

            gx, gw = aam_grad(batch, protos, cfg)
            fx, fw = central_difference_grads(loss_fn, batch.embeddings, protos.w, step=1e-5)
            worst = max(worst, float(rel_err(gx, fx).max()), float(rel_err(gw, fw).max()))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-4, f"max rel err {worst:.2e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_language_offset_reduction():
    with criterion(3, "language-dependent s-norm reduces exactly to adaptive s-norm"):
        rng = np.random.default_rng(303)
        offset = LanguageOffset(alpha=0.31)
        for _ in range(10_000):
            raw = float(rng.normal())
            st_e = SnormStats(
                mu=float(rng.normal()), sigma=float(rng.uniform(0.05, 3.0)), top_n=5
            )
            st_t = SnormStats(
                mu=float(rng.normal()), sigma=float(rng.uniform(0.05, 3.0)), top_n=5
            )
            plain = adaptive_snorm(raw, st_e, st_t)
            assert language_dependent_snorm(raw, st_e, st_t, offset, False) == plain
            english = language_dependent_snorm(raw, st_e, st_t, offset, True)
            assert abs((english - plain) - offset.alpha / st_e.sigma) <= 1e-12


def test_criterion_04_broad_plan_exhaustive_oracle():
    with criterion(4, "broad batch plans verified by exhaustive enumeration"):
        rng = np.random.default_rng(404)
        checked = 0
        for a in range(1, 13):
            for i in range(1, 13):
                for u in range(1, 13):
                    n_batch = a * i * u
                    if n_batch > 12:
                        continue
                    for n_speakers in {max(i, 2), min(i + 3, 12), 12}:
                        if n_speakers < i:
                            continue
                        protos = make_protos(rng.normal(size=(6, n_speakers)))
                        sim = similarity_matrix(protos)
                        inv = UtteranceInventory(
                            utterances=tuple(
                                tuple(f"s{j}-u{k}" for k in range(3))
                                for j in range(n_speakers)
                            ),
                            domains=(Domain.VOX,) * n_speakers,
                        )
                        cfg = PlannerConfig(
                            batch_size=n_batch,
                            anchors_per_batch=a,
                            imposters_per_anchor=i,
                            utts_per_speaker=u,
                            seed=17,
                        )
                        m1 = plan_pass_broad(cfg, sim, inv, pass_id=1)
                        m2 = plan_pass_broad(cfg, sim, inv, pass_id=1)
                        assert m1 == m2  # deterministic across two runs
                        assert all(len(b) == n_batch for b in m1.batches)
                        assert m1.n_batches == math.ceil(n_speakers / a)
                        anchors = m1.anchor_sequence(cfg)
                        assert sorted(anchors[:n_speakers]) == list(range(n_speakers))
                        pad = len(anchors) - n_speakers
                        assert anchors[n_speakers:] == anchors[:pad]
                        flat = [e for b in m1.batches for e in b]
                        group = i * u
                        for g, anchor in enumerate(anchors):
                            entries = flat[g * group : (g + 1) * group]
                            row = sim.s[anchor]
                            expected = [anchor] + sorted(
                                (j for j in range(n_speakers) if j != anchor),
                                key=lambda j: (-row[j], j),
                            )[: i - 1]
                            got = [entries[k * u][1] for k in range(i)]
                            assert got == expected
                            for k, spk in enumerate(expected):
                                chunk = entries[k * u : (k + 1) * u]
                                assert all(s == spk for _, s in chunk)
                                assert all(utt in inv.utterances[spk] for utt, _ in chunk)
                        checked += 1
        assert checked > 100, f"only {checked} configurations enumerated"


def test_criterion_05_balanced_plan_domain_balance():
    with criterion(5, "domain-balanced plans: exact target coverage, aggregate draw balance"):
        rng = np.random.default_rng(505)
        n_target, n_pool = 50, 500
        n = n_target + n_pool
        protos = PrototypeMatrix(
            w=rng.normal(size=(16, n)),
            speakers=tuple(
                SpeakerInfo(
                    f"s{j}",
                    Domain.DEEPMINE if j < n_target else Domain.VOX,
                    Language.UNKNOWN,
                )
                for j in range(n)
            ),
        )
        sim = similarity_matrix(protos)
        inv = UtteranceInventory(
            utterances=tuple(tuple(f"s{j}-u{k}" for k in range(3)) for j in range(n)),
            domains=tuple(sp.domain for sp in protos.speakers),
        )
        cfg = PlannerConfig(
            batch_size=100,
            anchors_per_batch=10,
            imposters_per_anchor=5,
            utts_per_speaker=2,
            seed=99,
        )
        t0 = time.perf_counter()
        n_passes = 200
        counts = np.zeros(n)
        for pass_id in range(n_passes):
            man = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE, pass_id=pass_id)
            core = man.anchor_sequence(cfg)[: 2 * n_target]
            targets = sorted(x for x in core if x < n_target)
            assert targets == list(range(n_target))  # each target anchors exactly once
            ood = [x for x in core if x >= n_target]
            assert len(set(ood)) == n_target  # F distinct out-of-domain anchors
            for x in ood:
                counts[x] += 1
        elapsed = time.perf_counter() - t0
        # aggregate out-of-domain anchor frequency per speaker per pass
        aggregate = counts[n_target:].sum() / (n_passes * n_pool)
        per_speaker_dev = float(np.abs(counts[n_target:] / n_passes - 0.1).max())
        print(
            f"  aggregate freq {aggregate:.4f} (target 0.1000 +/- 0.02); "
            f"per-speaker max dev {per_speaker_dev:.3f} (informational)"
        )
        assert abs(aggregate - n_target / n_pool) <= 0.02
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_metric_oracles_exact():
    with criterion(6, "EER and MinDCF equal brute-force sweeps, transform-invariant"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            while True:
                size = int(rng.integers(4, 51))
                labels = rng.uniform(size=size) < rng.uniform(0.2, 0.8)
                if labels.any() and not labels.all():
                    break
            scores = np.round(rng.normal(size=size) * 2.0, 2)  # ties likely
            keys = tuple((f"m{k}", f"t{k}") for k in range(size))
            ss = ScoreSet(keys=keys, scores=scores, labels=labels)
            p = float(rng.uniform(0.005, 0.5))
            cm = float(rng.uniform(0.2, 5.0))
            cf = float(rng.uniform(0.2, 5.0))
            e = eer(ss)
            d = min_dcf(ss, p, cm, cf)
            assert e == brute_force_eer(scores, labels)
            assert d == brute_force_min_dcf(scores, labels, p, cm, cf)
            affine = ss.with_scores(2.0 * ss.scores + 3.0)
            squashed = ss.with_scores(np.tanh(ss.scores))
            assert abs(eer(affine) - e) <= 1e-12
            assert abs(eer(squashed) - e) <= 1e-12
            assert abs(min_dcf(affine, p, cm, cf) - d) <= 1e-12
            assert abs(min_dcf(squashed, p, cm, cf) - d) <= 1e-12


def _structure_spec(seed, shift):
    return CorpusSpec(
        seed=seed,
        language_shift=shift,
        concentration=6.0,
        deepmine_speakers=120,
        vox_speakers=200,
        libri_speakers=100,
        eval_speakers=80,
        target_trials=640,
        nontarget_trials=6400,
        utts_per_speaker=(8, 12),
        english_fraction=0.4,
    )


def _pipeline_eers(corpus, top_n=40):
    emb = corpus.embeddings
    train = corpus.train_embeddings
    cohorts = {
        "farsi": Cohort.from_embeddings(train, domains=[Domain.DEEPMINE]),
        "mixed": Cohort.from_embeddings(train),
        "ood": Cohort.from_embeddings(train, domains=[Domain.VOX, Domain.LIBRI]),
    }
    labels = np.array([corpus.labels[k] for k in corpus.trials])

    def eer_of(mode, cohort=None, offset=None, lid=None):
        ts = score_trials(
            corpus.trials,
            corpus.enrollment_map,
            emb,
            cohort,
            mode,
            offset=offset,
            lid_decisions=lid,
            top_n=top_n,
        )
        return eer(
            ScoreSet(
                keys=tuple(corpus.trials),
                scores=ts["normalized"],
                labels=labels,
            )
        )

    return cohorts, eer_of


def test_criterion_07_cohort_selection_structure():
    with criterion(7, "cohort-selection structure: in-domain <= mixed <= out-of-domain"):
        t0 = time.perf_counter()
        corpus = generate_corpus(_structure_spec(seed=2, shift=0.45))
        cohorts, eer_of = _pipeline_eers(corpus)
        raw = eer_of(ScoringMode.RAW)
        fa = eer_of(ScoringMode.SNORM, cohorts["farsi"])
        mx = eer_of(ScoringMode.SNORM, cohorts["mixed"])
        ood = eer_of(ScoringMode.SNORM, cohorts["ood"])
        elapsed = time.perf_counter() - t0
        print(
            f"  EER raw={raw * 100:.2f}% farsi={fa * 100:.2f}% "
            f"mixed={mx * 100:.2f}% out-of-domain={ood * 100:.2f}%"
        )
        assert fa <= mx <= ood
        assert max(fa, mx, ood) <= raw + 0.005  # within 0.5 percentage points
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_08_language_offset_mechanism():
    with criterion(8, "language offset: positive alpha helps cross-lingual trials"):
        corpus = generate_corpus(_structure_spec(seed=2, shift=0.45))
        cohorts, eer_of = _pipeline_eers(corpus)
        offset = estimate_alpha(corpus.prototypes, top_n=40)
        assert offset.alpha > 0
        ev = corpus.eval_embeddings
        oracle_lid = dict(zip(ev.utt_ids, ev.languages))
        plain = eer_of(ScoringMode.SNORM, cohorts["farsi"])
        with_lid = eer_of(ScoringMode.SNORM_LID, cohorts["farsi"], offset, oracle_lid)
        print(
            f"  shift>0: alpha={offset.alpha:.4f}, EER plain={plain * 100:.2f}% "
            f"lid={with_lid * 100:.2f}% (margin {(plain - with_lid) * 100:.2f}pp)"
        )
        assert with_lid <= plain

        # zero shift: alpha indistinguishable from 0, pipelines agree
        alphas = []
        for seed in range(1, 7):
            flat = generate_corpus(_structure_spec(seed=seed, shift=0.0))
            alphas.append(estimate_alpha(flat.prototypes, top_n=40).alpha)
        se = float(np.std(alphas, ddof=1)) / math.sqrt(len(alphas))
        print(f"  shift=0: mean alpha={np.mean(alphas):.5f}, 3*SE={3 * se:.5f}")
        assert abs(float(np.mean(alphas))) < 3 * se

        flat = generate_corpus(_structure_spec(seed=2, shift=0.0))
        cohorts0, eer0_of = _pipeline_eers(flat)
        offset0 = estimate_alpha(flat.prototypes, top_n=40)
        lid0 = dict(zip(flat.eval_embeddings.utt_ids, flat.eval_embeddings.languages))
        plain0 = eer0_of(ScoringMode.SNORM, cohorts0["farsi"])
        with_lid0 = eer0_of(ScoringMode.SNORM_LID, cohorts0["farsi"], offset0, lid0)
        print(
            f"  shift=0: EER plain={plain0 * 100:.2f}% lid={with_lid0 * 100:.2f}%"
        )
        assert abs(plain0 - with_lid0) <= 0.0025  # within noise


def test_criterion_09_lid_quality_and_affine_form():
    with criterion(9, "language backend: 99% held-out accuracy, affine llr form"):
        rng = np.random.default_rng(909)
        dim = 12
        c_fa = np.zeros(dim)
        c_fa[0] = 1.0
        angle = np.pi / 4  # 45 degrees >= 30 required
        c_us = np.zeros(dim)
        c_us[0], c_us[1] = np.cos(angle), np.sin(angle)
        spread = 0.12
        cols, langs = [], []
        for _ in range(60):
            cols.append(l2_normalize(c_fa + spread * rng.normal(size=dim)))
            langs.append(Language.FARSI)
        for _ in range(60):
            cols.append(l2_normalize(c_us + spread * rng.normal(size=dim)))
            langs.append(Language.ENGLISH)
        protos = make_protos(np.stack(cols, axis=1), languages=langs)
        gb = adapt_english_mean(train_gb(protos), 0.75)
        sep = math.degrees(
            math.acos(
                float(gb.mu_farsi @ gb.mu_usa)
                / (np.linalg.norm(gb.mu_farsi) * np.linalg.norm(gb.mu_usa))
            )
        )
        assert sep >= 30.0, f"class mean separation only {sep:.1f} degrees"

        a, b = affine_coefficients(gb)
        correct = 0
        n = 1000
        vecs, truths = [], []
        for k in range(n):
            if k % 2 == 0:
                vec, truth = c_fa + spread * rng.normal(size=dim), Language.FARSI
            else:
                vec, truth = c_us + spread * rng.normal(size=dim), Language.ENGLISH
            vecs.append(vec)
            truths.append(truth)
        is_english, llrs = classify(gb, vecs)
        for vec, truth, en, llr in zip(vecs, truths, is_english, llrs):
            correct += (Language.ENGLISH if en else Language.FARSI) is truth
            affine_llr = float(a @ l2_normalize(vec) + b)
            assert abs(llr - affine_llr) <= 1e-9
        accuracy = correct / n
        print(f"  separation {sep:.1f} deg, held-out accuracy {accuracy:.3f}")
        assert accuracy >= 0.99

        # the adapted boundary moves exactly as the affine form predicts
        for k in range(50):
            vec = l2_normalize(rng.normal(size=dim))
            assert abs(log_likelihood_ratio(gb, vec) - float(a @ vec + b)) <= 1e-9


def test_criterion_10_fusion_and_calibration_contract():
    with criterion(10, "fusion identity and calibration against a generic optimizer"):
        rng = np.random.default_rng(1010)
        keys = tuple((f"m{k}", f"t{k}") for k in range(200))
        labels = rng.uniform(size=200) < 0.3
        scores = rng.normal(size=200)
        ss = ScoreSet(keys=keys, scores=scores, labels=labels)
        fused = fuse([ss] * 5, [1, 1, 2, 2, 2])
        assert np.array_equal(fused.scores, ss.scores)
        assert np.array_equal(fused.labels, ss.labels)

        # separable fixture: converges to a finite model with a > 0
        sep_scores = np.concatenate([np.linspace(0.5, 1.5, 10), np.linspace(-1.5, -0.5, 10)])
        sep_labels = sep_scores > 0
        sep = ScoreSet(
            keys=tuple((f"s{k}", f"t{k}") for k in range(20)),
            scores=sep_scores,
            labels=sep_labels,
        )
        model_sep = fit_calibration(sep)
        assert np.isfinite(model_sep.a) and model_sep.a > 0

        # 20-score overlapping fixture: matches the independent optimizer
        fix_labels = np.arange(20) % 2 == 0
        fix_scores = rng.normal(size=20) * 1.5 + np.where(fix_labels, 0.8, -0.8)
        fixture = ScoreSet(
            keys=tuple((f"f{k}", f"t{k}") for k in range(20)),
            scores=fix_scores,
            labels=fix_labels,
        )
        model = fit_calibration(fixture)
        ref_a, ref_b = fit_logreg_reference(fix_scores, fix_labels)
        print(f"  calibration (a, b)=({model.a:.6f}, {model.b:.6f}) vs reference ({ref_a:.6f}, {ref_b:.6f})")
        assert abs(model.a - ref_a) <= 1e-5
        assert abs(model.b - ref_b) <= 1e-5


def _run_cli(args, cwd):
    # The child runs in a temporary cwd, where a relative PYTHONPATH entry
    # such as ``src`` does not resolve; put the absolute directory of the
    # imported package first so the child imports the same copy.
    env = dict(os.environ)
    path = [str(Path(svbackend.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run(
        [sys.executable, "-m", "svbackend", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"
    return proc.stdout


def _full_pipeline(root: Path) -> dict[str, bytes]:
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    work = root / "work"
    work.mkdir()
    _run_cli(
        [
            "synth", "--out-dir", str(data), "--seed", "4242",
            "--vox", "30", "--libri", "15", "--deepmine", "40",
            "--eval-speakers", "15", "--targets", "80", "--nontargets", "800",
        ],
        root,
    )
    _run_cli(
        [
            "plan-batches", "--prototypes", str(data / "prototypes.tsv"),
            "--embeddings", str(data / "train_embeddings.tsv"),
            "--mode", "balanced", "--target-domain", "DEEPMINE",
            "--batch-size", "24", "--anchors", "4", "--imposters", "6",
            "--utts-per-speaker", "1", "--passes", "2", "--seed", "7",
            "--out", str(work / "manifest.tsv"),
        ],
        root,
    )
    _run_cli(
        ["lid-train", "--prototypes", str(data / "prototypes.tsv"),
         "--out", str(work / "gb.json")],
        root,
    )
    _run_cli(
        ["lid-classify", "--model", str(work / "gb.json"),
         "--embeddings", str(data / "eval_embeddings.tsv"),
         "--out", str(work / "lid.tsv")],
        root,
    )
    _run_cli(
        ["alpha", "--prototypes", str(data / "prototypes.tsv"),
         "--top-n", "20", "--out", str(work / "alpha.tsv")],
        root,
    )
    _run_cli(
        [
            "score", "--embeddings", str(data / "eval_embeddings.tsv"),
            "--trials", str(data / "trials.tsv"),
            "--enroll", str(data / "enroll.tsv"),
            "--cohort-embeddings", str(data / "train_embeddings.tsv"),
            "--cohort-domains", "DEEPMINE", "--mode", "snorm-lid",
            "--alpha", str(work / "alpha.tsv"), "--lid", str(work / "lid.tsv"),
            "--top-n", "20", "--out", str(work / "scores.tsv"),
        ],
        root,
    )
    _run_cli(
        ["calibrate", "--scores", str(work / "scores.tsv"),
         "--model-out", str(work / "cal.tsv"),
         "--out", str(work / "calibrated.tsv")],
        root,
    )
    _run_cli(
        ["fuse", "--scores", str(work / "calibrated.tsv"), str(work / "calibrated.tsv"),
         "--weights", "1,2", "--out", str(work / "fused.tsv")],
        root,
    )
    _run_cli(
        ["eval", "--scores", str(work / "fused.tsv"), "--out", str(work / "metrics.tsv")],
        root,
    )
    out = {}
    for base in (data, work):
        for path in sorted(base.iterdir()):
            out[f"{base.name}/{path.name}"] = path.read_bytes()
    return out


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "full CLI pipeline is byte-identical across two runs"):
        run1 = _full_pipeline(tmp_path / "run1")
        run2 = _full_pipeline(tmp_path / "run2")
        assert run1.keys() == run2.keys()
        assert len(run1) >= 13
        for name in run1:
            assert run1[name] == run2[name], f"{name} differs between runs"
