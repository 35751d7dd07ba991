import math

import numpy as np
import pytest

from svbackend.errors import (
    ClassTooSmall,
    DegenerateAverage,
    DegenerateCohort,
    EmptySet,
    MissingEmbedding,
    MissingLidDecision,
    NormUnderflow,
    ParamInvalid,
    ValidationError,
)
from svbackend.scoring import (
    TRIAL_CHUNK,
    Cohort,
    LanguageOffset,
    ScoringMode,
    SnormStats,
    adaptive_snorm,
    estimate_alpha,
    language_dependent_snorm,
    score_trials,
    snorm_stats,
)
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import Domain, Language, average_embedding, cosine, l2_normalize

from conftest import make_embedding, make_protos, make_table, rows_of
from oracles import (
    estimate_alpha_rebuild,
    excluding_speakers,
    first_row_domains,
    full_cohort,
    restrict_domains,
    score_trials_loop,
)


def cohort_with_cosines(values):
    """Cohort whose scores against x=[1,0] are exactly the given values."""
    return Cohort(
        tuple(f"c{i}" for i in range(len(values))),
        [[v, math.sqrt(1.0 - v * v)] for v in values],
    )


class TestEnrollmentModel:
    def test_single_utterance(self):
        np.testing.assert_allclose(average_embedding([[3.0, 4.0]]), [0.6, 0.8], atol=1e-15)

    def test_copies_keep_direction(self):
        vecs = [[2.0, 1.0]] * 3
        one = average_embedding(vecs[:1])
        three = average_embedding(vecs)
        assert cosine(one, three) == pytest.approx(1.0, abs=1e-12)

    def test_equals_average_embedding(self, rng):
        # score_trials scores a model as the average of its utterances
        es = [make_embedding(f"u{i}", "s", rng.normal(size=6)) for i in range(5)]
        test = make_embedding("t", "x", rng.normal(size=6))
        enroll = {"m": tuple(e.utt_id for e in es)}
        table = make_table(es + [test])
        out = score_trials([("m", "t")], enroll, table, cohort=None, mode=ScoringMode.RAW)
        assert out["raw"][0] == cosine(average_embedding([e.vec for e in es]), test.vec)


class TestSnormStats:
    def test_hand_fixture(self):
        cohort = cohort_with_cosines([0.9, 0.5, 0.1])
        stats = snorm_stats([1.0, 0.0], cohort.unit_rows, top_n=2)
        assert stats.mu == pytest.approx(0.7, abs=1e-12)
        assert stats.sigma == pytest.approx(0.2, abs=1e-12)
        assert stats.top_n == 2

    def test_top_selection_includes_max(self):
        cohort = cohort_with_cosines([0.9, 0.5, 0.1])
        stats = snorm_stats([0.9, math.sqrt(1 - 0.81)], cohort.unit_rows, top_n=2)
        # self-identical entry scores 1.0 and must be part of the selection
        assert stats.mu > 0.5

    def test_fallback_to_whole_cohort(self, caplog):
        cohort = cohort_with_cosines([0.9, 0.5, 0.1])
        with caplog.at_level("WARNING"):
            stats = snorm_stats([1.0, 0.0], cohort.unit_rows, top_n=10)
        assert stats.top_n == 3
        assert stats.mu == pytest.approx((0.9 + 0.5 + 0.1) / 3, abs=1e-12)
        assert any("cohort" in r.message for r in caplog.records)

    def test_population_std(self, rng):
        vals = [0.8, 0.6, 0.4, 0.2]
        cohort = cohort_with_cosines(vals)
        stats = snorm_stats([1.0, 0.0], cohort.unit_rows, top_n=4)
        assert stats.sigma == pytest.approx(np.std(vals), abs=1e-12)

    def test_top_n_minimum(self):
        with pytest.raises(ParamInvalid):
            snorm_stats([1.0, 0.0], cohort_with_cosines([0.5, 0.1]).unit_rows, top_n=1)

    def test_degenerate_cohort(self):
        cohort = cohort_with_cosines([0.5, 0.5])
        with pytest.raises(DegenerateCohort):
            snorm_stats([1.0, 0.0], cohort.unit_rows, top_n=2)


class TestSnormFormulas:
    def test_centered_score_is_zero(self):
        st = SnormStats(mu=0.4, sigma=1.0, top_n=5)
        assert adaptive_snorm(0.4, st, st) == 0.0

    def test_symmetric_collapse(self):
        st = SnormStats(mu=0.2, sigma=0.5, top_n=5)
        raw = 0.7
        assert adaptive_snorm(raw, st, st) == pytest.approx(2 * (raw - 0.2) / 0.5, abs=1e-15)

    def test_direct_evaluation(self):
        st_t = SnormStats(mu=0.5, sigma=0.1, top_n=5)
        st_e = SnormStats(mu=0.6, sigma=0.2, top_n=5)
        assert adaptive_snorm(0.8, st_e, st_t) == pytest.approx(4.0, abs=1e-12)

    def test_language_variant_reduces_bit_exactly(self, rng):
        offset = LanguageOffset(alpha=0.123)
        for _ in range(1000):
            raw = float(rng.normal())
            st_e = SnormStats(mu=float(rng.normal()), sigma=float(rng.uniform(0.1, 2)), top_n=5)
            st_t = SnormStats(mu=float(rng.normal()), sigma=float(rng.uniform(0.1, 2)), top_n=5)
            plain = adaptive_snorm(raw, st_e, st_t)
            assert language_dependent_snorm(raw, st_e, st_t, offset, False) == plain
            assert (
                language_dependent_snorm(raw, st_e, st_t, LanguageOffset(0.0), True) == plain
            )

    def test_english_offset_shifts_by_alpha_over_sigma(self, rng):
        for _ in range(200):
            raw = float(rng.normal())
            alpha = float(rng.normal() * 0.3)
            st_e = SnormStats(mu=float(rng.normal()), sigma=float(rng.uniform(0.1, 2)), top_n=5)
            st_t = SnormStats(mu=float(rng.normal()), sigma=float(rng.uniform(0.1, 2)), top_n=5)
            plain = adaptive_snorm(raw, st_e, st_t)
            shifted = language_dependent_snorm(raw, st_e, st_t, LanguageOffset(alpha), True)
            assert shifted - plain == pytest.approx(alpha / st_e.sigma, abs=1e-12)

    def test_worked_delta(self):
        st_t = SnormStats(mu=0.5, sigma=0.1, top_n=5)
        st_e = SnormStats(mu=0.6, sigma=0.2, top_n=5)
        plain = adaptive_snorm(0.8, st_e, st_t)
        out = language_dependent_snorm(0.8, st_e, st_t, LanguageOffset(0.1), True)
        assert out == pytest.approx(plain + 0.5, abs=1e-12)

    def test_monotone_in_raw(self, rng):
        st_e = SnormStats(mu=0.1, sigma=0.3, top_n=5)
        st_t = SnormStats(mu=0.2, sigma=0.4, top_n=5)
        raws = np.sort(rng.normal(size=50))
        out = [adaptive_snorm(float(r), st_e, st_t) for r in raws]
        assert all(b > a for a, b in zip(out, out[1:]))


class TestEstimateAlpha:
    def make_fixture_protos(self, farsi_vecs, usa_vecs):
        cols = np.stack(list(farsi_vecs) + list(usa_vecs), axis=1)
        langs = [Language.FARSI] * len(farsi_vecs) + [Language.ENGLISH] * len(usa_vecs)
        doms = [Domain.DEEPMINE] * len(farsi_vecs) + [Domain.VOX] * len(usa_vecs)
        return make_protos(cols, languages=langs, domains=doms)

    def test_hand_computed_small_case(self):
        # 3 Farsi + 2 USA prototypes in 2-D, top_n=2: exhaustive pairwise cosines
        fa = [np.array([1.0, 0.0]), np.array([0.9, math.sqrt(0.19)]), np.array([0.5, math.sqrt(0.75)])]
        us = [np.array([0.0, 1.0]), np.array([-0.4, math.sqrt(0.84)])]
        protos = self.make_fixture_protos(fa, us)
        offset = estimate_alpha(protos, top_n=2)

        def top2_mean(x, cohort_vecs):
            scores = sorted((cosine(x, c) for c in cohort_vecs), reverse=True)[:2]
            return sum(scores) / 2

        mu_fa = np.mean([
            top2_mean(fa[0], [fa[1], fa[2]]),
            top2_mean(fa[1], [fa[0], fa[2]]),
            top2_mean(fa[2], [fa[0], fa[1]]),
        ])
        mu_us = np.mean([top2_mean(u, fa) for u in us])
        assert offset.alpha == pytest.approx(mu_fa - mu_us, abs=1e-12)
        assert offset.provenance.n_farsi == 3
        assert offset.provenance.n_usa == 2

    def test_tight_farsi_cluster_gives_positive_alpha(self, rng):
        base = l2_normalize(np.ones(8))
        fa = [l2_normalize(base + 0.2 * rng.normal(size=8)) for _ in range(12)]
        us = [l2_normalize(rng.normal(size=8)) for _ in range(6)]
        protos = self.make_fixture_protos(fa, us)
        assert estimate_alpha(protos, top_n=5).alpha > 0

    def test_same_distribution_alpha_near_zero(self):
        alphas = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            fa = [l2_normalize(rng.normal(size=10)) for _ in range(30)]
            us = [l2_normalize(rng.normal(size=10)) for _ in range(30)]
            alphas.append(estimate_alpha(self.make_fixture_protos(fa, us), top_n=8).alpha)
        se = np.std(alphas, ddof=1) / math.sqrt(len(alphas))
        assert abs(np.mean(alphas)) < 3 * se

    def test_class_too_small(self, rng):
        fa = [l2_normalize(rng.normal(size=4)) for _ in range(3)]
        us = [l2_normalize(rng.normal(size=4)) for _ in range(2)]
        protos = self.make_fixture_protos(fa, us)
        with pytest.raises(ClassTooSmall):
            estimate_alpha(protos, top_n=3)  # needs top_n+1 = 4 Farsi


class TestCohort:
    def test_from_embeddings_averages_per_speaker(self, rng):
        es = [
            make_embedding("a0", "spkA", [1.0, 0.0]),
            make_embedding("a1", "spkA", [0.0, 1.0]),
            make_embedding("b0", "spkB", [1.0, 1.0]),
        ]
        cohort = Cohort.from_embeddings(make_table(es))
        assert len(cohort) == 2
        assert cohort.speaker_ids == ("spkA", "spkB")
        np.testing.assert_allclose(cohort.means[0], [0.5, 0.5], atol=1e-15)

    def test_columns_validated(self):
        cohort = Cohort(["a", "b"], [[3.0, 4.0], [0.0, 2.0]])
        assert cohort.speaker_ids == ("a", "b") and not cohort.means.flags.writeable
        np.testing.assert_array_equal(cohort.unit_rows, [[0.6, 0.8], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            Cohort(("a", "b"), [[1.0, 0.0]])
        with pytest.raises(ValidationError):
            Cohort(("a", "a"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EmptySet):
            Cohort((), np.empty((0, 2)))

    def test_restrict_domains(self):
        table = make_table(
            [
                make_embedding("a0", "a", [1.0, 0.0], domain=Domain.DEEPMINE),
                make_embedding("b0", "b", [0.0, 1.0], domain=Domain.VOX),
            ]
        )
        kept = Cohort.from_embeddings(table, domains=[Domain.VOX])
        assert kept.speaker_ids == ("b",)
        with pytest.raises(EmptySet):
            Cohort.from_embeddings(table, domains=[Domain.LIBRI])

    def test_domains_equal_build_all_then_restrict(self, rng):
        # speakers in order of first appearance, interleaved rows, and one
        # speaker ("mix") whose rows span two domains: its first row decides
        doms = [Domain.VOX, Domain.LIBRI, Domain.DEEPMINE]
        rows = [
            make_embedding(f"u{k}", f"spk{k % 7}", rng.normal(size=9), domain=doms[(k % 7) % 3])
            for k in range(40)
        ]
        rows[3:3] = [
            make_embedding("m0", "mix", rng.normal(size=9), domain=Domain.DEEPMINE),
            make_embedding("m1", "mix", rng.normal(size=9), domain=Domain.VOX),
        ]
        rows.append(make_embedding("m2", "mix", rng.normal(size=9), domain=Domain.VOX))
        table = make_table(rows)
        full = full_cohort(table)
        assert np.array_equal(Cohort.from_embeddings(table).unit_rows, full.unit_rows)
        for domains in ([Domain.DEEPMINE], [Domain.VOX, Domain.LIBRI], [Domain.VOX]):
            new = Cohort.from_embeddings(table, domains=domains)
            old = restrict_domains(full, first_row_domains(table), domains)
            assert new.speaker_ids == old.speaker_ids
            assert np.array_equal(new.unit_rows, old.unit_rows)
            assert ("mix" in new.speaker_ids) == (Domain.DEEPMINE in domains)

    def test_degenerate_rows(self):
        cancel = [
            make_embedding("a0", "a", [1.0, 0.0], domain=Domain.VOX),
            make_embedding("a1", "a", [-1.0, 0.0], domain=Domain.VOX),
            make_embedding("b0", "b", [1.0, 1.0], domain=Domain.DEEPMINE),
        ]
        # a speaker whose rows cancel matters only when it is kept
        with pytest.raises(DegenerateAverage):
            Cohort.from_embeddings(make_table(cancel))
        assert len(Cohort.from_embeddings(make_table(cancel), domains=[Domain.DEEPMINE])) == 1
        # a zero row fails the build even when its speaker is dropped
        zero = cancel[:1] + [make_embedding("a1", "a", [0.0, 0.0])] + cancel[2:]
        with pytest.raises(NormUnderflow):
            Cohort.from_embeddings(make_table(zero), domains=[Domain.DEEPMINE])

    def test_excluding_speakers(self):
        # the model's own speaker "a" scores 1.0 against it and must not
        # enter its imposter statistics; the test side keeps every entry
        means = [[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0]]
        cohort = Cohort(("a", "b", "c", "d"), means)
        embs = make_table(
            [make_embedding("e0", "a", [1.0, 0.0]), make_embedding("t0", "x", [0.28, 0.96])]
        )
        out = score_trials([("m", "t0")], {"m": ("e0",)}, embs, cohort, ScoringMode.SNORM, top_n=2)
        st_e = snorm_stats([1.0, 0.0], cohort.unit_rows[1:], 2)
        st_t = snorm_stats([0.28, 0.96], cohort.unit_rows, 2)
        assert st_e.mu == pytest.approx(0.7, abs=1e-12)
        assert out["normalized"][0] == adaptive_snorm(out["raw"][0], st_e, st_t)
        with pytest.raises(EmptySet):
            score_trials(
                [("m", "t0")], {"m": ("e0",)}, embs, Cohort(("a",), means[:1]), ScoringMode.SNORM
            )


def tiny_trial_setup(rng, n_cohort=24, dim=8):
    cohort_embs = [
        make_embedding(f"c{i}-u0", f"coh{i}", rng.normal(size=dim)) for i in range(n_cohort)
    ]
    cohort = Cohort.from_embeddings(make_table(cohort_embs))
    enroll = {
        "modelA": ("ea0", "ea1"),
        "modelB": ("eb0",),
    }
    embs = make_table(
        [
            make_embedding("ea0", "sA", rng.normal(size=dim)),
            make_embedding("ea1", "sA", rng.normal(size=dim)),
            make_embedding("eb0", "sB", rng.normal(size=dim)),
            make_embedding("t0", "sA", rng.normal(size=dim), language=Language.FARSI),
            make_embedding("t1", "sX", rng.normal(size=dim), language=Language.ENGLISH),
        ]
    )
    trials = [("modelA", "t0"), ("modelA", "t1"), ("modelB", "t0"), ("modelB", "t1")]
    return trials, enroll, embs, cohort


class TestScoreTrials:
    def test_raw_identical_vectors(self, rng):
        v = rng.normal(size=5)
        embs = make_table([make_embedding("e0", "s", v), make_embedding("t0", "s", 2.0 * v)])
        out = score_trials(
            [("m", "t0")], {"m": ("e0",)}, embs, cohort=None, mode=ScoringMode.RAW
        )
        assert out["raw"][0] == 1.0
        assert out["normalized"][0] == 1.0

    def test_snorm_matches_manual_composition(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        out = score_trials(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        assert len(out) == len(trials)
        by_id = {e.utt_id: e for e in rows_of(embs)}
        for (model_id, utt_id), ts in zip(trials, out):
            model_vec = average_embedding([by_id[u].vec for u in enroll[model_id]])
            speakers = {by_id[u].speaker_id for u in enroll[model_id]}
            st_e = snorm_stats(model_vec, excluding_speakers(cohort, speakers).unit_rows, 5)
            st_t = snorm_stats(by_id[utt_id].vec, cohort.unit_rows, 5)
            raw = cosine(model_vec, by_id[utt_id].vec)
            assert ts["raw"] == raw
            assert ts["normalized"] == adaptive_snorm(raw, st_e, st_t)

    def test_lid_mode_all_farsi_equals_snorm(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        plain = score_trials(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        decisions = {u: Language.FARSI for u in ("t0", "t1")}
        lid = score_trials(
            trials,
            enroll,
            embs,
            cohort,
            ScoringMode.SNORM_LID,
            offset=LanguageOffset(alpha=0.25),
            lid_decisions=decisions,
            top_n=5,
        )
        assert np.array_equal(lid["normalized"], plain["normalized"])

    def test_lid_mode_english_shifts(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        plain = score_trials(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        decisions = {"t0": Language.FARSI, "t1": Language.ENGLISH}
        lid = score_trials(
            trials,
            enroll,
            embs,
            cohort,
            ScoringMode.SNORM_LID,
            offset=LanguageOffset(alpha=0.25),
            lid_decisions=decisions,
            top_n=5,
        )
        for (_, utt_id), p, l in zip(trials, plain["normalized"], lid["normalized"]):
            if utt_id == "t0":
                assert l == p
            else:
                assert l > p

    def test_cache_equivalence(self, rng):
        # statistics computed once per model and test utterance equal the
        # per-trial recomputation of the scalar oracle
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        cached = score_trials(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        uncached = score_trials_loop(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        assert cached["normalized"].tolist() == [norm for _, norm in uncached]

    def test_missing_embedding(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        with pytest.raises(MissingEmbedding):
            score_trials(
                [("modelA", "nope")], enroll, embs, cohort, ScoringMode.SNORM, top_n=5
            )

    def test_missing_lid_decision(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        with pytest.raises(MissingLidDecision):
            score_trials(
                trials,
                enroll,
                embs,
                cohort,
                ScoringMode.SNORM_LID,
                offset=LanguageOffset(0.1),
                lid_decisions={"t0": Language.FARSI},
                top_n=5,
            )

    def test_mode_requires_inputs(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        with pytest.raises(ParamInvalid):
            score_trials(trials, enroll, embs, None, ScoringMode.SNORM)
        with pytest.raises(ParamInvalid):
            score_trials(trials, enroll, embs, cohort, ScoringMode.SNORM_LID)


def differential_setup(rng, dim=8, n_distinct=10, copies=3, n_models=6, n_tests=110):
    """Trials scored against a cohort in which every vector appears
    ``copies`` times (exact ties at any top-N boundary) and which holds the
    enrollment speakers of half the models; more trials than one chunk."""
    cohort_embs = [
        make_embedding(f"c{i}-{c}", f"coh{i}-{c}", vec)
        for i, vec in enumerate(rng.normal(size=(n_distinct, dim)))
        for c in range(copies)
    ]
    embs, enroll = {}, {}
    for m in range(n_models):
        utts = []
        for u in range(1 + m % 3):
            e = make_embedding(f"e{m}-{u}", f"spk{m}", rng.normal(size=dim))
            embs[e.utt_id] = e
            utts.append(e.utt_id)
        enroll[f"model{m}"] = tuple(utts)
        if m % 2 == 0:
            cohort_embs.append(make_embedding(f"c-spk{m}", f"spk{m}", rng.normal(size=dim)))
    for t in range(n_tests):
        e = make_embedding(f"t{t}", f"spk{t % (n_models + 3)}", rng.normal(size=dim))
        embs[e.utt_id] = e
    # a model and a test utterance with one vector whose unclipped cosine
    # overshoots 1.0, so the clip is exercised
    while True:
        v = rng.normal(size=dim)
        u = l2_normalize(v)
        if np.sum(l2_normalize(u) * u) > 1.0:
            break
    embs["e-copy"] = make_embedding("e-copy", "spk-copy", v)
    embs[f"t{n_tests}"] = make_embedding(f"t{n_tests}", "spk-copy", v)
    enroll["model-copy"] = ("e-copy",)
    n_tests += 1
    cohort = Cohort.from_embeddings(make_table(cohort_embs))
    trials = [(m, f"t{t}") for t in range(n_tests) for m in enroll]
    decisions = {
        f"t{t}": Language.ENGLISH if rng.uniform() < 0.4 else Language.FARSI
        for t in range(n_tests)
    }
    return trials, enroll, make_table(embs), cohort, decisions


class TestScoreTrialsAgainstOracle:
    MODES = [ScoringMode.RAW, ScoringMode.SNORM, ScoringMode.SNORM_LID]

    def check(self, trials, enroll, embs, cohort, decisions, top_n):
        offset = LanguageOffset(alpha=0.0731)
        for mode in self.MODES:
            out = score_trials(
                trials, enroll, embs, cohort, mode,
                offset=offset, lid_decisions=decisions, top_n=top_n,
            )
            ref = score_trials_loop(
                trials, enroll, embs, cohort, mode,
                offset=offset, lid_decisions=decisions, top_n=top_n,
            )
            assert out["raw"].tolist() == [raw for raw, _ in ref]
            assert out["normalized"].tolist() == [norm for _, norm in ref]

    def test_ties_and_enrollment_speakers_over_several_chunks(self, rng):
        trials, enroll, embs, cohort, decisions = differential_setup(rng)
        assert len(trials) > 1.2 * TRIAL_CHUNK
        assert set(cohort.speaker_ids) & {"spk0", "spk2", "spk4"}
        # top_n=5 over triplicated vectors: the boundary falls inside a tie
        self.check(trials, enroll, embs, cohort, decisions, top_n=5)
        raw = score_trials([("model-copy", "t110")], enroll, embs, None, ScoringMode.RAW)["raw"]
        assert raw[0] == 1.0

    def test_top_n_beyond_pruned_cohort_falls_back(self, rng, caplog):
        trials, enroll, embs, cohort, decisions = differential_setup(rng)
        # the full cohort holds exactly top_n entries, a pruned one fewer
        with caplog.at_level("WARNING"):
            self.check(trials, enroll, embs, cohort, decisions, top_n=len(cohort))
        assert any("exceeds cohort size" in r.message for r in caplog.records)

    def test_restricted_cohort(self, rng):
        trials, enroll, embs, cohort, decisions = differential_setup(rng, n_tests=20)
        domain_of = {
            sid: Domain.VOX if k % 3 else Domain.DEEPMINE
            for k, sid in enumerate(cohort.speaker_ids)
        }
        restricted = restrict_domains(cohort, domain_of, [Domain.VOX])
        self.check(trials, enroll, embs, restricted, decisions, 4)

    def test_zero_norm_test_vector_raises(self, rng):
        trials, enroll, embs, cohort, decisions = differential_setup(rng, n_tests=4)
        embs = make_table(rows_of(embs) + [make_embedding("t2", "spkZ", np.zeros(8))])
        for mode in self.MODES:
            for impl in (score_trials, score_trials_loop):
                with pytest.raises(NormUnderflow):
                    impl(
                        trials, enroll, embs, cohort, mode,
                        offset=LanguageOffset(0.1), lid_decisions=decisions, top_n=5,
                    )

    def test_empty_trial_list(self, rng):
        _, enroll, embs, cohort, decisions = differential_setup(rng, n_tests=2)
        out = score_trials([], enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        assert out.shape == (0,)


class TestEstimateAlphaAgainstOracle:
    def test_synthetic_corpus(self):
        protos = generate_corpus(CorpusSpec(seed=3, dim=12)).prototypes
        for top_n in (2, 7, 20):
            assert estimate_alpha(protos, top_n).alpha == estimate_alpha_rebuild(protos, top_n).alpha

    def test_duplicate_prototypes_tie_at_boundary(self, rng):
        base = rng.normal(size=(6, 5))
        fa = [base[k % 4] * (1 + k) for k in range(12)]  # four directions, three scales each
        us = [base[4], base[5], base[0]]
        cols = np.stack(fa + us, axis=1)
        langs = [Language.FARSI] * 12 + [Language.ENGLISH] * 3
        protos = make_protos(cols, languages=langs)
        for top_n in (4, 7, 11):
            assert estimate_alpha(protos, top_n).alpha == estimate_alpha_rebuild(protos, top_n).alpha
