import math

import numpy as np
import pytest

from svbackend import scoring
from svbackend.errors import (
    ClassTooSmall,
    DegenerateAverage,
    DegenerateCohort,
    DimensionMismatch,
    EmptySet,
    MissingEmbedding,
    MissingLidDecision,
    NormUnderflow,
    ParamInvalid,
    ValidationError,
)
from svbackend.metrics import eer
from svbackend.scores import ScoreSet
from svbackend.scoring import (
    Cohort,
    LanguageOffset,
    _snorm,
    estimate_alpha,
    score_trials,
)
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import ROW_BLOCK, Domain, Language, ScoringMode, average_embedding, cosine
from svbackend.vecmath import unit_rows

from conftest import make_embedding, make_protos, make_table, rows_of
from oracles import (
    SnormStats,
    adaptive_snorm,
    cohort_from_all_rows,
    estimate_alpha_rebuild,
    excluding_speakers,
    first_row_domains,
    full_cohort,
    l2_normalize,
    language_dependent_snorm,
    mode_inputs,
    restrict_domains,
    score_trials_loop,
    snorm_stats,
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
        out = score_trials([("m", "t")], enroll, table)
        assert out[0] == cosine(average_embedding([e.vec for e in es]), test.vec)


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


class TestBlockSnormStats:
    """``scoring.snorm_stats`` on a block of unit rows against the per-vector
    oracle, row by row and bit for bit.  The block holds ``unit_rows`` of the
    raw vectors, and the oracle normalizes each raw vector itself, as
    ``score_trials`` and the per-trial reference do."""

    def check(self, vecs, rows, top_n):
        mu, sigma = scoring.snorm_stats(unit_rows(vecs, rows.shape[1]), rows, top_n)
        assert mu.shape == sigma.shape == (len(vecs),)
        for k, vec in enumerate(vecs):
            st = snorm_stats(vec, rows, top_n)
            assert mu[k] == st.mu and sigma[k] == st.sigma

    def test_ties_at_the_top_n_boundary(self, rng):
        # every cohort row three times: any boundary below 3 * 10 is in a tie
        rows = unit_rows(np.repeat(rng.normal(size=(10, 16)), 3, axis=0))
        vecs = rng.normal(size=(25, 16))
        for top_n in (4, 5, 8, 29):
            self.check(vecs, rows, top_n)

    def test_top_n_equals_cohort_size(self, rng, caplog):
        rows = unit_rows(rng.normal(size=(12, 8)))
        with caplog.at_level("WARNING"):
            self.check(rng.normal(size=(9, 8)), rows, len(rows))
        assert not caplog.records

    def test_top_n_beyond_cohort_warns_once_per_call(self, rng, caplog):
        rows = unit_rows(rng.normal(size=(6, 8)))
        vecs = rng.normal(size=(11, 8))
        for calls in (1, 2):
            caplog.clear()
            with caplog.at_level("WARNING"):
                for _ in range(calls):
                    mu, sigma = scoring.snorm_stats(unit_rows(vecs), rows, 40)
            warned = [r for r in caplog.records if "exceeds cohort size 6" in r.message]
            assert len(warned) == calls
        self.check(vecs, rows, 40)
        assert mu[0] == snorm_stats(vecs[0], rows, len(rows)).mu

    def test_zero_row_block(self, rng):
        rows = unit_rows(rng.normal(size=(6, 8)))
        mu, sigma = scoring.snorm_stats(np.empty((0, 8)), rows, 4)
        assert mu.shape == sigma.shape == (0,)

    def test_enrollment_speaker_row_subset(self, rng):
        # the rows left after dropping a model's enrollment speakers, as
        # score_trials selects them
        cohort = Cohort(tuple(f"s{k}" for k in range(20)), rng.normal(size=(20, 12)))
        keep = ~np.isin(np.array(cohort.speaker_ids), ["s0", "s7", "s19"])
        subset = cohort.unit_rows[keep]
        vecs = rng.normal(size=(5, 12))
        self.check(vecs, subset, 6)
        pruned = excluding_speakers(cohort, ["s0", "s7", "s19"])
        assert np.array_equal(pruned.unit_rows, subset)

    def test_checks(self, rng):
        rows = unit_rows(rng.normal(size=(6, 8)))
        with pytest.raises(ParamInvalid):
            scoring.snorm_stats(unit_rows(rng.normal(size=(3, 8))), rows, 1)
        with pytest.raises(DimensionMismatch):
            scoring.snorm_stats(unit_rows(rng.normal(size=(3, 7))), rows, 4)
        flat = cohort_with_cosines([0.5, 0.5, 0.1]).unit_rows
        with pytest.raises(DegenerateCohort):
            scoring.snorm_stats(np.array([[0.0, 1.0], [1.0, 0.0]]), flat, 2)


class TestImposterStats:
    """``Cohort.imposter_stats`` against a cohort rebuilt without each row's
    speakers (``excluding_speakers``) and the per-vector ``snorm_stats``,
    row by row and bit for bit."""

    def check(self, cohort, vecs, speakers, top_n):
        mu, sigma = cohort.imposter_stats(unit_rows(vecs), speakers, top_n)
        assert mu.shape == sigma.shape == (len(vecs),)
        for k, (vec, drop) in enumerate(zip(vecs, speakers)):
            st = snorm_stats(vec, excluding_speakers(cohort, drop).unit_rows, top_n)
            assert mu[k] == st.mu and sigma[k] == st.sigma

    def test_against_the_oracle(self, rng):
        # every cohort row twice, so top_n=8 cuts through ties
        means = np.repeat(rng.normal(size=(15, 12)), 2, axis=0)
        cohort = Cohort(tuple(f"s{k}" for k in range(30)), means)
        speakers = [
            (),
            ("s0",),
            ("s3", "s29"),
            ("elsewhere",),
            ["s5", "elsewhere", "s5"],
            {f"s{k}" for k in range(10, 20)},
        ]
        self.check(cohort, rng.normal(size=(len(speakers), 12)), speakers, 8)

    def test_fewer_rows_left_than_top_n(self, rng, caplog):
        cohort = Cohort(tuple(f"s{k}" for k in range(10)), rng.normal(size=(10, 6)))
        with caplog.at_level("WARNING"):
            mu, _ = cohort.imposter_stats(
                unit_rows(rng.normal(size=(2, 6))), [("s1", "s2", "s3"), ()], 8
            )
        warned = [r.message for r in caplog.records if "exceeds cohort size" in r.message]
        assert warned == ["top_n=8 exceeds cohort size 7; using the whole cohort"]
        self.check(cohort, rng.normal(size=(2, 6)), [("s1", "s2", "s3"), ()], 8)

    def test_excluding_every_speaker(self, rng):
        cohort = Cohort(("a", "b"), rng.normal(size=(2, 4)))
        message = "excluding enrollment speakers emptied the cohort"
        with pytest.raises(EmptySet) as got:
            cohort.imposter_stats(unit_rows(rng.normal(size=(2, 4))), [("c",), ("b", "a")], 2)
        with pytest.raises(EmptySet) as want:
            excluding_speakers(cohort, ("b", "a"))
        assert str(got.value) == str(want.value) == message

    def test_no_rows(self, rng):
        cohort = Cohort(("a", "b", "c"), rng.normal(size=(3, 4)))
        mu, sigma = cohort.imposter_stats(np.empty((0, 4)), [], 2)
        assert mu.shape == sigma.shape == (0,)


class TestSnormFormulas:
    """``_snorm(raw, mu_e, sigma_e, mu_t, sigma_t, shift)``, the package's one
    s-norm, against the written-out scalar references in oracles."""

    def test_centered_score_is_zero(self):
        assert _snorm(0.4, 0.4, 1.0, 0.4, 1.0, 0.0) == 0.0

    def test_symmetric_collapse(self):
        raw = 0.7
        assert _snorm(raw, 0.2, 0.5, 0.2, 0.5, 0.0) == pytest.approx(
            2 * (raw - 0.2) / 0.5, abs=1e-15
        )

    def test_direct_evaluation(self):
        assert _snorm(0.8, 0.6, 0.2, 0.5, 0.1, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_language_variant_reduces_bit_exactly(self, rng):
        raw, mu_e, mu_t = rng.normal(size=(3, 1000))
        sigma_e, sigma_t = rng.uniform(0.1, 2, size=(2, 1000))
        english = rng.uniform(size=1000) < 0.5
        offset = LanguageOffset(alpha=0.123)
        plain = _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, 0.0)
        mixed = _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, np.where(english, offset.alpha, 0.0))
        for k in range(1000):
            st_e = SnormStats(mu=mu_e[k], sigma=sigma_e[k], top_n=5)
            st_t = SnormStats(mu=mu_t[k], sigma=sigma_t[k], top_n=5)
            assert plain[k] == adaptive_snorm(raw[k], st_e, st_t)
            assert plain[k] == language_dependent_snorm(raw[k], st_e, st_t, offset, False)
            assert plain[k] == language_dependent_snorm(
                raw[k], st_e, st_t, LanguageOffset(0.0), True
            )
            assert mixed[k] == language_dependent_snorm(raw[k], st_e, st_t, offset, english[k])

    def test_english_offset_shifts_by_alpha_over_sigma(self, rng):
        raw, mu_e, mu_t, alpha = rng.normal(size=(4, 200))
        alpha *= 0.3
        sigma_e, sigma_t = rng.uniform(0.1, 2, size=(2, 200))
        plain = _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, 0.0)
        shifted = _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, alpha)
        np.testing.assert_allclose(shifted - plain, alpha / sigma_e, rtol=0, atol=1e-12)

    def test_worked_delta(self):
        plain = _snorm(0.8, 0.6, 0.2, 0.5, 0.1, 0.0)
        assert _snorm(0.8, 0.6, 0.2, 0.5, 0.1, 0.1) == pytest.approx(plain + 0.5, abs=1e-12)

    def test_monotone_in_raw(self, rng):
        out = _snorm(np.sort(rng.normal(size=50)), 0.1, 0.3, 0.2, 0.4, 0.0)
        assert np.all(np.diff(out) > 0)


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

    def test_kept_rows_only_equal_all_rows(self, rng):
        # 700 rows over 3 check blocks; a quarter of the speakers are kept
        doms = [Domain.VOX, Domain.LIBRI, Domain.DEEPMINE, Domain.VOX]
        spk = rng.integers(0, 90, size=700)
        table = make_table(
            make_embedding(f"u{k}", f"s{s}", rng.normal(size=16), domain=doms[s % 4])
            for k, s in enumerate(spk)
        )
        for domains in ([Domain.DEEPMINE], [Domain.VOX, Domain.LIBRI], list(Domain)):
            new = Cohort.from_embeddings(table, domains=domains)
            old = cohort_from_all_rows(table, domains)
            assert new.speaker_ids == old.speaker_ids
            assert np.array_equal(new.means, old.means)
            assert np.array_equal(new.unit_rows, old.unit_rows)
        # a zero row of a dropped speaker, in a later block, still fails
        rows = rows_of(table)
        k = next(k for k in range(600, 700) if rows[k].domain is Domain.VOX)
        rows[k] = rows[k]._replace(vec=np.zeros(16))
        with pytest.raises(NormUnderflow):
            Cohort.from_embeddings(make_table(rows), domains=[Domain.DEEPMINE])

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
        out = score_trials([("m", "t0")], {"m": ("e0",)}, embs, cohort, top_n=2)
        raw = score_trials([("m", "t0")], {"m": ("e0",)}, embs)
        st_e = snorm_stats([1.0, 0.0], cohort.unit_rows[1:], 2)
        st_t = snorm_stats([0.28, 0.96], cohort.unit_rows, 2)
        assert st_e.mu == pytest.approx(0.7, abs=1e-12)
        assert out[0] == adaptive_snorm(raw[0], st_e, st_t)
        with pytest.raises(EmptySet):
            score_trials([("m", "t0")], {"m": ("e0",)}, embs, Cohort(("a",), means[:1]))


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
        out = score_trials([("m", "t0")], {"m": ("e0",)}, embs)
        assert out[0] == 1.0

    def test_snorm_matches_manual_composition(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        out = score_trials(trials, enroll, embs, cohort, top_n=5)
        raws = score_trials(trials, enroll, embs)
        assert len(out) == len(raws) == len(trials)
        by_id = {e.utt_id: e for e in rows_of(embs)}
        for (model_id, utt_id), ts_raw, ts in zip(trials, raws, out):
            model_vec = average_embedding([by_id[u].vec for u in enroll[model_id]])
            speakers = {by_id[u].speaker_id for u in enroll[model_id]}
            st_e = snorm_stats(model_vec, excluding_speakers(cohort, speakers).unit_rows, 5)
            st_t = snorm_stats(by_id[utt_id].vec, cohort.unit_rows, 5)
            raw = cosine(model_vec, by_id[utt_id].vec)
            assert ts_raw == raw
            assert ts == adaptive_snorm(raw, st_e, st_t)

    def test_lid_mode_all_farsi_equals_snorm(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        plain = score_trials(trials, enroll, embs, cohort, top_n=5)
        decisions = {u: Language.FARSI for u in ("t0", "t1")}
        lid = score_trials(
            trials,
            enroll,
            embs,
            cohort,
            offset=LanguageOffset(alpha=0.25),
            lid_decisions=decisions,
            top_n=5,
        )
        assert np.array_equal(lid, plain)

    def test_lid_mode_english_shifts(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        plain = score_trials(trials, enroll, embs, cohort, top_n=5)
        decisions = {"t0": Language.FARSI, "t1": Language.ENGLISH}
        lid = score_trials(
            trials,
            enroll,
            embs,
            cohort,
            offset=LanguageOffset(alpha=0.25),
            lid_decisions=decisions,
            top_n=5,
        )
        for (_, utt_id), p, l in zip(trials, plain, lid):
            if utt_id == "t0":
                assert l == p
            else:
                assert l > p

    def test_cache_equivalence(self, rng):
        # statistics computed once per model and test utterance equal the
        # per-trial recomputation of the scalar oracle
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        cached = score_trials(trials, enroll, embs, cohort, top_n=5)
        uncached = score_trials_loop(trials, enroll, embs, cohort, ScoringMode.SNORM, top_n=5)
        assert cached.tolist() == [norm for _, norm in uncached]

    def test_missing_embedding(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        with pytest.raises(MissingEmbedding):
            score_trials([("modelA", "nope")], enroll, embs, cohort, top_n=5)

    def test_missing_lid_decision(self, rng):
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        with pytest.raises(MissingLidDecision):
            score_trials(
                trials,
                enroll,
                embs,
                cohort,
                offset=LanguageOffset(0.1),
                lid_decisions={"t0": Language.FARSI},
                top_n=5,
            )

    def test_unmatched_inputs_raise(self, rng):
        # an offset without decisions, decisions without an offset, or
        # either of them without a cohort names no score
        trials, enroll, embs, cohort = tiny_trial_setup(rng)
        offset, decisions = LanguageOffset(0.1), {"t0": Language.FARSI, "t1": Language.ENGLISH}
        for given_cohort, extra in [
            (cohort, {"offset": offset}),
            (cohort, {"lid_decisions": decisions}),
            (None, {"offset": offset}),
            (None, {"lid_decisions": decisions}),
            (None, {"offset": offset, "lid_decisions": decisions}),
        ]:
            with pytest.raises(ParamInvalid):
                score_trials(trials, enroll, embs, given_cohort, **extra)


def differential_setup(rng, dim=8, n_distinct=10, copies=3, n_models=6, n_tests=110):
    """Trials scored against a cohort in which every vector appears
    ``copies`` times (exact ties at any top-N boundary) and which holds the
    enrollment speakers of half the models; trials span many ``ROW_BLOCK`` blocks."""
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
                trials, enroll, embs, **mode_inputs(mode, cohort, offset, decisions), top_n=top_n
            )
            ref = score_trials_loop(
                trials, enroll, embs, cohort, mode,
                offset=offset, lid_decisions=decisions, top_n=top_n,
            )
            # in raw mode the oracle's normalized entry is its raw score
            assert out.tolist() == [norm for _, norm in ref]

    def test_ties_and_enrollment_speakers_over_several_chunks(self, rng):
        trials, enroll, embs, cohort, decisions = differential_setup(rng)
        assert len(trials) > 2 * ROW_BLOCK
        assert set(cohort.speaker_ids) & {"spk0", "spk2", "spk4"}
        # top_n=5 over triplicated vectors: the boundary falls inside a tie
        self.check(trials, enroll, embs, cohort, decisions, top_n=5)
        raw = score_trials([("model-copy", "t110")], enroll, embs)
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
        offset = LanguageOffset(0.1)
        for mode in self.MODES:
            with pytest.raises(NormUnderflow):
                score_trials(
                    trials, enroll, embs, **mode_inputs(mode, cohort, offset, decisions), top_n=5
                )
            with pytest.raises(NormUnderflow):
                score_trials_loop(
                    trials, enroll, embs, cohort, mode,
                    offset=offset, lid_decisions=decisions, top_n=5,
                )

    def test_empty_trial_list(self, rng):
        _, enroll, embs, cohort, decisions = differential_setup(rng, n_tests=2)
        out = score_trials([], enroll, embs, cohort, top_n=5)
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


class TestPrototypeAlphaOvercorrects:
    """Pins the measured symptoms of a known defect of the prototype alpha
    (ROADMAP item 8): on ``synth`` corpora at shift 0.8, ``estimate_alpha``
    over the noise-free prototypes is over 3x the cross-language offset that
    the utterance scores carry, and snorm-lid with it has a higher EER than
    with the utterance-side offset.  A fix of the estimator or of ``synth``'s
    prototypes is expected to change this test.
    """

    TOP_N = 40

    @staticmethod
    def alpha_utt(train, top_n):
        """The statistic of ``estimate_alpha`` on the training utterances: the
        cohort is the DEEPMINE unit rows; the Farsi mean is over each DEEPMINE
        utterance against the other speakers' rows, the English mean over the
        VOX and LIBRI utterances against every cohort row."""
        units = unit_rows(train.vectors)
        speakers = np.array(train.speaker_ids)
        farsi = np.array([d is Domain.DEEPMINE for d in train.domains])
        cohort, cohort_speakers = units[farsi], speakers[farsi]
        mu_fa = [
            scoring.snorm_stats(units[farsi & (speakers == s)], cohort[cohort_speakers != s], top_n)
            for s in dict.fromkeys(cohort_speakers.tolist())
        ]
        mu_en = scoring.snorm_stats(units[~farsi], cohort, top_n)[0]
        return float(np.mean(np.concatenate([mu for mu, _ in mu_fa]))) - float(np.mean(mu_en))

    @pytest.mark.parametrize("seed", range(8))
    def test_prototype_alpha_exceeds_utterance_offset(self, seed):
        corpus = generate_corpus(
            CorpusSpec(
                dim=128, vox_speakers=90, libri_speakers=50, deepmine_speakers=80,
                eval_speakers=30, utts_per_speaker=(4, 6), concentration=7.0,
                language_shift=0.8, target_trials=120, nontarget_trials=3000, seed=seed,
            )
        )  # fmt: skip
        proto_alpha = estimate_alpha(corpus.prototypes, self.TOP_N).alpha
        utt_alpha = self.alpha_utt(corpus.train_embeddings, self.TOP_N)
        assert 0 < 3 * utt_alpha <= proto_alpha

        evals = corpus.eval_embeddings
        oracle = dict(zip(evals.utt_ids, evals.languages))
        cohort = Cohort.from_embeddings(corpus.train_embeddings, [Domain.DEEPMINE])

        def snorm_lid_eer(alpha):
            scores = score_trials(
                corpus.trials, corpus.enrollment_map, evals, cohort,
                offset=LanguageOffset(alpha), lid_decisions=oracle, top_n=self.TOP_N,
            )  # fmt: skip
            return eer(ScoreSet(keys=corpus.trials, scores=scores, labels=corpus.labels))

        assert snorm_lid_eer(proto_alpha) > snorm_lid_eer(utt_alpha)
