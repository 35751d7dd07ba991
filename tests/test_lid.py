import dataclasses

import numpy as np
import pytest

from svbackend.errors import ClassTooSmall, DimensionMismatch, NormUnderflow, WeightOutOfRange
from svbackend.lid import adapt_english_mean, affine_coefficients, classify, train_gb
from svbackend.vecmath import Domain, Language, l2_normalize

from conftest import make_protos
from oracles import log_likelihood_ratio


def two_cluster_protos(rng, n_per_class=20, dim=8, spread=0.15, angle_scale=1.0):
    """Farsi cluster around e1, USA cluster around a direction rotated away."""
    c_fa = np.zeros(dim)
    c_fa[0] = 1.0
    c_us = np.zeros(dim)
    c_us[0] = np.cos(angle_scale)
    c_us[1] = np.sin(angle_scale)
    cols, langs, doms = [], [], []
    for _ in range(n_per_class):
        cols.append(l2_normalize(c_fa + spread * rng.normal(size=dim)))
        langs.append(Language.FARSI)
        doms.append(Domain.DEEPMINE)
    for _ in range(n_per_class):
        cols.append(l2_normalize(c_us + spread * rng.normal(size=dim)))
        langs.append(Language.ENGLISH)
        doms.append(Domain.VOX)
    return make_protos(np.stack(cols, axis=1), languages=langs, domains=doms)


class TestTrain:
    def test_class_mapping_from_labels(self, rng):
        # only FARSI and ENGLISH labels pick rows: interleaving OTHER- and
        # UNKNOWN-labeled prototypes leaves every field bit-identical
        protos = two_cluster_protos(rng, n_per_class=3)
        extra = rng.normal(size=(protos.dim, 4))
        w, langs = protos.w, [sp.language for sp in protos.speakers]
        mixed = make_protos(
            np.concatenate([extra[:, :2], w[:, :3], extra[:, 2:], w[:, 3:]], axis=1),
            languages=[Language.OTHER, Language.UNKNOWN, *langs[:3]]
            + [Language.UNKNOWN, Language.OTHER, *langs[3:]],
        )
        for diagonal in (False, True):
            want, got = train_gb(protos, diagonal=diagonal), train_gb(mixed, diagonal=diagonal)
            for f in dataclasses.fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    def test_zero_scatter_gives_ridge_identity(self):
        # both classes concentrated at a single repeated prototype: the
        # pooled covariance vanishes and only the ridge remains
        fa = np.array([1.0, 0.0, 0.0])
        us = np.array([0.0, 1.0, 0.0])
        cols = np.stack([fa, fa, us, us], axis=1)
        protos = make_protos(
            cols,
            languages=[Language.FARSI] * 2 + [Language.ENGLISH] * 2,
        )
        gb = train_gb(protos)
        np.testing.assert_allclose(gb.mu_farsi, fa, atol=1e-15)
        np.testing.assert_allclose(gb.mu_usa, us, atol=1e-15)
        lam = gb.shared_cov[0, 0]
        assert lam > 0
        np.testing.assert_allclose(gb.shared_cov, lam * np.eye(3), atol=1e-18)

    def test_tiny_jitter_means(self, rng):
        protos = two_cluster_protos(rng, n_per_class=30, spread=0.01, angle_scale=np.pi / 2)
        gb = train_gb(protos)
        assert gb.mu_farsi[0] == pytest.approx(1.0, abs=0.01)
        assert gb.mu_usa[1] == pytest.approx(1.0, abs=0.01)

    def test_closed_form_mean_and_cov(self, rng):
        protos = two_cluster_protos(rng, n_per_class=10)
        gb = train_gb(protos)
        unit = protos.unit_rows
        fa, us = unit[:10], unit[10:]
        np.testing.assert_allclose(gb.mu_farsi, fa.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(gb.mu_usa, us.mean(axis=0), atol=1e-12)
        centered = np.concatenate([fa - fa.mean(axis=0), us - us.mean(axis=0)])
        pooled = centered.T @ centered / (20 - 2)
        offdiag = gb.shared_cov - np.diag(np.diagonal(gb.shared_cov))
        np.testing.assert_allclose(
            offdiag, pooled - np.diag(np.diagonal(pooled)), atol=1e-12
        )

    def test_single_prototype_class_rejected(self, rng):
        cols = np.stack(
            [l2_normalize(rng.normal(size=4)) for _ in range(3)], axis=1
        )
        protos = make_protos(
            cols, languages=[Language.FARSI, Language.FARSI, Language.ENGLISH]
        )
        with pytest.raises(ClassTooSmall):
            train_gb(protos)

    def test_diagonal_option(self, rng):
        protos = two_cluster_protos(rng)
        gb = train_gb(protos, diagonal=True)
        offdiag = gb.shared_cov - np.diag(np.diagonal(gb.shared_cov))
        assert np.abs(offdiag).max() == 0.0


class TestAdapt:
    def test_paper_style_interpolation(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        adapted = adapt_english_mean(gb, 0.75)
        np.testing.assert_allclose(
            adapted.mu_english_effective, 0.75 * gb.mu_usa + 0.25 * gb.mu_farsi, atol=1e-15
        )

    def test_identity_and_collapse(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        assert np.array_equal(adapt_english_mean(gb, 1.0).mu_english_effective, gb.mu_usa)
        assert np.array_equal(adapt_english_mean(gb, 0.0).mu_english_effective, gb.mu_farsi)

    def test_idempotent_and_linear(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        once = adapt_english_mean(gb, 0.6)
        twice = adapt_english_mean(once, 0.6)
        assert np.array_equal(once.mu_english_effective, twice.mu_english_effective)
        a = adapt_english_mean(gb, 0.2).mu_english_effective
        b = adapt_english_mean(gb, 0.8).mu_english_effective
        mid = adapt_english_mean(gb, 0.5).mu_english_effective
        np.testing.assert_allclose(mid, (a + b) / 2, atol=1e-12)

    def test_weight_range(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        with pytest.raises(WeightOutOfRange):
            adapt_english_mean(gb, 1.2)
        with pytest.raises(WeightOutOfRange):
            adapt_english_mean(gb, -0.1)


class TestClassify:
    def test_class_means_classify_to_their_class(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        (en_fa, en_en), (llr_fa, llr_en) = classify(gb, [gb.mu_farsi, gb.mu_english_effective])
        assert not en_fa and llr_fa < 0
        assert en_en and llr_en > 0

    def test_scale_invariance(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        v = rng.normal(size=gb.dim)
        _, (llr1, llr2) = classify(gb, [v, 100.0 * v])
        assert llr1 == pytest.approx(llr2, abs=1e-9)

    def test_affine_form_agrees(self, rng):
        gb = adapt_english_mean(train_gb(two_cluster_protos(rng)), 0.75)
        a, b = affine_coefficients(gb)
        for _ in range(100):
            x = l2_normalize(rng.normal(size=gb.dim))
            assert log_likelihood_ratio(gb, x) == pytest.approx(float(a @ x + b), abs=1e-9)

    def test_batch_matches_scalar_oracle(self, rng):
        # unnormalized rows of mixed scale; the oracle normalizes each one
        gb = adapt_english_mean(train_gb(two_cluster_protos(rng)), 0.75)
        vecs = rng.normal(size=(300, gb.dim)) * rng.uniform(0.01, 100.0, size=(300, 1))
        vecs[:150, 0] += 3.0  # half of them near the Farsi mean direction
        for tau in (0.0, 0.5, -2.0):
            is_english, llrs = classify(gb, vecs, tau=tau)
            oracle = np.array([log_likelihood_ratio(gb, v) for v in vecs])
            assert np.max(np.abs(llrs - oracle)) <= 1e-9
            assert np.array_equal(is_english, oracle > tau)
        assert 0 < is_english.sum() < len(vecs)

    def test_batch_shapes_and_degenerate_rows(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        is_english, llrs = classify(gb, [])
        assert is_english.shape == (0,) and llrs.shape == (0,)
        with pytest.raises(DimensionMismatch):
            classify(gb, [np.ones(gb.dim + 1)])
        vecs = rng.normal(size=(3, gb.dim))
        vecs[1] = 0.0
        with pytest.raises(NormUnderflow):
            classify(gb, vecs)

    def test_monte_carlo_accuracy(self, rng):
        # >= 30 degree separation, high concentration: held-out accuracy >= 99%
        protos = two_cluster_protos(rng, n_per_class=40, spread=0.1, angle_scale=np.pi / 4)
        gb = train_gb(protos)
        correct = 0
        n = 1000
        c_fa = np.zeros(gb.dim)
        c_fa[0] = 1.0
        c_us = np.zeros(gb.dim)
        c_us[0] = np.cos(np.pi / 4)
        c_us[1] = np.sin(np.pi / 4)
        for i in range(n):
            if i % 2 == 0:
                v = c_fa + 0.1 * rng.normal(size=gb.dim)
                truth = Language.FARSI
            else:
                v = c_us + 0.1 * rng.normal(size=gb.dim)
                truth = Language.ENGLISH
            (is_english,), _ = classify(gb, [v])
            correct += (Language.ENGLISH if is_english else Language.FARSI) is truth
        assert correct / n >= 0.99

    def test_tau_threshold(self, rng):
        gb = train_gb(two_cluster_protos(rng))
        vec = gb.mu_english_effective
        _, (llr,) = classify(gb, [vec])
        (strict,), _ = classify(gb, [vec], tau=llr + 1.0)
        assert not strict
