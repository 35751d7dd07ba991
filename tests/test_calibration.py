import warnings

import numpy as np
import pytest

from svbackend.calibration import GRAD_TOL, L2_PENALTY, apply_calibration, fit_calibration, fuse
from svbackend.calibration import CalibrationModel
from svbackend.errors import DegenerateLabels, KeyMismatch, NonConvergence, WeightInvalid
from svbackend.scores import ScoreSet

from oracles import fit_logreg_reference


def score_set(scores, labels=None, prefix="k"):
    keys = tuple((f"{prefix}{i}", f"t{i}") for i in range(len(scores)))
    return ScoreSet(keys=keys, scores=np.asarray(scores, dtype=np.float64), labels=labels)


class TestFit:
    def test_flipped_labels_give_negative_slope(self):
        scores = np.linspace(-2, 2, 20)
        labels = scores < 0  # high score = nontarget
        model = fit_calibration(score_set(scores, labels))
        assert model.a < 0

    def test_separable_stays_finite(self):
        scores = np.concatenate([np.linspace(1, 2, 10), np.linspace(-2, -1, 10)])
        labels = scores > 0
        model = fit_calibration(score_set(scores, labels))
        assert np.isfinite(model.a) and np.isfinite(model.b)
        assert abs(model.a) < 1e4

    def test_matches_independent_optimizer(self, rng):
        scores = np.round(rng.normal(size=20), 3)
        labels = (scores + rng.normal(size=20) * 0.5) > 0
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        ss = score_set(scores, labels)
        model = fit_calibration(ss)
        ref_a, ref_b = fit_logreg_reference(scores, labels)
        assert model.a == pytest.approx(ref_a, abs=1e-5)
        assert model.b == pytest.approx(ref_b, abs=1e-5)

    def test_matches_independent_optimizer_many(self, rng):
        # overlapping classes keep the optimum well conditioned; on
        # (near-)separable data the penalized optimum sits in a valley with
        # curvature ~1e-6 where micro-level agreement is ill-posed
        for _ in range(20):
            n = int(rng.integers(10, 40))
            labels = np.arange(n) % 2 == 0
            scores = rng.normal(size=n) * 2.0 + np.where(labels, 1.0, -1.0)
            model = fit_calibration(score_set(scores, labels))
            ref_a, ref_b = fit_logreg_reference(scores, labels)
            assert model.a == pytest.approx(ref_a, abs=1e-5)
            assert model.b == pytest.approx(ref_b, abs=1e-5)

    @pytest.mark.parametrize("seed", [3, 144])
    def test_no_stall_below_objective_resolution(self, seed):
        # these score sets once ran all MAX_ITER iterations and raised
        # NonConvergence: near the optimum the Newton decrement fell below
        # the float resolution of the objective, so step halving found no
        # decrease while the gradient norm stayed above GRAD_TOL
        rng = np.random.default_rng(seed)
        labels = rng.uniform(size=60) < 0.3
        scores = rng.normal(size=60) + 2.0 * labels
        model = fit_calibration(score_set(scores, labels))
        z = model.a * scores + model.b
        r = 1.0 / (1.0 + np.exp(-z)) - labels
        grad = [np.sum(r * scores) + L2_PENALTY * model.a, np.sum(r) + L2_PENALTY * model.b]
        assert np.max(np.abs(grad)) < GRAD_TOL
        ref_a, ref_b = fit_logreg_reference(scores, labels)
        assert model.a == pytest.approx(ref_a, abs=1e-5)
        assert model.b == pytest.approx(ref_b, abs=1e-5)

    def test_log_odds_input_recovers_identity(self, rng):
        # scores already in log-odds with labels drawn from those odds:
        # the fit should land near a=1, b=0
        z = rng.normal(size=4000) * 2.0
        labels = rng.uniform(size=4000) < 1.0 / (1.0 + np.exp(-z))
        model = fit_calibration(score_set(z, labels))
        assert model.a == pytest.approx(1.0, abs=0.1)
        assert model.b == pytest.approx(0.0, abs=0.1)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            fit_calibration(score_set([0.1, 0.2], [True, True]))

    def test_scores_too_large_for_the_newton_system(self):
        # sum(w*s^2) overflows at the start: the fit is refused, with no
        # overflow warning, rather than ended at a = 0 by an infinite Hessian
        scores = 1e200 * np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        labels = [False, True, False, True, False, True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="scores too large for the Newton system"):
                fit_calibration(score_set(scores, labels))


class TestApply:
    def test_identity(self, rng):
        ss = score_set(rng.normal(size=10))
        out = apply_calibration(CalibrationModel(a=1.0, b=0.0), ss)
        assert np.array_equal(out.scores, ss.scores)

    def test_affine_arithmetic(self):
        ss = score_set([0.5])
        out = apply_calibration(CalibrationModel(a=2.0, b=-1.0), ss)
        assert out.scores[0] == 0.0

    def test_order_preserved_for_positive_slope(self, rng):
        ss = score_set(rng.normal(size=30))
        out = apply_calibration(CalibrationModel(a=3.7, b=0.4), ss)
        assert np.array_equal(np.argsort(out.scores), np.argsort(ss.scores))
        assert out.keys == ss.keys


class TestFuse:
    def test_double_weighted_copies_reproduce_input(self, rng):
        ss = score_set(rng.normal(size=40), labels=rng.uniform(size=40) < 0.5)
        fused = fuse([ss] * 5, [1, 1, 2, 2, 2])
        assert np.array_equal(fused.scores, ss.scores)
        assert np.array_equal(fused.labels, ss.labels)

    def test_single_system_identity(self, rng):
        ss = score_set(rng.normal(size=15))
        fused = fuse([ss], [3.0])
        assert np.array_equal(fused.scores, ss.scores)

    def test_equal_weights_are_arithmetic_mean(self, rng):
        sets = [score_set(rng.normal(size=12)) for _ in range(3)]
        sets = [sets[0], sets[0].with_scores(sets[1].scores), sets[0].with_scores(sets[2].scores)]
        fused = fuse(sets, [1.0, 1.0, 1.0])
        expected = np.mean(np.stack([s.scores for s in sets]), axis=0)
        np.testing.assert_allclose(fused.scores, expected, atol=1e-12)

    def test_weighted_average_value(self):
        a = score_set([1.0, 0.0])
        b = a.with_scores([0.0, 1.0])
        fused = fuse([a, b], [3.0, 1.0])
        np.testing.assert_allclose(fused.scores, [0.75, 0.25], atol=1e-15)

    def test_alignment_by_key(self, rng):
        scores = rng.normal(size=6)
        a = score_set(scores)
        reordered = ScoreSet(keys=a.keys[::-1], scores=a.scores[::-1])
        fused = fuse([a, reordered], [1.0, 1.0])
        np.testing.assert_allclose(fused.scores, a.scores, atol=1e-15)

    def test_key_mismatch(self, rng):
        a = score_set(rng.normal(size=5))
        b = score_set(rng.normal(size=5), prefix="other")
        with pytest.raises(KeyMismatch):
            fuse([a, b], [1.0, 1.0])

    def test_weight_validation(self, rng):
        a = score_set(rng.normal(size=5))
        with pytest.raises(WeightInvalid):
            fuse([a, a], [1.0])
        with pytest.raises(WeightInvalid):
            fuse([a, a], [1.0, -1.0])
        with pytest.raises(WeightInvalid):
            fuse([], [])
        with pytest.raises(WeightInvalid, match="sum beyond the float64 range"):
            fuse([a, a], [1e308, 1e308])

    def test_conflicting_labels_rejected(self, rng):
        scores = rng.normal(size=5)
        a = score_set(scores, labels=[True, False, True, False, True])
        b = score_set(scores, labels=[True, False, True, False, False])
        with pytest.raises(KeyMismatch):
            fuse([a, b], [1.0, 1.0])
