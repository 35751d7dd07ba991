import numpy as np
import pytest

from svbackend.errors import DegenerateLabels, ParamInvalid
from svbackend.metrics import eer, min_dcf
from svbackend.scores import ScoreSet

from oracles import brute_force_eer, brute_force_min_dcf


def score_set(scores, labels):
    keys = tuple((f"m{i}", f"t{i}") for i in range(len(scores)))
    return ScoreSet(keys=keys, scores=np.asarray(scores, dtype=np.float64), labels=labels)


def random_set(rng, max_size=50):
    while True:
        n = int(rng.integers(4, max_size + 1))
        labels = rng.uniform(size=n) < rng.uniform(0.2, 0.8)
        if labels.any() and not labels.all():
            break
    scores = np.round(rng.normal(size=n) * 2.0, 3)  # rounding forces ties
    return score_set(scores, labels)


class TestEer:
    def test_perfect_separation(self):
        ss = score_set([0.9, 0.8, 0.1, 0.2], [True, True, False, False])
        assert eer(ss) == 0.0

    def test_chance_on_identical_value(self):
        ss = score_set([0.5, 0.5, 0.5, 0.5], [True, True, False, False])
        assert eer(ss) == 0.5

    def test_single_inversion_fixture(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.55, 0.5, 0.4, 0.3, 0.2, 0.1]
        labels = [True, True, True, False, True, False, False, False, False, False]
        ss = score_set(scores, labels)
        assert eer(ss) == brute_force_eer(scores, labels)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(300):
            ss = random_set(rng)
            assert eer(ss) == brute_force_eer(ss.scores, ss.labels)

    def test_range_any_fixture(self, rng):
        # label-independent scores include worse-than-chance systems, where
        # the honest crossover exceeds 0.5 (no clamping)
        for _ in range(200):
            ss = random_set(rng)
            assert 0.0 <= eer(ss) <= 1.0

    def test_range_at_least_chance_fixtures(self, rng):
        # for systems with real signal the crossover stays in [0, 0.5]
        for _ in range(200):
            n_tar = int(rng.integers(4, 25))
            n_non = int(rng.integers(4, 25))
            tar = rng.normal(size=n_tar) + 1.5
            non = rng.normal(size=n_non) - 1.5
            ss = score_set(
                np.concatenate([tar, non]), [True] * n_tar + [False] * n_non
            )
            assert 0.0 <= eer(ss) <= 0.5

    def test_monotone_transform_invariance(self, rng):
        for _ in range(100):
            ss = random_set(rng)
            base = eer(ss)
            assert eer(ss.with_scores(2.0 * ss.scores + 3.0)) == pytest.approx(base, abs=1e-12)
            assert eer(ss.with_scores(np.tanh(ss.scores))) == pytest.approx(base, abs=1e-12)

    def test_nearest_vertex_mode(self, rng):
        for _ in range(50):
            ss = random_set(rng)
            interp = eer(ss)
            nearest = eer(ss, interpolate=False)
            # staircase spacing bounds how far the conventions can disagree
            spacing = 1.0 / min(int(ss.labels.sum()), int((~ss.labels).sum()))
            assert abs(interp - nearest) <= spacing

    def test_requires_both_classes(self):
        ss = score_set([0.1, 0.2], [True, True])
        with pytest.raises(DegenerateLabels):
            eer(ss)
        with pytest.raises(DegenerateLabels):
            eer(score_set([0.1, 0.2], None))


class TestMinDcf:
    def test_perfect_separation(self):
        ss = score_set([0.9, 0.8, 0.1, 0.2], [True, True, False, False])
        assert min_dcf(ss) == 0.0

    def test_never_exceeds_one(self, rng):
        for _ in range(200):
            ss = random_set(rng)
            p = float(rng.uniform(0.005, 0.5))
            cm = float(rng.uniform(0.1, 10))
            cf = float(rng.uniform(0.1, 10))
            assert min_dcf(ss, p, cm, cf) <= 1.0 + 1e-12

    def test_twelve_trial_fixture(self):
        scores = [0.92, 0.85, 0.8, 0.7, 0.66, 0.6, 0.5, 0.45, 0.4, 0.3, 0.2, 0.15]
        labels = [True, True, False, True, True, False, True, False, False, True, False, False]
        ss = score_set(scores, labels)
        assert min_dcf(ss, 0.01, 1.0, 1.0) == brute_force_min_dcf(scores, labels, 0.01, 1.0, 1.0)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(300):
            ss = random_set(rng)
            p = float(rng.uniform(0.005, 0.5))
            cm = float(rng.uniform(0.1, 10))
            cf = float(rng.uniform(0.1, 10))
            assert min_dcf(ss, p, cm, cf) == brute_force_min_dcf(
                ss.scores, ss.labels, p, cm, cf
            )

    def test_monotone_transform_invariance(self, rng):
        for _ in range(100):
            ss = random_set(rng)
            base = min_dcf(ss, 0.05, 1.0, 2.0)
            assert min_dcf(ss.with_scores(2.0 * ss.scores + 3.0), 0.05, 1.0, 2.0) == pytest.approx(
                base, abs=1e-12
            )
            assert min_dcf(ss.with_scores(np.tanh(ss.scores)), 0.05, 1.0, 2.0) == pytest.approx(
                base, abs=1e-12
            )

    def test_param_validation(self):
        ss = score_set([0.9, 0.1], [True, False])
        with pytest.raises(ParamInvalid):
            min_dcf(ss, p_target=0.0)
        with pytest.raises(ParamInvalid):
            min_dcf(ss, p_target=1.0)
        with pytest.raises(ParamInvalid):
            min_dcf(ss, c_miss=-1.0)
        # each cost weight is a product that can underflow to 0
        with pytest.raises(ParamInvalid, match="must be above 0"):
            min_dcf(ss, p_target=1e-320, c_miss=1e-10)
        with pytest.raises(ParamInvalid, match="must be above 0"):
            min_dcf(ss, p_target=0.9999999999999999, c_fa=1e-308)

    @pytest.mark.parametrize("cost", [{"c_miss": np.nan}, {"c_fa": np.inf}, {"c_miss": np.inf}])
    def test_non_finite_cost(self, cost):
        with pytest.raises(ParamInvalid):
            min_dcf(score_set([0.9, 0.1], [True, False]), **cost)
