import math

import numpy as np
import pytest

from svbackend.aam import AamConfig, LabeledBatch, aam_grad, aam_loss
from svbackend.errors import (
    DimensionMismatch,
    GradSingularity,
    IndexOutOfRange,
    ValidationError,
)

from conftest import make_protos
from oracles import central_difference_grads, rel_err, softmax_ce_on_cosines


def random_instance(rng, n=None, n_spk=None, dim=None):
    n = n or int(rng.integers(2, 8))
    n_spk = n_spk or int(rng.integers(2, 10))
    dim = dim or int(rng.integers(3, 16))
    batch = LabeledBatch(
        embeddings=rng.normal(size=(n, dim)),
        labels=rng.integers(0, n_spk, size=n),
    )
    return batch, make_protos(rng.normal(size=(dim, n_spk)))


class TestConfig:
    def test_margin_range(self):
        with pytest.raises(ValidationError):
            AamConfig(margin=math.pi / 2)
        with pytest.raises(ValidationError):
            AamConfig(margin=-0.1)

    def test_scale_positive(self):
        for scale in (0.0, math.inf):
            with pytest.raises(ValidationError):
                AamConfig(scale=scale)

    def test_defaults(self):
        cfg = AamConfig()
        assert cfg.margin == 0.2 and cfg.scale == 30.0


class TestLoss:
    def test_two_speaker_closed_form(self):
        # aligned sample, orthogonal imposter, no margin, unit scale:
        # -log(e / (e + 1))
        batch = LabeledBatch(embeddings=[[1.0, 0.0]], labels=[0])
        protos = make_protos(np.eye(2))
        cfg = AamConfig(margin=0.0, scale=1.0)
        assert aam_loss(batch, protos, cfg) == pytest.approx(0.31326168751822286, abs=1e-6)

    def test_margin_increases_loss(self):
        batch = LabeledBatch(embeddings=[[1.0, 0.0]], labels=[0])
        protos = make_protos(np.eye(2))
        base = aam_loss(batch, protos, AamConfig(margin=0.0, scale=1.0))
        assert aam_loss(batch, protos, AamConfig(margin=0.2, scale=1.0)) > base

    def test_large_scale_saturates(self):
        batch = LabeledBatch(embeddings=[[1.0, 0.0]], labels=[0])
        protos = make_protos(np.eye(2))
        assert aam_loss(batch, protos, AamConfig(margin=0.0, scale=64.0)) < 1e-20

    def test_nonnegative(self, rng):
        for _ in range(50):
            batch, protos = random_instance(rng)
            cfg = AamConfig(margin=float(rng.uniform(0, 0.4)), scale=float(rng.uniform(1, 40)))
            assert aam_loss(batch, protos, cfg) >= 0.0

    def test_embedding_rescaling_invariance(self, rng):
        for _ in range(20):
            batch, protos = random_instance(rng)
            cfg = AamConfig()
            base = aam_loss(batch, protos, cfg)
            scaled = batch.embeddings.copy()
            i = int(rng.integers(0, batch.size))
            scaled[i] *= float(rng.uniform(1e-2, 1e2))
            assert aam_loss(LabeledBatch(scaled, batch.labels), protos, cfg) == pytest.approx(
                base, abs=1e-9
            )

    def test_zero_margin_equals_softmax_ce(self, rng):
        cfg = AamConfig(margin=0.0, scale=1.0)
        for _ in range(50):
            batch, protos = random_instance(rng)
            ours = aam_loss(batch, protos, cfg)
            ref = softmax_ce_on_cosines(batch.embeddings, batch.labels, protos.w)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_margin(self, rng):
        # sweep only instances whose target cosines are positive
        for _ in range(30):
            batch, protos = random_instance(rng)
            xn = batch.embeddings / np.linalg.norm(batch.embeddings, axis=1, keepdims=True)
            target_cos = np.sum(xn * protos.unit_rows[batch.labels], axis=1)
            if np.any(target_cos <= 0):
                continue
            losses = [
                aam_loss(batch, protos, AamConfig(margin=m, scale=10.0))
                for m in (0.0, 0.1, 0.2, 0.3)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_dimension_mismatch(self, rng):
        batch = LabeledBatch(embeddings=rng.normal(size=(2, 5)), labels=[0, 1])
        protos = make_protos(rng.normal(size=(4, 3)))
        with pytest.raises(DimensionMismatch):
            aam_loss(batch, protos, AamConfig())

    def test_label_out_of_range(self, rng):
        batch = LabeledBatch(embeddings=rng.normal(size=(2, 4)), labels=[0, 7])
        protos = make_protos(rng.normal(size=(4, 3)))
        with pytest.raises(IndexOutOfRange):
            aam_loss(batch, protos, AamConfig())


class TestGrad:
    def test_matches_finite_differences(self, rng):
        # scale kept moderate: finite differences at step 1e-5 cannot
        # resolve the saturated-softmax components of large-scale configs
        cfg = AamConfig(margin=0.15, scale=8.0)
        for _ in range(25):
            batch, protos = random_instance(rng, n=4, n_spk=5, dim=8)

            def loss_fn(x, w):
                return aam_loss(LabeledBatch(x, batch.labels), make_protos(w), cfg)

            gx, gw = aam_grad(batch, protos, cfg)
            fx, fw = central_difference_grads(loss_fn, batch.embeddings, protos.w, step=1e-5)
            assert rel_err(gx, fx).max() <= 1e-4
            assert rel_err(gw, fw).max() <= 1e-4

    def test_zero_margin_matches_softmax_ce_grad(self, rng):
        # independent oracle: finite differences of the scipy-based CE
        cfg = AamConfig(margin=0.0, scale=1.0)
        batch, protos = random_instance(rng, n=3, n_spk=4, dim=6)

        def ce(x, w):
            return softmax_ce_on_cosines(x, batch.labels, w)

        gx, gw = aam_grad(batch, protos, cfg)
        fx, fw = central_difference_grads(ce, batch.embeddings, protos.w, step=1e-5)
        assert rel_err(gx, fx).max() <= 1e-4
        assert rel_err(gw, fw).max() <= 1e-4

    def test_radial_projection_vanishes(self):
        # embedding orthogonal to every prototype: uniform posteriors, and
        # the gradient must stay tangential (cosine ignores radius)
        protos = make_protos(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]).reshape(3, -1))
        batch = LabeledBatch(embeddings=[[0.0, 0.0, 2.0]], labels=[0])
        gx, _ = aam_grad(batch, protos, AamConfig(margin=0.0, scale=1.0))
        assert abs(float(gx[0] @ batch.embeddings[0])) < 1e-9
        assert np.linalg.norm(gx) > 0.0

    def test_radial_projection_vanishes_generally(self, rng):
        cfg = AamConfig(margin=0.1, scale=8.0)
        for _ in range(20):
            batch, protos = random_instance(rng)
            gx, _ = aam_grad(batch, protos, cfg)
            proj = np.sum(gx * batch.embeddings, axis=1)
            assert np.max(np.abs(proj)) < 1e-9

    def test_singularity_guard(self):
        protos = make_protos(np.eye(2))
        batch = LabeledBatch(embeddings=[[1.0, 1e-9]], labels=[0])
        with pytest.raises(GradSingularity):
            aam_grad(batch, protos, AamConfig())
