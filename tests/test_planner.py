import numpy as np
import pytest

from svbackend.errors import ConfigInvalid, DomainTooSmall, InventoryGap, KTooLarge
from svbackend.planner import (
    BatchManifest,
    PlannerConfig,
    UtteranceInventory,
    plan_pass_balanced,
    plan_pass_broad,
    sample_utterances,
)
from svbackend.prototypes import similarity_matrix, top_similar
from svbackend.vecmath import Domain

from conftest import make_embedding, make_protos, make_table


def make_inventory(n_speakers, utts_each=3, domains=None):
    domains = domains or [Domain.VOX] * n_speakers
    return UtteranceInventory(
        utterances=tuple(
            tuple(f"s{j}-u{u}" for u in range(utts_each)) for j in range(n_speakers)
        ),
        domains=tuple(domains),
    )


def make_sim(rng, n, epoch_tag=0):
    return similarity_matrix(make_protos(rng.normal(size=(max(4, n), n))), epoch_tag=epoch_tag)


def make_cfg(batch_size, a, i, u, seed=7):
    return PlannerConfig(
        batch_size=batch_size,
        anchors_per_batch=a,
        imposters_per_anchor=i,
        utts_per_speaker=u,
        seed=seed,
    )


class TestConfig:
    def test_product_constraint(self):
        with pytest.raises(ConfigInvalid):
            make_cfg(128, 3, 8, 1)

    def test_paper_style_shape(self):
        cfg = make_cfg(128, 16, 8, 1)
        assert cfg.anchors_per_batch * cfg.imposters_per_anchor * cfg.utts_per_speaker == 128

    def test_positive_counts(self):
        with pytest.raises(ConfigInvalid):
            make_cfg(0, 0, 1, 1)


class TestSampleUtterances:
    def test_exact_count_returns_all(self):
        inv = make_inventory(2, utts_each=3)
        rng = np.random.Generator(np.random.Philox(1))
        got = sample_utterances(inv, 0, 3, rng)
        assert sorted(got) == ["s0-u0", "s0-u1", "s0-u2"]

    def test_with_replacement_fallback(self):
        inv = UtteranceInventory(utterances=(("only",),), domains=(Domain.VOX,))
        rng = np.random.Generator(np.random.Philox(1))
        assert sample_utterances(inv, 0, 2, rng) == ["only", "only"]

    def test_deterministic_with_seed(self):
        inv = make_inventory(1, utts_each=10)
        a = sample_utterances(inv, 0, 2, np.random.Generator(np.random.Philox(42)))
        b = sample_utterances(inv, 0, 2, np.random.Generator(np.random.Philox(42)))
        assert a == b

    def test_inventory_gap(self):
        inv = make_inventory(2)
        rng = np.random.Generator(np.random.Philox(1))
        with pytest.raises(InventoryGap):
            sample_utterances(inv, 5, 1, rng)


def check_broad_pass(manifest, cfg, sim, inv, n):
    group = cfg.imposters_per_anchor * cfg.utts_per_speaker
    # every batch full
    assert all(len(b) == cfg.batch_size for b in manifest.batches)
    assert manifest.n_batches == -(-n // cfg.anchors_per_batch)
    anchors = manifest.anchor_sequence(cfg)
    # unpadded prefix is a permutation; padding wraps to its start
    assert sorted(anchors[:n]) == list(range(n))
    assert anchors[n:] == anchors[: len(anchors) - n]
    # each anchor group holds exactly the top-similar speakers, in order
    flat = [e for b in manifest.batches for e in b]
    for g, anchor in enumerate(anchors):
        entries = flat[g * group : (g + 1) * group]
        expected = top_similar(sim, anchor, cfg.imposters_per_anchor)
        got_speakers = [entries[k * cfg.utts_per_speaker][1] for k in range(cfg.imposters_per_anchor)]
        assert got_speakers == expected
        for k, spk in enumerate(expected):
            chunk = entries[k * cfg.utts_per_speaker : (k + 1) * cfg.utts_per_speaker]
            assert all(s == spk for _, s in chunk)
            assert all(u in inv.utterances[spk] for u, _ in chunk)


class TestBroad:
    def test_toy_two_batches(self, rng):
        sim = make_sim(rng, 4)
        inv = make_inventory(4)
        cfg = make_cfg(4, 2, 2, 1)
        manifest = plan_pass_broad(cfg, sim, inv)
        assert manifest.n_batches == 2
        anchors = manifest.anchor_sequence(cfg)
        assert sorted(anchors) == [0, 1, 2, 3]

    def test_full_verification_small_configs(self, rng):
        sim_cache = {}
        for a in range(1, 5):
            for i in range(1, 5):
                for u in range(1, 4):
                    n_batch = a * i * u
                    if n_batch > 12:
                        continue
                    for n in (i, i + 1, 7, 12):
                        if n < i or n < 2:
                            continue
                        if n not in sim_cache:
                            sim_cache[n] = make_sim(rng, n)
                        inv = make_inventory(n)
                        cfg = make_cfg(n_batch, a, i, u, seed=11)
                        manifest = plan_pass_broad(cfg, sim_cache[n], inv)
                        check_broad_pass(manifest, cfg, sim_cache[n], inv, n)

    def test_deterministic(self, rng):
        sim = make_sim(rng, 9)
        inv = make_inventory(9)
        cfg = make_cfg(8, 2, 4, 1, seed=3)
        m1 = plan_pass_broad(cfg, sim, inv, pass_id=2)
        m2 = plan_pass_broad(cfg, sim, inv, pass_id=2)
        assert m1 == m2

    def test_pass_id_changes_plan(self, rng):
        sim = make_sim(rng, 9)
        inv = make_inventory(9)
        cfg = make_cfg(8, 2, 4, 1, seed=3)
        m1 = plan_pass_broad(cfg, sim, inv, pass_id=0)
        m2 = plan_pass_broad(cfg, sim, inv, pass_id=1)
        assert m1 != m2
        assert m1.epoch_tag == m2.epoch_tag == sim.epoch_tag

    def test_padding_wraps_permutation(self, rng):
        sim = make_sim(rng, 5)
        inv = make_inventory(5)
        cfg = make_cfg(6, 3, 2, 1)
        manifest = plan_pass_broad(cfg, sim, inv)
        anchors = manifest.anchor_sequence(cfg)
        assert len(anchors) == 6
        assert sorted(anchors[:5]) == [0, 1, 2, 3, 4]
        assert anchors[5] == anchors[0]


PASSES = {
    "broad": plan_pass_broad,
    "balanced": lambda cfg, sim, inv: plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE),
}


@pytest.mark.parametrize("plan", list(PASSES.values()), ids=list(PASSES))
class TestPassGuards:
    """Guards both passes share.  The inventories hold no DEEPMINE speaker,
    so a balanced pass that drew anchors first would raise DomainTooSmall."""

    def test_imposters_exceed_speakers(self, rng, plan):
        sim = make_sim(rng, 3)
        inv = make_inventory(3)
        with pytest.raises(KTooLarge):
            plan(make_cfg(4, 1, 4, 1), sim, inv)

    def test_inventory_gap(self, rng, plan):
        sim = make_sim(rng, 3)
        inv = UtteranceInventory(
            utterances=(("a",), (), ("c",)), domains=(Domain.VOX,) * 3
        )
        with pytest.raises(InventoryGap):
            plan(make_cfg(3, 1, 3, 1), sim, inv)


class TestBalanced:
    def make_domain_inventory(self, n_target, n_other):
        domains = [Domain.DEEPMINE] * n_target + [Domain.VOX] * n_other
        return make_inventory(n_target + n_other, domains=domains)

    def test_anchor_set_size_and_balance(self, rng):
        inv = self.make_domain_inventory(3, 10)
        sim = make_sim(rng, 13)
        cfg = make_cfg(6, 2, 3, 1)
        manifest = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE)
        anchors = manifest.anchor_sequence(cfg)
        core = anchors[:6]  # 2F = 6 anchors before padding
        targets = [a for a in core if a < 3]
        others = [a for a in core if a >= 3]
        assert sorted(targets) == [0, 1, 2]
        assert len(others) == 3 and len(set(others)) == 3
        # exact 0.5 anchor-domain balance by construction
        assert len(targets) / len(core) == 0.5

    def test_fresh_out_of_domain_draw_per_pass(self, rng):
        inv = self.make_domain_inventory(3, 30)
        sim = make_sim(rng, 33)
        cfg = make_cfg(6, 2, 3, 1)
        draws = []
        for pass_id in range(8):
            manifest = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE, pass_id=pass_id)
            core = manifest.anchor_sequence(cfg)[:6]
            draws.append(frozenset(a for a in core if a >= 3))
        assert len(set(draws)) > 1

    def test_monte_carlo_out_of_domain_frequency(self, rng):
        # toy 3 target / 10 out-of-domain: over many passes each
        # out-of-domain speaker anchors in ~3/10 of passes
        inv = self.make_domain_inventory(3, 10)
        sim = make_sim(rng, 13)
        cfg = make_cfg(6, 2, 3, 1, seed=5)
        counts = np.zeros(13)
        n_passes = 1000
        for pass_id in range(n_passes):
            manifest = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE, pass_id=pass_id)
            for a in set(manifest.anchor_sequence(cfg)[:6]):
                counts[a] += 1
        freq = counts[3:] / n_passes
        assert np.all(np.abs(freq - 0.3) <= 0.03)

    def test_imposters_stay_global(self, rng):
        inv = self.make_domain_inventory(3, 10)
        sim = make_sim(rng, 13)
        cfg = make_cfg(8, 2, 4, 1)
        manifest = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE)
        anchors = manifest.anchor_sequence(cfg)
        flat = [e for b in manifest.batches for e in b]
        for g, anchor in enumerate(anchors):
            group = flat[g * 4 : (g + 1) * 4]
            assert [s for _, s in group] == top_similar(sim, anchor, 4)

    def test_domain_too_small(self, rng):
        inv = self.make_domain_inventory(5, 3)
        sim = make_sim(rng, 8)
        with pytest.raises(DomainTooSmall):
            plan_pass_balanced(make_cfg(5, 1, 5, 1), sim, inv, Domain.DEEPMINE)
        with pytest.raises(DomainTooSmall):
            plan_pass_balanced(make_cfg(5, 1, 5, 1), sim, inv, Domain.LIBRI)

    def test_deterministic(self, rng):
        inv = self.make_domain_inventory(4, 12)
        sim = make_sim(rng, 16)
        cfg = make_cfg(8, 4, 2, 1, seed=9)
        m1 = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE, pass_id=3)
        m2 = plan_pass_balanced(cfg, sim, inv, Domain.DEEPMINE, pass_id=3)
        assert m1 == m2


class TestInventoryFromEmbeddings:
    def test_grouping_and_gap(self, rng):
        protos = make_protos(rng.normal(size=(4, 3)))
        embs = [
            make_embedding("u0", "spk000", rng.normal(size=4)),
            make_embedding("u1", "spk001", rng.normal(size=4)),
            make_embedding("u2", "spk000", rng.normal(size=4)),
        ]
        with pytest.raises(InventoryGap):
            UtteranceInventory.from_embeddings(make_table(embs), protos)
        embs.append(make_embedding("u3", "spk002", rng.normal(size=4)))
        inv = UtteranceInventory.from_embeddings(make_table(embs), protos)
        assert inv.utterances[0] == ("u0", "u2")
        assert inv.utterances[2] == ("u3",)


class TestManifestType:
    def test_anchor_sequence_roundtrip(self, rng):
        sim = make_sim(rng, 6)
        inv = make_inventory(6)
        cfg = make_cfg(6, 3, 2, 1)
        manifest = plan_pass_broad(cfg, sim, inv)
        rebuilt = BatchManifest(
            batches=manifest.batches, pass_id=manifest.pass_id, epoch_tag=manifest.epoch_tag
        )
        assert rebuilt == manifest
