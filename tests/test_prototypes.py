import tracemalloc

import numpy as np
import pytest

from svbackend.errors import IndexOutOfRange, KTooLarge, NormUnderflow, ParamInvalid, ValidationError
from svbackend.planner import similarity_matrix, top_similar
from svbackend.vecmath import PAIR_BLOCK, TOP_BLOCK_ROWS, cosine

from conftest import make_protos
from oracles import l2_normalize, similarity_matrix_full, top_similar_full


class TestPrototypeMatrix:
    def test_rejects_duplicate_ids(self):
        from svbackend.vecmath import PrototypeMatrix
        from svbackend.vecmath import Domain, Language

        with pytest.raises(ValidationError):
            PrototypeMatrix(("a", "a"), (Domain.VOX,) * 2, (Language.UNKNOWN,) * 2, np.eye(2))

    def test_storage_rule_and_w_view(self, rng):
        from svbackend.vecmath import PrototypeMatrix
        from svbackend.vecmath import Domain, Language

        cols = (("a", "b", "c"), (Domain.VOX,) * 3, (Language.UNKNOWN,) * 3)
        given = rng.normal(size=(3, 4))
        p = PrototypeMatrix(*cols, given)
        assert p.vectors is not given and np.array_equal(p.vectors, given)
        assert p.vectors.flags.c_contiguous and not p.vectors.flags.writeable
        kept = PrototypeMatrix(*cols, p.vectors)  # read-only and C-contiguous: no copy
        assert kept.vectors is p.vectors
        assert kept.w.shape == (4, 3) and np.shares_memory(kept.w, p.vectors)
        assert np.array_equal(kept.w, given.T) and (kept.dim, kept.count) == (4, 3)
        transposed = PrototypeMatrix(*cols, np.ascontiguousarray(given.T).T)
        assert transposed.vectors.flags.c_contiguous
        assert np.array_equal(transposed.unit_rows, p.unit_rows)

    def test_rejects_a_short_column(self):
        from svbackend.vecmath import PrototypeMatrix
        from svbackend.vecmath import Domain, Language

        with pytest.raises(ValidationError, match="^2 speaker records for 3 columns$"):
            PrototypeMatrix(("a", "b", "c"), (Domain.VOX,) * 3, (Language.UNKNOWN,) * 2, np.eye(3))

    def test_rejects_single_speaker(self):
        with pytest.raises(ValidationError):
            make_protos(np.ones((3, 1)))

    def test_rejects_degenerate_column(self):
        w = np.eye(3)
        w[:, 1] = 0.0
        with pytest.raises(NormUnderflow):
            make_protos(w)

    def test_unit_rows_are_normalized_columns(self, rng):
        w = rng.normal(size=(6, 4)) * 3.0
        p = make_protos(w)
        for j in range(4):
            np.testing.assert_allclose(
                p.unit_rows[j], w[:, j] / np.linalg.norm(w[:, j]), atol=1e-12
            )

    def test_unit_rows_bit_identical_to_l2_normalize(self, rng):
        w = rng.normal(size=(37, 9)) * rng.uniform(1e-3, 1e3, size=9)
        p = make_protos(w)
        assert np.array_equal(p.unit_rows, np.stack([l2_normalize(w[:, j]) for j in range(9)]))


class TestSimilarityMatrix:
    """``similarity_matrix`` returns an O(1) snapshot; the similarities are
    checked through the rankings ``top_similar`` computes from it."""

    def test_equals_full_row_kernel(self, rng):
        # the batched ranking equals a full-row sort of every row of S
        for d, n in ((256, 150), (7, 33), (3, 2)):
            w = rng.normal(size=(d, n))
            w[:, 1] = w[:, 0] * 3.0  # a duplicate direction, clipped at 1
            p = make_protos(w)
            sf = similarity_matrix_full(p)
            for k in sorted({1, 2, min(8, n), n}):
                got = top_similar(similarity_matrix(p), range(n), k)
                assert got.tolist() == [top_similar_full(sf, a, k) for a in range(n)]

    def test_orthogonal_prototypes(self):
        # all cosines 0: ties broken by ascending index
        s = similarity_matrix(make_protos(np.eye(3)))
        assert top_similar(s, range(3), 3).tolist() == [[0, 1, 2], [1, 0, 2], [2, 0, 1]]

    def test_diagonal_is_one(self, rng):
        # self-cosines are 1, and the anchor leads even against a duplicate
        w = rng.normal(size=(8, 5))
        w[:, 3] = w[:, 1] * 2.0
        p = make_protos(w)
        np.testing.assert_allclose(np.sum(p.unit_rows * p.unit_rows, axis=1), 1.0, atol=1e-9)
        top = top_similar(similarity_matrix(p), range(5), 2)
        assert top[:, 0].tolist() == list(range(5)) and top[1, 1] == 3 and top[3, 1] == 1

    def test_matches_pairwise_cosine_exactly(self, rng):
        # the ranking is by scalar cosine values, bit for bit
        for _ in range(20):
            d = int(rng.integers(2, 40))
            n = int(rng.integers(2, 8))
            p = make_protos(rng.normal(size=(d, n)) * float(rng.uniform(0.1, 10)))
            got = top_similar(similarity_matrix(p), range(n), n)
            for i in range(n):
                cos = {j: cosine(p.w[:, i], p.w[:, j]) for j in range(n) if j != i}
                assert got[i].tolist() == [i] + sorted(cos, key=lambda j: (-cos[j], j))
            sf = similarity_matrix_full(p)
            for i in range(n):
                for j in range(n):
                    assert sf[i, j] == cosine(p.w[:, i], p.w[:, j])

    def test_column_rescaling_invariance(self, rng):
        w = rng.normal(size=(7, 5))
        w2 = w.copy()
        w2[:, 2] *= 37.5
        np.testing.assert_allclose(make_protos(w).unit_rows, make_protos(w2).unit_rows, atol=1e-15)

    def test_permutation_consistency(self, rng):
        w = rng.normal(size=(6, 6))
        top = top_similar(similarity_matrix(make_protos(w)), range(6), 6)
        perm = rng.permutation(6)
        top_perm = top_similar(similarity_matrix(make_protos(w[:, perm])), range(6), 6)
        assert np.array_equal(perm[top_perm], top[perm])

    def test_epoch_tag_carried(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(4, 3))), epoch_tag=7)
        assert s.epoch_tag == 7

    def test_duplicate_prototypes_stay_in_range(self, rng):
        col = rng.normal(size=9)
        p = make_protos(np.stack([col, col * 5.0, rng.normal(size=9)], axis=1))
        sf = similarity_matrix_full(p)
        assert sf.max() <= 1.0 and sf.min() >= -1.0
        assert top_similar(similarity_matrix(p), [0, 1], 3).tolist() == [[0, 1, 2], [1, 0, 2]]

    def test_storage_is_private(self, rng):
        # the snapshot holds the prototypes, whose unit rows are a read-only
        # copy; no N x N array is stored
        w = rng.normal(size=(5, 4))
        p = make_protos(w)
        sim = similarity_matrix(p)
        assert sim._fields == ("protos", "epoch_tag") and sim.protos is p
        assert not p.unit_rows.flags.writeable
        before = top_similar(sim, range(4), 4)
        w[:, 0] = w[:, 1]
        assert np.array_equal(top_similar(sim, range(4), 4), before)


def equal_overlap_protos(n):
    """n prototypes with pairwise cosines that tie exactly: column j holds
    1 at the C(n, 2) coordinates of the pairs that contain j, so every
    pair shares one coordinate and every computed cosine is the same one
    product fl(1/sqrt(n-1))**2."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    w = np.zeros((len(pairs), n))
    for c, (i, j) in enumerate(pairs):
        w[c, i] = w[c, j] = 1.0
    return make_protos(w)


class TestTopSimilar:
    def test_k1_is_self(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(5, 4))))
        got = top_similar(s, range(4), 1)
        assert got.shape == (4, 1) and got.dtype == np.int64
        assert got[:, 0].tolist() == [0, 1, 2, 3]

    def test_fixture_row(self):
        # unit vectors at 0, 25 and 80 degrees: speaker 1 is closer to 0
        deg = np.radians([0.0, 25.0, 80.0])
        s = similarity_matrix(make_protos(np.stack([np.cos(deg), np.sin(deg)])))
        assert top_similar(s, [0], 2).tolist() == [[0, 1]]
        assert top_similar(s, [2, 1], 3).tolist() == [[2, 1, 0], [1, 0, 2]]

    def test_tie_break_ascending_index(self):
        p = equal_overlap_protos(4)
        sf = similarity_matrix_full(p)
        assert len(set(sf[~np.eye(4, dtype=bool)])) == 1  # an exact tie
        s = similarity_matrix(p)
        assert top_similar(s, [1], 3).tolist() == [[1, 0, 2]]
        assert top_similar(s, [1], 4).tolist() == [[1, 0, 2, 3]]

    def test_brute_force_ranking(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            p = make_protos(rng.normal(size=(12, n)))
            sf = similarity_matrix_full(p)
            i = int(rng.integers(0, n))
            k = int(rng.integers(1, n + 1))
            got = top_similar(similarity_matrix(p), [i], k)[0].tolist()
            expected = [i] + sorted((j for j in range(n) if j != i), key=lambda j: (-sf[i, j], j))[
                : k - 1
            ]
            assert got == expected

    def test_full_k_is_permutation(self, rng):
        n = 7
        s = similarity_matrix(make_protos(rng.normal(size=(9, n))))
        for row in top_similar(s, range(n), n):
            assert sorted(row.tolist()) == list(range(n))

    def test_no_anchors(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(3, 3))))
        assert top_similar(s, [], 2).shape == (0, 2)

    def test_errors(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(3, 3))))
        with pytest.raises(IndexOutOfRange):
            top_similar(s, [0, 5], 1)
        with pytest.raises(IndexOutOfRange):
            top_similar(s, [-1], 1)
        with pytest.raises(ParamInvalid):
            top_similar(s, [0], 0)
        with pytest.raises(KTooLarge):
            top_similar(s, [0], 4)
        # order: a bad anchor first, then k < 1, then k > N
        with pytest.raises(IndexOutOfRange):
            top_similar(s, [3], 0)
        with pytest.raises(ParamInvalid):
            top_similar(s, [], 0)


class TestTopSimilarAgainstFullRows:
    """The batched filter + exact re-rank against the full-row lexsort of
    ``oracles.top_similar_full``, index list for index list."""

    @staticmethod
    def check(protos, anchors, k):
        sf = similarity_matrix_full(protos)
        got = top_similar(similarity_matrix(protos), anchors, k)
        assert got.shape == (len(anchors), k)
        assert got.tolist() == [top_similar_full(sf, a, k) for a in anchors]

    def test_exact_ties_at_the_kth_boundary(self, rng):
        # every off-diagonal cosine is the same number; each k cuts a tie
        p = equal_overlap_protos(9)
        for k in range(1, 10):
            self.check(p, list(range(9)), k)
        # tie groups: anchor e0; three speakers at one cosine, five at a
        # lower one, the rest negative; k = 6 cuts the group of five
        d, n = 20, 16
        w = np.zeros((d, n))
        w[0, 0] = 1.0
        for j in range(1, n):
            w[0, j] = 3.0 if j <= 3 else (1.0 if j <= 8 else -1.0)
            w[j, j] = 1.0
        w[:, 9:] += rng.normal(size=(d, n - 9)) * (np.arange(d) > 0)[:, None]
        sf = similarity_matrix_full(make_protos(w))
        assert len(set(sf[0, 4:9])) == 1 and sf[0, 3] > sf[0, 4]
        for k in (4, 5, 6, 9, 10):
            self.check(make_protos(w), list(range(n)), k)

    def test_duplicate_prototypes_clip_at_one(self, rng):
        base = rng.normal(size=24)
        scales = [1.0, 3.0, 0.1, 7.3, 1e-3, 2.5]
        w = np.stack([base * c for c in scales] + list(rng.normal(size=(6, 24))), axis=1)
        p = make_protos(w)
        sf = similarity_matrix_full(p)
        assert sf.max() == 1.0 and np.sum(sf[:6, :6] == 1.0) > 6  # clipping engaged
        for k in (2, 3, 5, 6, 7, 12):
            self.check(p, list(range(12)), k)

    def test_near_ties_inside_the_window(self, rng):
        # copies of one prototype moved by 1-2 ulps in a few coordinates:
        # their cosines with the anchors differ in the last bits only
        d, copies = 64, 40
        y = rng.normal(size=d)
        cols = [rng.normal(size=d) for _ in range(4)]
        for _ in range(copies):
            v = y.copy()
            for c in rng.choice(d, size=3, replace=False):
                for _ in range(int(rng.integers(1, 3))):
                    v[c] = np.nextafter(v[c], np.inf if rng.random() < 0.5 else -np.inf)
            cols.append(v)
        p = make_protos(np.stack(cols, axis=1))
        sf = similarity_matrix_full(p)
        near = sf[:4, 4:]
        window = 2 * 8 * d * np.finfo(np.float64).eps
        assert all(len(set(row)) > 1 for row in near)  # not all exact ties
        assert np.all(near.max(axis=1) - near.min(axis=1) < window)
        for k in (2, 5, 11, 20, 30, 44):
            self.check(p, list(range(len(cols))), k)

    def test_dimension_one(self, rng):
        p = make_protos(rng.choice([-2.0, -0.5, 1.0, 3.0], size=(1, 11)))
        for k in (1, 2, 5, 11):
            self.check(p, list(range(11)), k)

    def test_small_integer_prototypes(self, rng):
        # equal cosines from different columns, and near-equal ones whose
        # normalizations round differently
        for _ in range(10):
            w = rng.integers(-2, 3, size=(3, 30)).astype(float)
            w[0, ~w.any(axis=0)] = 1.0
            p = make_protos(w)
            for k in (1, 3, 7, 30):
                self.check(p, list(range(30)), k)

    def test_repeated_anchors(self, rng):
        p = make_protos(rng.normal(size=(16, 20)))
        self.check(p, [3, 3, 0, 3, 19, 0, 3], 5)

    def test_anchors_span_several_blocks(self, rng):
        p = make_protos(rng.normal(size=(32, 150)))
        anchors = rng.integers(0, 150, size=3 * TOP_BLOCK_ROWS + 5).tolist()
        for k in (1, 8, 150):
            self.check(p, anchors, k)

    @staticmethod
    def tie_group_protos(rng, d=256):
        """300 identical prototypes, then 20 random ones: an anchor in the
        group ties with the other 299, so a block of such anchors holds
        TOP_BLOCK_ROWS * 299 candidate pairs."""
        tied = np.repeat(rng.normal(size=(d, 1)), 300, axis=1)
        return make_protos(np.concatenate([tied, rng.normal(size=(d, 20))], axis=1))

    def test_tie_group_spans_several_pair_chunks(self, rng):
        p = self.tie_group_protos(rng)
        assert TOP_BLOCK_ROWS * 299 > 8 * PAIR_BLOCK
        anchors = list(range(0, 320, 2)) + [299, 300, 0]
        for k in (2, 8, 299, 300, 301, 320):
            self.check(p, anchors, k)

    def test_tie_group_temporaries_stay_chunked(self, rng):
        p = self.tie_group_protos(rng)
        sim = similarity_matrix(p)
        tracemalloc.start()
        try:
            top_similar(sim, range(TOP_BLOCK_ROWS), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (pairs, D) float64 product over the whole block would be 39 MB;
        # the chunked kernel keeps a few per-pair columns (about 1.3 MB)
        pairs = TOP_BLOCK_ROWS * 299
        assert peak < pairs * p.dim * 8 / 8
