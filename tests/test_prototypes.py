import numpy as np
import pytest

from svbackend.errors import IndexOutOfRange, KTooLarge, NormUnderflow, ValidationError
from svbackend.prototypes import CHECK_BLOCK_ROWS, SimilarityMatrix, similarity_matrix, top_similar
from svbackend.vecmath import cosine, l2_normalize

from conftest import make_protos
from oracles import similarity_matrix_full


class TestPrototypeMatrix:
    def test_rejects_duplicate_ids(self):
        from svbackend.prototypes import PrototypeMatrix, SpeakerInfo
        from svbackend.vecmath import Domain, Language

        speakers = (
            SpeakerInfo("a", Domain.VOX, Language.UNKNOWN),
            SpeakerInfo("a", Domain.VOX, Language.UNKNOWN),
        )
        with pytest.raises(ValidationError):
            PrototypeMatrix(w=np.eye(2), speakers=speakers)

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
    def test_equals_full_row_kernel(self, rng):
        # only the upper triangle is computed; the mirror must keep every bit
        for d, n in ((256, 150), (7, 33), (3, 2)):
            w = rng.normal(size=(d, n))
            w[:, 1] = w[:, 0] * 3.0  # a duplicate direction, clipped at 1
            p = make_protos(w)
            assert np.array_equal(similarity_matrix(p).s, similarity_matrix_full(p))

    def test_orthogonal_prototypes(self):
        s = similarity_matrix(make_protos(np.eye(2)))
        np.testing.assert_array_equal(s.s, np.eye(2))

    def test_diagonal_is_one(self, rng):
        p = make_protos(rng.normal(size=(8, 5)))
        s = similarity_matrix(p)
        np.testing.assert_allclose(np.diagonal(s.s), 1.0, atol=1e-9)

    def test_matches_pairwise_cosine_exactly(self, rng):
        # oracle: elementwise cosine over all pairs of raw columns
        for _ in range(20):
            d = int(rng.integers(2, 40))
            n = int(rng.integers(2, 8))
            p = make_protos(rng.normal(size=(d, n)) * float(rng.uniform(0.1, 10)))
            s = similarity_matrix(p)
            for i in range(n):
                for j in range(n):
                    assert s.s[i, j] == cosine(p.w[:, i], p.w[:, j])

    def test_column_rescaling_invariance(self, rng):
        w = rng.normal(size=(7, 5))
        s1 = similarity_matrix(make_protos(w))
        w2 = w.copy()
        w2[:, 2] *= 37.5
        s2 = similarity_matrix(make_protos(w2))
        np.testing.assert_allclose(s1.s, s2.s, atol=1e-9)

    def test_permutation_consistency(self, rng):
        w = rng.normal(size=(6, 6))
        s = similarity_matrix(make_protos(w)).s
        perm = rng.permutation(6)
        s_perm = similarity_matrix(make_protos(w[:, perm])).s
        for a in range(6):
            for b in range(6):
                assert s_perm[a, b] == s[perm[a], perm[b]]

    def test_epoch_tag_carried(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(4, 3))), epoch_tag=7)
        assert s.epoch_tag == 7

    def test_float32_storage_option(self, rng):
        p = make_protos(rng.normal(size=(16, 6)))
        s32 = similarity_matrix(p, dtype=np.float32)
        s64 = similarity_matrix(p)
        assert s32.s.dtype == np.float32
        np.testing.assert_allclose(s32.s, s64.s, atol=1e-6)

    def test_duplicate_prototypes_stay_in_range(self, rng):
        col = rng.normal(size=9)
        w = np.stack([col, col, rng.normal(size=9)], axis=1)
        s = similarity_matrix(make_protos(w))
        assert s.s.max() <= 1.0 and s.s.min() >= -1.0

    def test_validation_rejects_asymmetry(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValidationError):
            SimilarityMatrix(s=bad)
        # the check runs in row blocks: asymmetry in a later block, and
        # below a block's diagonal, is found as well
        n = 2 * CHECK_BLOCK_ROWS + 7
        for i, j in ((n - 1, 3), (3, n - 1), (CHECK_BLOCK_ROWS + 1, CHECK_BLOCK_ROWS + 5)):
            for dtype, eps in ((np.float64, 1e-8), (np.float32, 1e-5)):
                s = np.eye(n, dtype=dtype)
                s[i, j] = eps
                with pytest.raises(ValidationError):
                    SimilarityMatrix(s=s)
                s[j, i] = eps
                SimilarityMatrix(s=s)

    def test_storage_is_private(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(5, 4)))).s
        assert not s.flags.writeable
        caller = np.eye(3)
        held = SimilarityMatrix(s=caller)
        caller[0, 1] = caller[1, 0] = 0.5
        assert held.s[0, 1] == 0.0


class TestTopSimilar:
    def test_k1_is_self(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(5, 4))))
        for i in range(4):
            assert top_similar(s, i, 1) == [i]

    def test_fixture_row(self):
        s = SimilarityMatrix(
            s=np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        )
        assert top_similar(s, 0, 2) == [0, 1]

    def test_tie_break_ascending_index(self):
        n = 4
        s_arr = np.full((n, n), 0.5)
        np.fill_diagonal(s_arr, 1.0)
        s = SimilarityMatrix(s=s_arr)
        assert top_similar(s, 1, 3) == [1, 0, 2]
        assert top_similar(s, 1, 4) == [1, 0, 2, 3]

    def test_brute_force_ranking(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            s = similarity_matrix(make_protos(rng.normal(size=(12, n))))
            i = int(rng.integers(0, n))
            k = int(rng.integers(1, n + 1))
            got = top_similar(s, i, k)
            expected = [i] + sorted(
                (j for j in range(n) if j != i), key=lambda j: (-s.s[i, j], j)
            )[: k - 1]
            assert got == expected

    def test_full_k_is_permutation(self, rng):
        n = 7
        s = similarity_matrix(make_protos(rng.normal(size=(9, n))))
        for i in range(n):
            out = top_similar(s, i, n)
            assert sorted(out) == list(range(n))
            assert len(set(out)) == n

    def test_errors(self, rng):
        s = similarity_matrix(make_protos(rng.normal(size=(3, 3))))
        with pytest.raises(IndexOutOfRange):
            top_similar(s, 5, 1)
        with pytest.raises(KTooLarge):
            top_similar(s, 0, 4)
