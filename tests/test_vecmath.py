import math
import warnings

import numpy as np
import pytest

from svbackend.aam import LabeledBatch
from svbackend.errors import (
    DegenerateAverage,
    DimensionMismatch,
    EmptySet,
    NormOverflow,
    NormUnderflow,
    ValidationError,
)
from svbackend.lid import GaussianBackend, adapt_english_mean
from svbackend.scores import ScoreSet
from svbackend.scoring import Cohort
from svbackend.synth import SyntheticCorpus
from svbackend.vecmath import (
    GROUP_BLOCK,
    PAIR_BLOCK,
    ROW_BLOCK,
    Domain,
    EmbeddingTable,
    Language,
    average_embedding,
    check_row_norms,
    cosine,
    frozen_rows,
    group_means,
    pair_cosines,
    row_norms,
    unit_rows,
)

from conftest import make_embedding, make_table
from oracles import average_vectors, l2_normalize, mean_of_units, scalar_cosine


class TestL2Normalize:
    """L2 normalization as :func:`unit_rows`, the package's one normalizer,
    does it."""

    def test_three_four_five(self):
        np.testing.assert_allclose(unit_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_is_fixed_point(self, rng):
        u = rng.normal(size=(50, 8))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        np.testing.assert_allclose(unit_rows(u), u, atol=1e-9)

    def test_zero_vector_underflows(self):
        with pytest.raises(NormUnderflow):
            unit_rows([[0.0, 0.0]])

    def test_scale_invariance(self, rng):
        v = rng.normal(size=(100, 12))
        c = rng.uniform(1e-6, 1e6, size=(100, 1))
        np.testing.assert_allclose(unit_rows(c * v), unit_rows(v), atol=1e-9)

    def test_result_has_unit_norm(self, rng):
        for _ in range(100):
            v = rng.normal(size=(3, int(rng.integers(2, 40))))
            np.testing.assert_allclose(np.linalg.norm(unit_rows(v), axis=1), 1.0, atol=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            unit_rows([[1.0, float("nan")]])


class TestCosine:
    def test_self_similarity(self, rng):
        v = rng.normal(size=16)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_45_degrees(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_symmetry_exact(self, rng):
        for _ in range(100):
            a = rng.normal(size=24)
            b = rng.normal(size=24)
            assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            a, b = rng.normal(size=10), rng.normal(size=10)
            c1, c2 = rng.uniform(1e-3, 1e3, size=2)
            assert cosine(c1 * a, c2 * b) == pytest.approx(cosine(a, b), abs=1e-9)

    def test_bounded(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 30))
            val = cosine(rng.normal(size=d), rng.normal(size=d))
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_degenerate_input(self):
        with pytest.raises(NormUnderflow):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_equals_scalar_oracle(self, rng):
        # parallel pairs included: their quotient can overshoot 1 before the clip
        for d in (1, 2, 9, 64, 300):
            a, b = rng.normal(size=(2, d)) * rng.uniform(1e-3, 1e3, size=(2, 1))
            for x, y in ((a, b), (a, 3.0 * a), (b, -b)):
                assert cosine(x, y) == scalar_cosine(x, y)


class TestAverageEmbedding:
    def test_single_member_is_normalized(self):
        np.testing.assert_allclose(average_embedding([[3.0, 4.0]]), [0.6, 0.8], atol=1e-15)

    def test_two_orthogonal_members(self):
        np.testing.assert_allclose(
            average_embedding([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5], atol=1e-15
        )

    def test_cancellation_degenerates(self):
        with pytest.raises(DegenerateAverage):
            average_embedding([[1.0, 0.0], [-1.0, 0.0]])

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            average_embedding([])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            average_embedding([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    def test_permutation_invariance_exact(self, rng):
        vecs = rng.normal(size=(9, 7))
        ref = average_embedding(vecs)
        for _ in range(20):
            assert np.array_equal(average_embedding(vecs[rng.permutation(len(vecs))]), ref)

    def test_not_renormalized(self, rng):
        vecs = rng.normal(size=(4, 5))
        mean = average_embedding(vecs)
        units = np.stack([l2_normalize(v) for v in vecs])
        np.testing.assert_allclose(mean, units.mean(axis=0), atol=1e-12)
        assert abs(np.linalg.norm(mean) - 1.0) > 1e-3  # stays an un-normalized mean

    def test_equals_scalar_oracle(self, rng):
        for n in (1, 2, 5, 9):
            vecs = rng.normal(size=(n, 33)) * rng.uniform(1e-3, 1e3, size=(n, 1))
            assert np.array_equal(average_embedding(vecs), average_vectors(list(vecs)))


def oracle_means(x, norms, groups):
    """:func:`oracles.mean_of_units` of each group's unit rows x[r] / norms[r]."""
    means = [mean_of_units(x[list(g)] / norms[list(g), None]) for g in groups]
    return np.reshape(means, (len(groups), x.shape[1]))


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGroupMeans:
    """vecmath.group_means against one math.fsum per column and group."""

    def check(self, x, groups, norms=None):
        norms = row_norms(x) if norms is None else norms
        got = group_means(x, norms, groups)
        assert same_bits(got, oracle_means(x, norms, groups))
        return got

    def test_groups_of_one_two_and_hundreds(self, rng):
        x = rng.normal(size=(700, 32)) * rng.uniform(1e-3, 1e3, size=(700, 1))
        for groups in ([[5]], [[3, 9]], [range(400)], [range(1, 700, 2), [0], [2, 4]]):
            self.check(x, groups)
        # a one-row group is its unit row
        assert same_bits(group_means(x, row_norms(x), [[7]])[0], unit_rows(x[7:8])[0])

    def test_many_groups_of_mixed_sizes(self, rng):
        sizes = rng.integers(1, 40, size=5 * GROUP_BLOCK + 3)
        rows = rng.permutation(int(sizes.sum()))  # each group's rows scattered
        groups = np.split(rows, np.cumsum(sizes)[:-1])
        self.check(rng.normal(size=(len(rows), 24)), groups)

    def test_benchmark_dimension(self, rng):
        groups = [range(8 * g, 8 * g + 8) for g in range(3 * GROUP_BLOCK)]
        self.check(rng.normal(size=(8 * len(groups), 256)), groups)

    def test_constructed_cancellations(self, rng):
        # column 0 keeps every mean's norm above NORM_EPS; the others mix
        # magnitudes 1e-12..1, exact negatives and values that nearly cancel
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x = rng.choice([-1.0, 1.0], size=(n, 16)) * 10.0 ** rng.uniform(-12, 0, size=(n, 16))
            half = n // 2
            x[half : 2 * half] = -x[:half] * rng.choice([1.0, 1.0 + 2**-52], size=(half, 16))
            x[:, 0] = 1.0
            self.check(x[rng.permutation(n)], [range(n), range(0, n, 3)], np.ones(n))

    def test_half_ulp_ties(self, rng):
        tie = 2.0**-53  # half an ulp of 1.0
        x = np.array(
            [
                [1.0, 1.0 + 2**-52, 1.0, 0.5],
                [tie, tie, -tie, tie / 2],
                [0.0, 0.0, 3 * tie, tie / 4],
            ]
        )
        means = self.check(x, [range(3)], np.ones(3))
        # ties to even: 1 + 2**-53 -> 1; 1 + 3 * 2**-53 -> 1 + 2**-51
        assert means[0, :3].tolist() == [1.0 / 3, (1.0 + 2**-51) / 3, (1.0 + 2**-52) / 3]
        # hundreds of rows on a grid of half ulps, so many partial sums tie
        x = rng.integers(-4, 5, size=(500, 8)) * tie
        x[:, 0] += rng.choice([0.5, 1.0, 2.0], size=500)
        self.check(x, [range(500), range(0, 500, 7), range(3, 400)], np.ones(500))

    def test_negative_zero_and_subnormals(self):
        tiny = 5e-324
        x = np.array(
            [
                [1.0, -0.0, -0.0, 3 * tiny, -1e-310],
                [1.0, -0.0, 0.0, -tiny, 1e-310 + tiny],
                [1.0, -0.0, -0.0, tiny, -2 * tiny],
            ]
        )
        means = self.check(x, [range(3), [1], [0]], np.ones(3))
        assert same_bits(means[:, 1], np.zeros(3))  # fsum of -0.0s is +0.0
        assert not np.signbit(means[0, 2])

    def test_row_order_does_not_matter(self, rng):
        x = rng.normal(size=(60, 16)) * 10.0 ** rng.uniform(-6, 6, size=(60, 1))
        groups = [range(0, 60, 2), range(1, 60, 2), range(10, 50)]
        ref = self.check(x, groups)
        for _ in range(10):
            shuffled = [rng.permutation(list(g)) for g in groups]
            assert same_bits(group_means(x, row_norms(x), shuffled), ref)

    def test_column_on_the_fsum_fallback(self):
        # column 1: s + c = 1 + 2**-53, a tie that rounds to 1.0, but the
        # exact sum 1 + 2**-53 + 2**-106 rounds up: the second-level error
        # of the last step is 2**-106, so only math.fsum gets this column
        x = np.array([[1.0, 1.0], [0.0, 2.0**-53], [0.0, 2.0**-106]])
        means = self.check(x, [range(3)], np.ones(3))
        assert means[0, 1] == (1.0 + 2**-52) / 3

    def test_first_defect_in_group_order(self, rng):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateAverage, match="member vectors cancel"):
            group_means(x, np.ones(3), [[2], [0, 1], []])
        with pytest.raises(EmptySet, match="cannot average an empty set"):
            group_means(x, np.ones(3), [[2], [], [0, 1]])
        assert group_means(x, np.ones(3), []).shape == (0, 2)


class TestUnitRows:
    def test_bit_identical_to_l2_normalize(self, rng):
        for dim in (1, 2, 7, 64, 256, 1000):
            x = rng.normal(size=(13, dim)) * rng.uniform(1e-6, 1e6, size=(13, 1))
            expected = np.stack([l2_normalize(v) for v in x])
            assert np.array_equal(unit_rows(x, dim), expected)
            assert np.array_equal(unit_rows(np.asfortranarray(x)), expected)
            assert np.array_equal(unit_rows(list(x), dim), expected)

    def test_zero_row_underflows(self, rng):
        x = rng.normal(size=(5, 4))
        x[3] = 0.0
        with pytest.raises(NormUnderflow):
            unit_rows(x)

    def test_check_row_norms_agrees(self, rng):
        # the check raises when unit_rows raises, with its message, also at
        # the block boundaries of row_norms (256 = 4 * ROW_BLOCK)
        check_row_norms(np.empty((0, 3)))
        x = rng.normal(size=(700, 5))
        check_row_norms(x)
        for rows, scale in (([3], 0.0), ([600], 0.0), ([255, 256], 1e-13), ([10, 650], 0.0)):
            y = x.copy()
            y[rows] *= scale
            y[rows[-1]] *= 0.5
            with pytest.raises(NormUnderflow) as want:
                unit_rows(y)
            with pytest.raises(NormUnderflow) as got:
                check_row_norms(y)
            assert str(got.value) == str(want.value)

    def test_shapes(self):
        assert unit_rows([], 6).shape == (0, 6)
        with pytest.raises(DimensionMismatch):
            unit_rows([[1.0, 2.0]], 3)
        with pytest.raises(DimensionMismatch):
            unit_rows([1.0, 2.0])
        with pytest.raises(ValidationError):
            unit_rows([[1.0, math.nan]])


class TestRowNorms:
    """The one row-norm kernel against the whole-array sum it blocks."""

    @pytest.mark.parametrize("n", [0, 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
    def test_equals_whole_array_sum(self, rng, n):
        x = rng.normal(size=(n, 256)) * rng.uniform(1e-6, 1e6, size=(n, 1))
        got = row_norms(x)
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.array_equal(got, np.sqrt(np.sum(x * x, axis=1)))

    def test_transposed_input(self, rng):
        w = rng.normal(size=(256, 3 * ROW_BLOCK + 5))  # D x N, as prototype columns
        assert not w.T.flags.c_contiguous
        rows = np.ascontiguousarray(w.T)
        assert np.array_equal(row_norms(w.T), np.sqrt(np.sum(rows * rows, axis=1)))


class TestNormOverflow:
    """A finite row whose norm is beyond the float64 range is refused, with
    no overflow warning on the way."""

    @pytest.mark.parametrize("row", [[1e200, 1e200], [1e154, 1e154, 1e154], [1e308, -1e308]])
    def test_refused(self, row):
        x = np.vstack([np.ones((ROW_BLOCK + 6, len(row))), [row]])  # in the second block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert row_norms(x)[-1] == math.inf
            for check in (check_row_norms, unit_rows):
                with pytest.raises(NormOverflow, match="^vector norm beyond the float64 range$"):
                    check(x)

    def test_underflow_wins(self):
        x = np.array([[1e200, 1e200], [0.0, 0.0]])
        with pytest.raises(NormUnderflow):
            check_row_norms(x)

    def test_largest_finite_norms_kept(self):
        x = np.array([[1e153, 1e153], [1.3e154, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(check_row_norms(x), np.sqrt(np.sum(x * x, axis=1)))


def _backend(**arrays):
    fields = dict(
        mu_farsi=np.array([1.0, 0.0]),
        mu_usa=np.array([0.0, 1.0]),
        mu_english_effective=np.array([0.0, 1.0]),
        shared_cov=np.eye(2),
    )
    return GaussianBackend(**{**fields, **arrays})


KEYS = (("m", "u"), ("m", "v"))

#: record field -> (the field of a record built with ``value`` there, value)
STORED = {
    "ScoreSet.scores": (lambda a: ScoreSet(KEYS, a).scores, np.array([0.5, -1.0])),
    "ScoreSet.labels": (lambda a: ScoreSet(KEYS, [0.0, 1.0], a).labels, np.array([True, False])),
    "Cohort.means": (lambda a: Cohort(("a", "b"), a).means, np.array([[3.0, 4.0], [0.0, 2.0]])),
    "SyntheticCorpus.labels": (  # the other fields are only kept, not checked
        lambda a: SyntheticCorpus(None, 0, None, {}, KEYS, a).labels,
        np.array([True, False]),
    ),
    "LabeledBatch.embeddings": (
        lambda a: LabeledBatch(a, [0, 1]).embeddings,
        np.array([[1.0, 2.0], [3.0, 4.0]]),
    ),
    "LabeledBatch.labels": (
        lambda a: LabeledBatch(np.ones((2, 2)), a).labels,
        np.array([0, 1], dtype=np.int64),
    ),
    **{
        f"GaussianBackend.{name}": (
            lambda a, name=name: getattr(_backend(**{name: a}), name),
            getattr(_backend(), name),
        )
        for name in ("mu_farsi", "mu_usa", "mu_english_effective", "shared_cov")
    },
}


class TestStorageRule:
    """Every array a record keeps goes through ``frozen_rows``: a read-only
    C-contiguous input of its dtype is kept, anything else copied once."""

    @pytest.mark.parametrize("field", sorted(STORED))
    def test_record_field(self, field):
        build, value = STORED[field]
        frozen = value.copy()
        frozen.setflags(write=False)
        assert build(frozen) is frozen
        writeable = value.copy()
        stored = build(writeable)
        assert stored.dtype == value.dtype and np.array_equal(stored, value)
        assert not np.shares_memory(stored, writeable)
        assert not stored.flags.writeable and stored.flags.c_contiguous
        with pytest.raises(ValueError):
            stored[0] = stored[0]

    def test_adapted_backend_keeps_its_arrays(self):
        gb = _backend()
        adapted = adapt_english_mean(gb, 0.25)
        for name in ("mu_farsi", "mu_usa", "shared_cov"):
            assert getattr(adapted, name) is getattr(gb, name)
        assert not adapted.mu_english_effective.flags.writeable

    @pytest.mark.parametrize(
        "x",
        [
            np.asfortranarray(np.ones((3, 2))),
            np.ones((2, 6))[:, ::2],
            np.ones((2, 3), dtype=np.float32),
            np.ones((2, 3), dtype=">f8"),
            [[1.0, 2.0], [3.0, 4.0]],
        ],
        ids=["fortran", "strided", "float32", "big-endian", "list"],
    )
    def test_other_inputs_are_copied(self, x):
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
        got = frozen_rows(x)
        assert got is not x and got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable and np.array_equal(got, x)

    def test_dtype(self):
        assert frozen_rows([1, 0], bool).dtype == bool
        assert frozen_rows([1.0, 2.0], np.int64).dtype == np.int64


class TestPairCosines:
    """The one exact cosine kernel against the scalar oracle."""

    def test_equals_scalar_oracle_over_several_blocks(self, rng):
        a, b = rng.normal(size=(40, 64)), rng.normal(size=(30, 64))
        ia = rng.integers(0, 40, size=3 * PAIR_BLOCK + 5)
        ib = rng.integers(0, 30, size=3 * PAIR_BLOCK + 5)
        got = pair_cosines(unit_rows(a), ia, unit_rows(b), ib)
        assert got.tolist() == [scalar_cosine(a[i], b[j]) for i, j in zip(ia, ib)]

    def test_identical_and_opposite_rows_clip_to_one(self, rng):
        while True:  # a unit row whose sum of squares overshoots 1
            v = rng.normal(size=64)
            u = unit_rows([v])
            if np.sum(u[0] * u[0]) > 1.0:
                break
        rows = unit_rows([v, -v])
        got = pair_cosines(rows, [0, 0, 1, 1], rows, [0, 1, 0, 1])
        assert got.tolist() == [1.0, -1.0, -1.0, 1.0]
        assert got.tolist() == [scalar_cosine(p, q) for p in (v, -v) for q in (v, -v)]

    def test_empty_index_arrays(self, rng):
        u = unit_rows(rng.normal(size=(3, 8)))
        for empty in ([], np.array([], dtype=np.int64)):
            got = pair_cosines(u, empty, u, empty)
            assert got.shape == (0,) and got.dtype == np.float64


class TestEmbeddingType:
    def test_vec_is_readonly_float64(self):
        t = make_table([make_embedding("u1", "s1", [1, 2, 3])])
        assert t.vectors.dtype == np.float64 and t.vectors.flags.c_contiguous
        with pytest.raises(ValueError):
            t.vectors[0, 0] = 5.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            make_table([make_embedding("u1", "s1", [1.0, math.inf])])

    def test_rejects_empty_ids(self):
        with pytest.raises(ValidationError):
            EmbeddingTable(
                utt_ids=[""],
                speaker_ids=["s"],
                domains=[Domain.VOX],
                languages=[Language.UNKNOWN],
                vectors=[[1.0, 0.0]],
            )

    def test_input_array_is_copied_unless_read_only(self):
        cols = (("a", "b"), ("s", "s"), (Domain.VOX,) * 2, (Language.FARSI,) * 2)
        vecs = np.ones((2, 3))
        t = EmbeddingTable(*cols, vectors=vecs)
        vecs[0, 0] = 7.0
        assert t.vectors[0, 0] == 1.0 and vecs.flags.writeable
        vecs.setflags(write=False)
        assert EmbeddingTable(*cols, vectors=vecs).vectors is vecs

    def test_shape_checks(self):
        cols = (("a", "b"), ("s", "s"), (Domain.VOX,) * 2, (Language.FARSI,) * 2)
        with pytest.raises(DimensionMismatch):
            EmbeddingTable(*cols, vectors=np.ones((3, 4)))
        with pytest.raises(DimensionMismatch):
            EmbeddingTable(*cols[:3], (Language.FARSI,), vectors=np.ones((2, 4)))
        with pytest.raises(DimensionMismatch):
            EmbeddingTable(*cols, vectors=np.ones(2))

    def test_row_lookup_last_wins_and_selection(self):
        t = make_table(
            [
                make_embedding("u", "s1", [1.0, 0.0]),
                make_embedding("v", "s2", [0.0, 1.0], domain=Domain.LIBRI),
                make_embedding("u", "s3", [2.0, 0.0]),
            ]
        )
        assert len(t) == 3 and t.dim == 2
        assert t.row_of == {"u": 2, "v": 1}
        # a selection of rows is a table built from the selected columns; a
        # slice of the read-only vectors is kept as a view
        cols = (t.utt_ids, t.speaker_ids, t.domains, t.languages)
        sub = EmbeddingTable(*(c[1:] for c in cols), t.vectors[1:])
        assert sub.utt_ids == ("v", "u") and sub.domains == (Domain.LIBRI, Domain.VOX)
        assert sub.row_of == {"v": 0, "u": 1}
        assert np.array_equal(sub.vectors, [[0.0, 1.0], [2.0, 0.0]])
        assert np.shares_memory(sub.vectors, t.vectors)
        picked = EmbeddingTable(*([c[r] for r in (2, 0)] for c in cols), t.vectors[[2, 0]])
        assert picked.speaker_ids == ("s3", "s1")
        empty = EmbeddingTable(*(c[:0] for c in cols), t.vectors[:0])
        assert len(empty) == 0 and empty.dim == 2
