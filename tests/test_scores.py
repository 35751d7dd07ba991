import numpy as np
import pytest

from svbackend.errors import ValidationError
from svbackend.scores import ScoreSet, TrialKeys, first_appearance


class TestScoreSetKeys:
    def test_pair_keys_become_columns(self):
        keys = (("m1", "u1"), ("m1", "u2"), ("m2", "u1"))
        ss = ScoreSet(keys, [0.5, -1.0, 0.25])
        assert isinstance(ss.keys, TrialKeys)
        assert ss.keys.model_ids == ("m1", "m2") and ss.keys.test_ids == ("u1", "u2")
        assert ss.keys.models.tolist() == [0, 0, 1] and ss.keys.tests.tolist() == [0, 1, 0]
        assert not ss.keys.models.flags.writeable and not ss.keys.tests.flags.writeable
        assert list(ss.keys) == list(keys) and ss.keys[2] == ("m2", "u1")

    def test_list_keys_become_columns(self):
        assert list(ScoreSet([["m1", "u1"]], [0.5]).keys) == [("m1", "u1")]

    @pytest.mark.parametrize("key", [("m1", 2), (b"m1", "u2"), ("m1",), ("m1", "u2", "x")])
    def test_key_that_is_not_a_pair_of_str_is_refused(self, key):
        with pytest.raises(ValidationError, match="trial keys must be pairs of str ids"):
            ScoreSet((("m1", "u1"), key), [0.5, -1.0])

    def test_a_key_set_is_kept(self):
        keys = TrialKeys.of([("m1", "u1"), ("m1", "u2")])
        assert ScoreSet(keys, [0.5, -1.0]).keys is keys

    @pytest.mark.parametrize(
        "keys",
        [
            [("m1", "u1"), ("m1", "u1")],
            TrialKeys(("m1", "m2"), ("u1",), np.array([0, 1, 0]), np.array([0, 0, 0])),
        ],
    )
    def test_duplicate_key_is_refused(self, keys):
        with pytest.raises(ValidationError, match="trial keys must be unique"):
            ScoreSet(keys, [0.5, -1.0, 0.0][: len(keys)])


class TestTrialKeys:
    def test_equal_trials_in_other_tables_are_equal(self):
        a = TrialKeys.of([("m1", "u1"), ("m2", "u2")])
        b = TrialKeys(("m2", "m1", "m3"), ("u2", "u1"), np.array([1, 0]), np.array([1, 0]))
        assert a == b and b == a
        assert a != a[::-1] and a[::-1] == TrialKeys.of([("m2", "u2"), ("m1", "u1")])
        assert a != a[:1] and a != [("m1", "u1"), ("m2", "u2")]

    def test_flat_marks_ids_the_other_set_lacks(self):
        a = TrialKeys.of([("m1", "u1"), ("m2", "u2")])
        b = TrialKeys.of([("m2", "u2"), ("m1", "u3"), ("m9", "u1")])
        assert b.flat(a).tolist() == [3, -1, -1]
        assert a.flat().tolist() == [0, 3]

    @pytest.mark.parametrize(
        "args, message",
        [
            ((("m1", "m1"), ("u1",), [0], [0]), "distinct str ids"),
            ((("m1",), (1,), [0], [0]), "distinct str ids"),
            ((("m1",), ("u1",), [0.0], [0]), "1-D integer arrays"),
            ((("m1",), ("u1",), [[0]], [[0]]), "1-D integer arrays"),
            ((("m1",), ("u1",), [0, 0], [0]), "2 model codes for 1 test codes"),
            ((("m1",), ("u1",), [1], [0]), "index their id tables"),
            ((("m1",), ("u1",), [0], [-1]), "index their id tables"),
        ],
    )
    def test_malformed_columns_are_refused(self, args, message):
        with pytest.raises(ValidationError, match=message):
            TrialKeys(*args)

    def test_empty(self):
        keys = TrialKeys.of([])
        assert len(keys) == 0 and list(keys) == [] and keys == TrialKeys((), (), [], [])


@pytest.mark.parametrize("dtype", [np.int64, "S3"])
def test_first_appearance_against_a_dict(dtype):
    rng = np.random.default_rng(5)
    values = rng.integers(0, 40, size=500).astype(dtype)
    index = {}
    want = [index.setdefault(v, len(index)) for v in values.tolist()]
    first, codes = first_appearance(values)
    assert codes.tolist() == want
    assert values[first].tolist() == list(index)
    assert first.tolist() == [want.index(c) for c in range(len(index))]
