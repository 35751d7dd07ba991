import pytest

from svbackend.errors import ValidationError
from svbackend.scores import ScoreSet


class TestScoreSetKeys:
    def test_tuple_keys_are_kept(self):
        keys = (("m1", "u1"), ("m1", "u2"))
        ss = ScoreSet(keys, [0.5, -1.0])
        assert ss.keys == keys and all(a is b for a, b in zip(ss.keys, keys))

    def test_list_key_becomes_a_tuple(self):
        assert ScoreSet([["m1", "u1"]], [0.5]).keys == (("m1", "u1"),)

    @pytest.mark.parametrize("key", [("m1", 2), (b"m1", "u2"), ("m1",), ("m1", "u2", "x")])
    def test_key_that_is_not_a_pair_of_str_is_refused(self, key):
        with pytest.raises(ValidationError, match="trial keys must be pairs of str ids"):
            ScoreSet((("m1", "u1"), key), [0.5, -1.0])
