import pytest
from hypothesis import given
from hypothesis import strategies as st

from capdet.fields import Field, check_fields, is_positive_int, is_str_list

TABLE = {
    "count": Field(is_positive_int, "a positive integer"),
    "names": Field(is_str_list, "a list of strings"),
    "mode": Field(lambda v: v in ("a", "b"), "'a' or 'b'", default="a"),
}


class TestCheckFields:
    def test_returns_each_key_in_table_order_with_defaults(self):
        assert list(check_fields({"names": [], "count": 2}, TABLE, "thing").items()) == [
            ("count", 2),
            ("names", []),
            ("mode", "a"),
        ]
        assert check_fields({"count": 1, "names": ["x"], "mode": "b"}, TABLE, "thing")["mode"] == "b"

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1], "thing must be a JSON object, got [1]"),
            ({"names": []}, "thing needs 'count' as a positive integer"),
            ({"count": True, "names": []}, "thing needs 'count' as a positive integer, got True"),
            ({"count": 1, "names": ["x", 2]}, "thing needs 'names' as a list of strings, got ['x', 2]"),
            ({"count": 1, "names": [], "mode": "c"}, "thing needs 'mode' as 'a' or 'b', got 'c'"),
            ({"count": 1, "names": [], "zeta": 0, "alpha": 0}, "unknown thing key 'alpha'"),
            # a bad key of the table comes before an unknown key, and the first bad key in table order first
            ({"extra": 0, "names": 5, "count": 0}, "thing needs 'count' as a positive integer, got 0"),
            ({"count": 1, "names": list(range(100))}, "thing needs 'names' as a list of strings, got [0, 1, 2, 3, 4, 5, ...]"),
        ],
        ids=["not an object", "missing", "bool for int", "bad item", "bad optional", "first unknown key, sorted",
             "table order first", "long value cut"],
    )
    def test_one_error_names_the_key(self, obj, message):
        with pytest.raises(ValueError) as info:
            check_fields(obj, TABLE, "thing")
        assert str(info.value) == message

    @given(st.text().filter(lambda key: key not in TABLE))
    def test_any_unknown_key_is_named(self, key):
        with pytest.raises(ValueError, match="^unknown thing key ") as info:
            check_fields({"count": 1, "names": [], key: None}, TABLE, "thing")
        assert str(info.value) == f"unknown thing key {key!r}"
