import json
import math
import os
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capdet import synthbench
from capdet.fields import DataError, Field, check_fields, is_positive_int, is_str_list, naming, whole_file
from capdet.scorenet import CHECKPOINT_MAGIC, load_checkpoint
from capdet.textgraph import AttributeRegistry, Vocabulary

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


class TestNaming:
    def test_names_an_error_of_its_kinds(self):
        with pytest.raises(DataError) as info, naming("f.json: line 3"):
            raise ValueError("bad value")
        assert str(info.value) == "f.json: line 3: bad value" and info.value.__cause__ is None

    def test_an_os_error_gives_its_strerror(self, tmp_path):
        with pytest.raises(DataError) as info, naming("cannot read x", (OSError,)):
            open(tmp_path / "missing")
        assert str(info.value) == "cannot read x: No such file or directory"

    def test_other_errors_pass_unchanged(self):
        with pytest.raises(KeyError), naming("f.json"):
            raise KeyError("k")
        with pytest.raises(ValueError, match="^inner$"), naming("f.json", (OSError,)):
            raise ValueError("inner")
        with naming("f.json"):
            pass

    def test_nested_names_read_outermost_first(self):
        with pytest.raises(DataError, match="^f.ckpt: corrupt header: too deep$"), naming("f.ckpt"):
            with naming("corrupt header", (RecursionError,)):
                raise RecursionError("too deep")

    def test_synthbench_still_exports_data_error(self):
        assert synthbench.DataError is DataError


def checkpoint_bytes(header, payload=b""):
    return CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload


# one class, one feature and no attributes: (1 + 1) * 4 parameters
TINY_HEADER = {"feature_dim": 1, "class_names": ["a"], "category_values": {}, "num_heads": 1}


# reader -> (the reader, the start of every message it raises); a case is None for a missing file, else the file's bytes
READERS = {
    "vocabulary": (Vocabulary.from_file, "bad vocabulary file {path}: "),
    "registry": (AttributeRegistry.from_file, "bad registry file {path}: "),
    "checkpoint": (load_checkpoint, ""),
    "dataset": (synthbench.read_dataset, ""),
}
READER_CASES = [
    ("vocabulary", None, "No such file or directory"),
    ("vocabulary", b'{"classes": ["cat"]', "Expecting ',' delimiter"),
    ("vocabulary", b'{"classes": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
    ("vocabulary", b'{"classes": "cat"}', "vocabulary needs 'classes' as a list of strings, got 'cat'"),
    ("vocabulary", b'{"classes": ["fire hydrant cap"]}', "class names and synonyms must be one or two words"),
    ("registry", None, "No such file or directory"),
    ("registry", b"[" * 100000, "maximum recursion depth exceeded"),
    ("registry", b'{"categories": "color"}', "registry needs 'categories' as a list of category objects, got 'color'"),
    ("registry", b'{"categories": [{"name": "color"}]}', "registry category needs 'values' as a list of strings"),
    ("checkpoint", None, "bad checkpoint {path}: No such file or directory"),
    ("checkpoint", b"garbage", "{path}: not a capdet checkpoint (bad magic)"),
    ("checkpoint", CHECKPOINT_MAGIC + b"{not json\n", "{path}: corrupt checkpoint header: Expecting property name"),
    ("checkpoint", checkpoint_bytes({"feature_dim": 0}), "{path}: checkpoint header needs 'feature_dim' as a positive integer, got 0"),
    ("checkpoint", checkpoint_bytes(TINY_HEADER, bytes(8)), "{path}: payload has 8 bytes, layout needs 64"),
    ("checkpoint", checkpoint_bytes(TINY_HEADER, struct.pack("<8d", *[math.nan] * 8)), "{path}: checkpoint holds non-finite"),
    ("dataset", None, "cannot read {path}: No such file or directory"),
    ("dataset", b"{\n", "{path}: header: not JSON: "),
    ("dataset", b'{"schema": "capdet-synth", "version": 3}\n', "{path}: header: header needs 'feature_dim' as a positive integer"),
]


class TestReadersNameTheirFile:
    """Called directly, each file reader raises one DataError naming its file, whatever fails."""

    @pytest.mark.parametrize(
        "reader, content, message", READER_CASES, ids=[f"{r}-{n}" for n, (r, *_) in enumerate(READER_CASES)]
    )
    def test_a_data_error_naming_the_file(self, reader, content, message, tmp_path):
        read, prefix = READERS[reader]
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value).startswith((prefix + message).format(path=path))


class TestWholeFile:
    """whole_file gives its target all of the new bytes or none of them, and leaves no temporary file."""

    def test_the_target_gets_the_bytes_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with whole_file(path) as f:
            f.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new" and os.listdir(tmp_path) == ["out"]
        with whole_file(path, "w") as f:
            f.write("caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode()

    @pytest.mark.parametrize("exists", [False, True], ids=["new target", "existing target"])
    def test_an_exception_leaves_the_target_as_it_was(self, exists, tmp_path):
        path = tmp_path / "out"
        if exists:
            path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt), whole_file(path) as f:
            f.write(b"part")
            raise KeyboardInterrupt
        assert os.listdir(tmp_path) == (["out"] if exists else [])
        assert not exists or path.read_bytes() == b"old"

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old")
        link.symlink_to(target)
        with whole_file(link) as f:
            f.write(b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"

    def test_a_file_that_is_not_regular_is_written_in_place(self):
        with whole_file(os.devnull) as f:
            f.write(b"discarded")
        assert not os.path.isfile(os.devnull)

    def test_a_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileNotFoundError) as info, whole_file(path):
            pass
        assert info.value.filename == str(path)
