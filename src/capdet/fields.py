"""How files are checked and written: field tables for JSON objects, one way to name a bad input, whole writes.

Every file reader checks each JSON object it reads with check_fields, so
every file follows one rule: a missing, ill-typed or unknown key fails, named.
Each reader reads and checks inside naming, so any failure is one DataError
naming the file (and line or scene), whether the CLI (exit 2) or a library
call reads it. Every output file but the streamed training log is written
through whole_file, so it holds all of its bytes or none of them.
"""

from __future__ import annotations

import contextlib
import os
import reprlib
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping, NamedTuple

REQUIRED = object()
JSON_ERRORS = (ValueError, RecursionError)  # invalid UTF-8 or JSON is a ValueError, too deeply nested a RecursionError


class DataError(ValueError):
    """An input file is malformed or does not match its schema."""


class naming:
    """Within it, an error of errors becomes DataError(f"{where}: {reason}"), reason an OSError's strerror or its text."""

    def __init__(self, where: str, errors: tuple[type[BaseException], ...] = (ValueError,)):
        self.where, self.errors = where, errors

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, error: BaseException | None, traceback: object) -> None:
        if isinstance(error, self.errors):
            reason = error.strerror or error if isinstance(error, OSError) else error
            raise DataError(f"{self.where}: {reason}") from None


class Field(NamedTuple):
    check: Callable[[object], bool]
    expected: str  # what check accepts, as a failure states it
    default: object = REQUIRED  # else the value of a key the object may leave out


def is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def is_positive_int(value: object) -> bool:
    return type(value) is int and value > 0  # not bool, which is a subclass of int


def check_fields(obj: object, table: Mapping[str, Field], what: str) -> dict:
    """Each key of table with obj's value, or the key's default, if obj is a JSON object that table admits.

    Else a ValueError, calling obj what, names the first key of table that obj lacks
    or whose value fails its check, or else obj's first key outside table, sorted.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {reprlib.repr(obj)}")
    checked = {}
    for key, (check, expected, default) in table.items():
        if key not in obj:
            if default is REQUIRED:
                raise ValueError(f"{what} needs {key!r} as {expected}")
            checked[key] = default
        elif check(obj[key]):
            checked[key] = obj[key]
        else:
            raise ValueError(f"{what} needs {key!r} as {expected}, got {reprlib.repr(obj[key])}")
    if not obj.keys() <= table.keys():
        raise ValueError(f"unknown {what} key {min(obj.keys() - table.keys())!r}")
    return checked


@contextlib.contextmanager
def whole_file(path: str | Path, mode: str = "wb") -> Iterator[IO]:
    """A file for path's new contents, which path takes only when the block ends without an exception.

    The file is a temporary one beside path, moved onto it by os.replace
    after the last byte, so a reader sees the old file or the whole new one;
    an exception removes it and leaves path as it was. Nothing is fsync'd: a
    file survives an interrupted process, not a power loss. A path that
    exists and is not a regular file (/dev/null, a pipe) is written in place.
    """
    target = os.path.realpath(path)  # through a symlink, not over it
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, encoding=encoding) as f:
            yield f
        return
    temp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, encoding=encoding) as f:
            yield f
        os.replace(temp, target)
    except BaseException as error:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(error, OSError) and error.filename == temp:
            error.filename = str(path)  # name the file the caller asked for
        raise
