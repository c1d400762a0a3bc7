"""How inputs are checked: field tables for JSON objects, and one way to name a bad input.

Every file reader checks each JSON object it reads with check_fields, so
every file follows one rule: a missing, ill-typed or unknown key fails, named.
Each reader reads and checks inside naming, so any failure is one DataError
naming the file (and line), whether the CLI (exit 2) or a library call reads it.
"""

from __future__ import annotations

import reprlib
from typing import Callable, Mapping, NamedTuple

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
