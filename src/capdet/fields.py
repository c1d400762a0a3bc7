"""Field tables: the keys a JSON object may hold, each with the check of its value.

Every file reader checks each JSON object it reads with check_fields, so
every file follows one rule: a missing, ill-typed or unknown key fails, named.
"""

from __future__ import annotations

import reprlib
from typing import Callable, Mapping, NamedTuple

REQUIRED = object()


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
