"""A schema-3 dataset file split into its header, scene records and payloads, and joined back.

Every dataset corruption case in the tests edits a file through DatasetFile:
read a valid file, change its header, a record or a payload, and write the
bytes back. The header and each record are JSON objects, or the bytes of a
line (without its newline) that is written as it is, for lines that are not
JSON at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _line(value) -> bytes:
    """A header or record as the writer writes it, or raw bytes as they are, ended by a newline."""
    return (value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()) + b"\n"


@dataclass
class DatasetFile:
    header: dict | bytes
    records: list  # each a dict, or the bytes of a line
    payloads: list[bytes]

    @classmethod
    def parse(cls, blob: bytes) -> "DatasetFile":
        """The parts of a valid file; each payload's size is read off its record and the header's feature_dim."""
        line, _, rest = blob.partition(b"\n")
        header, records, payloads = json.loads(line), [], []
        while rest:
            line, _, rest = rest.partition(b"\n")
            records.append(json.loads(line))
            size = records[-1]["proposals"] * (4 + header["feature_dim"]) * 8
            payloads.append(rest[:size])
            rest = rest[size:]
        return cls(header, records, payloads)

    @classmethod
    def read(cls, path: str | Path) -> "DatasetFile":
        return cls.parse(Path(path).read_bytes())

    def to_bytes(self) -> bytes:
        return _line(self.header) + b"".join(_line(r) + p for r, p in zip(self.records, self.payloads))

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    def ends(self) -> list[int]:
        """The byte offset where the header ends, then where each scene's payload ends."""
        offsets = [len(_line(self.header))]
        for record, payload in zip(self.records, self.payloads):
            offsets.append(offsets[-1] + len(_line(record)) + len(payload))
        return offsets

    def arrays(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of scene k's proposal boxes and features."""
        m = self.records[k]["proposals"]
        values = np.frombuffer(self.payloads[k], "<f8").copy()
        return values[: 4 * m].reshape(m, 4), values[4 * m :].reshape(m, -1)

    def set_arrays(self, k: int, boxes: np.ndarray, features: np.ndarray) -> None:
        """Scene k's payload from boxes and features, whatever their shapes; its record's count stays."""
        self.payloads[k] = np.asarray(boxes, "<f8").tobytes() + np.asarray(features, "<f8").tobytes()
