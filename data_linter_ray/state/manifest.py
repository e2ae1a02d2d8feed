"""Per-unit lineage manifests: the checkpoint/resume unit.

Reference analog: one status JSON per validated file in the temp status
area (``/root/reference/data_linter/validation.py:450-496``, read back at
:520-538) — which in the reference lives on S3. Ours adds what the
reference lacks (SURVEY.md §4 "checkpoint/resume"): atomic commits
(write-then-rename locally, single-PUT on S3 — both atomic) and
re-entrancy — a resumed run skips every unit whose manifest already
exists, so a killed job continues from the last committed unit.

The store root may be a local directory or an ``s3://`` URI; all I/O
goes through :mod:`data_linter_ray.fs`.

A "unit" is one (table, land file) in ``run_validation`` or one
(table, fragment group) in ``validate_table_checkpointed``: what gets
one verdict, one manifest and, with failing tests, one violations
directory. Both run ``pipelines.run.validate_group``, which validates a
group of units in one Ray execution — a table's land files of one data
schema, or one fragment group alone. The manifest records verdict,
counts, row count, output paths, and timing; a grouped unit's
``duration_s`` is its group's wall time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

from data_linter_ray import fs


@dataclass
class UnitManifest:
    table: str
    source_path: str
    valid: bool
    row_count: int = 0
    counts: dict = field(default_factory=dict)  # "column::test" -> n
    response: dict = field(default_factory=dict)
    violations_path: Optional[str] = None
    archived_path: Optional[str] = None
    duration_s: float = 0.0

    def key(self) -> str:
        import hashlib

        h = hashlib.md5(f"{self.table}::{self.source_path}".encode()).hexdigest()[:16]
        return f"{self.table}-{h}"


class ManifestStore:
    """Directory (local or S3 prefix) of committed unit manifests."""

    def __init__(self, root: str):
        self.root = root
        fs.makedirs(root)

    def _path(self, key: str) -> str:
        return fs.join(self.root, f"{key}.json")

    def exists(self, manifest_or_key) -> bool:
        key = (
            manifest_or_key
            if isinstance(manifest_or_key, str)
            else manifest_or_key.key()
        )
        return fs.exists(self._path(key))

    def load(self, key: str) -> UnitManifest:
        return UnitManifest(**json.loads(fs.read_text(self._path(key))))

    def commit(self, m: UnitManifest) -> str:
        final = self._path(m.key())
        # the fields as they are: ``asdict`` would deep-copy the nested
        # response (samples included) only for it to be dumped
        fs.write_text(final, json.dumps({f.name: getattr(m, f.name) for f in fields(m)}))
        return final

    def all(self) -> list[UnitManifest]:
        out = []
        for fn in fs.listdir(self.root):
            if fn.endswith(".json"):
                out.append(
                    UnitManifest(**json.loads(fs.read_text(fs.join(self.root, fn))))
                )
        return out

    def clear(self) -> None:
        for fn in fs.listdir(self.root):
            fs.delete_file(fs.join(self.root, fn))
