"""Checkpointed whole-table validation — the north-rule resume shape.

``run_validation`` checkpoints per (table, land-file). At 10^12-doc
scale the input is ONE logical table stored as many parquet/Lance
fragments; the resume unit must be the *partition* (a group of input
fragments), per the north rule: "writes per-partition lineage manifests
+ metrics so a killed job resumes from the last committed partition
checkpoint".

``validate_table_checkpointed`` lists the table's fragments, groups
them into partitions and hands each partition, as a group of one unit,
to :func:`~data_linter_ray.pipelines.run.validate_group` — the same
body ``run_validation`` runs per group of land files: one bounded Ray
Data pipeline (the full fused single-scan checker of
``validate_units``) whose violation rows are sunk to
``{out}/violations/{unit}``. One call per partition keeps the
checkpoint granularity. Each unit
atomically commits a UnitManifest with metrics (rows, per-test counts,
duration, violations path). A re-run with ``resume=True`` (the default)
skips every committed partition, so a killed job continues where it
stopped. The final verdict is the fold of all partition manifests.

All paths may be local or ``s3://``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from data_linter_ray import fs
from data_linter_ray.metadata import TableSchema
from data_linter_ray.pipelines.run import validate_group
from data_linter_ray.state.manifest import ManifestStore, UnitManifest


@dataclass
class TableCheckpointResult:
    valid: bool
    row_count: int
    counts: dict  # "column::test" -> n (folded across partitions)
    partitions_total: int
    partitions_validated: int  # this call (excludes resumed skips)
    manifests: list = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return sum(self.counts.values())


def _partition_units(files: list[str], fragments_per_unit: int) -> list[list[str]]:
    return [
        files[i : i + fragments_per_unit]
        for i in range(0, len(files), fragments_per_unit)
    ]


def validate_table_checkpointed(
    input_path: str,
    schema: TableSchema,
    out_root: str,
    *,
    table_name: str = "table",
    id_column: str | None = None,
    ref_tables: dict | None = None,
    fragments_per_unit: int = 8,
    resume: bool = True,
    **validate_kwargs,
) -> TableCheckpointResult:
    """Validate a fragmented table with per-partition checkpoints.

    ``input_path`` — directory (local or s3://) of parquet fragments.
    ``fragments_per_unit`` — fragments per checkpoint unit: large enough
    to amortize per-pipeline fixed cost, small enough that re-doing one
    unit after a crash is cheap (at 100 TB, ~hundreds of MB–GB per unit).
    Extra ``validate_kwargs`` pass through to :func:`validate_units`
    via :func:`validate_group`.
    """
    files = [
        f
        for f in fs.list_files(input_path)
        if f.endswith((".parquet", ".pq"))
    ]
    if not files:
        raise FileNotFoundError(f"no parquet fragments under {input_path}")
    units = _partition_units(files, fragments_per_unit)

    store = ManifestStore(fs.join(out_root, "status"))
    if not resume:
        store.clear()

    validated = 0
    for unit_files in units:
        # the unit key is content-addressed on the fragment list, so a
        # re-listed input maps stably onto committed manifests
        probe = UnitManifest(
            table=table_name, source_path="|".join(unit_files), valid=False
        )
        if resume and store.exists(probe):
            continue
        [m] = validate_group(
            table_name,
            [(probe.source_path, unit_files)],
            schema,
            fs.join(out_root, "violations"),
            id_column=id_column,
            ref_tables=ref_tables,
            **validate_kwargs,
        )
        store.commit(m)
        validated += 1

    manifests = store.all()
    counts: dict[str, int] = {}
    rows = 0
    for m in manifests:
        rows += m.row_count
        for k, v in m.counts.items():
            counts[k] = counts.get(k, 0) + v
    return TableCheckpointResult(
        valid=bool(manifests) and all(m.valid for m in manifests),
        row_count=rows,
        counts=counts,
        partitions_total=len(units),
        partitions_validated=validated,
        manifests=manifests,
    )
