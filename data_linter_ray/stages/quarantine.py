"""Row-level quarantine: split a table into clean / violating rows.

The reference routes whole FILES pass/fail; a training-data pipeline
usually wants the ROW split — keep the clean rows, quarantine the rest.
``split_valid_rows`` evaluates every row-local check from the schema
(constraint kernels + span checks) as ONE fused mask pass and returns
``(valid, invalid)`` datasets.

Row-local only, by design: uniqueness and referential verdicts are
global — run :func:`~data_linter_ray.pipelines.validate.validate_dataset`
for those; a row can't know it is a duplicate from its batch alone.

Both returned datasets lazily re-run the mask pass when consumed — two
streaming scans, nothing pinned in the object store.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray import checks
from data_linter_ray.metadata import SPAN_TYPE_NAMES, TableSchema
from data_linter_ray.stages.checker import compile_plan
from data_linter_ray.stages.spans import SpanContext, span_check_masks


def _bad_row_mask(batch: pa.Table, plan, span_cols: list[str]) -> np.ndarray:
    bad = np.zeros(batch.num_rows, dtype=bool)
    for col_name, test, spec in plan.tasks:
        m = checks.run_test(test, batch[col_name], spec)
        bad |= pc.fill_null(m, False).to_numpy(zero_copy_only=False)
    ctx = SpanContext(batch)
    for c in span_cols:
        for m in span_check_masks(ctx, c).values():
            bad |= m
    return bad


def split_valid_rows(ds: Dataset, schema: TableSchema) -> tuple[Dataset, Dataset]:
    """→ (valid_rows, invalid_rows) under the schema's row-local checks."""
    data_schema = ds.schema().base_schema
    plan = compile_plan(
        schema, data_schema, allow_missing_cols=True, allow_unexpected_data=True
    )
    span_cols = [
        c.name
        for c in schema.columns
        if c.name in data_schema.names
        and (c.span_constraints is not None or c.type in SPAN_TYPE_NAMES)
    ]

    def keep(valid: bool):
        def f(t: pa.Table) -> pa.Table:
            bad = _bad_row_mask(t, plan, span_cols)
            return t.filter(pa.array(~bad if valid else bad))

        return f

    return (
        ds.map_batches(keep(True), batch_format="pyarrow"),
        ds.map_batches(keep(False), batch_format="pyarrow"),
    )
