"""The stateless per-batch check stage.

A ``CheckPlan`` is compiled ONCE on the driver from a
:class:`~data_linter_ray.metadata.TableSchema` against the dataset's actual
Arrow schema — the compile-time equivalent of the reference's runtime
dispatch gate (``/root/reference/data_linter/validators/pandas_validator.py:141-207``).
A ``BatchChecker`` then runs inside ``ds.map_batches(...,
batch_format="pyarrow")``: pure Arrow kernels per batch, emitting
**long-format violation rows** — never whole-column results — so the
pipeline streams and nothing is collected on the driver.

Every per-batch checker (this module's, the span checkers, the broadcast
referential anti-join) is a :class:`Checker` that only *finds*:
``findings(batch, ctx)`` yields ``(column, test, rows, values)`` — the
indices of the violating rows in the batch and their stringified values
(None when the test reports no value). :func:`violation_rows` is the one
function that turns findings into violation rows, as the reference's one
``_fill_res_dict`` turns every test result into its response entry.

Violation row schema:
    row_ref : string  — the configured id column's value (e.g. doc_id),
                        or null when no id column is configured
    column  : string  — checked column name
    test    : string  — test name (reference-parity names, checks.py)
    value   : string  — stringified offending value (reference
                        ``_fill_res_dict`` stringifies samples the same way)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from data_linter_ray import checks
from data_linter_ray.metadata import ColumnSpec, TableSchema

VIOLATION_SCHEMA = pa.schema(
    [
        ("row_ref", pa.string()),
        ("column", pa.string()),
        ("test", pa.string()),
        ("value", pa.string()),
    ]
)
#: violation rows of several units in one pass: :data:`VIOLATION_SCHEMA`
#: plus the unit code ``cc``
UNIT_VIOLATION_SCHEMA = VIOLATION_SCHEMA.append(pa.field("cc", pa.int16()))


@dataclass
class CheckPlan:
    """Static list of (column, test, spec) tasks + alignment decisions."""

    tasks: list[tuple[str, str, ColumnSpec]] = field(default_factory=list)
    id_column: Optional[str] = None
    # columns present in metadata but not data / vice versa (M3 diagnostics)
    cols_in_meta_not_in_data: list[str] = field(default_factory=list)
    cols_in_data_not_in_meta: list[str] = field(default_factory=list)
    # columns the checker actually needs to read (for column pruning)
    @property
    def input_columns(self) -> list[str]:
        cols = {c for c, _, _ in self.tasks}
        if self.id_column:
            cols.add(self.id_column)
        return sorted(cols)


def compile_plan(
    schema: TableSchema,
    data_schema: pa.Schema,
    id_column: Optional[str] = None,
    allow_missing_cols: bool = False,
    allow_unexpected_data: bool = False,
) -> CheckPlan:
    """Compile the check plan, applying the reference's column-alignment
    policy (``pandas_validator.py:436-472``):

      - meta∖data columns: dropped from the plan iff ``allow_missing_cols``,
        else a ``ColumnError``-equivalent is raised by the caller via the
        recorded diff;
      - data∖meta columns: ignored (projection) iff ``allow_unexpected_data``;
      - zero overlap always raises.
    """
    data_cols = set(data_schema.names)
    meta_cols = [c.name for c in schema.columns]
    missing = [c for c in meta_cols if c not in data_cols]
    unexpected = [c for c in data_cols if c not in meta_cols]
    overlap = [c for c in meta_cols if c in data_cols]

    plan = CheckPlan(
        id_column=id_column,
        cols_in_meta_not_in_data=missing,
        cols_in_data_not_in_meta=unexpected,
    )
    if not overlap:
        raise ColumnAlignmentError(
            "No overlap between metadata columns and data columns "
            f"(meta: {meta_cols}, data: {sorted(data_cols)})"
        )
    errors = []
    if missing and not allow_missing_cols:
        errors.append(f"Columns in metadata missing from data: {missing}")
    if unexpected and not allow_unexpected_data:
        errors.append(f"Unexpected columns in data not in metadata: {unexpected}")
    if errors:
        raise ColumnAlignmentError("; ".join(errors))

    for spec in schema.columns:
        if spec.name not in data_cols:
            continue
        arrow_t = data_schema.field(spec.name).type
        for test in checks.applicable_tests(spec, arrow_t):
            plan.tasks.append((spec.name, test, spec))
    return plan


class ColumnAlignmentError(Exception):
    """Reference parity: ``ColumnError`` (pandas_validator.py:26)."""


def _stringify(arr: pa.Array) -> pa.Array:
    """Cast offending values to string the way pandas ``.astype(str)`` does
    (close enough for parity: str() of the python value)."""
    try:
        return pc.cast(arr, pa.string())
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return pa.array([str(v) for v in arr.to_pylist()], type=pa.string())


def violation_rows(batch: pa.Table, id_column: Optional[str], findings) -> pa.Table:
    """The one builder of :data:`VIOLATION_SCHEMA` rows from a batch.

    Each finding ``(column, test, rows, values)`` becomes ``len(rows)``
    rows: ``row_ref`` is the id column's value at ``rows`` (null without
    an id column), ``value`` is ``values`` (null when None)."""
    ids = batch[id_column] if id_column and id_column in batch.column_names else None
    parts: list[list[pa.Array]] = [[], [], [], []]
    for column, test, rows, values in findings:
        n = len(rows)
        if not n:
            continue
        arrays = (
            _stringify(ids.take(rows)) if ids is not None else pa.nulls(n, pa.string()),
            pa.repeat(pa.scalar(column, pa.string()), n),
            pa.repeat(pa.scalar(test, pa.string()), n),
            values if values is not None else pa.nulls(n, pa.string()),
        )
        for part, a in zip(parts, arrays):
            part.append(a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a)
    if not parts[0]:
        return VIOLATION_SCHEMA.empty_table()
    return pa.Table.from_arrays(
        [pa.concat_arrays(p) for p in parts], schema=VIOLATION_SCHEMA
    )


class Checker:
    """A per-batch check. ``findings(batch, ctx)`` yields what violates;
    calling the checker — ``ds.map_batches(checker, batch_format="pyarrow")``
    — builds the violation rows with :func:`violation_rows`. ``ctx`` is
    the batch's :class:`~data_linter_ray.stages.spans.SpanContext`, a
    fresh one when the caller has none to share."""

    id_column: Optional[str] = None

    def findings(self, batch: pa.Table, ctx):
        raise NotImplementedError

    def __call__(self, batch: pa.Table, ctx=None) -> pa.Table:
        from data_linter_ray.stages.spans import SpanContext

        found = list(self.findings(batch, ctx or SpanContext(batch)))
        return violation_rows(batch, self.id_column, found)


class BatchChecker(Checker):
    """Callable for ``ds.map_batches(BatchChecker(plan),
    batch_format="pyarrow")`` — plain function semantics (stateless), but
    written as a class so the compiled plan ships once per task rather than
    per batch closure."""

    def __init__(self, plan: CheckPlan):
        self.plan = plan
        self.id_column = plan.id_column

    def findings(self, batch: pa.Table, ctx):
        for col_name, test, spec in self.plan.tasks:
            col = batch[col_name]
            rows = pc.indices_nonzero(checks.run_test(test, col, spec))
            if len(rows):
                yield col_name, test, rows, _stringify(col.take(rows))
