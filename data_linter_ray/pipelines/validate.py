"""validate_dataset — the library-call pipeline.

Equivalent of using the reference's ``PandasValidator`` directly
(``/root/reference/data_linter/validators/pandas_validator.py:30-96``,
README.md:114-134), re-expressed Ray-Data-first:

    ds ─► map_batches(_FusedChecker: every per-batch check, and the drift
    sketch partials) ─► materialized stream ─► one raw-task pass over its
    blocks (_fold_block_group): counts, row count, sample heads, merged
    sketch partials, kind-2 rows split into P hash buckets ─► one reduce
    per bucket (_detect_bucket): duplicate-key rows, counts, heads ───────┐
    merged sketches vs baselines (drift_results): drift verdicts ─────────┤
    ds ─► referential shuffle (oversized dims only) ──────────────────────┴─►
    ValidatorResult

:func:`validate_units` runs that one pass over several *units* (source
files) at once: every stream row carries its unit's code, every fold
keys by it, and each unit gets its own verdict, counts and samples —
exactly those of validating it alone. :func:`validate_dataset` is the
one-unit case.

Only *aggregated counts* and (optionally) bounded violation samples ever
reach the driver; the violation row Dataset itself — the duplicate-key rows
included — stays distributed and is returned for the caller to sink with
``write_parquet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pyarrow as pa
from ray.data import Dataset

from data_linter_ray import checks
from data_linter_ray.metadata import TableSchema
from data_linter_ray.result import ValidatorResult
from data_linter_ray.sources.readers import PATH_COLUMN
from data_linter_ray.stages.checker import (
    VIOLATION_SCHEMA,
    BatchChecker,
    ColumnAlignmentError,
    _stringify,
    compile_plan,
    violation_rows,
)
# internal single-pass stream: violation rows (kind 0), per-batch count
# partials (kind 1), uniqueness pre-aggregates (kind 2), drift sketch
# partials (kind 3: column, test = the sketch kind, value = the base64
# payload) — one schema so a single map_batches pass can emit all four
# and be materialized once
INTERNAL_SCHEMA = pa.schema(
    [
        ("row_ref", pa.string()),
        ("column", pa.string()),
        ("test", pa.string()),
        ("value", pa.string()),
        ("n", pa.int64()),
        ("h", pa.int64()),  # 64-bit key hash (uniqueness pre-agg rows only)
        ("kind", pa.int8()),
        # the row's unit code; on kind-2 pre-agg rows unit × (number of
        # unique columns) + the unique-column index (their column/test
        # strings stay NULL: the pre-agg stream is ~input-sized for a
        # unique id column, and two repeated-constant string columns cost
        # ~17 bytes/row through the object store vs one int16 + bitmaps)
        ("cc", pa.int16()),
    ]
)
ROWS_KEY = "__rows__"
#: violation rows inside one pass: :data:`VIOLATION_SCHEMA` plus the
#: unit code ``cc``
UNIT_VIOLATION_SCHEMA = VIOLATION_SCHEMA.append(pa.field("cc", pa.int16()))


def max_units(schema: TableSchema) -> int:
    """The most units one :func:`validate_units` pass can tell apart:
    kind-2 codes (unit × unique columns + column) must fit ``cc``."""
    return 2**15 // max(1, sum(1 for c in schema.columns if c.unique))


def _const(v: int, k: int) -> pa.Array:
    return pa.repeat(pa.scalar(v, pa.int16()), k)


class _FusedChecker:
    """Single-pass emitter: every checker's findings, as violation rows
    (kind 0) and one count row per finding (kind 1), plus the uniqueness
    pre-aggregates (kind 2) and, with a ``sketcher``
    (:class:`~data_linter_ray.stages.sketch_stage.SketchPartials`), one
    sketch partial per (column, sketch kind) (kind 3). With ``units``
    (the :data:`PATH_COLUMN` value of each unit's rows) every run of one
    unit's rows is emitted on its own, under that unit's code; without,
    every row is unit 0."""

    def __init__(
        self,
        checkers: list,
        unique_cols: list[str],
        id_column: Optional[str],
        sketcher=None,
        units: Optional[list[str]] = None,
    ):
        self.checkers = checkers
        self.unique_cols = unique_cols
        self.id_column = id_column
        self.sketcher = sketcher
        self.units = units

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.units is None or not batch.num_rows:
            return self._emit(batch, 0)
        import numpy as np
        import pyarrow.compute as pc

        code = pc.index_in(batch[PATH_COLUMN], value_set=pa.array(self.units))
        code = code.to_numpy(zero_copy_only=False)
        batch = batch.drop_columns([PATH_COLUMN])
        # a read batch comes from one file; split only where it does not
        starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        ends = np.r_[starts[1:], len(code)]
        return pa.concat_tables(
            [self._emit(batch.slice(s, e - s), int(code[s])) for s, e in zip(starts, ends)]
        )

    def _emit(self, batch: pa.Table, unit: int) -> pa.Table:
        from data_linter_ray.stages.spans import SpanContext

        # one flatten + one media dictionary-encode per span column,
        # shared by every span-family checker in this pass
        ctx = SpanContext(batch)
        found = [
            f for c in self.checkers for f in c.findings(batch, ctx) if len(f[2])
        ]
        viol = violation_rows(batch, self.id_column, found)
        k = viol.num_rows
        parts: list[pa.Table] = []
        if k:
            parts.append(
                pa.Table.from_arrays(
                    viol.columns
                    + [
                        pa.nulls(k, pa.int64()),
                        pa.nulls(k, pa.int64()),
                        pa.repeat(pa.scalar(0, pa.int8()), k),
                        _const(unit, k),
                    ],
                    schema=INTERNAL_SCHEMA,
                )
            )
        n = len(found) + 1
        parts.append(
            pa.Table.from_arrays(
                [
                    pa.nulls(n, pa.string()),
                    pa.array([ROWS_KEY] + [f[0] for f in found], pa.string()),
                    pa.array([ROWS_KEY] + [f[1] for f in found], pa.string()),
                    pa.nulls(n, pa.string()),
                    pa.array([batch.num_rows] + [len(f[2]) for f in found], pa.int64()),
                    pa.nulls(n, pa.int64()),
                    pa.array([1] * n, pa.int8()),
                    _const(unit, n),
                ],
                schema=INTERNAL_SCHEMA,
            )
        )

        for i, col in enumerate(self.unique_cols):
            import numpy as np
            import pandas as pd

            from data_linter_ray.state.sketches import hash_array

            arr = batch[col].combine_chunks()
            # hash once over ALL rows, then hash-dedupe — cheaper than a
            # string-keyed value_counts hash table plus a re-hash of the
            # uniques; factorize+bincount beats sort-based np.unique ~1.5×
            # and pa.repeat beats python-list constant columns ~8×
            h_all = hash_array(arr)
            first_mask = (~pd.Series(h_all).duplicated()).to_numpy()
            codes, uniq_h = pd.factorize(h_all, sort=False)
            cnts = np.bincount(codes).astype(np.int64)
            k = len(uniq_h)
            # first-occurrence filter yields values in factorize order
            values = _stringify(arr.filter(pa.array(first_mask)))
            parts.append(
                pa.Table.from_arrays(
                    [
                        pa.nulls(k, pa.string()),
                        pa.nulls(k, pa.string()),  # column → cc int16
                        pa.nulls(k, pa.string()),  # test implied by kind
                        values,
                        pa.array(cnts),
                        pa.array(uniq_h.astype(np.int64)),
                        pa.repeat(pa.scalar(2, pa.int8()), k),
                        _const(unit * len(self.unique_cols) + i, k),
                    ],
                    schema=INTERNAL_SCHEMA,
                )
            )
        if self.sketcher is not None:
            import base64

            sk = self.sketcher(batch)
            k = sk.num_rows
            parts.append(
                pa.Table.from_arrays(
                    [
                        pa.nulls(k, pa.string()),
                        sk["column"],
                        sk["kind"],
                        pa.array(
                            [base64.b64encode(p).decode() for p in sk["payload"].to_pylist()],
                            pa.string(),
                        ),
                        pa.nulls(k, pa.int64()),
                        pa.nulls(k, pa.int64()),
                        pa.repeat(pa.scalar(3, pa.int8()), k),
                        _const(unit, k),
                    ],
                    schema=INTERNAL_SCHEMA,
                )
            )
        return pa.concat_tables(parts)


def _keep_violations(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    sub = t.filter(pc.equal(t["kind"], 0))
    return sub.select(UNIT_VIOLATION_SCHEMA.names)


def _heads(t: pa.Table, n: int) -> pa.Table:
    """The first ``n`` rows of each (unit, column, test) of a violation
    table, in table order; ``n == 0`` keeps every row."""
    if n == 0 or t.num_rows <= n:
        return t
    keys = t.select(["cc", "column", "test"]).to_pandas()
    rank = keys.groupby(["cc", "column", "test"], sort=False, dropna=False).cumcount()
    return t.filter(pa.array(rank.to_numpy() < n))


def _fold_block_group(num_parts: int, n: Optional[int], group: int, *blocks):
    """Ray task: the one pass over fold group ``group`` of the stream's
    blocks (as *args, so Ray dereferences the refs). Returns
    ``num_parts`` tables of the kind-2 pre-agg rows by hash bucket — the
    map side of the uniqueness exchange: (cc, h, n, value, pos), ``pos``
    being the row's stream position ``group << 40 | row index in the
    group`` — then the kind-1 count partials as one {(unit, column,
    test): n} dict beside the group's kind-3 sketch partials merged to
    one ``((unit, column), kind, payload)`` per (unit, column, kind),
    then the first ``n`` kind-0 violation rows per (unit, column, test)
    (or None)."""
    import numpy as np
    import pyarrow.compute as pc

    from data_linter_ray.exchange import split_by_partition

    # Ray Data passes empty blocks through map_batches WITHOUT calling
    # the UDF, so an empty block keeps the input's schema (no "kind")
    block = pa.concat_tables(
        [b for b in blocks if b.num_rows] or [INTERNAL_SCHEMA.empty_table()]
    )

    counts_tbl = block.filter(pc.equal(block["kind"], 1))
    counts: dict[tuple[int, str, str], int] = {}
    for key in zip(
        *(counts_tbl[k].to_pylist() for k in ("cc", "column", "test", "n"))
    ):
        counts[key[:3]] = counts.get(key[:3], 0) + key[3]
    sketches = _merge_sketch_rows(block.filter(pc.equal(block["kind"], 3)))
    heads = None if n is None else _heads(_keep_violations(block), n)
    if not num_parts:
        return (counts, sketches), heads

    rows = np.flatnonzero(block["kind"].to_numpy(zero_copy_only=False) == 2)
    sub = block.take(pa.array(rows)).select(["cc", "h", "n", "value"])
    sub = sub.append_column("pos", pa.array((group << 40) | rows.astype(np.int64)))
    h = sub["h"].to_numpy(zero_copy_only=False)
    bucket = (h.astype(np.uint64) % np.uint64(num_parts)).astype(np.int64)
    return tuple(split_by_partition(sub, bucket, num_parts)) + ((counts, sketches), heads)


def _merge_sketch_rows(t: pa.Table) -> list[tuple[tuple[int, str], str, bytes]]:
    """Kind-3 rows merged to one ``((unit, column), kind, payload)`` per
    (unit, column, sketch kind), in row order."""
    import base64

    from data_linter_ray.stages.sketch_stage import fold_partials

    merged = fold_partials(
        ((u, c), kind, base64.b64decode(v))
        for u, c, kind, v in zip(
            *(t[k].to_pylist() for k in ("cc", "column", "test", "value"))
        )
    )
    return [(c, kind, sk.to_bytes()) for c, e in merged.items() for kind, sk in e.items()]


def _block_refs(ds: Dataset) -> list:
    return [r for bundle in ds.iter_internal_ref_bundles() for r in bundle.block_refs]


def _fold_count_partials(
    mat: Dataset, unique_cols: list[str], n: Optional[int]
) -> tuple[dict, dict, list, list, dict]:
    """The single pass over the materialized stream: one
    :func:`_fold_block_group` task per group of ~1/(2×P) of its blocks,
    P = the exchange width floored at the cluster's CPU count (the bytes
    derivation still widens P for streams past ~1 GiB per partition).
    Returns ({(unit, column, test): n}, {unit: row_count}, per-bucket
    tuples of bucket refs in group order (none without ``unique_cols``),
    one violation-head ref per group, the drift sketches merged in group
    order as {(unit, column): {kind: sketch}})."""
    import ray

    from data_linter_ray.exchange import cluster_cpus, exchange_width
    from data_linter_ray.stages import sketch_stage

    P = exchange_width(mat, floor=cluster_cpus())
    num_parts = P if unique_cols else 0
    fold_task = ray.remote(_fold_block_group).options(num_returns=num_parts + 2)
    block_refs = _block_refs(mat)
    size = max(1, len(block_refs) // (2 * P))
    # at least one group, so an empty stream still yields P buckets
    outs = [
        fold_task.remote(num_parts, n, gi, *block_refs[i : i + size])
        for gi, i in enumerate(range(0, max(1, len(block_refs)), size))
    ]
    counts: dict[tuple[int, str, str], int] = {}
    sketches: dict[tuple[int, str], dict] = {}
    for d, partials in ray.get([o[-2] for o in outs]):
        for k, v in d.items():
            counts[k] = counts.get(k, 0) + v
        sketch_stage.fold_partials(partials, sketches)
    rows = {k[0]: counts.pop(k) for k in list(counts) if k[1:] == (ROWS_KEY, ROWS_KEY)}
    buckets = list(zip(*(o[:-2] for o in outs)))
    return counts, rows, buckets, [o[-1] for o in outs], sketches


def _detect_bucket(
    unique_cols: list[str], n_units: int, n: Optional[int], cap: int, *parts
):
    """Ray task: the reduce side of the uniqueness exchange — sum ``n``
    per (cc, h) over one bucket's parts (in group order) and keep the
    keys seen more than once; ``cc`` holds the unit, so a key repeated
    in two units is no duplicate. Returns three things:

    * the bucket's violation rows (:data:`UNIT_VIOLATION_SCHEMA`:
      ``row_ref`` = the key, ``value`` = its row count), ordered by
      first sight;
    * the exact number of duplicated keys per (unit, unique column), as
      a flat unit-major vector;
    * with ``n`` set, the first ``n`` of those rows per (unit, column)
      (all of them, at most ``cap`` per unit, for ``n == 0``) with
      their stream ``pos``, so the driver's samples are the first
      duplicated keys in stream order at any width; None otherwise."""
    import numpy as np
    import pyarrow.compute as pc

    t = pa.concat_tables(parts)
    code = t["cc"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = t["h"].to_numpy(zero_copy_only=False)
    # stable: rows arrive in stream order, so each key's first row is its
    # first sight
    order = np.lexsort((h, code))
    code, h = code[order], h[order]
    boundary = np.ones(len(h), dtype=bool)
    boundary[1:] = (h[1:] != h[:-1]) | (code[1:] != code[:-1])
    idx = np.flatnonzero(boundary)
    sums = np.add.reduceat(t["n"].to_numpy(zero_copy_only=False)[order], idx)
    dup = sums > 1
    first, sums, code = order[idx][dup], sums[dup], code[idx][dup]
    by_sight = np.argsort(first)
    first, sums, code = first[by_sight], sums[by_sight], code[by_sight]
    t = t.take(pa.array(first))
    k = len(unique_cols)
    viol = pa.table(
        {
            "row_ref": t["value"],
            "column": pa.array(unique_cols, pa.string()).take(pa.array(code % k)),
            "test": pa.repeat(pa.scalar(checks.UNIQUE_TEST), t.num_rows),
            "value": pc.cast(pa.array(sums), pa.string()),
            "cc": pa.array(code // k, pa.int16()),
            "pos": t["pos"],
        }
    )
    head = None if n is None else _heads(viol, n)
    if n == 0:
        keys = head.select(["cc"]).to_pandas()
        head = head.filter(pa.array(keys.groupby("cc").cumcount().to_numpy() < cap))
    col_counts = np.bincount(code, minlength=n_units * k).astype(np.int64)
    return viol.drop_columns(["pos"]).cast(UNIT_VIOLATION_SCHEMA), col_counts, head


def _uniqueness_from_preagg(
    buckets: list[tuple], unique_cols: list[str], n_units: int, n: Optional[int]
) -> tuple[Dataset, dict, Optional[pa.Table]]:
    """Global duplicate detection over the kind-2 pre-aggregates that
    :func:`_fold_count_partials` hash-partitioned into ``buckets`` — the
    reduce side of a MANUAL hash exchange with raw Ray tasks: one
    :func:`_detect_bucket` task per bucket (P of them), whose violation
    rows become the returned Dataset without reaching the driver.

    Rationale (measured, Ray 2.49 local): Ray Data's sort-based
    ``groupby().map_groups`` costs ~1ms per *output group row* here —
    40k duplicate keys pushed the exchange to 40-50s, while this manual
    split/reduce runs in ~1.5s. All tasks are pure functions of their
    inputs, so Ray's lineage-based retry semantics still hold
    (SURVEY.md §2 "raw Ray tasks only where the Dataset API can't
    express the semantics" — here it can't express it *efficiently*).

    Exchange payload is the kind-2 rows themselves — (cc, h, n) plus
    the key string and stream position — so the reduce emits the report
    rows directly. 64-bit key hashing: collision probability stays
    negligible below ~10^9 distinct keys per column; swap in a 128-bit
    hash beyond that.

    The driver holds per-(unit, column) count vectors and, only with
    ``n`` set, the detect tasks' bounded sample heads (merged into
    stream order); no per-key state. Returns (violation rows Dataset,
    {(unit, col, unique_test): n}, the sample head table or None)."""
    import numpy as np
    import ray
    import ray.data as rd

    P = len(buckets)
    detect_task = ray.remote(_detect_bucket).options(num_returns=3)
    outs = [
        detect_task.remote(unique_cols, n_units, n, max(1, SAMPLE_ALL_CAP // P), *refs)
        for refs in buckets
    ]
    total = np.sum(ray.get([o[1] for o in outs]), axis=0)
    k = len(unique_cols)
    counts = {
        (int(i // k), unique_cols[i % k], checks.UNIQUE_TEST): int(v)
        for i, v in enumerate(total)
        if v
    }
    head = None
    if n is not None:
        head = pa.concat_tables(ray.get([o[2] for o in outs])).sort_by("pos")
    return rd.from_arrow_refs([o[0] for o in outs]), counts, head


@dataclass
class TableValidationResult:
    response: ValidatorResult
    violations: Optional[Dataset]
    row_count: int = 0
    counts: dict = field(default_factory=dict)  # (column, test) -> n_violations

    @property
    def valid(self) -> bool:
        return self.response.valid

    @property
    def n_violations(self) -> int:
        """Total violation rows — from the already-folded counts, no extra
        Dataset execution."""
        return sum(self.counts.values())


def alignment_failure(
    schema: TableSchema, data_schema: pa.Schema, **align
) -> Optional[TableValidationResult]:
    """The result of data whose columns do not align with ``schema``
    under ``align`` (:func:`compile_plan`'s keyword arguments), or None
    when they align. Needs only the data's schema, so a caller holding a
    file footer can skip the read."""
    try:
        compile_plan(schema, data_schema, **align)
    except ColumnAlignmentError as e:
        return _misaligned(e)
    return None


def _misaligned(e: ColumnAlignmentError) -> TableValidationResult:
    """Reference parity: an alignment failure is a table-level failed
    test, not an exception out of the run (pandas_validator.py:65-82)."""
    response = ValidatorResult()
    response.add_table_test("overall_validation", {"valid": False, "traceback": str(e)})
    return TableValidationResult(response=response, violations=None)


def validate_dataset(
    ds: Dataset,
    schema: TableSchema,
    *,
    id_column: Optional[str] = None,
    ref_tables: Optional[dict[str, Dataset]] = None,
    allow_missing_cols: bool = False,
    allow_unexpected_data: bool = False,
    row_limit: Optional[int] = None,
    row_sample: str = "head",
    sample_seed: Optional[int] = None,
    log_verbosity: Optional[int] = None,
    drift_baselines: Optional[dict] = None,
    drift_threshold: float = 0.1,
) -> TableValidationResult:
    """Validate a Dataset against a TableSchema: :func:`validate_units`
    with the whole Dataset as one unit.

    ``ref_tables`` maps the ``references`` target strings
    (``"table.column"``) to their Datasets for referential checks; a
    target without one fails the table-level test
    ``missing_ref_table_<target>`` and its column gets no
    ``referential_test`` verdict.
    ``log_verbosity`` mirrors the reference (pandas_validator.py:352-382):
    None → no value samples in the response dict; 0 → all; n → up to n.
    ``drift_baselines`` — {column: {"tdigest": TDigest, "hll": HLL}} from
    :func:`data_linter_ray.stages.sketch_stage.load_baselines`; columns
    whose spec has ``drift`` set are sketched in the fused pass, checked
    against them at the spec's ``drift["threshold"]`` (``drift_threshold``
    when it has none) and recorded as ``drift_test`` response entries.
    """
    [res], violations = validate_units(
        ds,
        schema,
        None,
        id_column=id_column,
        ref_tables=ref_tables,
        allow_missing_cols=allow_missing_cols,
        allow_unexpected_data=allow_unexpected_data,
        row_limit=row_limit,
        row_sample=row_sample,
        sample_seed=sample_seed,
        log_verbosity=log_verbosity,
        drift_baselines=drift_baselines,
        drift_threshold=drift_threshold,
    )
    if violations is not None:
        res.violations = violations.drop_columns(["cc"])
    return res


def validate_units(
    ds: Dataset,
    schema: TableSchema,
    units: Optional[list[str]],
    *,
    id_column: Optional[str] = None,
    ref_tables: Optional[dict[str, Dataset]] = None,
    allow_missing_cols: bool = False,
    allow_unexpected_data: bool = False,
    row_limit: Optional[int] = None,
    row_sample: str = "head",
    sample_seed: Optional[int] = None,
    log_verbosity: Optional[int] = None,
    drift_baselines: Optional[dict] = None,
    drift_threshold: float = 0.1,
) -> tuple[list[TableValidationResult], Optional[Dataset]]:
    """Validate the units of ``ds`` in one Ray Data execution.

    ``units`` lists the :data:`PATH_COLUMN` value of each unit's rows (a
    read with ``include_paths``); None makes the whole Dataset one unit.
    Returns one result per unit — its verdict, row count, counts and
    samples, exactly those of validating that unit alone; ``unique``
    holds within a unit — and the violation rows of all units
    (:data:`UNIT_VIOLATION_SCHEMA`, ``cc`` = the unit's index), or None
    when the columns do not align. ``row_limit`` applies to one unit
    only. The keyword arguments are :func:`validate_dataset`'s."""
    n_units = 1 if units is None else len(units)
    if row_limit is not None and n_units > 1:
        raise ValueError("row_limit applies to one unit at a time")
    if n_units > max_units(schema):
        raise ValueError(f"one pass tells at most {max_units(schema)} units apart")
    data_schema = ds.schema().base_schema
    if units is not None and PATH_COLUMN in data_schema.names:
        data_schema = data_schema.remove(data_schema.get_field_index(PATH_COLUMN))
    align = dict(
        id_column=id_column,
        allow_missing_cols=allow_missing_cols,
        allow_unexpected_data=allow_unexpected_data,
    )
    try:
        plan = compile_plan(schema, data_schema, **align)
    except ColumnAlignmentError as e:
        return [_misaligned(e)] * n_units, None

    if row_limit is not None:
        if row_sample == "random":
            # reference row-limit is a RANDOM sample
            # (pandas_validator.py:475-478, df.sample(n)). Distributed
            # equivalent: per-row Bernoulli at an oversampled fraction,
            # capped to exactly row_limit — no driver materialization,
            # no shuffle. Deterministic under sample_seed.
            # Dataset.count() answers from plan metadata when the input
            # is a pure file read (parquet footer counts — free); only
            # unknown sources pay the counting execution.
            total = ds.count()
            if total > row_limit:
                frac = min(1.0, (row_limit / total) * 1.25)
                ds = ds.random_sample(frac, seed=sample_seed).limit(row_limit)
        else:
            ds = ds.limit(row_limit)

    # --- ONE fused, column-pruned map pass for every per-batch check ----
    # (constraint kernels, span checks, span equality, broadcast
    # referential anti-joins). Only globally-coupled checks — uniqueness,
    # and referential against oversized dimensions — get their own shuffle
    # branches. One scan instead of one per check family.
    import ray as _ray

    from data_linter_ray.stages.referential import (
        BROADCAST_ROW_THRESHOLD,
        _BroadcastAntiJoin,
        distinct_key_set,
    )
    from data_linter_ray.stages.spans import (
        SpanChecker,
        SpanEqualityChecker,
        SpanMediaRefChecker,
    )

    span_cols = [
        c
        for c in schema.columns
        if c.name in data_schema.names
        and (c.span_constraints is not None or c.type in ("spans", "list<span>"))
    ]
    # a referential check runs only against a supplied table: a missing
    # one is a failed table-level test, for span and flat columns alike,
    # and leaves no verdict on the column
    ref_tables = ref_tables or {}
    ref_specs = []
    table_tests: list[tuple[str, dict]] = []
    for c in schema.columns:
        if not c.references or c.name not in data_schema.names:
            continue
        if ref_tables.get(c.references) is None:
            table_tests.append(
                (
                    f"missing_ref_table_{c.references}",
                    {"valid": False, "traceback": f"no ref table for {c.references}"},
                )
            )
        else:
            ref_specs.append(c)
    unique_cols = [
        c.name for c in schema.columns if c.unique and c.name in data_schema.names
    ]

    fused: list = []
    needed: set[str] = set(plan.input_columns) if plan.tasks else set()
    if plan.tasks:
        fused.append(BatchChecker(plan))
    for spec in span_cols:
        sc = spec.span_constraints or {}
        fused.append(SpanChecker(spec.name, id_column))
        needed.add(spec.name)
        if spec in ref_specs:
            pk = spec.references.split(".", 1)[1]
            pk_ref = _ray.put(distinct_key_set(ref_tables[spec.references], pk))
            fused.append(SpanMediaRefChecker(spec.name, id_column, pk_ref))
        ref_col = sc.get("reference_column")
        if ref_col and ref_col in data_schema.names:
            fused.append(
                SpanEqualityChecker(
                    spec.name, ref_col, id_column, bool(sc.get("compare_offsets", False))
                )
            )
            needed.add(ref_col)
    shuffle_refs: dict[str, tuple] = {}  # fk col -> (target_ds, pk)
    for spec in ref_specs:
        if spec in span_cols:  # SpanMediaRefChecker, above
            continue
        target = ref_tables[spec.references]
        pk = spec.references.split(".", 1)[1]
        if isinstance(target, Dataset) and target.count() > BROADCAST_ROW_THRESHOLD:
            shuffle_refs[spec.name] = (target, pk)  # dedicated shuffle branch
            continue
        pk_ref = _ray.put(distinct_key_set(target, pk))
        fused.append(_BroadcastAntiJoin(spec.name, id_column, pk_ref))
        needed.add(spec.name)
    if id_column:
        needed.add(id_column)
    if units is not None:
        needed.add(PATH_COLUMN)

    needed.update(unique_cols)
    # drift sketches ride the same pass: one partial per (batch, column,
    # sketch kind), folded with the counts
    from data_linter_ray.stages import sketch_stage

    drift_specs = {
        c.name: c
        for c in schema.columns
        if c.drift and c.name in data_schema.names and c.name in (drift_baselines or {})
    }
    drift_base = {c: drift_baselines[c] for c in drift_specs}
    sketcher = sketch_stage.baseline_partials(drift_base) if drift_base else None
    needed.update(drift_base)
    checked = ds.select_columns(sorted(needed)) if needed else ds

    # --- single-scan execution ------------------------------------------
    # ONE materialized pass produces a mixed stream (violation rows +
    # per-batch count partials + uniqueness pre-aggregates); everything
    # downstream — verdict counts, row count, value samples, the
    # uniqueness exchange — runs over that bounded stream, never
    # re-scanning the input, and ONE raw-task pass over its blocks
    # (_fold_count_partials) feeds all of it.
    # The stream keeps input order, so the value samples (the first n
    # per unit and test, the first duplicated keys) are those of the
    # input whatever the block count or task schedule.
    # Derived datasets share their source's context: set the option for
    # this one execution and give the caller's setting back.
    stream = checked.map_batches(
        _FusedChecker(fused, unique_cols, id_column, sketcher, units),
        batch_format="pyarrow",
    )
    opts = stream.context.execution_options
    caller_order, opts.preserve_order = opts.preserve_order, True
    try:
        mat = stream.materialize()
    finally:
        opts.preserve_order = caller_order

    violation_parts: list[Dataset] = [
        mat.map_batches(_keep_violations, batch_format="pyarrow")
    ]
    counts, row_counts, buckets, heads, sketches = _fold_count_partials(
        mat, unique_cols, log_verbosity
    )
    if unique_cols:
        uniq_viol, uniq_counts, uniq_head = _uniqueness_from_preagg(
            buckets, unique_cols, n_units, log_verbosity
        )
        violation_parts.append(uniq_viol)
        counts.update(uniq_counts)
        if uniq_head is not None:
            heads.append(uniq_head)
    ref_parts: list[Dataset] = []
    for fk, (target, pk) in shuffle_refs.items():
        from data_linter_ray.stages.referential import referential_violations_shuffle

        for u in range(n_units):
            part = referential_violations_shuffle(
                _unit_rows(ds, units, u), fk, target, pk
            ).map_batches(_with_unit(u), batch_format="pyarrow").materialize()
            counts[(u, fk, checks.REFERENTIAL_TEST)] = part.count()
            ref_parts.append(part)

    violations = violation_parts[0]
    for part in violation_parts[1:] + ref_parts:
        violations = violations.union(part)

    samples: dict[tuple[int, str, str], tuple[list, list]] = {}
    if log_verbosity is not None and any(counts.values()):
        # the fold and the uniqueness reduce already took their heads
        samples = _collect_samples(heads, ref_parts, log_verbosity)

    thresholds = {
        c: spec.drift.get("threshold", drift_threshold) for c, spec in drift_specs.items()
    }
    results = []
    for u in range(n_units):
        response = ValidatorResult()
        for name, test in table_tests:
            response.add_table_test(name, dict(test))
        unit_counts = {(c, t): v for (u2, c, t), v in counts.items() if u2 == u and v}
        # --- distribution-drift verdicts: the folded sketches vs baselines
        if drift_base:
            unit_sketches = {c: e for (u2, c), e in sketches.items() if u2 == u}
            for dr in sketch_stage.drift_results(unit_sketches, drift_base, thresholds):
                response.add_test_to_col(
                    dr.column,
                    checks.DRIFT_TEST,
                    {
                        "valid": dr.valid,
                        "test_inputs": {
                            "column": dr.column,
                            "metric": dr.metric,
                            "distance": dr.distance,
                            "threshold": dr.threshold,
                        },
                    },
                )
        row_count = row_counts.get(u, 0)
        _build_response(
            response, plan, schema, unit_counts, row_count,
            {(c, t): s for (u2, c, t), s in samples.items() if u2 == u},
            log_verbosity, unique_cols, ref_specs, span_cols,
        )
        results.append(
            TableValidationResult(
                response=response,
                violations=None,
                row_count=row_count,
                counts=unit_counts,
            )
        )
    return results, violations


def _unit_rows(ds: Dataset, units: Optional[list[str]], u: int) -> Dataset:
    """The rows of unit ``u`` of ``ds``, without the unit's path."""
    if units is None:
        return ds
    import pyarrow.compute as pc

    def keep(t: pa.Table, _path=units[u]) -> pa.Table:
        return t.filter(pc.equal(t[PATH_COLUMN], _path)).drop_columns([PATH_COLUMN])

    return ds.map_batches(keep, batch_format="pyarrow")


def _with_unit(u: int):
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("cc", _const(u, t.num_rows)).cast(UNIT_VIOLATION_SCHEMA)

    return tag


#: driver-safety ceiling on sample rows kept by the driver merge, per
#: unit; it binds for log_verbosity=0 ("all" samples, reference
#: semantics) so a pathological run can't materialize an unbounded
#: violation set on the driver. Full violation rows are always available
#: in the sunk parquet.
SAMPLE_ALL_CAP = 1_000_000


def _collect_samples(
    heads: list, others: list[Dataset], n: int
) -> dict[tuple[int, str, str], tuple[list, list]]:
    """Per-(unit, column, test) bounded samples of (row_ref, value): a
    driver merge of ``heads`` (violation-head tables or refs to them: the
    stream's, then the uniqueness reduce's), then of :func:`_heads` of
    each block of the ``others`` violation Datasets, fetched one at a
    time. n == 0 means "all" (reference semantics); at most
    SAMPLE_ALL_CAP rows per unit are kept, so the driver holds the cap
    per unit plus one fetched head."""
    import ray

    head_task = ray.remote(_heads)
    refs = heads + [head_task.remote(b, n) for ds in others for b in _block_refs(ds)]
    out: dict[tuple[int, str, str], tuple[list, list]] = {}
    kept: dict[int, int] = {}
    for ref in refs:
        t = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        if not t.num_rows:
            continue
        for u, c, test, r, v in zip(
            *(t[k].to_pylist() for k in ("cc", "column", "test", "row_ref", "value"))
        ):
            if kept.get(u, 0) >= SAMPLE_ALL_CAP:
                continue
            rs, vs = out.setdefault((u, c, test), ([], []))
            if not n or len(rs) < n:
                rs.append(r)
                vs.append(v)
                kept[u] = kept.get(u, 0) + 1
    return out


def _build_response(
    response: ValidatorResult,
    plan,
    schema: TableSchema,
    counts: dict,
    row_count: int,
    samples: dict,
    log_verbosity,
    unique_cols,
    ref_specs,
    span_cols=(),
) -> None:
    """Assemble the reference-shaped nested verdict dict
    (base.py:9-103 / pandas_validator.py:352-382 parity). ``ref_specs``
    are the columns, span or flat, whose referential check ran."""

    def fill(colname: str, test: str, inputs: dict) -> None:
        n_bad = counts.get((colname, test), 0)
        res: dict = {"valid": n_bad == 0, "test_inputs": inputs}
        if n_bad:
            res["percentage_of_column_is_error"] = (
                n_bad / row_count * 100 if row_count else 0.0
            )
            if log_verbosity is not None and (colname, test) in samples:
                refs, vals = samples[(colname, test)]
                res["unexpected_index_sample"] = refs
                res["unexpected_values_sample"] = vals
        response.add_test_to_col(colname, test, res)

    def fill_ref(spec) -> None:
        fill(
            spec.name,
            checks.REFERENTIAL_TEST,
            {"column": spec.name, "references": spec.references},
        )

    for col_name, test, spec in plan.tasks:
        fill(col_name, test, checks.test_inputs(test, spec))
    for col in unique_cols:
        fill(col, checks.UNIQUE_TEST, {"column": col})
    for spec in ref_specs:
        if spec not in span_cols:
            fill_ref(spec)
    for spec in span_cols:
        from data_linter_ray.stages.spans import SPAN_TESTS

        for test in SPAN_TESTS:
            fill(spec.name, test, {"column": spec.name})
        if spec in ref_specs:
            fill_ref(spec)
        sc = spec.span_constraints or {}
        if sc.get("reference_column"):
            fill(
                spec.name,
                "span_sequence_equality",
                {"column": spec.name, "reference_column": sc["reference_column"]},
            )
