"""Layer microbenches that need no job: the check kernels on decoded
batches (no Ray), and the scan floor next to a plain pyarrow read of
the same files."""

from __future__ import annotations

import statistics
import time

import pyarrow.dataset as pads

from data_linter_ray import checks
from data_linter_ray.stages.checker import BatchChecker, compile_plan
from data_linter_ray.stages.sketch_stage import SketchPartials
from data_linter_ray.stages.spans import SpanChecker, SpanContext, SpanMediaRefChecker
from data_linter_ray.state.sketches import hash_array

#: per_layer kernel metric names; a kernel a workload does not run reads 0
KERNELS = [
    "stages.checker.BatchChecker.rows_per_s",
    *(f"checks.{t}.rows_per_s" for t in (
        checks.MIN_MAX_TEST, checks.MIN_MAX_LENGTH_TEST, checks.PATTERN_TEST,
        checks.ENUM_TEST, checks.NULLABLE_TEST, checks.DATETIME_FORMAT_TEST)),
    "stages.spans.SpanChecker.rows_per_s",
    "stages.spans.SpanMediaRefChecker.rows_per_s",
    "state.sketches.hash_array.rows_per_s",
    "stages.sketch_stage.SketchPartials.rows_per_s",
]

MIN_SECONDS = 0.2  # per kernel and input: enough calls for a median


def _seconds_per_call(fn) -> float:
    """Median wall time of one call, over at least 3 calls and
    MIN_SECONDS."""
    times = []
    stop = time.perf_counter() + MIN_SECONDS
    while len(times) < 3 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(inputs) -> dict[str, float]:
    """rows/s per kernel (and the span flatten time) over
    ``(table, schema, id_column, referenced keys)`` inputs; a kernel that
    runs on several inputs reports total rows over total time."""
    rows: dict[str, int] = {}
    secs: dict[str, float] = {}

    def bench(name, n, fn):
        secs[name] = secs.get(name, 0.0) + _seconds_per_call(fn)
        rows[name] = rows.get(name, 0) + n

    flatten_s = 0.0
    for table, schema, id_col, keys in inputs:
        n = table.num_rows
        plan = compile_plan(schema, table.schema, id_column=id_col)
        if plan.tasks:
            bench("stages.checker.BatchChecker.rows_per_s", n, lambda: BatchChecker(plan)(table))
        for col, test, spec in plan.tasks:
            bench(f"checks.{test}.rows_per_s", n,
                  lambda c=table[col], t=test, s=spec: checks.run_test(t, c, s))
        for spec in schema.columns:
            if spec.type in ("spans", "list<span>"):
                def flatten(c=spec.name):
                    ctx = SpanContext(table)
                    ctx.flat(c), ctx.media_dict(c)
                    return ctx

                flatten_s += _seconds_per_call(flatten)
                ctx = flatten()
                bench("stages.spans.SpanChecker.rows_per_s", n,
                      lambda c=spec.name: SpanChecker(c, id_col)(table, ctx))
                if keys is not None:
                    bench("stages.spans.SpanMediaRefChecker.rows_per_s", n,
                          lambda c=spec.name: SpanMediaRefChecker(c, id_col, keys)(table, ctx))
            if spec.unique:
                bench("state.sketches.hash_array.rows_per_s", n,
                      lambda c=spec.name: hash_array(table[c]))
        drift_cols = [c.name for c in schema.columns if c.drift]
        if drift_cols:
            bench("stages.sketch_stage.SketchPartials.rows_per_s", n,
                  lambda: SketchPartials(drift_cols, [])(table))
    out = {k: (rows[k] / secs[k] if k in secs else 0.0) for k in KERNELS}
    out["stages.spans.SpanContext.flatten_s"] = flatten_s
    return out


SCAN_REPS = 3


def scan_metrics(groups: list[list[str]]) -> dict[str, float]:
    """Median over SCAN_REPS of: Ray read of each group of parquet files
    (one schema per group) -> identity map_batches -> materialize (the
    floor under every fused pass) and a pyarrow-only read of the same
    files."""
    import ray.data

    floor, arrow = [], []
    for _ in range(SCAN_REPS):
        t0 = time.perf_counter()
        for paths in groups:
            mat = ray.data.read_parquet(paths).map_batches(
                lambda t: t, batch_format="pyarrow").materialize()
            del mat
        floor.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for paths in groups:
            pads.dataset(paths, format="parquet").to_table()
        arrow.append(time.perf_counter() - t0)
    return {"sources.scan_floor_s": statistics.median(floor),
            "sources.arrow_read_s": statistics.median(arrow)}

