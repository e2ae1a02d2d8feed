"""One-pass column-stats profiler (the north star's "column stats").

``profile_dataset`` computes, in a SINGLE fused scan: per-column row
count, null count, min, max (exact) and an approximate distinct count
(HyperLogLog). Per-batch partials are emitted as data (retry-safe, the
same pattern as the sketch stage) and folded on the driver — one row of
a few scalars per (batch, column), so the fold is KB-scale regardless
of input size. Partial min/max travel in NATIVE type (int / float /
string / timestamp-as-us lanes) so folding compares correctly; the
final render stringifies for the heterogeneous result table.

Exact distinct would need an all-to-all exchange; the HLL estimate is
±~1.6% at p=12, which is the scale-appropriate default for profiling.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import fold_batches
from data_linter_ray.state.sketches import HyperLogLog, hash_array


def _lane(t: pa.DataType) -> str:
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "num"
    if pa.types.is_timestamp(t):
        return "ts"
    return "str"


def _profile_batch(t: pa.Table, columns: list[str]) -> pa.Table:
    rows: dict[str, list] = {
        "column": [], "n": [], "n_null": [],
        "min_int": [], "max_int": [], "min_num": [], "max_num": [],
        "min_s": [], "max_s": [], "hll": [],
    }
    for c in columns:
        arr = t[c]
        lane = _lane(arr.type)
        if lane == "ts":
            # timestamps fold in the int lane (epoch µs). Cast to int64
            # BEFORE min_max so no datetime round-trip occurs — naive
            # datetime.timestamp() interprets values in the host's LOCAL
            # timezone, shifting results on any non-UTC host.
            unit = arr.type.unit
            factor = {"s": 1_000_000, "ms": 1_000, "us": 1, "ns": 1}[unit]
            mm = pc.min_max(arr.cast(pa.int64()))
            lo = mm["min"].as_py() if mm["min"].is_valid else None
            hi = mm["max"].as_py() if mm["max"].is_valid else None
            if lo is not None:
                if unit == "ns":
                    lo, hi = lo // 1_000, hi // 1_000
                else:
                    lo, hi = lo * factor, hi * factor
            lane = "int"
        else:
            mm = pc.min_max(arr)
            lo = mm["min"].as_py() if mm["min"].is_valid else None
            hi = mm["max"].as_py() if mm["max"].is_valid else None
        rows["column"].append(c)
        rows["n"].append(t.num_rows)
        rows["n_null"].append(arr.null_count)
        rows["min_int"].append(lo if lane == "int" else None)
        rows["max_int"].append(hi if lane == "int" else None)
        rows["min_num"].append(lo if lane == "num" else None)
        rows["max_num"].append(hi if lane == "num" else None)
        rows["min_s"].append(str(lo) if lane == "str" and lo is not None else None)
        rows["max_s"].append(str(hi) if lane == "str" and hi is not None else None)
        hll = HyperLogLog()
        hll.add_hashes(hash_array(arr.drop_null()))
        rows["hll"].append(hll.to_bytes())
    return pa.table(
        {
            "column": pa.array(rows["column"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "n_null": pa.array(rows["n_null"], pa.int64()),
            "min_int": pa.array(rows["min_int"], pa.int64()),
            "max_int": pa.array(rows["max_int"], pa.int64()),
            "min_num": pa.array(rows["min_num"], pa.float64()),
            "max_num": pa.array(rows["max_num"], pa.float64()),
            "min_s": pa.array(rows["min_s"], pa.string()),
            "max_s": pa.array(rows["max_s"], pa.string()),
            "hll": pa.array(rows["hll"], pa.binary()),
        }
    )


def top_values(ds: Dataset, column: str, k: int = 10) -> "pa.Table":
    """Exact top-k most frequent values of one column → arrow table
    (value, n) ordered by n desc, value asc (deterministic ties).

    Scale shape: per-batch local value counts (the combiner — only
    distinct values per batch enter the shuffle) → hash-partitioned
    groupby sum → per-partition top-k → driver merges P×k rows. The
    full value domain never lands on the driver; k×P is the only
    driver-side materialization."""
    import pandas as pd

    from data_linter_ray.exchange import exchange_map_groups

    def local_counts(t: pa.Table) -> pa.Table:
        vc = t[column].drop_null().value_counts()
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        return pa.table(
            {"value": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    def part_topk(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("value", as_index=False)["n"].sum()
        agg = agg.sort_values(["n", "value"], ascending=[False, True]).head(k)
        return agg[["value", "n"]]

    parts = exchange_map_groups(
        ds.select_columns([column]).map_batches(local_counts, batch_format="pyarrow"),
        "value",
        part_topk,
    )
    top = parts.to_pandas()
    top = top.sort_values(["n", "value"], ascending=[False, True]).head(k)
    return pa.Table.from_pandas(top.reset_index(drop=True), preserve_index=False)


def histogram(
    ds: Dataset, column: str, lo: float, hi: float, bins: int = 20
) -> "pa.Table":
    """Exact fixed-width histogram of a numeric column → (bin, n) with
    one row per non-empty bin; values outside [lo, hi) clamp into the
    edge bins (SQL parity: least/greatest on the bucket index).

    Scale shape: per-batch ``np.bincount`` partial (bins-sized int
    vector — the combiner), partials emitted as data and summed in one
    tiny driver fold. No shuffle at all."""
    import numpy as np

    width = (hi - lo) / bins

    def partial(t: pa.Table) -> pa.Table:
        v = t[column].drop_null()
        x = v.to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.clip(((x - lo) / width).astype(np.int64), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins)
        return pa.table(
            {
                "bin": np.arange(bins, dtype=np.int64),
                "n": counts.astype(np.int64),
            }
        )

    acc = None
    for row_tbl in (
        ds.select_columns([column])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        import numpy as np

        c = np.zeros(bins, dtype=np.int64)
        np.add.at(c, row_tbl["bin"].to_numpy(zero_copy_only=False),
                  row_tbl["n"].to_numpy(zero_copy_only=False))
        acc = c if acc is None else acc + c
    if acc is None:
        acc = __import__("numpy").zeros(bins, dtype="int64")
    keep = acc > 0
    import numpy as np

    return pa.table(
        {"bin": np.arange(bins, dtype=np.int64)[keep], "n": acc[keep]}
    )


def heavy_hitters(
    ds: Dataset, column: str, m: int = 255
) -> "pa.Table":
    """EXACT frequent values above frequency share 1/(m+1) → arrow
    table (``column``, n) ordered by n desc, value asc — precisely the
    rows of ``GROUP BY column HAVING count(*)*(m+1) > N`` — computed
    with ZERO shuffle (vs :func:`top_values`' value-hash exchange).

    Two passes over a single pruned column:

    1. per-batch exact ``value_counts`` folded through a Misra-Gries
       summary (:class:`~data_linter_ray.state.sketches.MisraGries`) —
       each batch contributes at most m+1 partial rows (m counters + a
       mass row), so the driver fold is KB-scale; the MG mass argument
       guarantees every value with count > N/(m+1) survives every
       truncation and merge, so the summary's keys are a SUPERSET of
       the true heavy hitters;
    2. the <= m candidate values are broadcast (``ray.put``) and
       exactly recounted with per-batch filtered value_counts partials
       summed in a second tiny driver fold; the final integer filter
       count*(m+1) > N makes the output exact.

    The value domain never shuffles and never lands anywhere whole —
    this is the heavy-hitter shape for 100-TB columns whose distinct
    count is itself too large to exchange (vs the exact
    ``top_values``, which shuffles one row per distinct value)."""
    import numpy as np
    import pandas as pd
    import ray

    from data_linter_ray.state.sketches import MisraGries

    col_ds = ds.select_columns([column])

    def partial(t: pa.Table) -> pa.Table:
        vc = t[column].drop_null().value_counts()
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        vals, counts = vc.field("values"), vc.field("counts").cast(pa.int64())
        cnp = counts.to_numpy(zero_copy_only=False)
        n_batch = int(cnp.sum())
        if len(vals) > m:
            # MG truncation: values strictly above the (m+1)-st largest
            # count survive with count - e (<= m rows leave the batch)
            e = np.partition(cnp, -(m + 1))[-(m + 1)]
            keep = cnp > e
            vals = vals.filter(pa.array(keep))
            cnp = cnp[keep] - e
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        # one extra all-null 'n' row carries the batch's true mass, so a
        # batch whose counters all die in truncation still contributes N
        return pa.table(
            {
                "value": pa.concat_arrays([vals, pa.array([None], vals.type)]),
                "cnt": pa.array(np.append(cnp, n_batch), pa.int64()),
                "kind": pa.array(["c"] * len(cnp) + ["n"], pa.string()),
            }
        )

    mg = MisraGries(m)
    n_total = 0
    for b in col_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        is_c = pc.equal(b["kind"], "c")
        cb = b.filter(is_c)
        nb = b.filter(pc.invert(is_c))
        n_total += int(nb["cnt"].to_numpy(zero_copy_only=False).sum())
        if cb.num_rows:
            mg.add_counts(
                cb["value"].to_pandas(), cb["cnt"].to_numpy(zero_copy_only=False)
            )
    # mg.n double-counts nothing (add_counts sums already-truncated
    # partials); use the true mass accumulated from the 'n' rows
    cand = mg.candidates()
    out_schema = pa.schema(
        [(column, ds.schema().base_schema.field(column).type), ("n", pa.int64())]
    )
    if not cand or n_total == 0:
        return out_schema.empty_table()
    cand_ref = ray.put(pa.array(cand))

    def recount(t: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref) if isinstance(cand_ref, ray.ObjectRef) else cand_ref
        v = t[column].drop_null()
        v = v.filter(pc.is_in(v, value_set=cs))
        vc = v.value_counts()
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        return pa.table(
            {"value": vc.field("values"),
             "cnt": vc.field("counts").cast(pa.int64())}
        )

    parts = (
        col_ds.map_batches(recount, batch_format="pyarrow").to_pandas()
    )
    agg = parts.groupby("value", as_index=False, sort=False)["cnt"].sum()
    agg = agg[agg["cnt"] * (m + 1) > n_total]
    agg = agg.sort_values(["cnt", "value"], ascending=[False, True])
    return pa.table(
        {
            column: pa.array(agg["value"].to_numpy(), out_schema.field(column).type),
            "n": pa.array(agg["cnt"].to_numpy(), pa.int64()),
        }
    )


def profile_dataset(ds: Dataset, columns: list[str] | None = None) -> pa.Table:
    """→ arrow table (column, n, n_null, min_str, max_str,
    approx_distinct), one row per column. min/max are rendered as
    strings in the result (heterogeneous column types in one table) but
    folded in native type."""
    columns = columns or ds.schema().names
    types = {c: ds.schema().base_schema.field(c).type for c in columns}
    partials = ds.select_columns(columns).map_batches(
        lambda t: _profile_batch(t, columns), batch_format="pyarrow"
    )
    acc: dict[str, dict] = {
        c: {"n": 0, "n_null": 0, "min": None, "max": None, "hll": HyperLogLog()}
        for c in columns
    }
    for row in partials.take_all():
        e = acc[row["column"]]
        e["n"] += row["n"]
        e["n_null"] += row["n_null"]
        lo = next((row[k] for k in ("min_int", "min_num", "min_s") if row[k] is not None), None)
        hi = next((row[k] for k in ("max_int", "max_num", "max_s") if row[k] is not None), None)
        if lo is not None:
            e["min"] = lo if e["min"] is None else min(e["min"], lo)
        if hi is not None:
            e["max"] = hi if e["max"] is None else max(e["max"], hi)
        e["hll"].merge(HyperLogLog.from_bytes(row["hll"]))

    def render(c: str, v) -> str | None:
        if v is None:
            return None
        if pa.types.is_timestamp(types[c]):
            import datetime as _dt

            s = str(
                _dt.datetime.fromtimestamp(v / 1e6, tz=_dt.timezone.utc).replace(
                    tzinfo=None
                )
            )
            # SQL VARCHAR-cast parity: trailing zeros of the fractional
            # second are trimmed ('.032440' → '.03244', '.000000' → '')
            if "." in s:
                s = s.rstrip("0").rstrip(".")
            return s
        return str(v)

    return pa.table(
        {
            "column": pa.array(columns, pa.string()),
            "n": pa.array([acc[c]["n"] for c in columns], pa.int64()),
            "n_null": pa.array([acc[c]["n_null"] for c in columns], pa.int64()),
            "min_str": pa.array([render(c, acc[c]["min"]) for c in columns], pa.string()),
            "max_str": pa.array([render(c, acc[c]["max"]) for c in columns], pa.string()),
            "approx_distinct": pa.array(
                [round(acc[c]["hll"].estimate()) for c in columns], pa.int64()
            ),
        }
    )


def profile_drift(ds_a: Dataset, ds_b: Dataset, columns: list[str]) -> pa.Table:
    """Schema/stats drift between two snapshots of the same table —
    the reference's per-run profile (`data_linter`'s response-log column
    stats) extended to an A/B compare a user runs between yesterday's
    and today's landed partitions.

    Runs :func:`profile_dataset` once per snapshot (each a single fused
    streaming scan) and joins the two tiny per-column result tables on
    the driver. Emitted fields are exact integers / rendered min-max
    strings plus integer deltas and boolean change flags — no float
    arithmetic, so the whole output is SQL-oracle hash-exact. The
    approximate HLL distinct counts are compared separately with
    :func:`state.sketches` drift verdicts (tolerance-based), not here."""
    pa_a = profile_dataset(ds_a, columns)
    pa_b = profile_dataset(ds_b, columns)
    a = {r["column"]: r for r in pa_a.to_pylist()}
    b = {r["column"]: r for r in pa_b.to_pylist()}
    rows = {
        "column": columns,
        "n_a": [a[c]["n"] for c in columns],
        "n_b": [b[c]["n"] for c in columns],
        "n_delta": [b[c]["n"] - a[c]["n"] for c in columns],
        "n_null_a": [a[c]["n_null"] for c in columns],
        "n_null_b": [b[c]["n_null"] for c in columns],
        "min_a": [a[c]["min_str"] for c in columns],
        "min_b": [b[c]["min_str"] for c in columns],
        "max_a": [a[c]["max_str"] for c in columns],
        "max_b": [b[c]["max_str"] for c in columns],
        "min_changed": [a[c]["min_str"] != b[c]["min_str"] for c in columns],
        "max_changed": [a[c]["max_str"] != b[c]["max_str"] for c in columns],
    }
    return pa.table(
        {
            "column": pa.array(rows["column"], pa.string()),
            "n_a": pa.array(rows["n_a"], pa.int64()),
            "n_b": pa.array(rows["n_b"], pa.int64()),
            "n_delta": pa.array(rows["n_delta"], pa.int64()),
            "n_null_a": pa.array(rows["n_null_a"], pa.int64()),
            "n_null_b": pa.array(rows["n_null_b"], pa.int64()),
            "min_a": pa.array(rows["min_a"], pa.string()),
            "min_b": pa.array(rows["min_b"], pa.string()),
            "max_a": pa.array(rows["max_a"], pa.string()),
            "max_b": pa.array(rows["max_b"], pa.string()),
            "min_changed": pa.array(rows["min_changed"], pa.bool_()),
            "max_changed": pa.array(rows["max_changed"], pa.bool_()),
        }
    )


def null_cooccurrence(ds: Dataset, cols: list[str]) -> "pd.DataFrame":
    """Pairwise missingness structure — which columns go missing
    TOGETHER (the "is this NULL pattern one upstream failure?"
    diagnostic a linter surfaces before imputation decisions): for
    every unordered column pair (a < b lexicographically), exact
    counts of rows where a is null, b is null, and both are null,
    plus the total row count.

    Scale shape: one column-pruned streaming scan; per batch the
    C null masks are bit-AND-ed pairwise into C·(C-1)/2 + C + 1
    int64 lanes (a few hundred bytes), folded on the driver —
    partials-as-data, no shuffle, same pattern as ``corr_matrix``.
    All outputs are exact integers (hash-exact vs SQL count_if).

    → DataFrame(col_a, col_b, n_rows, n_a_null, n_b_null,
    n_both_null), sorted by (col_a, col_b).
    """
    import numpy as np
    import pandas as pd

    cols = sorted(cols)
    C = len(cols)
    pairs = [(i, j) for i in range(C) for j in range(i + 1, C)]
    LANES = 1 + C + len(pairs)  # n_rows, per-col nulls, per-pair both

    def partial(t: pa.Table) -> np.ndarray:
        masks = [
            pc.is_null(t[c]).to_numpy(zero_copy_only=False) for c in cols
        ]
        out = np.zeros(LANES, np.int64)
        out[0] = t.num_rows
        for i, m in enumerate(masks):
            out[1 + i] = int(m.sum())
        for p, (i, j) in enumerate(pairs):
            out[1 + C + p] = int((masks[i] & masks[j]).sum())
        return out

    total = fold_batches(
        ds.select_columns(cols), partial, np.add, np.zeros(LANES, np.int64)
    )

    return pd.DataFrame(
        {
            "col_a": [cols[i] for i, _ in pairs],
            "col_b": [cols[j] for _, j in pairs],
            "n_rows": total[0],
            "n_a_null": [total[1 + i] for i, _ in pairs],
            "n_b_null": [total[1 + j] for _, j in pairs],
            "n_both_null": list(total[1 + C:]),
        }
    )


def approx_value_counts(
    ds: Dataset,
    column: str,
    probe_values: list,
) -> "pd.DataFrame":
    """ZERO-shuffle approximate frequencies for a PROBE SET of values —
    "how often do these specific ids / tokens / labels appear?" when
    the column's distinct domain is too large to exchange and the
    probes are known up front. One streaming scan of per-batch
    Count-Min partials (2^14 × 5 int64 cells each, element-wise added
    on the driver); estimates carry the sketch's ONE-SIDED guarantee —
    never under the true count, over by at most ε·N (ε = e/2^14) w.p.
    ≥ 1−δ (δ = e^−5).

    Deliberately NOT a driver-contract query (approximate by design);
    the guarantee is tolerance-tested against exact counts in pytest.

    → DataFrame(value, n_est), probe order preserved.
    """
    import numpy as np
    import pandas as pd

    from data_linter_ray.state.sketches import CountMin, hash_array

    def partial(t: pa.Table) -> CountMin:
        col = t[column].drop_null()
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        local = CountMin()
        local.add_hashes(hash_array(col))
        return local

    cm = fold_batches(ds.select_columns([column]), partial, CountMin.merge, CountMin())

    probes = pa.array(probe_values)
    est = cm.estimate_hashes(hash_array(probes))
    return pd.DataFrame({"value": probe_values, "n_est": est.astype(np.int64)})
