"""OLAP-style wide aggregates: rollup and pivot.

The reference's aggregation surface is per-table validation summaries
(reference `validators.py` response logs); these are the
multi-granularity aggregates an analytics consumer runs over the same
tables. Both follow the engine's two-level shape: a per-batch combiner
shrinks each block to its distinct groups BEFORE anything shuffles, so
the exchange carries group partials, never rows.

Float caution: ``sum_col`` sums are only oracle-hash-exact when the
column's values are integral (float64 addition of integers < 2^53 is
associative); pass ``sum_col=None`` for arbitrary floats.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def rollup_counts(
    ds: Dataset,
    k1: str,
    k2: str,
    sum_col: str | None = None,
) -> pa.Table:
    """``GROUP BY ROLLUP (k1, k2)``: counts (and optional sums) at the
    (k1, k2), (k1) and grand-total levels, rolled-up keys null.

    Scale shape: per-batch arrow ``group_by`` partials (the combiner) →
    one exchange keyed on ``k1`` summing the FINEST level → subtotals
    derived from the finest result, which is |distinct (k1,k2)| rows — tiny by
    assumption (documented: group-key cardinality ≪ rows; a rollup over
    a high-cardinality key pair should instead keep only the finest
    level distributed). Subtotal derivation is a driver fold over that
    small table, never over input rows."""
    aggs = {"n": ("n", "sum")}
    if sum_col:
        aggs["s"] = ("s", "sum")

    def partial(t: pa.Table) -> pa.Table:
        cols = [k1, k2] + ([sum_col] if sum_col else [])
        aggregations = [([], "count_all")]
        if sum_col:
            aggregations.append((sum_col, "sum"))
        g = t.select(cols).group_by([k1, k2]).aggregate(aggregations)
        out = {k1: g[k1], k2: g[k2], "n": g["count_all"].cast(pa.int64())}
        if sum_col:
            out["s"] = g[f"{sum_col}_sum"].cast(pa.float64())
        return pa.table(out)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([k1, k2], as_index=False, dropna=False).agg(**aggs)

    finest = exchange_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), k1, merge
    ).to_pandas()
    lvl1 = finest.groupby(k1, as_index=False, dropna=False).agg(**aggs)
    lvl1[k2] = None
    total = {k1: [None], k2: [None], "n": [finest["n"].sum()]}
    if sum_col:
        total["s"] = [finest["s"].sum()]
    out = pd.concat([finest, lvl1, pd.DataFrame(total)], ignore_index=True)
    cols = {
        k1: pa.array(out[k1], pa.string()),
        k2: pa.array(out[k2], pa.string()),
        "n": pa.array(out["n"].astype(np.int64)),
    }
    if sum_col:
        cols["sum_" + sum_col] = pa.array(out["s"], pa.float64())
    return pa.table(cols)


def pivot_counts(
    ds: Dataset,
    index_key: str,
    pivot_key: str,
    categories: list[str],
) -> Dataset:
    """Pivot ``pivot_key`` into one count column per category, one row
    per ``index_key`` value (rows with null index are dropped;
    ``categories`` is explicit so the output schema is deterministic and
    driver-free — discovery of the category domain is a separate tiny
    ``unique`` query when needed).

    Scale shape: each batch crosstabs locally into |keys-in-batch| ×
    |categories| partial rows (the combiner), then ONE exchange keyed on
    ``index_key`` summing them per index key."""
    cats = list(categories)
    idx_type = ds.schema().base_schema.field(index_key).type

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([index_key, pivot_key]).to_pandas()
        df = df.dropna(subset=[index_key])
        counts = {}
        for c in cats:
            counts[c] = (
                df[df[pivot_key] == c].groupby(index_key).size()
            )
        base = df.groupby(index_key).size()
        out = pd.DataFrame(index=base.index)
        for c in cats:
            out[c] = counts[c].reindex(out.index, fill_value=0).astype(np.int64)
        out = out.reset_index()
        if pa.types.is_integer(idx_type):
            # null-dropping float-promoted the key in null-carrying
            # blocks; cast back so every partial shares one schema
            out[index_key] = out[index_key].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(index_key, as_index=False)[cats].sum()

    return exchange_map_groups(
        ds.select_columns([index_key, pivot_key]).map_batches(
            partial, batch_format="pyarrow"
        ),
        index_key,
        merge,
    )


def melt(
    ds: Dataset,
    id_cols: list[str],
    value_cols: list[str],
    *,
    var_name: str = "variable",
    value_name: str = "value",
    include_nulls: bool = False,
) -> Dataset:
    """UNPIVOT (wide → long): one output row per (input row, value
    column), carrying the id columns, the source column's name, and its
    value cast to a common float64. Rows whose value is NULL are
    dropped unless ``include_nulls`` — SQL UNPIVOT semantics. A
    stateless per-batch flat expansion — Arrow concat of V
    column-slices per batch, zero Python rows, zero shuffle,
    embarrassingly parallel."""

    def f(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {ic: t[ic] for ic in id_cols}
            cols[var_name] = pa.array([c] * t.num_rows, pa.string())
            cols[value_name] = pc.cast(t[c], pa.float64())
            part = pa.table(cols)
            if not include_nulls:
                part = part.filter(part[value_name].is_valid())
            parts.append(part)
        return pa.concat_tables(parts)

    return ds.select_columns(sorted({*id_cols, *value_cols})).map_batches(
        f, batch_format="pyarrow"
    )


def cube_counts(
    ds: Dataset,
    k1: str,
    k2: str,
    sum_col: str | None = None,
) -> pa.Table:
    """``GROUP BY CUBE (k1, k2)``: :func:`rollup_counts`' grouping sets
    plus the (k2)-only level — all four subtotal levels derived from
    the same single distributed finest-level aggregate (the driver fold
    stays |distinct (k1,k2)|-sized)."""
    base = rollup_counts(ds, k1, k2, sum_col).to_pandas()
    finest = base[base[k1].notna() & base[k2].notna()]
    aggs = {"n": ("n", "sum")}
    if sum_col:
        aggs["sum_" + sum_col] = ("sum_" + sum_col, "sum")
    lvl2 = finest.groupby(k2, as_index=False, dropna=False).agg(**aggs)
    lvl2[k1] = None
    out = pd.concat([base, lvl2], ignore_index=True)
    cols = {
        k1: pa.array(out[k1], pa.string()),
        k2: pa.array(out[k2], pa.string()),
        "n": pa.array(out["n"].astype(np.int64)),
    }
    if sum_col:
        cols["sum_" + sum_col] = pa.array(out["sum_" + sum_col], pa.float64())
    return pa.table(cols)
