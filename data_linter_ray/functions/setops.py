"""Distinct-row set operations — SQL ``INTERSECT`` / ``EXCEPT``.

Completes the engine's relational surface next to union_by_name
(UNION ALL) and the semi/anti joins (which filter ONE side by keys;
set ops instead produce the DISTINCT row set relation).

Scale shape (the engine's standard two-level pattern): each side is
reduced per batch to its DISTINCT rows with a side tag (combiner — a
hot row costs one exchange row per batch); one
:func:`~data_linter_ray.exchange.exchange_map_groups` exchange keyed
on the whole row tuple co-locates equal rows from both sides,
and the per-partition set logic (pandas drop_duplicates + membership
masks) is then globally exact. Output rows are distinct, as SQL
defines. NULLs compare as equal to each other (SQL set-operation
semantics — INTERSECT/EXCEPT use IS NOT DISTINCT FROM matching,
unlike joins), which pandas duplicated()/merge indicator handling
gives for free via NaN-aware hashing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def _tagged(ds: Dataset, cols: list[str], side: int) -> Dataset:
    def f(t: pa.Table) -> pa.Table:
        # stay in Arrow: a pandas round-trip would float-promote
        # nullable int columns in null-carrying blocks only — mixed
        # block schemas in the exchange. Arrow group_by keeps nulls as
        # group keys (exactly the IS NOT DISTINCT FROM matching SQL
        # set ops use).
        g = t.select(cols).group_by(cols).aggregate([])
        return g.append_column("_side", pa.array(np.full(g.num_rows, side, np.int8)))

    return ds.select_columns(cols).map_batches(f, batch_format="pyarrow")


def _set_op(a: Dataset, b: Dataset, cols: list[str], op: str) -> Dataset:
    import ray.data as rd

    # either side may be an empty dataset with no schema — fall back to
    # the other; both empty → an empty (zero-column) result is all we
    # can type
    sch = a.schema() or b.schema()
    if sch is None:
        return rd.from_arrow(pa.table({}))
    types = {c: sch.base_schema.field(c).type for c in cols}
    out_schema = pa.schema([(c, types[c]) for c in cols])
    both = _tagged(a, cols, 0).union(_tagged(b, cols, 1))

    def resolve(g: pd.DataFrame) -> pa.Table:
        left = g[g["_side"] == 0][cols].drop_duplicates()
        right = g[g["_side"] == 1][cols].drop_duplicates()
        # pandas merge matches NaN keys to NaN keys — the SQL
        # IS NOT DISTINCT FROM semantics set operations require
        m = left.merge(right, on=cols, how="left", indicator=True)
        if op == "intersect":
            out = m[m["_merge"] == "both"]
        else:  # except
            out = m[m["_merge"] == "left_only"]
        # pin output types to the source Arrow schema (the pandas pass
        # float-promoted nullable ints)
        return pa.table(
            {c: pa.Array.from_pandas(out[c], type=types[c]) for c in cols}
        )

    return exchange_map_groups(both, cols, resolve, empty_schema=out_schema)


def intersect_distinct(a: Dataset, b: Dataset, cols: list[str]) -> Dataset:
    """SQL ``INTERSECT``: distinct rows (over ``cols``) present in
    BOTH datasets."""
    return _set_op(a, b, cols, "intersect")


def except_distinct(a: Dataset, b: Dataset, cols: list[str]) -> Dataset:
    """SQL ``EXCEPT``: distinct rows (over ``cols``) present in ``a``
    but not in ``b``."""
    return _set_op(a, b, cols, "except")
