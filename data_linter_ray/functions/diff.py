"""Snapshot diff: keyed row-level added / removed / changed between two
dataset versions.

The incremental-lakehouse counterpart of the reference's whole-file
set-diff matching (reference `validation.py`'s matched/unmatched file
lists, see pipelines/run.py:61-107 for the engine's port): instead of
diffing FILE sets, diff ROW sets by primary key across two snapshots
of the same table — the audit a user runs between yesterday's and
today's landed partitions.

Scale shape: pad-union of both snapshots with a ``_side`` lane (the
asof/range-join shape, functions/timeseries.py), ONE coarse key-hash
exchange, then a vectorized per-partition outer merge + NaN-safe
column compare. Unchanged rows are dropped inside the partition, so
the output is only the (typically small) delta; nothing materializes
on the driver.

Precondition (documented, mirrored by the SQL oracle): ``key`` is
unique within each snapshot — duplicate keys would cross-product in
the merge exactly as they would in SQL's FULL OUTER JOIN. Null keys
are excluded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def snapshot_diff(
    ds_a: Dataset,
    ds_b: Dataset,
    key: str,
    compare_cols: list[str],
) -> Dataset:
    """→ Dataset (key, status, changed_cols): status ∈ {'added',
    'removed', 'changed'}; ``changed_cols`` is the comma-joined sorted
    list of differing compare columns for 'changed' rows, null
    otherwise. Equality is null-safe (null == null)."""
    cols = [key] + list(compare_cols)
    key_type = ds_a.schema().base_schema.field(key).type
    ordered = sorted(compare_cols)

    def pad(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.select(cols).filter(t[key].is_valid())
            return t.append_column(
                "_side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return f

    unioned = ds_a.map_batches(pad(0), batch_format="pyarrow").union(
        ds_b.map_batches(pad(1), batch_format="pyarrow")
    )

    def diff_part(g: pd.DataFrame) -> pa.Table:
        a = g[g["_side"] == 0][cols]
        b = g[g["_side"] == 1][cols]
        m = a.merge(b, on=key, how="outer", suffixes=("_a", "_b"), indicator=True)
        status = np.where(
            m["_merge"] == "right_only",
            "added",
            np.where(m["_merge"] == "left_only", "removed", "changed"),
        )
        in_both = (m["_merge"] == "both").to_numpy()
        diff_mask = np.zeros((len(m), len(ordered)), dtype=bool)
        for j, c in enumerate(ordered):
            ca, cb = m[f"{c}_a"], m[f"{c}_b"]
            neq = ~((ca == cb) | (ca.isna() & cb.isna()))
            diff_mask[:, j] = neq.to_numpy()
        any_diff = diff_mask.any(axis=1)
        keep = ~in_both | any_diff
        # vectorized comma-join of the differing column names
        acc = np.where(diff_mask[:, 0], ordered[0], "")
        for j, c in enumerate(ordered[1:], start=1):
            p = np.where(diff_mask[:, j], c, "")
            sep = np.where((acc != "") & (p != ""), ",", "")
            acc = np.char.add(np.char.add(acc, sep), p)
        changed_cols = np.where(in_both, acc.astype(object), None)
        kv = m[key].to_numpy()[keep]
        if pa.types.is_integer(key_type):
            kv = kv.astype(np.int64)
        # explicit types: an all-null changed_cols partition must still
        # carry string, not null, so every block shares one schema
        return pa.table(
            {
                key: pa.array(kv),
                "status": pa.array(status[keep], pa.string()),
                "changed_cols": pa.array(changed_cols[keep], pa.string()),
            }
        )

    return exchange_map_groups(unioned, key, diff_part)
