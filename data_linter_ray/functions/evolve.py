"""Schema-harmonized union and CDC change application.

Multi-source ingestion needs ``UNION ALL BY NAME`` (Ray's
``Dataset.union`` requires identical schemas) and a changelog-apply
(MERGE) step; both are here with the engine's usual shapes:

* :func:`union_by_name` — align each source to the union schema
  (missing columns become typed nulls) in a per-batch projection, then
  one zero-copy ``union``. No shuffle.
* :func:`apply_changes` — apply an upsert/delete changelog to a base
  snapshot: pad-union + ONE key-hash exchange, then per-partition
  vectorized latest-change-wins resolution. The lakehouse MERGE INTO,
  Ray-Data-shaped.

Reference provenance: the reference has no multi-snapshot machinery;
this extends the snapshot family (functions/diff.py) from *detecting*
changes to *applying* them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def union_by_name(datasets: list[Dataset]) -> Dataset:
    """``UNION ALL BY NAME``: the output schema is the union of all
    input fields (first-seen order); sources missing a column
    contribute typed nulls. Same-name fields must carry the same Arrow
    type (no silent cross-type coercion — fail loudly instead)."""
    if not datasets:
        raise ValueError("union_by_name needs at least one dataset")
    fields: dict[str, pa.DataType] = {}
    for ds in datasets:
        sch = ds.schema().base_schema
        for f in sch:
            if f.name in fields:
                if fields[f.name] != f.type:
                    raise TypeError(
                        f"column {f.name!r} has conflicting types: "
                        f"{fields[f.name]} vs {f.type}"
                    )
            else:
                fields[f.name] = f.type
    names = list(fields)

    def align(t: pa.Table) -> pa.Table:
        cols = {}
        for n in names:
            cols[n] = t[n] if n in t.column_names else pa.nulls(t.num_rows, fields[n])
        return pa.table(cols)

    aligned = [ds.map_batches(align, batch_format="pyarrow") for ds in datasets]
    out = aligned[0]
    for ds in aligned[1:]:
        out = out.union(ds)
    return out


def apply_changes(
    base: Dataset,
    changes: Dataset,
    key: str,
    seq_col: str,
    op_col: str = "op",
) -> Dataset:
    """Apply an upsert/delete changelog to a base snapshot → the final
    table (MERGE INTO semantics):

    * the change row with the highest ``seq_col`` per key wins
      (precondition, mirrored by the SQL oracle: (key, seq) unique);
    * winning op 'U' upserts its payload (insert when the key is new);
    * winning op 'D' deletes the key;
    * keys without changes pass through from base.

    Null keys are excluded. Payload columns are the shared non-key,
    non-seq, non-op columns. One pad-union key-hash exchange; the
    per-partition resolution is a vectorized sort + last-per-key pick."""
    payload = [
        c for c in base.schema().base_schema.names if c != key
    ]
    types = {
        c: base.schema().base_schema.field(c).type for c in [key] + payload
    }

    def pad(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(t[key].is_valid())
            n = t.num_rows
            cols = {key: t[key]}
            for c in payload:
                cols[c] = t[c]
            if side == 0:
                cols["_seq"] = pa.nulls(n, pa.int64())
                cols["_op"] = pa.nulls(n, pa.string())
            else:
                cols["_seq"] = t[seq_col].cast(pa.int64())
                cols["_op"] = t[op_col]
            return pa.table(cols)

        return f

    sel_changes = changes.select_columns([key] + payload + [seq_col, op_col])
    unioned = base.map_batches(pad(0), batch_format="pyarrow").union(
        sel_changes.map_batches(pad(1), batch_format="pyarrow")
    )

    def resolve(g: pd.DataFrame) -> pa.Table:
        # base rows sort before changes (null _seq → -1), then by _seq:
        # the LAST row per key is the winner
        g = g.assign(_s=g["_seq"].fillna(-1).astype(np.int64))
        g = g.sort_values([key, "_s"], kind="mergesort")
        last = ~g[key].duplicated(keep="last")
        win = g[last]
        win = win[win["_op"].fillna("U") != "D"]
        out = win[[key] + payload].reset_index(drop=True)
        cols = {}
        for c in [key] + payload:
            arr = pa.Array.from_pandas(out[c], type=types[c])
            cols[c] = arr
        return pa.table(cols)

    return exchange_map_groups(unioned, key, resolve)
