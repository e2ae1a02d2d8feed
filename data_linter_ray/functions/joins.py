"""Equi-join dispatcher: broadcast map-side join vs shuffle hash join.

Ray Data's ``Dataset.join`` is a full two-sided hash exchange with one
aggregator actor per partition — the right tool when both sides are
big, pure overhead when one side is a dimension table. The house rule
(brief: "broadcast small sides with ray.put + lookup inside
map_batches instead of a shuffle join") gets a first-class operator:

* ``strategy="broadcast"`` — the right side is materialized once,
  ``ray.put`` into the object store, and every left batch joins
  against it with pyarrow's Acero hash join (C++, zero Python rows).
  One streaming pass over the left; the right side never shuffles and
  the LEFT side never shuffles either.
* ``strategy="shuffle"`` — delegates to ``Dataset.join`` sized by
  ``exchange.join_width``.
* ``strategy="auto"`` — broadcast when the right side's estimated
  decoded size (plan metadata only, ``exchange._estimated_bytes``)
  fits ``broadcast_threshold_bytes``, else shuffle. Mirrors the
  broadcast-vs-shuffle choice ``validate_dataset`` makes for
  referential checks (BROADCAST_ROW_THRESHOLD, stages/referential.py).

Reference provenance: the reference joins file-lists to table configs
driver-side (reference validation.py); this generalizes the engine's
join surface for table-scale sides.
"""

from __future__ import annotations

import pyarrow as pa
import ray
from ray.data import Dataset

from data_linter_ray.exchange import _estimated_bytes, block_refs, join_width

#: decoded-bytes cap for the broadcast side (object-store resident copy
#: per node at cluster scale — keep well under a worker heap)
BROADCAST_JOIN_THRESHOLD_BYTES = 256 << 20


def equi_join(
    left: Dataset,
    right: Dataset,
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None = None,
    how: str = "inner",
    strategy: str = "auto",
    broadcast_threshold_bytes: int = BROADCAST_JOIN_THRESHOLD_BYTES,
) -> Dataset:
    """Inner / left-outer / right-outer / full-outer equi-join.
    ``how`` ∈ {"inner", "left_outer", "right_outer", "full_outer"};
    join-key name collisions follow ``Dataset.join`` semantics (the
    right key columns are dropped; on right/full-outer, right-unmatched
    rows surface their key COALESCEd into the left key column — SQL
    ``USING`` semantics).

    Right/full-outer on the broadcast path is a composition: the
    streaming inner (right) / left-outer (full) map-side join, plus a
    second key-pruned pass over the left that folds the set of MATCHED
    right keys (bounded by the broadcast side's size, never the
    left's), then the right side's unmatched remainder is padded with
    typed nulls and unioned on. The big side still never shuffles."""
    if how not in ("inner", "left_outer", "right_outer", "full_outer"):
        raise ValueError(f"unsupported how: {how}")
    if strategy not in ("auto", "broadcast", "shuffle"):
        raise ValueError(f"unknown strategy: {strategy}")
    right_on = right_on or on

    if strategy == "auto":
        est = _estimated_bytes(right)
        strategy = (
            "broadcast"
            if 0 < est <= broadcast_threshold_bytes
            else "shuffle"
        )

    if strategy == "shuffle":
        return left.join(
            right,
            how,
            join_width(left, right),
            on=on,
            right_on=right_on,
        )

    # broadcast: collect the right side into one arrow table (bounded by
    # the threshold — the documented broadcast-small rule), ship ONCE
    right_tbl = pa.concat_tables(ray.get(block_refs(right.materialize()))).combine_chunks()
    # Dataset.join drops the right key columns on name mismatch; mirror
    # that by renaming right keys to the left names pre-join
    if tuple(right_on) != tuple(on):
        right_tbl = right_tbl.rename_columns(
            [
                on[right_on.index(c)] if c in right_on else c
                for c in right_tbl.column_names
            ]
        )
    rt_ref = ray.put(right_tbl)
    join_type = (
        "inner" if how in ("inner", "right_outer") else "left outer"
    )

    def join_batch(t: pa.Table) -> pa.Table:
        rt = ray.get(rt_ref) if isinstance(rt_ref, ray.ObjectRef) else rt_ref
        return t.join(rt, keys=list(on), join_type=join_type)

    joined = left.map_batches(join_batch, batch_format="pyarrow")
    if how not in ("right_outer", "full_outer"):
        return joined

    # right/full-outer remainder: fold the matched right keys from a pruned
    # second pass over the left (each batch emits the semi-join of the
    # DISTINCT right keys against its own keys — ≤ |right keys| rows,
    # so the driver fold is bounded by the broadcast side)
    right_keys = right_tbl.select(list(on)).group_by(list(on)).aggregate([])
    rk_ref = ray.put(right_keys)

    def matched_partial(t: pa.Table) -> pa.Table:
        rk = ray.get(rk_ref) if isinstance(rk_ref, ray.ObjectRef) else rk_ref
        bk = t.select(list(on)).group_by(list(on)).aggregate([])
        return rk.join(bk, keys=list(on), join_type="left semi")

    matched_parts = list(
        left.select_columns(list(on))
        .map_batches(matched_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    matched = (
        pa.concat_tables(matched_parts) if matched_parts else right_keys
    ).group_by(list(on)).aggregate([])
    if not matched_parts:
        matched = matched.slice(0, 0)
    unmatched = right_tbl.join(matched, keys=list(on), join_type="left anti")
    # pad to the joined schema: left non-key columns become typed nulls,
    # right columns keep their values; column order mirrors Acero's
    # left-outer output (left columns, then right non-key columns)
    left_schema = left.schema().base_schema
    arrays, names = [], []
    for f in left_schema:
        names.append(f.name)
        if f.name in on:
            arrays.append(unmatched[f.name].cast(f.type))
        else:
            arrays.append(pa.nulls(unmatched.num_rows, f.type))
    for c in unmatched.column_names:
        if c not in on:
            names.append(c)
            arrays.append(unmatched[c])
    pad = pa.table(dict(zip(names, arrays)))
    if unmatched.num_rows == 0:
        return joined
    return joined.union(ray.data.from_arrow(pad))


def _filter_join(
    left: Dataset,
    right: Dataset,
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None,
    join_type: str,
) -> Dataset:
    """Shared semi/anti machinery: the right side contributes ONLY its
    key columns (deduped per batch before the broadcast — a combiner, so
    the collected table is |distinct keys|, not |rows|), then every left
    batch runs an Acero left-semi / left-anti join. The left side never
    shuffles and keeps its exact schema."""
    right_on = right_on or on

    def key_partial(t: pa.Table) -> pa.Table:
        g = t.select(list(right_on)).drop_null().group_by(list(right_on)).aggregate([])
        return g

    keys_tbl = pa.concat_tables(
        [
            b
            for b in right.map_batches(key_partial, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        ]
    ).group_by(list(right_on)).aggregate([]).combine_chunks()
    if tuple(right_on) != tuple(on):
        keys_tbl = keys_tbl.rename_columns(
            [on[right_on.index(c)] for c in keys_tbl.column_names]
        )
    ref = ray.put(keys_tbl)

    def jb(t: pa.Table) -> pa.Table:
        kt = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        return t.join(kt, keys=list(on), join_type=join_type)

    return left.map_batches(jb, batch_format="pyarrow")


def semi_join(
    left: Dataset,
    right: Dataset,
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None = None,
) -> Dataset:
    """Rows of ``left`` whose key exists in ``right`` (null keys never
    match — SQL IN semantics). The right side is reduced to its
    distinct keys per batch and broadcast once; bounded by the key
    domain, the same rule as the referential broadcast
    (stages/referential.py, whose pre-aggregated shuffle anti-join is
    the pattern for unbounded domains)."""
    return _filter_join(left, right, on, right_on, "left semi")


def anti_join(
    left: Dataset,
    right: Dataset,
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None = None,
) -> Dataset:
    """Rows of ``left`` whose key does NOT exist in ``right`` (null
    left keys are kept, matching SQL NOT EXISTS — not NOT IN)."""
    return _filter_join(left, right, on, right_on, "left anti")
