"""Uniqueness check — a shuffle stage (north-rule extension).

Exact duplicate detection on a key column with two-level aggregation to
keep the shuffle small: a per-batch local ``value_counts`` combiner first
(so only (key, partial_count) pairs — not rows — enter the hash
exchange), then a per-partition sum. This is the explicit
partial-aggregation pattern SURVEY.md §2.5 calls for; skewed/hot keys cost
only one small row per (batch, key) on the map side, which is itself the
salting: the pre-aggregate bounds any single key's shuffle fan-in to the
number of input blocks.

No driver-side collection: returns a Dataset of duplicate keys.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def _local_counts(key: str):
    """Per-batch combiner: (key, partial n), one row per distinct key of
    the batch."""

    def fn(batch: pa.Table) -> pa.Table:
        vc = batch[key].combine_chunks().value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), pc.cast(vc.field("counts"), pa.int64())],
            names=[key, "n"],
        )

    return fn


def duplicate_keys(ds: Dataset, key: str) -> Dataset:
    """Dataset of ``(key, n)`` rows where ``n > 1`` (global duplicates).

    Two-level: per-batch value_counts combiner → hash exchange on the
    key → per-partition pandas sum. A pathologically hot key costs one
    row per (batch, key) in the exchange, so skew is bounded by block
    count."""
    pre = ds.select_columns([key]).map_batches(
        _local_counts(key), batch_format="pyarrow"
    )

    def find_dups(g):
        s = g.groupby(key, as_index=False)["n"].sum()
        return s[s["n"] > 1]

    return exchange_map_groups(pre, key, find_dups)
