"""Functional-dependency check: ``det → dep`` (every determinant value
maps to exactly one dependent value).

A cross-row data-quality invariant the reference's per-column tests
cannot express (reference scope: data_linter/validators/
pandas_validator.py:84-138 is column-at-a-time) — e.g. "one country
per postcode", "one currency per account". Violations are determinant
values observed with ≥ 2 distinct dependent values.

Scale shape — the engine's standard two-level exchange (the pattern
of validate's uniqueness pre-aggregates): a per-batch DISTINCT-pair combiner first, so
only (det, dep) distinct pairs — never rows — enter the all-to-all
exchange (a hot determinant costs at most one row per distinct dep per
batch); the exchange hash-partitions the pairs on the determinant;
each partition then re-distincts and counts dependent values
vectorized in pandas. No driver-side collection: returns a Dataset of
violating keys.

Null semantics match SQL ``count(DISTINCT dep) .. GROUP BY det WHERE
det IS NOT NULL``: null determinants are excluded (a null key
determines nothing), null dependents don't count as a value.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def fd_violations(ds: Dataset, det: str, dep: str) -> Dataset:
    """→ Dataset of ``(det, n_values)`` rows where the determinant maps
    to ``n_values ≥ 2`` distinct non-null dependent values."""

    def local_pairs(t: pa.Table) -> pa.Table:
        t = t.select([det, dep]).filter(
            pc.and_(pc.is_valid(t[det]), pc.is_valid(t[dep]))
        )
        # distinct (det, dep) pairs via an Arrow group-by (vectorized)
        return t.group_by([det, dep]).aggregate([])

    pre = ds.select_columns([det, dep]).map_batches(
        local_pairs, batch_format="pyarrow"
    )

    def find(g):
        s = (
            g.drop_duplicates([det, dep])
            .groupby(det, as_index=False, sort=False)[dep]
            .nunique()
            .rename(columns={dep: "n_values"})
        )
        return s[s["n_values"] > 1]

    return exchange_map_groups(pre, det, find)
