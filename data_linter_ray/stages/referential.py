"""Referential-integrity check (north-rule extension).

FK column ⊆ PK set of a reference table. ``validate_units`` picks one
of two physical paths per reference by the target's size (SURVEY.md
§2.4, §7.3); both read the FK column only in the fused check pass:

- **broadcast** (dimension tables up to ``BROADCAST_ROW_THRESHOLD``
  rows): the distinct PK set is collected once, ``ray.put`` into the
  object store, and :class:`_BroadcastAntiJoin` runs inside the fused
  check pass as a vectorized ``pc.is_in`` — no shuffle, and the set
  ships to each node once rather than per batch.
- **shuffle** (larger dimensions): the fused pass emits the FK column's
  pre-aggregates — one (unit, distinct key, row count) row per batch,
  built like the uniqueness pre-aggregates — and
  :func:`referential_violations_shuffle` anti-joins them against the
  target's distinct PK values in one exchange keyed on the stringified
  key, so only (key, count) pairs enter it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from data_linter_ray.checks import REFERENTIAL_TEST
from data_linter_ray.stages.checker import UNIT_VIOLATION_SCHEMA, Checker, _stringify

# dimension tables of at most this many rows are broadcast
BROADCAST_ROW_THRESHOLD = 10_000_000


class KeySetAntiJoin(Checker):
    """Anti-join of a column against a broadcast key set. ``pk_set_ref``
    is the set or its object ref; Ray dereferences it once per task from
    the local object store."""

    def __init__(self, column: str, id_column: str | None, pk_set_ref):
        self.column = column
        self.id_column = id_column
        self.pk_set_ref = pk_set_ref
        self._pk_set = None

    def _dangling(self, values: pa.Array) -> pa.Array:
        """Mask of the non-null ``values`` missing from the key set."""
        if self._pk_set is None:
            obj = self.pk_set_ref
            self._pk_set = ray.get(obj) if isinstance(obj, ray.ObjectRef) else obj
        member = pc.is_in(values, value_set=self._pk_set)
        # null values are the nullable / presence tests' job
        return pc.and_(pc.is_valid(values), pc.invert(pc.fill_null(member, False)))


class _BroadcastAntiJoin(KeySetAntiJoin):
    """Flat FK column ⊆ key set, inside the fused check pass."""

    def findings(self, batch: pa.Table, ctx):
        col = batch[self.column].combine_chunks()
        dangling = self._dangling(col)
        yield self.column, REFERENTIAL_TEST, pc.indices_nonzero(dangling), _stringify(
            col.filter(dangling)
        )


def distinct_key_set(ref_ds: Dataset | pa.Array, pk: str) -> pa.Array:
    """Distinct PK values (a null counts once) as one Arrow array: a
    driver fold of per-block ``unique()`` results as the blocks arrive,
    so the driver holds about the distinct set and no all-to-all
    aggregate runs. Accepts a precomputed pa.Array passthrough so callers
    can skip the scan entirely."""
    if isinstance(ref_ds, (pa.Array, pa.ChunkedArray)):
        return ref_ds if isinstance(ref_ds, pa.Array) else ref_ds.combine_chunks()
    parts: list[pa.Array] = []
    held = 0
    for t in ref_ds.select_columns([pk]).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        parts.append(t[pk].unique())
        held += len(parts[-1])
        # re-dedupe once the pending block uniques outgrow the folded
        # set: the driver holds ~2x the distinct set plus one block, and
        # the re-hashing stays linear in the values read
        if len(parts) > 1 and held > 2 * len(parts[0]):
            parts = [pa.concat_arrays(parts).unique()]
            held = len(parts[0])
    if not parts:
        return pa.array([], type=ref_ds.schema().base_schema.field(pk).type)
    return parts[0] if len(parts) == 1 else pa.concat_arrays(parts).unique()


def referential_violations_shuffle(
    fk_keys: Dataset, fk: str, ref_ds: Dataset, pk: str
) -> Dataset:
    """Shuffle strategy: anti-join of FK pre-aggregates against the PK
    set in one exchange keyed on the key.

    ``fk_keys`` holds ``key`` (the FK value as :func:`_stringify`
    renders it; no nulls), ``n`` (its row count) and ``cc`` (the unit)
    rows, as the fused pass emits them; the target's distinct ``pk``
    values are stringified the same way, so both paths render a value
    alike. Returns :data:`UNIT_VIOLATION_SCHEMA` rows: one per dangling
    FK row, like the broadcast path (a dangling key is repeated once per
    row that holds it), so the count does not depend on which path ran.
    The rows carry no ``row_ref``: row-level addressing would need a
    second join, which at dimension sizes that force this path is not
    worth its cost.
    """
    import numpy as np

    from data_linter_ray.exchange import exchange_map_groups

    keys = pa.schema([("key", pa.string()), ("n", pa.int64()), ("cc", pa.int16())])

    def pk_keys(t: pa.Table) -> pa.Table:
        k = _stringify(t[pk].combine_chunks().drop_null().unique())
        return pa.Table.from_arrays(
            [k, pa.nulls(len(k), pa.int64()), pa.nulls(len(k), pa.int16())], schema=keys
        )

    def dangling(t: pa.Table) -> pa.Table:
        # PK rows carry no count
        pk_set = t.filter(pc.is_null(t["n"]))["key"].combine_chunks()
        t = t.filter(pc.is_valid(t["n"]))
        t = t.filter(pc.invert(pc.is_in(t["key"], value_set=pk_set)))
        t = t.take(pa.array(np.repeat(np.arange(t.num_rows), t["n"].to_numpy())))
        m = t.num_rows
        return pa.Table.from_arrays(
            [
                pa.nulls(m, pa.string()),
                pa.repeat(pa.scalar(fk, pa.string()), m),
                pa.repeat(pa.scalar(REFERENTIAL_TEST, pa.string()), m),
                t["key"].combine_chunks(),
                t["cc"].combine_chunks(),
            ],
            schema=UNIT_VIOLATION_SCHEMA,
        )

    tagged = fk_keys.union(
        ref_ds.select_columns([pk]).map_batches(pk_keys, batch_format="pyarrow")
    )
    return exchange_map_groups(
        tagged, "key", dangling, batch_format="pyarrow", empty_schema=UNIT_VIOLATION_SCHEMA
    )
