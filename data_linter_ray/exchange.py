"""Fleet-wide exchange-width and read-width derivation, and the keyed
exchange itself.

Every manual exchange in the engine (validate's raw-task uniqueness
exchange and its shuffled referential check, fd's pre-aggregation,
dedup's bucketed pair generation, the as-of/range/session key-hash
exchanges) keys rows into P coarse partitions. A keyed operator names only its key columns:
:func:`exchange_map_groups` hashes them in its scatter tasks with
:func:`partition_of`, the one partition hash, at the width of its
materialized input. Only a range splitter, or another placement an
operator decides itself, passes partition ids and their count.

P used to be a single-node constant (32); at cluster scale it must
grow with input size or per-partition memory explodes.
:func:`exchange_width` derives P from the pipeline's input size using
PLAN METADATA ONLY — it never executes the dataset:

* a dataset with file provenance (``read_parquet`` etc.) contributes
  its on-disk bytes × ``DECODE_INFLATION`` (decoded Arrow is ~4× a
  compressed parquet footprint);
* an already-materialized dataset contributes its exact in-memory
  bytes (free — the blocks are counted);
* a derived, un-executed dataset contributes 0 (its provenance is the
  caller's responsibility: pass the SOURCE dataset too).

Width = ceil(estimated_bytes / TARGET_PARTITION_BYTES), floored at the
caller's ``floor``. Most callers take the default ``MIN_PARTITIONS`` so
small inputs still spread across the node. The validation stream's fold
and uniqueness exchange pass ``floor=cluster_cpus()`` instead: its work
is one task per block group and per partition, so partitions beyond the
CPU count only add tasks and objects (a 1-CPU box gets P = 1, a 32-CPU
node P = 32). Reads are sized here too: :func:`read_width` derives a
read's block count from the file listing and the same bytes estimate,
and :func:`read_batch_rows` a parquet read's batch size from that
estimate and the files' footer row counts, never executing anything. A
file read takes both from one driver pass over its files,
:func:`plan_files`: one listing, then one open per file for its size and
its format's schema (a parquet file's footer, :func:`parquet_footers`),
which also plan the read itself (``sources.readers``).

This module is the only place a keyed-exchange width, a row's hash
partition *or a read's block count and batch size* is decided: no
operator or reader takes a width argument or hashes a key into a
partition. The one setting is the ``DATA_LINTER_RAY_SHUFFLE_PARTITIONS``
env var, which replaces the derivation for every exchange
(:func:`join_width` still caps it at the cluster's CPUs) and leaves
reads alone.

It also holds the primitives every operator composes its passes from:
:func:`exchange_map_groups` / :func:`keyed_scatter_gather` (the keyed
exchange, hashing with :func:`partition_of`), :func:`fold_batches`
(one partial per batch, folded on the driver), :func:`range_bounds`
(equi-depth splitters for a range exchange, from one t-digest pass)
and :func:`block_refs` (a materialized Dataset's object refs).
"""

from __future__ import annotations

import math
import os
from typing import Any, NamedTuple

import ray

#: default floor — small inputs still fan out across one node's cores
#: (the validation stream floors at the cluster's CPU count instead)
MIN_PARTITIONS = 32
#: target decoded bytes per exchange partition (≈1 GiB: fits a worker
#: heap with headroom for the per-partition pandas merge)
TARGET_PARTITION_BYTES = 1 << 30
#: decoded-Arrow bytes per on-disk parquet byte (measured ~3-4× on the
#: test corpus; erring high only adds partitions, never memory)
DECODE_INFLATION = 4
ENV_VAR = "DATA_LINTER_RAY_SHUFFLE_PARTITIONS"


def exchange_width(*datasets, floor: int | None = None) -> int:
    """Partition count for a manual hash exchange over ``datasets``."""
    env = os.environ.get(ENV_VAR)
    if env:
        return int(env)
    lo = floor or MIN_PARTITIONS
    total = sum(_estimated_bytes(ds) for ds in datasets)
    if total <= 0:
        return lo
    return max(lo, math.ceil(total / TARGET_PARTITION_BYTES))


def cluster_cpus() -> int:
    """CPU count of the running Ray cluster, at least 1 (8 when Ray is
    not initialised)."""
    try:
        return max(1, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


class FilePlan(NamedTuple):
    """One file of a read, as the driver's planning pass saw it."""

    path: str  #: as listed, the scheme kept
    size: int  #: on-disk bytes
    schema: Any  #: its Arrow schema; None where only reading it all tells (JSONL)
    num_rows: Any  #: its row count; None where the format records none
    metadata: Any  #: a parquet file's ``pyarrow.parquet.FileMetaData``


def _listed(paths) -> list:
    """The files of ``paths`` (a file, a directory or a list of them;
    local or ``s3://``); a :class:`FilePlan` stands for its file. Under
    a directory, a file any part of whose path below it starts with
    ``.`` or ``_`` is no data, as pyarrow's dataset discovery has it
    (Spark's ``_SUCCESS``, ``_metadata``)."""
    from data_linter_ray import fs

    files: list = []
    for p in [paths] if isinstance(paths, str) else paths:
        listed = [] if isinstance(p, FilePlan) else fs.list_files(p)
        if not listed:  # a file lists as nothing
            files.append(p)
            continue
        below = len(p.rstrip("/")) + 1
        files += [
            f
            for f in listed
            if not any(part.startswith((".", "_")) for part in f[below:].split("/"))
        ]
    return files


def plan_files(paths, plan, options=None) -> list[FilePlan]:
    """One pass over the files of ``paths`` (:func:`_listed`) on the
    driver: the listing, then one open per file, from which
    ``plan(src, options)`` reads the file's Arrow schema, row count and
    format metadata. A file that cannot be planned raises."""
    from data_linter_ray import fs

    plans = []
    for f in _listed(paths):
        filesystem, rel = fs.resolve(f)
        with filesystem.open_input_file(rel) as src:
            plans.append(FilePlan(f, src.size(), *plan(src, options)))
    return plans


def read_footer(src, options=None) -> tuple:
    """A parquet file's plan (:func:`plan_files`): its footer."""
    import pyarrow.parquet as pq

    metadata = pq.read_metadata(src)
    return metadata.schema.to_arrow_schema(), metadata.num_rows, metadata


def parquet_footers(paths) -> list[FilePlan]:
    """:func:`plan_files` of parquet files: one footer read per file."""
    return plan_files(paths, read_footer)


def read_width(paths) -> int:
    """Block count for one read of ``paths`` (a file, a directory or a
    list of them; local or ``s3://``; or a read's :func:`plan_files`,
    whose sizes it takes), from the file
    listing only:
    max(2 × :func:`cluster_cpus`, decoded bytes /
    ``DataContext.target_max_block_size``).

    This is Ray's own read sizing without its
    ``read_op_min_num_blocks`` = 200 term (bounded below by 1 MiB
    blocks), which splits a few small files into tens of blocks on a
    small cluster. Each read task pays a fixed scheduling cost, and
    each batch it yields the fused check pass's fixed per-batch cost (a
    parquet file reads as one batch, :func:`read_batch_rows`, which Ray
    splits only when the width exceeds the file count), so the width
    does not grow with the file count: read tasks take several files
    each and never split a file further than the width, so a 1-CPU box
    reads a group of 8 small land files in 2 tasks, not 8. The 2 × CPUs
    floor is Ray's own, so a big node keeps its parallelism and a tiny
    file gets no more blocks than Ray's default gives it; the bytes
    term keeps blocks at Ray's maximum size for large inputs."""
    from ray.data import DataContext

    width = 2 * cluster_cpus()
    block_bytes = DataContext.get_current().target_max_block_size
    if block_bytes:
        width = max(width, math.ceil(_decoded_bytes(_listed(paths)) / block_bytes))
    return width


def read_batch_rows(footers: list[FilePlan]) -> int:
    """Rows per batch of one parquet read, from its
    :func:`parquet_footers`: the most rows that stay within
    ``DataContext.target_max_block_size`` in every file, at that file's
    :func:`_decoded_bytes` over its footer row count (with no such
    bound, the most rows of any file, at least 1).

    A parquet read yields at most one batch per row group, and the fused
    check pass runs once per batch, so at this size it runs once per row
    group (a file of up to 2^20 rows, as pyarrow writes it, is one)
    rather than once per Ray's default 10,000 rows. pyarrow's own
    default, 131,072 rows, would bound no batch's bytes."""
    from ray.data import DataContext

    block_bytes = DataContext.get_current().target_max_block_size
    bounds = [
        max(1, block_bytes * f.num_rows // _decoded_bytes([f]))
        for f in footers
        if block_bytes and f.num_rows and f.size
    ]
    return min(bounds, default=max([f.num_rows for f in footers] + [1]))


def join_width(*datasets) -> int:
    """Partition count for Ray Data's HASH JOIN (``Dataset.join``).

    Unlike the manual task-based exchanges, the hash join schedules one
    aggregator ACTOR per partition — a width beyond the cluster's CPU
    count deadlocks the streaming executor (the pool can never acquire
    its actors), and every actor costs real startup (~100-200 ms each,
    measured: a 32-actor pool adds ~5 s to a small join). So the floor
    is 2, not MIN_PARTITIONS: width grows with DATA
    (:func:`exchange_width` bytes derivation), never with the idle CPU
    count, and is capped at the cluster CPUs."""
    return max(2, min(exchange_width(*datasets, floor=2), cluster_cpus()))


def _estimated_bytes(ds) -> int:
    # materialized datasets know their exact in-memory size for free
    if type(ds).__name__ == "MaterializedDataset":
        try:
            return int(ds.size_bytes() or 0)
        except Exception:
            return 0
    # otherwise: file provenance only — input_files() is plan metadata
    # (returns [] for derived datasets); size_bytes() on a lazy dataset
    # would EXECUTE it, so it is never called here
    try:
        files = ds.input_files()
    except Exception:
        return 0
    return _decoded_bytes(files)


def _decoded_bytes(files) -> int:
    """On-disk bytes of ``files`` × ``DECODE_INFLATION`` (a
    :class:`FilePlan` carries its size; a file whose size cannot be read
    counts 0): the one bytes estimate behind every exchange width, read
    block count and read batch size."""
    from data_linter_ray import fs

    total = 0
    for f in files:
        try:
            total += f.size if isinstance(f, FilePlan) else fs.size(f)
        except Exception:
            pass
    return total * DECODE_INFLATION


def split_by_partition(t, part, num_partitions: int) -> list:
    """Split table ``t`` by the int partition vector ``part`` (values in
    [0, num_partitions)) so partition i holds the rows with ``part == i``
    in table order. The scatter side of every manual exchange. One
    partition is ``t`` itself; more take ``t`` in the stable order of
    ``part``, as int16 below 2**15 partitions (numpy sorts that with a
    radix sort), then slice it once per partition."""
    import numpy as np
    import pyarrow as pa

    if num_partitions == 1:
        return [t]
    if num_partitions < 2**15:
        part = part.astype(np.int16)
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
    st = t.take(pa.array(order))
    return [st.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(num_partitions)]


def partition_of(t, keys, num_partitions: int):
    """Hash partition in [0, num_partitions) of each row of table ``t``
    by its ``keys`` columns: the one partition hash of every keyed
    exchange. Each column is hashed with
    :func:`~data_linter_ray.state.sketches.hash_array` and the hashes
    are combined in ``keys`` order. Equal values land together whatever
    their physical type: a dictionary column is decoded first, integers
    hash as int64 and floats as float64 (string, large_string and
    string_view hash alike already), and every null hashes alike."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from data_linter_ray.state.sketches import hash_array

    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_dictionary(col.type):
            col = pc.cast(col, col.type.value_type)
        if pa.types.is_integer(col.type) and col.type != pa.int64():
            col = pc.cast(col, pa.int64(), safe=False)
        elif pa.types.is_floating(col.type) and col.type != pa.float64():
            col = pc.cast(col, pa.float64())
        h = h * np.uint64(0x9E3779B97F4A7C15) + hash_array(col)
    return (h % np.uint64(num_partitions)).astype(np.int64)


def keyed_scatter_gather(
    mat,
    by,
    num_partitions: int,
    reduce_fn,
    *,
    empty_schema=None,
):
    """Manual keyed exchange: scatter a MATERIALIZED dataset's blocks
    into ``num_partitions`` partitions, gather each non-empty partition
    in one reduce task, return the reduced blocks as a new Dataset
    (``from_arrow_refs`` — nothing lands on the driver). ``by`` is
    either a list of key columns, which the scatter task hashes with
    :func:`partition_of`, or the name of an int column of partition ids
    in [0, num_partitions).

    Why not ``groupby(col).map_groups``: Ray Data's sort-based
    groupby samples key values to pick reduce boundaries; any key
    holding more than 1/P of the mass duplicates a sampled boundary and
    yields empty, schema-less sort partitions (executor warns, dataset
    schema degrades) — and the sample+sort passes cost real time. This
    exchange is deterministic: partition i IS hash bucket (or id) i.
    All tasks are pure functions of their inputs, so lineage-based
    retry holds.

    ``reduce_fn(part_index, table) -> table`` runs once per NON-EMPTY
    partition: each scatter task also returns its per-partition row
    counts (one tiny extra return), the driver folds them and schedules
    reduce tasks only where rows landed, so ``reduce_fn`` never sees
    empty input. An all-empty exchange returns
    ``empty_schema.empty_table()`` (a zero-column table without it).

    Width scaling: blocks are grouped so at most ~2P scatter tasks run,
    each returning P objects — object-count is O(P²), fine at the
    bytes-derived widths this engine uses (P ≈ input/1 GiB; P=1000 →
    2M object-store entries across a fleet). Per-task memory is
    bounded: a scatter task holds ~1/(2P) of the input, a reduce task
    holds exactly one partition (~1/P).
    """
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    P = int(num_partitions)
    scatter = _scatter_task.options(num_returns=P + 1)
    refs = block_refs(mat)
    # group blocks so scatter-task (and returned-ref) count stays ~2×P
    group = max(1, len(refs) // (2 * P))
    groups = [refs[i : i + group] for i in range(0, len(refs), group)]
    per_block = [scatter.remote(by, P, *g) for g in groups]
    counts = np.sum([np.zeros(P, np.int64)] + ray.get([pb[P] for pb in per_block]), axis=0)
    live = [p for p in range(P) if counts[p] > 0]
    if not live:
        return rd.from_arrow(
            empty_schema.empty_table() if empty_schema is not None else pa.table({})
        )
    reduce_ref = ray.put(reduce_fn)  # one copy for every reduce task
    reduced = [
        _reduce_task.remote(reduce_ref, p, *[pb[p] for pb in per_block]) for p in live
    ]
    return rd.from_arrow_refs(reduced)


def _scatter(by, num_partitions: int, *tables):
    """Ray task: the scatter side of :func:`keyed_scatter_gather` — one
    block group split into ``num_partitions`` tables by ``by``, then
    their row counts."""
    import numpy as np
    import pyarrow as pa

    # Ray Data passes empty blocks through map_batches WITHOUT
    # calling the UDF, so an empty block can carry a stale upstream
    # schema (even missing the key columns). Empty parts are dropped by
    # the reduce side regardless, so skip empty inputs wholesale. A
    # pandas block (``from_pandas``) is scattered as Arrow.
    tables = [
        t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)
        for t in tables
        if len(t)
    ]
    if not tables:
        return tuple([pa.table({})] * num_partitions) + (np.zeros(num_partitions, np.int64),)
    t = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
    if isinstance(by, str):
        pv = t[by].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        pv = partition_of(t, by, num_partitions)
    out = split_by_partition(t, pv, num_partitions)
    return tuple(out) + (np.array([p.num_rows for p in out], np.int64),)


def _reduce(reduce_fn, i: int, *parts):
    """Ray task: the gather side of :func:`keyed_scatter_gather`."""
    import pyarrow as pa

    return reduce_fn(i, pa.concat_tables([p for p in parts if p.num_rows]))


_scatter_task = ray.remote(_scatter)
_reduce_task = ray.remote(_reduce)


def exchange_map_groups(
    ds,
    by,
    fn,
    *,
    num_partitions: int | None = None,
    batch_format: str = "pandas",
    empty_schema=None,
):
    """Drop-in replacement for ``ds.groupby(by).map_groups(fn,
    batch_format=...)``: one deterministic :func:`keyed_scatter_gather`
    exchange, ``fn`` applied to each non-empty partition as a pandas
    DataFrame (or a pyarrow Table with ``batch_format="pyarrow"``). No
    boundary sampling, no sort, no empty schema-less partitions.

    By default ``by`` is one key column or a list of them: rows are
    hash-partitioned by :func:`partition_of` at
    :func:`exchange_width` of the materialized input (its exact size,
    free), so every row of one key reaches one ``fn`` call, which sees
    the rows as they are. With ``num_partitions`` set, ``by`` is an int
    column of partition ids in [0, num_partitions), still present in
    what ``fn`` sees: for range splitters and other placements the
    caller decides itself."""
    import pyarrow as pa

    def reduce(i, t):
        out = fn(t.to_pandas() if batch_format == "pandas" else t)
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        # pandas metadata makes pa.Schema unhashable (upstream warning
        # noise) and serves no downstream purpose here
        return out.replace_schema_metadata(None)

    mat = ds if type(ds).__name__ == "MaterializedDataset" else ds.materialize()
    if num_partitions is None:
        by = [by] if isinstance(by, str) else list(by)
        num_partitions = exchange_width(mat)
    return keyed_scatter_gather(
        mat, by, num_partitions, reduce, empty_schema=empty_schema
    )


def block_refs(ds) -> list:
    """Object refs of a MATERIALIZED Dataset's blocks, in order."""
    return [r for bundle in ds.iter_internal_ref_bundles() for r in bundle.block_refs]


def fold_batches(ds, partial, merge, init):
    """Fold a Dataset to one driver-side value: ``partial(pa.Table)``
    runs inside ``map_batches`` and returns one picklable value per
    batch (a KB-size vector, sketch or dict — never rows), and the
    driver folds them with ``acc = merge(acc, value)`` in the Dataset's
    iteration order, starting from ``init`` (returned as is for an
    empty Dataset).

    Ray passes empty blocks through ``map_batches`` without calling
    the UDF, so a block without the payload column is skipped. When
    ``init`` is an ndarray every partial must have its shape: a
    mismatch raises instead of broadcasting into the total."""
    import pickle

    import numpy as np
    import pyarrow as pa

    def encode(t):
        return pa.table({"_fold": pa.array([pickle.dumps(partial(t))], pa.binary())})

    acc = init
    for b in ds.map_batches(encode, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        if "_fold" not in b.column_names:
            continue
        for payload in b["_fold"].to_pylist():
            value = pickle.loads(payload)
            if isinstance(init, np.ndarray) and np.shape(value) != init.shape:
                raise ValueError(
                    f"partial of shape {np.shape(value)}, fold of shape {init.shape}"
                )
            acc = merge(acc, value)
    return acc


def range_bounds(ds, cols, num_partitions: int) -> list:
    """Equi-depth splitters for a range exchange into ``num_partitions``
    buckets: one sorted, unique, finite float64 array per column of
    ``cols`` (``searchsorted(bounds, v)`` is v's bucket, so equal
    values always share one). All columns come from one t-digest pass
    (:func:`fold_batches`); with ``num_partitions <= 1`` every array is
    empty and nothing executes. The bounds only balance the buckets:
    an operator whose per-bucket scan is exact stays exact whatever
    they are. NaN values are ignored by the digest."""
    import numpy as np

    from data_linter_ray.state.sketches import TDigest

    if num_partitions <= 1:
        return [np.empty(0, np.float64) for _ in cols]

    def partial(t):
        out = []
        for c in cols:
            td = TDigest()
            td.add(t[c].to_numpy(zero_copy_only=False))
            out.append(td.to_bytes())
        return out

    def merge(digests, payloads):
        for d, b in zip(digests, payloads):
            d.merge(TDigest.from_bytes(b))
        return digests

    digests = fold_batches(ds, partial, merge, [TDigest() for _ in cols])
    qs = [i / num_partitions for i in range(1, num_partitions)]
    out = []
    for d in digests:
        bounds = np.unique(d.quantiles(qs))
        out.append(bounds[np.isfinite(bounds)])
    return out
