"""Reader registry: parquet / CSV / JSONL (+ Lance when available).

Reference semantics re-created (NOT ported):
  - CSV ``expect-header`` false → column names come from the table schema
    (``/root/reference/data_linter/validators/pandas_validator.py:417-425``)
  - ``pandas-kwargs`` NA handling (``keep_default_na``, ``na_values``) →
    Arrow CSV ``ConvertOptions`` null_values
    (exercised by reference ``tests/test_end_to_end_run.py:484-505``)
  - BOM/odd-char strip from header names (``pandas_validator.py:427``)
  - ``headers-ignore-case`` lowercases data columns
    (``pandas_validator.py:430-434``)
  - CSV/JSONL are cast to the schema's arrow types before checks
    (``pandas_validator.py:480-481``); parquet is read as-encoded
    (``parquet_validator.py:49-53``).

Casting happens inside a ``map_batches`` stage — distributed, per-batch,
zero driver involvement. A cast failure raises ``CastError`` which
``run_validation`` records as a table-level ``parse_data`` failure, the
reference's ``parse_data_to_pandas`` behavior (``pandas_validator.py:65-75``).

Parquet is read by this module's own Ray ``Datasource``, planned from
one pass over the files' footers on the driver
(:func:`exchange.parquet_footers`): a file's schema is its footer's, as
the reference learns it from the file itself, so a hive-style
``key=value`` directory adds no column. The footers also give the read
its exact row count, block count and batch size, so ``Dataset.count()``
and ``Dataset.schema()`` execute nothing, and no task samples the files
to guess their size. CSV, JSONL, ORC and Feather still read through
Ray's file-based datasources.
"""

from __future__ import annotations

import functools
from typing import Optional

import pyarrow as pa
import pyarrow.csv as pacsv
from ray.data import Dataset
from ray.data.datasource import Datasource

from data_linter_ray.exchange import (
    _decoded_bytes,
    parquet_footers,
    read_batch_rows,
    read_width,
)
from data_linter_ray.metadata import SPAN_TYPE_NAMES, TableSchema

# pandas default NA strings (public pandas docs) — used when
# keep_default_na is true (the default), matching arrow_pd_parser reads
PANDAS_DEFAULT_NA = [
    "",
    "#N/A",
    "#N/A N/A",
    "#NA",
    "-1.#IND",
    "-1.#QNAN",
    "-NaN",
    "-nan",
    "1.#IND",
    "1.#QNAN",
    "<NA>",
    "N/A",
    "NA",
    "NULL",
    "NaN",
    "None",
    "n/a",
    "nan",
    "null",
]


#: the column a read with ``include_paths`` adds: each row's source
#: file, as :func:`row_path` gives it
PATH_COLUMN = "path"


class CastError(Exception):
    pass


def _strip_odd_chars(name: str) -> str:
    return name.replace("\ufeff", "").replace("ï»¿", "")


def normalized_names(names: list[str], ignore_case: bool = False) -> list[str]:
    """Data column names as the readers hand them on: odd characters
    stripped and, with ``headers-ignore-case``, lowercased."""
    fixed = [_strip_odd_chars(n) for n in names]
    return [n.lower() for n in fixed] if ignore_case else fixed


def normalize_columns(ds: Dataset, ignore_case: bool = False) -> Dataset:
    names = ds.schema().names
    fixed = normalized_names(names, ignore_case)
    if fixed != names:
        new = dict(zip(names, fixed))
        ds = ds.map_batches(
            lambda t: t.rename_columns([new.get(n, n) for n in t.column_names]),
            batch_format="pyarrow",
        )
    return ds


def row_path(path: str) -> str:
    """The :data:`PATH_COLUMN` value of the rows read from ``path``: the
    path inside its filesystem, as Ray records it."""
    from data_linter_ray import fs as dlfs

    return dlfs.resolve(path)[1]


def cast_to_schema(ds: Dataset, schema: TableSchema) -> Dataset:
    """Cast the overlap columns to the schema's arrow types (CSV/JSONL
    ingest normalizer). Failures surface as CastError on execution."""
    targets = {c.name: c.arrow_type for c in schema.columns}

    def cast(t: pa.Table) -> pa.Table:
        arrays, names = [], []
        for name in t.column_names:
            col = t[name]
            if name in targets and col.type != targets[name]:
                try:
                    col = col.cast(targets[name])
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                    raise CastError(f"column {name}: {e}") from e
            arrays.append(col)
            names.append(name)
        return pa.Table.from_arrays(arrays, names=names)

    return ds.map_batches(cast, batch_format="pyarrow")


def _csv_options(table_params: dict, schema: TableSchema):
    expect_header = table_params.get("expect-header", True)
    pk = table_params.get("pandas-kwargs", {}) or {}
    na_values = list(pk.get("na_values", []))
    if pk.get("keep_default_na", True):
        na_values = PANDAS_DEFAULT_NA + na_values
    elif not na_values:
        na_values = []
    read_opts = pacsv.ReadOptions(
        column_names=None if expect_header else schema.column_names
    )
    convert_opts = pacsv.ConvertOptions(
        null_values=na_values, strings_can_be_null=True, quoted_strings_can_be_null=False
    )
    return read_opts, convert_opts


def _fs_kwargs(path) -> dict:
    # For s3:// paths, hand Ray an explicit pyarrow S3FileSystem so the
    # endpoint/credential configuration travels (serialized) with the scan
    # tasks to remote workers — no env dependence worker-side.
    from data_linter_ray import fs as dlfs

    p0 = path if isinstance(path, str) else path[0]
    return {"filesystem": dlfs.resolve(p0)[0]} if dlfs.is_s3(p0) else {}


def format_of(path: str) -> str:
    """A file's format, from its suffix; parquet unless another fits."""
    for fmt, suffixes in (
        ("csv", (".csv",)),
        ("jsonl", (".jsonl", ".json")),
        ("lance", (".lance",)),
        ("orc", (".orc",)),
        ("feather", (".feather", ".arrow")),
    ):
        if path.endswith(suffixes):
            return fmt
    return "parquet"


#: the string fields of a span column's structs that the parquet read
#: returns dictionary-encoded: they hold few distinct values, which the
#: span checks test once each (``stages/spans.py``)
SPAN_DICTIONARY_FIELDS = ("kind", "media_ref")


def _dictionary_spans(footer, span_cols) -> tuple[pa.Schema, list[str]]:
    """A footer's Arrow schema with the :data:`SPAN_DICTIONARY_FIELDS`
    of each ``list<struct>`` column in ``span_cols`` typed
    ``dictionary<int32, string>``, and those fields' parquet column
    paths (``spans.list.element.kind``), as
    ``ParquetReadOptions(dictionary_columns=...)`` names them."""
    schema = footer.metadata.schema.to_arrow_schema()
    if not set(span_cols) & set(schema.names):
        return schema, []
    paths = {tuple(c.path.split(".")): c.path for c in footer.metadata.schema}
    dictionary_columns = []
    fields = []
    for f in schema:
        t = f.type
        if f.name in span_cols and pa.types.is_list(t) and pa.types.is_struct(t.value_type):
            children = []
            for c in t.value_type:
                path = paths.get((f.name, "list", t.value_field.name, c.name))
                if c.name in SPAN_DICTIONARY_FIELDS and c.type == pa.string() and path:
                    c = c.with_type(pa.dictionary(pa.int32(), pa.string()))
                    dictionary_columns.append(path)
                children.append(c)
            f = f.with_type(pa.list_(t.value_field.with_type(pa.struct(children))))
        fields.append(f)
    if not dictionary_columns:
        return schema, []
    return pa.schema(fields, metadata=schema.metadata), dictionary_columns


def _read_parquet_files(filesystem, paths, batch_rows, include_paths, dictionary_columns):
    """A read task's body: each file's batches, as pyarrow's dataset
    fragment yields them (one per row group at most), empty ones
    dropped, with :data:`PATH_COLUMN` under ``include_paths`` and the
    ``dictionary_columns`` dictionary-encoded."""
    import pyarrow.dataset as pads

    parquet = pads.ParquetFileFormat(dictionary_columns=dictionary_columns)
    for path in paths:
        fragment = parquet.make_fragment(path, filesystem)
        for batch in fragment.to_batches(batch_size=batch_rows, use_threads=False):
            if batch.num_rows:
                t = pa.Table.from_batches([batch])
                if include_paths:
                    t = t.append_column(PATH_COLUMN, pa.repeat(pa.scalar(path), t.num_rows))
                yield t


class _FooterParquetDatasource(Datasource):
    """Parquet files planned from the driver's footer pass
    (:func:`exchange.parquet_footers`): each read task carries its
    files' exact row count and decoded-bytes estimate, their paths as
    ``input_files``, and the first file's schema, so neither
    ``Dataset.count()`` nor ``Dataset.schema()`` executes anything.
    Files split over ``parallelism`` tasks in listing order, as Ray's
    own parquet read splits them. The span fields of ``span_cols`` read
    as dictionary arrays (:func:`_dictionary_spans`), and the schema
    says so."""

    def __init__(self, footers: list, include_paths: bool, span_cols=()):
        from data_linter_ray import fs as dlfs

        if include_paths:
            for f in footers:
                if PATH_COLUMN in f.metadata.schema.to_arrow_schema().names:
                    raise ValueError(
                        f"{f.path} has a column {PATH_COLUMN!r}, the column an "
                        "include_paths read adds"
                    )
        self._footers = footers
        self._paths = [row_path(f.path) for f in footers]
        self._filesystem = dlfs.resolve(footers[0].path)[0] if footers else None
        self._schema, self._dictionary_columns = (
            _dictionary_spans(footers[0], span_cols) if footers else (None, [])
        )
        self._batch_rows = read_batch_rows(footers)
        self._include_paths = include_paths

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return _decoded_bytes(self._footers)

    def get_read_tasks(self, parallelism: int) -> list:
        import numpy as np
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        tasks = []
        for idx in np.array_split(np.arange(len(self._footers)), parallelism):
            if not len(idx):
                continue
            footers = [self._footers[i] for i in idx]
            paths = [self._paths[i] for i in idx]
            meta = BlockMetadata(
                num_rows=sum(f.metadata.num_rows for f in footers),
                size_bytes=_decoded_bytes(footers),
                input_files=paths,
                exec_stats=None,
            )
            read = functools.partial(
                _read_parquet_files,
                self._filesystem,
                paths,
                self._batch_rows,
                self._include_paths,
                self._dictionary_columns,
            )
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def read_parquet_dataset(path: str | list[str], include_paths: bool = False) -> Dataset:
    """Parquet file(s) → Dataset, as encoded (no ingest normalization,
    no hive partition columns: a file's columns are its footer's),
    planned from one footer pass on the driver
    (:func:`exchange.parquet_footers`) with no Ray execution. The read
    has the cluster-sized block count of :func:`exchange.read_width` and
    the batch size of :func:`exchange.read_batch_rows`, so a map fused
    with it runs once per file (row group), each batch within Ray's
    maximum block size. With ``include_paths`` this read adds
    :data:`PATH_COLUMN` to every row, and a file with a column of that
    name fails it. The parquet read of :func:`read_table_dataset` and of
    reference tables."""
    return _read_footers(path, include_paths)


def _read_footers(path, include_paths: bool, span_cols=()) -> Dataset:
    import ray.data

    footers = parquet_footers(path)
    return ray.data.read_datasource(
        _FooterParquetDatasource(footers, include_paths, span_cols),
        override_num_blocks=read_width(footers),
    )


def read_table_dataset(
    path: str | list[str],
    schema: TableSchema,
    table_params: Optional[dict] = None,
    file_format: Optional[str] = None,
    include_paths: bool = False,
) -> Dataset:
    """Read one table's file(s) into a Dataset, applying the format's
    ingest normalization. ``file_format`` defaults from the path suffix.
    With ``include_paths`` every row carries its source file in
    :data:`PATH_COLUMN`, and the read of a file that has a column of that
    name fails. :func:`read_parquet_dataset` adds the column for parquet
    and keeps it out of ``Dataset.schema()``; for the other formats it is
    Ray's read option. Parquet reads no hive partition columns.

    Every format reads :func:`exchange.read_width` blocks — two per
    cluster CPU, more only for inputs past Ray's maximum block size, so
    a read task may take several small files — rather than Ray's
    default, which splits a few small files into up to 200 blocks. ``pipelines.run.validate_group``
    (and so ``validate_phase`` and ``validate_table_checkpointed``)
    reads here once per group of units, with ``include_paths`` when the
    group has more than one.

    A parquet read returns the ``kind`` and ``media_ref`` fields of every
    column the schema types ``spans``/``list<span>`` dictionary-encoded
    (``dictionary<int32, string>``, in ``Dataset.schema()`` too), so the
    span checks test each distinct value once; every other column, and
    every other format, reads as stored."""
    import ray.data

    table_params = table_params or {}
    p0 = path if isinstance(path, str) else path[0]
    fs_kwargs = _fs_kwargs(path)
    fmt = file_format or format_of(p0)

    if fmt == "parquet":
        span_cols = [c.name for c in schema.columns if c.type in SPAN_TYPE_NAMES]
        ds = _read_footers(path, include_paths, span_cols)
    elif fmt == "orc":
        ds = read_orc_dataset(path, include_paths=include_paths, **fs_kwargs)
    elif fmt == "feather":
        ds = read_feather_dataset(path, include_paths=include_paths, **fs_kwargs)
    elif fmt == "lance":
        try:
            # requires lance in the env
            ds = ray.data.read_lance(p0, override_num_blocks=read_width(p0))
        except (ImportError, AttributeError) as e:  # pragma: no cover
            raise ImportError(
                "lance reader requested but lance is not installed"
            ) from e
    elif fmt == "csv":
        read_opts, convert_opts = _csv_options(table_params, schema)
        ds = ray.data.read_csv(
            path,
            read_options=read_opts,
            convert_options=convert_opts,
            override_num_blocks=read_width(path),
            include_paths=include_paths,
            **fs_kwargs,
        )
    elif fmt == "jsonl":
        ds = ray.data.read_json(
            path,
            override_num_blocks=read_width(path),
            include_paths=include_paths,
            **fs_kwargs,
        )
    else:
        raise ValueError(f"unsupported file format: {fmt}")

    ds = normalize_columns(ds, table_params.get("headers-ignore-case", False))
    if fmt in ("csv", "jsonl"):
        use_schema = (
            schema.lowercase_names()
            if table_params.get("headers-ignore-case", False)
            else schema
        )
        ds = cast_to_schema(ds, use_schema)
    return ds


# ---------------------------------------------------------------------------
# Columnar source formats beyond Ray's built-ins: ORC and Feather (Arrow
# IPC), as FileBasedDatasource subclasses — the idiomatic Ray Data
# extension point. Both stream SUB-FILE units (ORC stripes / IPC record
# batches) so one huge file never materializes as one block, and both
# inherit the full path/filesystem/parallelism machinery (S3 included).
# Reference provenance: the reference reads csv/jsonl/parquet only
# (reference data_linter/validators); these extend §2.1's source matrix
# the same way the lance gate does.
# ---------------------------------------------------------------------------


def _orc_datasource_cls():
    from ray.data.datasource import FileBasedDatasource

    class _OrcDatasource(FileBasedDatasource):
        _FILE_EXTENSIONS = ["orc"]

        def _open_input_source(self, filesystem, path, **open_args):
            # ORC needs RANDOM ACCESS (footer + stripe index); the
            # default opens a forward-only stream
            return filesystem.open_input_file(path)

        def _read_stream(self, f, path: str):
            import pyarrow.orc as po

            import pyarrow as _pa

            reader = po.ORCFile(f)
            for i in range(reader.nstripes):
                stripe = reader.read_stripe(i)  # → RecordBatch
                yield _pa.Table.from_batches([stripe])

    return _OrcDatasource


def _feather_datasource_cls():
    from ray.data.datasource import FileBasedDatasource

    class _FeatherDatasource(FileBasedDatasource):
        _FILE_EXTENSIONS = ["feather", "arrow"]

        def _open_input_source(self, filesystem, path, **open_args):
            # the IPC FILE format reads its footer first — random access
            return filesystem.open_input_file(path)

        def _read_stream(self, f, path: str):
            import pyarrow as _pa

            reader = _pa.ipc.open_file(f)
            for i in range(reader.num_record_batches):
                b = reader.get_batch(i)
                yield _pa.Table.from_batches([b])

    return _FeatherDatasource


def read_orc_dataset(path, **kwargs) -> "Dataset":
    """ORC files → Dataset, one stripe per yielded block, over
    :func:`exchange.read_width` read blocks."""
    import ray.data

    return ray.data.read_datasource(
        _orc_datasource_cls()(path, **kwargs), override_num_blocks=read_width(path)
    )


def read_feather_dataset(path, **kwargs) -> "Dataset":
    """Feather v2 / Arrow IPC files → Dataset, one record batch per
    yielded block (zero-copy IPC decode), over
    :func:`exchange.read_width` read blocks."""
    import ray.data

    return ray.data.read_datasource(
        _feather_datasource_cls()(path, **kwargs), override_num_blocks=read_width(path)
    )


def write_orc_dataset(ds, path: str, **kwargs) -> None:
    """Dataset → partitioned ORC directory, one file per block (the
    resumable many-files layout every sink in this engine uses)."""
    from ray.data.datasource import BlockBasedFileDatasink

    class _OrcSink(BlockBasedFileDatasink):
        def __init__(self, p):
            super().__init__(p, file_format="orc", **kwargs)

        def write_block_to_file(self, block, file):
            import pyarrow.orc as po

            po.write_table(block.to_arrow(), file)

    ds.write_datasink(_OrcSink(path))


def write_feather_dataset(ds, path: str, **kwargs) -> None:
    """Dataset → partitioned Feather v2 (Arrow IPC) directory, one
    file per block."""
    from ray.data.datasource import BlockBasedFileDatasink

    class _FeatherSink(BlockBasedFileDatasink):
        def __init__(self, p):
            super().__init__(p, file_format="feather", **kwargs)

        def write_block_to_file(self, block, file):
            import pyarrow as _pa

            t = block.to_arrow()
            with _pa.ipc.new_file(file, t.schema) as w:
                w.write_table(t)

    ds.write_datasink(_FeatherSink(path))
