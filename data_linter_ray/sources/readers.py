"""Reader registry: parquet / CSV / JSONL / ORC / Feather (+ Lance when
available).

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

Every file format reads through this module's one Ray ``Datasource``,
planned on the driver by one pass over its files
(:func:`exchange.plan_files`): one listing, then one open per file, in
which the format's ``plan`` reads the file's Arrow schema and, where the
format records one, its row count (:data:`FORMATS`). A file's schema is
its own, as the reference learns it from the file itself, so a
hive-style ``key=value`` directory adds no column. In the read task the
format's ``batches`` yields the file's tables, and the rename, the
CSV/JSONL cast and the :data:`PATH_COLUMN` tag run on each, so every
block has the planned schema: ``Dataset.schema()`` executes nothing,
nor does ``Dataset.count()`` for parquet and ORC, and no task samples
the files to guess their size. A cast failure raises ``CastError``,
which ``run_validation`` records as a table-level ``parse_data``
failure, the reference's ``parse_data_to_pandas`` behavior
(``pandas_validator.py:65-75``).
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

import pyarrow as pa
import pyarrow.csv as pacsv
import pyarrow.dataset as pads
import pyarrow.json as pajson
import pyarrow.orc as paorc
from ray.data import Dataset
from ray.data.datasource import Datasource

from data_linter_ray.exchange import (
    _decoded_bytes,
    plan_files,
    read_batch_rows,
    read_footer,
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


def row_path(path: str) -> str:
    """The :data:`PATH_COLUMN` value of the rows read from ``path``: the
    path inside its filesystem, as Ray records it."""
    from data_linter_ray import fs as dlfs

    return dlfs.resolve(path)[1]


def _cast(t: pa.Table, targets: dict) -> pa.Table:
    """``t`` with the columns ``targets`` names cast to its arrow types
    (the CSV/JSONL ingest normalizer); a failed cast raises
    ``CastError``."""
    arrays = []
    for name in t.column_names:
        col = t[name]
        if name in targets and col.type != targets[name]:
            try:
                col = col.cast(targets[name])
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                raise CastError(f"column {name}: {e}") from e
        arrays.append(col)
    return pa.Table.from_arrays(arrays, names=t.column_names)


def _csv_options(table_params: dict, schema: TableSchema) -> dict:
    expect_header = table_params.get("expect-header", True)
    pk = table_params.get("pandas-kwargs", {}) or {}
    na_values = list(pk.get("na_values", []))
    if pk.get("keep_default_na", True):
        na_values = PANDAS_DEFAULT_NA + na_values
    return dict(
        read_options=pacsv.ReadOptions(
            column_names=None if expect_header else schema.column_names
        ),
        convert_options=pacsv.ConvertOptions(
            null_values=na_values, strings_can_be_null=True, quoted_strings_can_be_null=False
        ),
    )


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


def _parquet_batches(filesystem, path, options):
    """The file's batches, as pyarrow's dataset fragment yields them (one
    per row group at most), empty ones dropped, ``options`` = (batch
    rows, the parquet paths of the columns read dictionary-encoded)."""
    batch_rows, dictionary_columns = options
    fragment = pads.ParquetFileFormat(dictionary_columns=dictionary_columns).make_fragment(
        path, filesystem
    )
    for batch in fragment.to_batches(batch_size=batch_rows, use_threads=False):
        if batch.num_rows:
            yield pa.Table.from_batches([batch])


def _plan_csv(src, options):
    # reads the first block, as the read infers its types from it
    return pacsv.open_csv(src, **options).schema, None, None


def _csv_batches(filesystem, path, options):
    with filesystem.open_input_stream(path) as src:
        yield from (pa.Table.from_batches([b]) for b in pacsv.open_csv(src, **options))


def _jsonl_batches(filesystem, path, options):
    """The whole file as one table: its key set is the union over every
    line. One block spans the file, so no line outgrows it."""
    with filesystem.open_input_file(path) as src:
        block = min(max(src.size(), 1 << 20), (1 << 31) - 1)
        yield pajson.read_json(
            src, read_options=pajson.ReadOptions(use_threads=False, block_size=block)
        )


def _plan_orc(src, options):
    orc = paorc.ORCFile(src)
    return orc.schema, orc.nrows, None


def _orc_batches(filesystem, path, options):
    with filesystem.open_input_file(path) as src:
        orc = paorc.ORCFile(src)
        yield from (pa.Table.from_batches([orc.read_stripe(i)]) for i in range(orc.nstripes))


def _plan_feather(src, options):
    return pa.ipc.open_file(src).schema, None, None


def _feather_batches(filesystem, path, options):
    with filesystem.open_input_file(path) as src:
        ipc = pa.ipc.open_file(src)
        for i in range(ipc.num_record_batches):
            yield pa.Table.from_batches([ipc.get_batch(i)])


class FileFormat(NamedTuple):
    """``plan(src, options)`` reads a file opened on the driver for its
    (Arrow schema, row count, metadata); ``batches(filesystem, path,
    options)`` yields the file's tables in a read task. ORC and Feather
    stream sub-file units (stripes, IPC record batches), so one huge
    file never becomes one block; the reference reads csv/jsonl/parquet
    only, and they extend its source matrix as the lance gate does."""

    plan: Callable
    batches: Callable


#: every file format :func:`read_table_dataset` reads, by name
FORMATS = {
    "parquet": FileFormat(read_footer, _parquet_batches),
    "csv": FileFormat(_plan_csv, _csv_batches),
    "jsonl": FileFormat(lambda src, options: (None, None, None), _jsonl_batches),
    "orc": FileFormat(_plan_orc, _orc_batches),
    "feather": FileFormat(_plan_feather, _feather_batches),
}


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
    schema = footer.schema
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


def _read_files(batches, filesystem, paths, options, ignore_case, targets, include_paths):
    """A read task's body: each file's ``batches``, renamed when
    ``ignore_case`` is not None (:func:`normalized_names`), cast to
    ``targets`` when given, with :data:`PATH_COLUMN` under
    ``include_paths``."""
    for path in paths:
        for t in batches(filesystem, path, options):
            if ignore_case is not None:
                names = normalized_names(t.column_names, ignore_case)
                if names != t.column_names:
                    t = t.rename_columns(names)
            if targets:
                t = _cast(t, targets)
            if include_paths:
                if PATH_COLUMN in t.column_names:
                    raise ValueError(_path_column_taken(path))
                t = t.append_column(PATH_COLUMN, pa.repeat(pa.scalar(path), t.num_rows))
            yield t


def _path_column_taken(path: str) -> str:
    return f"{path} has a column {PATH_COLUMN!r}, the column an include_paths read adds"


class _FileDatasource(Datasource):
    """Files of one format, planned on the driver (:func:`plan_files`).
    Each read task carries its files' row count (where each is known),
    decoded-bytes estimate and listed paths (``input_files``), and the
    read's schema: the first file's, renamed (:func:`normalized_names`)
    and with the types of ``targets``, the columns to cast. Files split
    over ``parallelism`` tasks in listing order, as Ray's own file reads
    split them. ``options`` go to the format's :data:`FORMATS`
    functions; a parquet read makes its own, batching by
    :func:`exchange.read_batch_rows` and reading the span fields of
    ``span_cols`` as dictionary arrays (:func:`_dictionary_spans`)."""

    def __init__(
        self,
        fmt: str,
        files: list,
        include_paths: bool = False,
        *,
        options=None,
        ignore_case: bool = False,
        targets: Optional[dict] = None,
        span_cols=(),
    ):
        from data_linter_ray import fs as dlfs

        schema = files[0].schema if files else None
        if fmt == "parquet":
            schema, dictionary_columns = (
                _dictionary_spans(files[0], span_cols) if files else (None, [])
            )
            options = (read_batch_rows(files), dictionary_columns)
        file_names = [
            None if f.schema is None else normalized_names(f.schema.names, ignore_case)
            for f in files
        ]
        for f, n in zip(files, file_names):
            if include_paths and n and PATH_COLUMN in n:
                raise ValueError(_path_column_taken(f.path))
        renames = any(n is None or n != f.schema.names for f, n in zip(files, file_names))
        if schema is not None:
            names = normalized_names(schema.names, ignore_case)
            types = targets or {}
            schema = pa.schema(
                [f.with_name(n).with_type(types.get(n, f.type)) for f, n in zip(schema, names)],
                metadata=schema.metadata,
            )
        self._fmt = fmt
        self._files = files
        self._schema = schema
        self._read = functools.partial(
            _read_files,
            FORMATS[fmt].batches,
            dlfs.resolve(files[0].path)[0] if files else None,
            options=options,
            ignore_case=ignore_case if renames else None,
            targets=targets,
            include_paths=include_paths,
        )

    def get_name(self) -> str:
        return self._fmt.capitalize()

    def estimate_inmemory_data_size(self) -> int:
        return _decoded_bytes(self._files)

    def get_read_tasks(self, parallelism: int) -> list:
        import numpy as np
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        tasks = []
        for idx in np.array_split(np.arange(len(self._files)), parallelism):
            if not len(idx):
                continue
            files = [self._files[i] for i in idx]
            rows = [f.num_rows for f in files]
            meta = BlockMetadata(
                num_rows=None if None in rows else sum(rows),
                size_bytes=_decoded_bytes(files),
                input_files=[f.path for f in files],
                exec_stats=None,
            )
            read = functools.partial(self._read, [row_path(f.path) for f in files])
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def _read(path, fmt: str, include_paths: bool = False, **kwargs) -> Dataset:
    import ray.data

    files = plan_files(path, FORMATS[fmt].plan, kwargs.get("options"))
    return ray.data.read_datasource(
        _FileDatasource(fmt, files, include_paths, **kwargs),
        override_num_blocks=read_width(files),
    )


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
    return _read(path, "parquet", include_paths)


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
    :data:`PATH_COLUMN`, kept out of ``Dataset.schema()``, and the read
    of a file that has a column of that name fails. No format reads
    hive partition columns.

    Each format is planned on the driver from one open per file
    (:data:`FORMATS`): a parquet, ORC or Feather file's footer, a CSV
    file's first block (its header, or the schema's column names under
    ``expect-header`` false). The schema is the first file's, after the
    BOM strip and ``headers-ignore-case``, with the table schema's types
    for CSV, whose blocks are cast to them, so ``Dataset.schema()``
    executes nothing. A JSONL file's key set is the union over the whole
    file, so its read runs to its end here and the Dataset returned is
    materialized.

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
    fmt = file_format or format_of(p0)
    if fmt == "lance":
        try:
            # requires lance in the env
            return ray.data.read_lance(p0, override_num_blocks=read_width(p0))
        except (ImportError, AttributeError) as e:  # pragma: no cover
            raise ImportError(
                "lance reader requested but lance is not installed"
            ) from e
    if fmt not in FORMATS:
        raise ValueError(f"unsupported file format: {fmt}")

    ignore_case = table_params.get("headers-ignore-case", False)
    kwargs: dict = {"ignore_case": ignore_case}
    if fmt == "parquet":
        kwargs["span_cols"] = [c.name for c in schema.columns if c.type in SPAN_TYPE_NAMES]
    if fmt == "csv":
        kwargs["options"] = _csv_options(table_params, schema)
    if fmt in ("csv", "jsonl"):
        use_schema = schema.lowercase_names() if ignore_case else schema
        kwargs["targets"] = {c.name: c.arrow_type for c in use_schema.columns}
    ds = _read(path, fmt, include_paths, **kwargs)
    return ds.materialize() if fmt == "jsonl" else ds


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
