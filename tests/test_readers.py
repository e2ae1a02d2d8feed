"""Read sizing: ``read_table_dataset`` reads ``exchange.read_width``
blocks, not Ray's default of up to 200, in batches of
``exchange.read_batch_rows`` rows, not Ray's default of 10,000.

The fused check pass pays a fixed cost per read task and per batch, so
a read must give the cluster enough blocks to run in parallel (at least
one per CPU) and no more: Ray's default splits six 50k-document files
into ~60 blocks. It must also never split a tiny file further than Ray
itself does, and many small files share read tasks rather than taking
one block each. A parquet file reads as one batch, so the pass runs once
per file, unless a batch would outgrow Ray's maximum block size.
"""

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from data_linter_ray import synth
from data_linter_ray.exchange import cluster_cpus, parquet_footers, read_batch_rows, read_width
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.pipelines.validate import ROWS_KEY, validate_units
from data_linter_ray.sources.readers import read_table_dataset
from data_linter_ray.state.sketches import TDigest

FILES, FILE_ROWS = 6, 50_000


@pytest.fixture(scope="module")
def docs_dir(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    for i in range(FILES):
        ids = np.arange(i * FILE_ROWS, (i + 1) * FILE_ROWS)
        pq.write_table(
            synth.make_documents_batch({"id": ids}), str(d / f"part-{i:04d}.parquet")
        )
    return str(d)


def test_read_blocks_cover_the_cpus_without_ray_default_inflation(docs_dir):
    cpus = cluster_cpus()
    assert cpus == 4  # the session fixture's cluster
    blocks = read_table_dataset(docs_dir, synth.documents_schema()).materialize()
    assert blocks.count() == FILES * FILE_ROWS
    # Ray may split each file's output once the width exceeds the file
    # count, so the ceiling is twice the width
    assert cpus <= blocks.num_blocks() <= 2 * max(FILES, 2 * cpus)
    # Ray's default on the same files: max(min(200, ~1 MiB blocks), 2 × CPUs)
    assert ray.data.read_parquet(docs_dir).materialize().num_blocks() > 2 * max(
        FILES, 2 * cpus
    )


def test_tiny_file_gets_no_more_blocks_than_ray_default(ray_session, tmp_path):
    path = str(tmp_path / "land.parquet")
    pq.write_table(synth.make_documents_batch({"id": np.arange(2_000)}), path)
    sized = read_table_dataset(path, synth.documents_schema()).materialize()
    default = ray.data.read_parquet(path).materialize()
    assert sized.count() == default.count() == 2_000
    assert sized.num_blocks() <= default.num_blocks()


def test_read_width_rule(ray_session, tmp_path):
    cpus = cluster_cpus()
    paths = []
    for i in range(3):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(synth.make_documents_batch({"id": np.arange(10)}), p)
        paths.append(p)
    # a file, a list of files, a directory; hidden files are not data
    open(os.path.join(tmp_path, ".hidden"), "w").write("x")
    assert read_width(paths[0]) == 2 * cpus
    assert read_width(paths) == read_width(str(tmp_path)) == max(3, 2 * cpus)
    many = [str(tmp_path / f"g{i}.parquet") for i in range(3 * cpus)]
    assert read_width(many) == 2 * cpus  # no block per file: tasks take several
    # past the maximum block size, the decoded-bytes estimate rules
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        decoded = 4 * sum(os.path.getsize(p) for p in paths)
        assert read_width(paths) == max(3, 2 * cpus, -(-decoded // 1024))
        assert read_width(paths) > 2 * cpus
    finally:
        ctx.target_max_block_size = saved


BATCH_FILES, BATCH_FILE_ROWS = 3, 30_000
KEYED = TableSchema(
    "t",
    [
        ColumnSpec("id", "int64", unique=True),
        ColumnSpec("a", "float64", maximum=90.0, drift={"metric": "quantile_shift"}),
    ],
)


@pytest.fixture(scope="module")
def keyed_dir(ray_session, tmp_path_factory):
    """Three 30k-row files whose ``id`` keys repeat within and across
    files, with a drifting ``a`` column."""
    d = tmp_path_factory.mktemp("keyed")
    rng = np.random.default_rng(0)
    for i in range(BATCH_FILES):
        pq.write_table(
            pa.table({
                "id": rng.integers(0, 60_000, BATCH_FILE_ROWS),
                "a": rng.uniform(0.0, 100.0, BATCH_FILE_ROWS),
            }),
            str(d / f"part-{i}.parquet"),
        )
    return str(d)


def _fused_calls(path) -> tuple[list[int], Counter]:
    """The rows of each fused-pass call over ``path`` (its kind-1
    ``__rows__`` stream rows) and the count of kind-3 sketch rows per
    (column, sketch kind), from one ``validate_units`` pass: the whole
    read as one unit, as ``validate_dataset`` runs it."""
    td = TDigest()
    td.add(np.linspace(0.0, 50.0, 1_000))
    [res], [stream, *_] = validate_units(
        read_table_dataset(path, KEYED), KEYED, None, drift_baselines={"a": {"tdigest": td}}
    )
    assert res.counts[("id", "unique_test")] > 0
    t = pa.concat_tables(ray.get(stream.to_arrow_refs()))
    rows = t.filter(pc.and_(pc.equal(t["kind"], 1), pc.equal(t["column"], ROWS_KEY)))
    sketches = t.filter(pc.equal(t["kind"], 3))
    return rows["n"].to_pylist(), Counter(
        zip(sketches["column"].to_pylist(), sketches["test"].to_pylist())
    )


@pytest.fixture
def one_cpu(monkeypatch):
    """The read width of a 1-CPU cluster (2 blocks), below the file
    count: a wider read has Ray split each file's output into several
    blocks, one call each."""
    from data_linter_ray import exchange

    monkeypatch.setattr(exchange, "cluster_cpus", lambda: 1)


def test_fused_pass_runs_once_per_file(keyed_dir, one_cpu):
    """Ray's own read batches of 10,000 rows would make nine calls."""
    assert read_batch_rows(parquet_footers(keyed_dir)) >= BATCH_FILE_ROWS
    rows, sketches = _fused_calls(keyed_dir)
    assert rows == [BATCH_FILE_ROWS] * BATCH_FILES
    assert sketches == {("a", "tdigest"): BATCH_FILES}


def test_read_batches_stay_within_the_block_size(keyed_dir, one_cpu):
    """With a small maximum block size a file reads in several batches,
    each within the bound by the decoded-bytes estimate and by its real
    Arrow size."""
    files = sorted(os.path.join(keyed_dir, f) for f in os.listdir(keyed_dir))
    per_row = max(4 * os.path.getsize(f) / BATCH_FILE_ROWS for f in files)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = bound = int(per_row * BATCH_FILE_ROWS / 4)
    try:
        batch = read_batch_rows(parquet_footers(keyed_dir))
        rows, sketches = _fused_calls(keyed_dir)
    finally:
        ctx.target_max_block_size = saved
    assert batch * per_row <= bound < (batch + 1) * per_row
    assert pq.read_table(files[0]).slice(0, batch).nbytes <= bound
    per_file = -(-BATCH_FILE_ROWS // batch)
    assert per_file > 1
    assert len(rows) == BATCH_FILES * per_file and max(rows) <= batch
    assert sum(rows) == BATCH_FILES * BATCH_FILE_ROWS
    assert sketches == {("a", "tdigest"): len(rows)}


# ---------------------------------------------------------------------------
# The read contract of ``read_parquet_dataset``: planned from the driver's
# footer pass, it reads what ``ray.data.read_parquet`` reads.
# ---------------------------------------------------------------------------


def _blocks(ds) -> list[pa.Table]:
    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]


def _rows(ds) -> list[str]:
    """Every row of ``ds`` with its schema, in a stable order."""
    return sorted(
        repr((t.schema, row)) for t in _blocks(ds) for row in t.to_pylist()
    )


def test_schema_and_count_launch_no_task(ray_session, tmp_path, monkeypatch):
    from data_linter_ray.sources import readers

    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        ids = np.arange(i * 100, i * 100 + 100 + i)
        pq.write_table(synth.make_documents_batch({"id": ids}), paths[-1])

    def no_read(*args):
        raise AssertionError("a read task ran")

    parquet = readers.FORMATS["parquet"]
    monkeypatch.setitem(readers.FORMATS, "parquet", parquet._replace(batches=no_read))
    for include_paths in (False, True):
        ds = readers.read_parquet_dataset(paths, include_paths)
        assert ds.schema().base_schema == pq.read_schema(paths[0])
        assert ds.count() == 303
        assert sorted(ds.input_files()) == sorted(readers.row_path(p) for p in paths)
        with pytest.raises(Exception, match="a read task ran"):
            ds.take(1)


def test_a_batch_per_row_group(ray_session, tmp_path):
    """Row groups are never merged: 2,500 rows in 1,000-row groups read
    as three batches at a batch size past the file's rows."""
    from data_linter_ray.exchange import parquet_footers
    from data_linter_ray.sources.readers import _FileDatasource

    path = str(tmp_path / "groups.parquet")
    pq.write_table(pa.table({"a": np.arange(2_500)}), path, row_group_size=1_000)
    footers = parquet_footers(path)
    assert read_batch_rows(footers) >= 2_500
    [task] = _FileDatasource("parquet", footers).get_read_tasks(1)
    assert task.metadata.num_rows == 2_500
    assert [t.num_rows for t in task()] == [1_000, 1_000, 500]


def test_include_paths_tags_are_row_paths(ray_session, tmp_path):
    from data_linter_ray.sources.readers import PATH_COLUMN, read_parquet_dataset, row_path

    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(pa.table({"a": pa.array([i] * (i + 2), pa.int64())}), paths[-1])
    ds = read_parquet_dataset(paths, include_paths=True)
    assert PATH_COLUMN not in ds.schema().names  # the tag stays out of the schema, as Ray's
    rows = Counter(
        (a, p)
        for t in _blocks(ds)
        for a, p in zip(t["a"].to_pylist(), t[PATH_COLUMN].to_pylist())
    )
    assert rows == {(i, row_path(p)): i + 2 for i, p in enumerate(paths)}


def test_a_path_column_fails_an_include_paths_read(ray_session, tmp_path):
    from data_linter_ray.sources.readers import read_parquet_dataset

    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"path": ["/a"]}), path)
    assert read_parquet_dataset(path).count() == 1
    with pytest.raises(Exception):
        ray.data.read_parquet(path, include_paths=True).materialize()
    with pytest.raises(ValueError, match="column 'path'"):
        read_parquet_dataset(path, include_paths=True)


@pytest.mark.parametrize("include_paths", [False, True])
def test_empty_file_and_second_schema_read_as_ray_reads_them(ray_session, tmp_path, include_paths):
    """A zero-row first file gives the schema, the second file's rows
    keep their own, for a directory and a list of files alike; under a
    directory a ``_``-prefixed file is no data."""
    import pandas as pd

    from data_linter_ray.sources.readers import read_parquet_dataset

    pq.write_table(pa.table({"a": pa.array([], pa.int64())}), str(tmp_path / "a.parquet"))
    pq.write_table(
        pa.Table.from_pandas(pd.DataFrame({"b": [1.5, None, 2.5]})), str(tmp_path / "b.parquet")
    )
    pq.write_table(pa.table({"c": [9]}), str(tmp_path / "_metadata"))
    listed = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    for path in (str(tmp_path), listed):
        want = ray.data.read_parquet(path, include_paths=include_paths)
        got = read_parquet_dataset(path, include_paths)
        assert got.schema().base_schema.equals(want.schema().base_schema, check_metadata=True)
        assert got.count() == want.count() == 3
        assert _rows(got) == _rows(want)


def test_group_validation_matches_ray_read(ray_session, tmp_path, monkeypatch):
    """``validate_group`` over a three-file group: the same manifests and
    violation parquet through this read as through Ray's own."""
    from dataclasses import asdict

    import pandas as pd

    from data_linter_ray.pipelines.run import validate_group
    from data_linter_ray.sources import readers

    rng = np.random.default_rng(5)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / "land" / f"part-{i}.parquet"))
        os.makedirs(os.path.dirname(paths[-1]), exist_ok=True)
        pq.write_table(
            pa.table({"id": rng.integers(0, 4_000, 3_000), "a": rng.uniform(0.0, 100.0, 3_000)}),
            paths[-1],
        )

    def run(root):
        manifests = validate_group(
            "t", [(p, p) for p in paths], KEYED, str(root), log_verbosity=5
        )
        out = []
        for m in manifests:
            m = asdict(m)
            m.pop("duration_s")
            rows = pd.read_parquet(m.pop("violations_path"))
            rows = rows.sort_values(list(rows.columns)).reset_index(drop=True)
            out.append((m, rows.to_dict("list")))
        return out

    got = run(tmp_path / "footer")

    def ray_read(path, fmt, include_paths=False, **kwargs):
        return ray.data.read_parquet(path, include_paths=include_paths)

    with monkeypatch.context() as m:
        m.setattr(readers, "_read", ray_read)
        want = run(tmp_path / "ray")
    assert [m["valid"] for m, _ in want] == [False] * 3
    assert all(rows["row_ref"] for _, rows in want)
    assert got == want


def test_hive_style_land_directory_adds_no_column(ray_session, tmp_path):
    """A land file under a ``key=value`` directory is validated as the
    file alone, as the footer grouping sees it: no ``dt`` column, for
    parquet, CSV and JSONL alike."""
    from data_linter_ray.pipelines import run

    land = tmp_path / "land"
    for table, days in (("t1", ("2024-01-01", "2024-01-02")), ("t2", ("2024-01-01",))):
        for day in days:
            part = land / table / f"dt={day}"
            part.mkdir(parents=True)
            pq.write_table(pa.table({"a": pa.array([1, 2], pa.int64())}), part / "f.parquet")
    for table, name, text in (("t3", "f.csv", "a\n1\n2\n"), ("t4", "f.jsonl", '{"a": 1}\n{"a": 2}\n')):
        part = land / table / "dt=2024-01-01"
        part.mkdir(parents=True)
        (part / name).write_text(text)
    meta = {"columns": [{"name": "a", "type": "int64", "minimum": 0}]}
    tables = ("t1", "t2", "t3", "t4")
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "tables": {t: {"metadata": {"name": t, **meta}} for t in tables},
    }
    res = run.run_validation(cfg, raise_on_failure=False)
    assert sorted(m.table for m in res.manifests) == ["t1", "t1", "t2", "t3", "t4"]
    assert all(m.valid and m.row_count == 2 for m in res.manifests), [
        m.response for m in res.manifests
    ]


def _span_files(tmp_path, n=3):
    paths = []
    for i in range(n):
        paths.append(str(tmp_path / f"docs{i}.parquet"))
        ids = np.arange(i * 500, i * 500 + 500 + i)
        pq.write_table(synth.make_documents_batch({"id": ids}), paths[-1])
    return paths


def test_span_read_is_dictionary_encoded_and_schema_executes_nothing(
    ray_session, tmp_path, monkeypatch
):
    """A table schema's span columns read with ``kind`` and
    ``media_ref`` dictionary-encoded. ``Dataset.schema()`` says so
    without running a read task (a spy that leaves a marker file), and
    it is the schema of every block the read yields."""
    from data_linter_ray.sources import readers

    paths = _span_files(tmp_path)
    marker = tmp_path / "read_ran"
    parquet = readers.FORMATS["parquet"]

    def spy(*args):
        marker.touch()
        yield from parquet.batches(*args)

    monkeypatch.setitem(readers.FORMATS, "parquet", parquet._replace(batches=spy))
    dict_str = pa.dictionary(pa.int32(), pa.string())
    for include_paths in (False, True):
        ds = read_table_dataset(paths, synth.documents_schema(), include_paths=include_paths)
        schema = ds.schema().base_schema
        assert not marker.exists()
        span = schema.field("spans").type.value_type
        assert [span.field(f).type for f in ("kind", "text", "media_ref")] == [
            dict_str, pa.string(), dict_str
        ]
        blocks = [ray.get(r) for b in ds.iter_internal_ref_bundles() for r, _ in b.blocks]
        assert marker.exists()
        marker.unlink()
        for t in blocks:
            if include_paths:
                t = t.drop_columns([readers.PATH_COLUMN])
            assert t.schema == schema
        assert sum(t.num_rows for t in blocks) == 1503


def test_flat_and_reference_reads_keep_the_footer_schema(ray_session, tmp_path):
    """Only span columns of a table schema read as dictionaries: a flat
    table's read schema is the footer's, metadata included, and so is a
    span file's read without a table schema (a reference table)."""
    from data_linter_ray.sources.readers import read_parquet_dataset

    flat = str(tmp_path / "flat.parquet")
    pq.write_table(pa.table({"a": [1, 2], "kind": ["x", "y"]}), flat)
    footer = parquet_footers(flat)[0].metadata.schema.to_arrow_schema()
    schema = TableSchema("t", [ColumnSpec("a", "int64"), ColumnSpec("kind", "string")])
    got = read_table_dataset(flat, schema).schema().base_schema
    assert got.serialize().to_pybytes() == footer.serialize().to_pybytes()

    [docs] = _span_files(tmp_path, 1)
    footer = parquet_footers(docs)[0].metadata.schema.to_arrow_schema()
    got = read_parquet_dataset(docs).schema().base_schema
    assert got.serialize().to_pybytes() == footer.serialize().to_pybytes()
    assert read_parquet_dataset(docs).take_all() == ray.data.from_arrow(
        pq.read_table(docs)
    ).take_all()


# ---------------------------------------------------------------------------
# Every file format is planned on the driver: ``Dataset.schema()`` knows a
# read's schema, renamed and cast, without running it.
# ---------------------------------------------------------------------------

AB = TableSchema("t", [ColumnSpec("a", "int64"), ColumnSpec("b", "string")])
AB_ROWS = 900


def _ab_values(na: bool) -> list:
    return [None if na and i % 10 == 0 else str(i) for i in range(AB_ROWS)]


def _write_ab(path, header=("a", "b"), na=False) -> str:
    """Columns ``a`` (0..899) and ``b`` (their strings, ``-`` for every
    tenth with ``na``) under ``header`` (None: no header line), in the
    format ``path``'s suffix names."""
    import json

    import pyarrow.feather as pf
    import pyarrow.orc as po

    a, b = list(range(AB_ROWS)), ["-" if v is None else v for v in _ab_values(na)]
    path = str(path)
    t = pa.table({"a": pa.array(a, pa.int64()), "b": b}).rename_columns(header or ("a", "b"))
    if path.endswith(".parquet"):
        pq.write_table(t, path)
    elif path.endswith(".orc"):
        po.write_table(t, path)
    elif path.endswith(".feather"):
        pf.write_feather(t, path)
    elif path.endswith(".jsonl"):
        with open(path, "w") as f:
            f.writelines(json.dumps(dict(zip(header, row))) + "\n" for row in zip(a, b))
    else:
        with open(path, "w") as f:
            f.write("" if header is None else ",".join(header) + "\n")
            f.writelines(f"{x},{y}\n" for x, y in zip(a, b))
    return path


PLANNED = [
    ("plain.parquet", {}, {}),
    ("bom.parquet", {}, {"header": ("\ufeffa", "b")}),
    ("upper.parquet", {"headers-ignore-case": True}, {"header": ("A", "B")}),
    ("plain.csv", {}, {}),
    ("headerless.csv", {"expect-header": False}, {"header": None}),
    ("upper.csv", {"headers-ignore-case": True}, {"header": ("A", "B")}),
    (
        "na.csv",
        {"pandas-kwargs": {"keep_default_na": False, "na_values": ["-"]}},
        {"na": True},
    ),
    ("plain.orc", {}, {}),
    ("plain.feather", {}, {}),
    ("plain.jsonl", {}, {}),
]


@pytest.mark.parametrize("name, params, written", PLANNED, ids=[c[0] for c in PLANNED])
def test_every_format_plans_its_schema(ray_session, tmp_path, monkeypatch, name, params, written):
    """With every format's ``batches`` raising, ``Dataset.schema()``
    runs no read task (nor does ``Dataset.count()`` for parquet and
    ORC, whose files record their row count). A JSONL read has run to
    its end when it is returned. Every block has the planned schema,
    renamed and, for CSV and JSONL, cast to the table schema's types."""
    from data_linter_ray.sources import readers

    path = _write_ab(tmp_path / name, **written)
    fmt = readers.format_of(path)
    if fmt != "jsonl":

        def no_read(*args):
            raise AssertionError("a read task ran")

        with monkeypatch.context() as m:
            for f, spec in readers.FORMATS.items():
                m.setitem(readers.FORMATS, f, spec._replace(batches=no_read))
            ds = read_table_dataset(path, AB, params)
            assert ds.schema(fetch_if_missing=False) is not None
            ds.schema()
            if fmt in ("parquet", "orc"):
                assert ds.count() == AB_ROWS
    ds = read_table_dataset(path, AB, params)
    planned = ds.schema(fetch_if_missing=False).base_schema
    assert planned.names == ["a", "b"]
    assert planned.types == [pa.int64(), pa.string()]
    blocks = _blocks(ds)
    assert all(t.schema == planned for t in blocks)
    got = pa.concat_tables(blocks).sort_by("a")
    assert got["a"].to_pylist() == list(range(AB_ROWS))
    assert got["b"].to_pylist() == _ab_values(written.get("na", False))


def test_jsonl_key_in_the_last_line_reaches_the_alignment_check(ray_session, tmp_path):
    """A JSONL key first seen in the last line, past pyarrow's first
    1 MiB block, is a column of the read: it fails the column alignment
    without ``allow_unexpected_data`` and passes with it."""
    import json

    from data_linter_ray.pipelines.validate import validate_dataset

    path = tmp_path / "late.jsonl"
    rows = 50_000
    with open(path, "w") as f:
        f.writelines(json.dumps({"a": i, "b": str(i)}) + "\n" for i in range(rows - 1))
        f.write(json.dumps({"a": rows, "b": "x", "late": 1}) + "\n")
    assert path.stat().st_size > 1 << 20
    ds = read_table_dataset(str(path), AB)
    assert "late" in ds.schema(fetch_if_missing=False).names
    res = validate_dataset(ds, AB)
    assert not res.valid
    assert res.response.get_result()["overall_validation"]["valid"] is False
    res = validate_dataset(ds, AB, allow_unexpected_data=True)
    assert res.valid and res.row_count == rows


def test_jsonl_line_longer_than_a_block_reads(ray_session, tmp_path):
    """A line past pyarrow's default 1 MiB block still reads."""
    import json

    long = "x" * (3 << 19)
    path = tmp_path / "long.jsonl"
    path.write_text(json.dumps({"a": 0, "b": long}) + "\n" + json.dumps({"a": 1, "b": "y"}) + "\n")
    got = pa.concat_tables(_blocks(read_table_dataset(str(path), AB))).sort_by("a")
    assert got["b"].to_pylist() == [long, "y"]
