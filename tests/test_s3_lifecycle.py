"""Object-store (S3) paths through the whole run lifecycle, moto-backed.

Mirrors the reference's local/S3 path-combination matrix
(``/root/reference/tests/test_end_to_end_run.py:82-119``): every base
path in the config — land / pass / fail / log — may independently be a
local directory or an ``s3://`` URI. A real moto server runs on
localhost; pyarrow reads and boto3 writes both hit it, including the
Ray read tasks (the endpoint rides inside the serialized pyarrow
S3FileSystem handed to them by ``sources.readers``) and the
violations-parquet write tasks.
"""

import gzip
import json

import pyarrow as pa
import pytest

from data_linter_ray import fs

from test_run_e2e import CSV_FAIL, CSV_PASS, TABLE1_META


@pytest.fixture(scope="module")
def moto_s3(monkeypatch_module):
    boto3 = pytest.importorskip("boto3")
    moto_server = pytest.importorskip("moto.server")

    server = moto_server.ThreadedMotoServer(port=0, verbose=False)
    server.start()
    port = server._server.server_address[1]
    ep = f"http://127.0.0.1:{port}"
    monkeypatch_module.setenv("DATA_LINTER_RAY_S3_ENDPOINT", ep)
    monkeypatch_module.setenv("AWS_ACCESS_KEY_ID", "test")
    monkeypatch_module.setenv("AWS_SECRET_ACCESS_KEY", "test")
    monkeypatch_module.setenv("AWS_DEFAULT_REGION", "us-east-1")
    client = boto3.client(
        "s3",
        endpoint_url=ep,
        region_name="us-east-1",
        aws_access_key_id="test",
        aws_secret_access_key="test",
    )
    for b in ("land", "pass-bkt", "fail-bkt", "log-bkt"):
        client.create_bucket(Bucket=b)
    yield client
    server.stop()


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def _mk_paths(combo_id: str, tmp_path, land_s3, pass_s3, log_s3):
    land = f"s3://land/{combo_id}/" if land_s3 else str(tmp_path / "land") + "/"
    pass_p = f"s3://pass-bkt/{combo_id}/" if pass_s3 else str(tmp_path / "pass") + "/"
    fail_p = f"s3://fail-bkt/{combo_id}/" if pass_s3 else str(tmp_path / "fail") + "/"
    log_p = f"s3://log-bkt/{combo_id}/" if log_s3 else str(tmp_path / "log") + "/"
    return land, pass_p, fail_p, log_p


def _plant(land: str, name: str, text: str):
    fs.write_bytes(fs.join(land, name), text.encode())


@pytest.mark.parametrize("land_s3", [True, False])
@pytest.mark.parametrize("pass_s3", [True, False])
@pytest.mark.parametrize("log_s3", [True, False])
def test_full_path_spectrum(ray_session, moto_s3, tmp_path, land_s3, pass_s3, log_s3):
    from data_linter_ray.pipelines.run import run_validation

    combo = f"combo-{int(land_s3)}{int(pass_s3)}{int(log_s3)}"
    land, pass_p, fail_p, log_p = _mk_paths(combo, tmp_path, land_s3, pass_s3, log_s3)
    _plant(land, "table1.csv", CSV_PASS)
    cfg = {
        "land-base-path": land,
        "pass-base-path": pass_p,
        "fail-base-path": fail_p,
        "log-base-path": log_p,
        "remove-tables-on-pass": True,
        "tables": {"table1": {"metadata": TABLE1_META}},
    }
    res = run_validation(cfg)
    assert res.all_tables_passed
    # file routed to pass, removed from land
    assert fs.exists(fs.join(pass_p, "table1", "table1.csv"))
    assert not fs.exists(fs.join(land, "table1.csv"))
    # per-table log + main run log written
    entry = json.loads(fs.read_text(fs.join(log_p, "tables", "table1", "log-table1-0.json")))
    assert entry["valid"] and entry["table-name"] == "table1"
    assert res.main_log_path and fs.exists(res.main_log_path)
    assert "Running validation" in fs.read_text(res.main_log_path)


def test_s3_fail_routing_and_violations(ray_session, moto_s3, tmp_path):
    """Failing file on an all-S3 config: routed to fail bucket, violations
    parquet PUT to S3 by the block write tasks, main log uploaded."""
    from data_linter_ray.pipelines.run import run_validation

    land, pass_p, fail_p, log_p = _mk_paths("failcase", tmp_path, True, True, True)
    _plant(land, "table1.csv", CSV_FAIL)
    cfg = {
        "land-base-path": land,
        "pass-base-path": pass_p,
        "fail-base-path": fail_p,
        "log-base-path": log_p,
        "tables": {"table1": {"metadata": TABLE1_META}},
    }
    res = run_validation(cfg)
    assert not res.all_tables_passed
    assert fs.exists(fs.join(fail_p, "table1", "table1.csv"))
    assert fs.exists(fs.join(land, "table1.csv"))  # fail → land copy kept
    m = res.manifests[0]
    assert m.counts.get("my_int::min_max_test") == 1
    assert m.violations_path and m.violations_path.startswith("s3://")
    import ray.data

    viol = ray.data.read_parquet(
        m.violations_path, filesystem=fs.resolve(m.violations_path)[0]
    )
    assert viol.count() == 2  # one min_max + one enum violation row


def test_s3_grouped_parquet_units(ray_session, moto_s3, tmp_path, monkeypatch):
    """Parquet land files on S3 validated as one group: one violation
    write, and each failing file's rows under its own S3 directory."""
    import io

    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq
    import ray.data

    from data_linter_ray.pipelines.run import run_validation

    land, pass_p, fail_p, log_p = _mk_paths("grouped", tmp_path, True, True, True)
    for name, text in (("table1_a", CSV_PASS), ("table1_b", CSV_FAIL), ("table1_c", CSV_FAIL)):
        buf = io.BytesIO()
        pq.write_table(pacsv.read_csv(io.BytesIO(text.encode())), buf)
        fs.write_bytes(fs.join(land, f"{name}.parquet"), buf.getvalue())
    writes = []
    write = fs.write_parquet_uri
    monkeypatch.setattr(
        fs, "write_parquet_uri", lambda *a, **kw: writes.append(a[1]) or write(*a, **kw)
    )
    res = run_validation(
        {
            "land-base-path": land,
            "pass-base-path": pass_p,
            "fail-base-path": fail_p,
            "log-base-path": log_p,
            "tables": {"table1": {"metadata": TABLE1_META}},
        },
        raise_on_failure=False,
    )
    assert writes == [fs.join(log_p, "violations", "table1")]
    by_file = {m.source_path.rsplit("/", 1)[-1]: m for m in res.manifests}
    assert by_file["table1_a.parquet"].valid
    assert by_file["table1_a.parquet"].violations_path is None
    for name in ("table1_b.parquet", "table1_c.parquet"):
        m = by_file[name]
        assert not m.valid and m.counts == {"my_int::min_max_test": 1, "animal::enum_test": 1}
        assert m.violations_path.startswith("s3://")
        parts = fs.list_files(m.violations_path)
        assert parts and all(p.startswith(m.violations_path + "/") for p in parts)
        viol = ray.data.read_parquet(
            m.violations_path, filesystem=fs.resolve(m.violations_path)[0]
        )
        assert sorted(r["value"] for r in viol.take_all()) == ["5", "robot"]


def test_s3_error_path_uploads_main_log(ray_session, moto_s3, tmp_path):
    """all-must-pass + failure raises, but the main log is uploaded first
    (reference validation.py:240-249)."""
    from data_linter_ray.pipelines.run import run_validation

    land, pass_p, fail_p, log_p = _mk_paths("errcase", tmp_path, True, True, True)
    _plant(land, "table1.csv", CSV_FAIL)
    cfg = {
        "land-base-path": land,
        "pass-base-path": pass_p,
        "fail-base-path": fail_p,
        "log-base-path": log_p,
        "all-must-pass": True,
        "tables": {"table1": {"metadata": TABLE1_META}},
    }
    with pytest.raises(ValueError, match="did not pass"):
        run_validation(cfg)
    logs = fs.list_files(fs.join(log_p, "data-linter-main-logs"))
    assert logs, "main log must be uploaded on the error path"
    assert "Tables did not pass linter" in fs.read_text(logs[0])


def test_s3_compress_roundtrip(moto_s3, tmp_path):
    """gzip-compress movement local→S3 and S3→local round-trips content
    (reference utils.compress_data, utils.py:28-59)."""
    src = tmp_path / "data.jsonl"
    body = b'{"a": 1}\n{"a": 2}\n'
    src.write_bytes(body)
    dst = "s3://pass-bkt/compress/data.jsonl"
    out = fs.copy_file(str(src), dst, compress=True)
    assert out.endswith(".gz")
    assert gzip.decompress(fs.read_bytes(out)) == body
    # and back down: s3 → local, no compress
    back = tmp_path / "back.jsonl.gz"
    fs.copy_file(out, str(back))
    assert gzip.decompress(back.read_bytes()) == body


def test_s3_resume_skips_committed_units(ray_session, moto_s3, tmp_path):
    """Manifests on S3: a resumed run skips already-committed units."""
    from data_linter_ray.pipelines.run import (
        list_land_files,
        match_files_to_tables,
        open_status_store,
        run_validation,
    )
    from data_linter_ray.config import load_and_validate_config

    land, pass_p, fail_p, log_p = _mk_paths("resume", tmp_path, True, True, True)
    _plant(land, "table1.csv", CSV_PASS)
    cfg = load_and_validate_config(
        {
            "land-base-path": land,
            "pass-base-path": pass_p,
            "fail-base-path": fail_p,
            "log-base-path": log_p,
            "remove-tables-on-pass": False,
            "tables": {"table1": {"metadata": TABLE1_META}},
        }
    )
    res1 = run_validation(cfg)
    assert res1.all_tables_passed
    store = open_status_store(cfg)
    committed = store.all()
    assert len(committed) == 1 and committed[0].valid
    # resume: unit already committed → validate_phase skips it (no error
    # even though we corrupt the land file, proving it is not re-read)
    fs.write_bytes(fs.join(land, "table1.csv"), b"not,a,valid\nheader,row,x\n")
    res2 = run_validation(cfg, resume=True)
    assert res2.all_tables_passed


def test_validate_table_checkpointed_on_s3(ray_session, moto_s3):
    """Fragment-group units on an all-S3 table: fragments are read with
    the resolved S3 filesystem, manifests and violations land on S3, and
    a second call resumes with nothing left to validate."""
    import io

    import numpy as np
    import pyarrow.parquet as pq

    from data_linter_ray import synth
    from data_linter_ray.pipelines.table import validate_table_checkpointed

    inp, out = "s3://land/tblckpt/", "s3://log-bkt/tblckpt/out"
    for i in range(2):
        buf = io.BytesIO()
        pq.write_table(
            synth.make_documents_batch({"id": np.arange(i * 500, (i + 1) * 500)}), buf
        )
        fs.write_bytes(fs.join(inp, f"frag-{i}.parquet"), buf.getvalue())
    kw = dict(id_column="doc_id", fragments_per_unit=1)
    first = validate_table_checkpointed(inp, synth.documents_schema(), out, **kw)
    assert first.partitions_validated == 2 and first.row_count == 1000
    assert all(
        m.violations_path.startswith("s3://") for m in first.manifests if m.counts
    )
    again = validate_table_checkpointed(inp, synth.documents_schema(), out, **kw)
    assert again.partitions_validated == 0
    assert again.counts == first.counts and again.row_count == 1000


def test_write_parquet_uri_distributed(ray_session, moto_s3):
    """A lazy multi-block Dataset is materialized once and lands as one
    parquet object per block, which read back identical."""
    import ray.data

    ds = ray.data.range(1000).map_batches(
        lambda b: pa.table({"x": b["id"]}), batch_format="numpy"
    ).repartition(4)
    path = "s3://log-bkt/sinktest/out"
    fs.write_parquet_uri(ds, path)
    parts = fs.list_files(path)
    assert len(parts) >= 2, "distributed write should produce multiple objects"
    back = ray.data.read_parquet(path, filesystem=fs.resolve(path)[0])
    assert sorted(r["x"] for r in back.take_all()) == list(range(1000))


def test_log_explorer_reads_s3_logs(ray_session, moto_s3, tmp_path):
    """A5/J2 summaries work when the log base path is an S3 prefix."""
    from data_linter_ray import log_explorer
    from data_linter_ray.config import load_and_validate_config
    from data_linter_ray.pipelines.run import run_validation

    land, pass_p, fail_p, log_p = _mk_paths("explorer", tmp_path, True, True, True)
    _plant(land, "table1.csv", CSV_PASS)
    cfg = load_and_validate_config(
        {
            "land-base-path": land,
            "pass-base-path": pass_p,
            "fail-base-path": fail_p,
            "log-base-path": log_p,
            "tables": {"table1": {"metadata": TABLE1_META}},
        }
    )
    run_validation(cfg)
    s = log_explorer.summary_of_all_tables(cfg)
    assert s["overall_valid"] and s["tables"]["table1"]["fail_count"] == 0
    errs = log_explorer.get_all_errors_for_file(
        cfg, fs.join(land, "table1.csv")
    )
    assert len(errs) == 1 and errs.iloc[0]["valid"]


def test_parallel_mode_all_s3(ray_session, moto_s3, tmp_path):
    """4-phase parallel API with every base path on S3 — the reference's
    parallel mode is S3-only (validation.py:254-386); ours runs the same
    phases over the object store (bin sizes via S3 HEAD)."""
    from data_linter_ray.config import load_and_validate_config
    from data_linter_ray.pipelines import parallel as P

    land, pass_p, fail_p, log_p = _mk_paths("para", tmp_path, True, True, True)
    for i in range(4):
        _plant(land, f"table1_{i}.csv", CSV_PASS)
    cfg = load_and_validate_config(
        {
            "land-base-path": land,
            "pass-base-path": pass_p,
            "fail-base-path": fail_p,
            "log-base-path": log_p,
            "remove-tables-on-pass": False,
            "tables": {"table1": {"metadata": TABLE1_META}},
        }
    )
    bins = P.para_run_init(cfg, max_bin_count=2)
    assert len(bins) == 2 and all(b.startswith("s3://") for b in bins)
    for i in range(3):  # worker 2 has no bin → no-op (reference parity)
        P.para_run_validation(i, cfg)
    res = P.para_collect_all_status(cfg)
    assert res.all_tables_passed and len(res.manifests) == 4
    summary = P.para_collect_all_logs(cfg)
    assert summary["overall_valid"] and summary["fail_count"] == 0
    # temp config area cleared
    assert not fs.list_files(fs.join(log_p, "data_linter_temporary_fs", "configs"))


def test_ref_tables_on_s3(ray_session, moto_s3, tmp_path):
    """ref-tables paths in a run config may be s3:// — the referential
    dimension is read through the endpoint-aware filesystem."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import io

    from data_linter_ray.pipelines.run import run_validation

    # upload a dimension table to S3
    buf = io.BytesIO()
    pq.write_table(pa.table({"ref_id": [1, 2, 3]}), buf)
    fs.write_bytes("s3://land/dims/dim.parquet", buf.getvalue())

    land, pass_p, fail_p, log_p = _mk_paths("reftbl", tmp_path, False, False, False)
    meta = {
        "name": "t1",
        "columns": [
            {"name": "fk", "type": "int64", "references": "dim.ref_id"},
        ],
    }
    fs.makedirs(land)
    import pandas as pd

    pq.write_table(pa.table({"fk": [1, 2, 9]}), land + "t1.parquet")
    cfg = {
        "land-base-path": land,
        "pass-base-path": pass_p,
        "fail-base-path": fail_p,
        "log-base-path": log_p,
        "tables": {
            "t1": {
                "metadata": meta,
                "ref-tables": {"dim.ref_id": "s3://land/dims/dim.parquet"},
            }
        },
    }
    res = run_validation(cfg)
    assert not res.all_tables_passed
    m = res.manifests[0]
    assert m.counts.get("fk::referential_test") == 1  # fk=9 dangling


def test_profile_flag_writes_to_s3_log(ray_session, moto_s3, tmp_path):
    """`profile: true` with an s3:// log base writes the column-stats
    JSON through the same fs layer as every other log artifact."""
    from data_linter_ray.pipelines.run import run_validation

    land, pass_p, fail_p, log_p = _mk_paths("profile-s3", tmp_path, False, False, True)
    _plant(land, "table1.csv", CSV_PASS)
    cfg = {
        "land-base-path": land,
        "pass-base-path": pass_p,
        "fail-base-path": fail_p,
        "log-base-path": log_p,
        "tables": {"table1": {"metadata": TABLE1_META, "profile": True}},
    }
    res = run_validation(cfg)
    assert res.all_tables_passed
    names = fs.list_files(fs.join(log_p, "profiles", "table1"))
    assert len(names) == 1
    prof = json.loads(fs.read_text(names[0]))
    cols = {row["column"] for row in prof}
    assert "my_int" in cols


def test_s3_orc_source_reads(ray_session, moto_s3, tmp_path):
    """The ORC read carries the explicit S3 filesystem (endpoint +
    credentials travel with the scan tasks): an ORC object in the moto
    store reads back through read_table_dataset."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.orc as po

    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.sources.readers import read_table_dataset

    t = pa.table(
        {
            "event_id": pa.array(np.arange(200), pa.int64()),
            "value": pa.array(np.linspace(0, 99, 200), pa.float64()),
        }
    )
    local = str(tmp_path / "events.orc")
    po.write_table(t, local)
    moto_s3.upload_file(local, "land", "orc-src/events.orc")

    schema = TableSchema(
        name="events",
        columns=[
            ColumnSpec(name="event_id", type="int64", nullable=False),
            ColumnSpec(name="value", type="float64"),
        ],
    )
    ds = read_table_dataset("s3://land/orc-src/events.orc", schema)
    assert ds.count() == 200
    got = ds.to_pandas().sort_values("event_id").reset_index(drop=True)
    assert got["event_id"].tolist() == list(range(200))


def test_s3_jsonl_shard_sink(ray_session, moto_s3, tmp_path):
    """JSONL shard export to an S3 URI: every row lands exactly once,
    shards are valid NDJSON under the captured endpoint."""
    import json

    import ray
    from data_linter_ray.sinks import write_jsonl_shards

    ds = ray.data.range(500).map_batches(
        lambda b: {"doc_id": b["id"]}, batch_format="numpy"
    ).repartition(3)
    write_jsonl_shards(ds, "s3://log-bkt/export/", rows_per_shard=100)
    keys = [
        o["Key"]
        for o in moto_s3.list_objects_v2(Bucket="log-bkt", Prefix="export/")[
            "Contents"
        ]
    ]
    assert keys and all(k.endswith(".jsonl") for k in keys)
    rows = []
    for k in keys:
        body = moto_s3.get_object(Bucket="log-bkt", Key=k)["Body"].read()
        lines = [json.loads(l) for l in body.decode().splitlines() if l.strip()]
        assert len(lines) <= 100
        rows.extend(lines)
    assert sorted(r["doc_id"] for r in rows) == list(range(500))


def test_s3_read_is_sized_from_its_uris(ray_session, moto_s3):
    """A lazy ``s3://`` read lists its objects with the scheme kept as
    its ``input_files``, so the exchange width estimate sizes the
    objects rather than counting 0."""
    import io

    import pyarrow.parquet as pq

    from data_linter_ray.exchange import _decoded_bytes, _estimated_bytes
    from data_linter_ray.metadata import TableSchema
    from data_linter_ray.sources.readers import read_table_dataset

    buf = io.BytesIO()
    pq.write_table(pa.table({"my_int": [10, 15, 20]}), buf)
    fs.write_bytes("s3://land/sized/table1.parquet", buf.getvalue())
    _plant("s3://land/sized/", "table1.csv", CSV_PASS)
    schema = TableSchema.from_dict(TABLE1_META)
    for uri in ("s3://land/sized/table1.parquet", "s3://land/sized/table1.csv"):
        ds = read_table_dataset(uri, schema)
        assert ds.input_files() == [uri]
        assert _estimated_bytes(ds) == _decoded_bytes([uri]) > 0
