"""End-to-end config-driven runs: land → validate → pass/fail routing →
logs, mirroring the reference's e2e suite
(``/root/reference/tests/test_end_to_end_run.py``): simple pass/fail,
all-must-pass coupling, the sc1–sc5 mitigation matrix, header case
handling, NA pandas-kwargs semantics, and resume-from-manifest."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_linter_ray.pipelines.run import (
    list_land_files,
    match_files_to_tables,
    run_validation,
)

TABLE1_META = {
    "name": "table1",
    "columns": [
        {"name": "my_int", "type": "int64", "minimum": 10, "maximum": 20, "nullable": False},
        {
            "name": "animal",
            "type": "string",
            "enum": ["cat", "dog", "fish", "chicken", "NA"],
            "nullable": False,
        },
        {"name": "my_email", "type": "string"},
    ],
}

CSV_PASS = "my_int,animal,my_email\n10,cat,a@b.c\n15,dog,d@e.f\n20,fish,g@h.i\n"
CSV_FAIL = "my_int,animal,my_email\n5,cat,a@b.c\n15,robot,d@e.f\n"


def make_env(tmp_path, files: dict, tables: dict, **top):
    land = tmp_path / "land"
    land.mkdir(exist_ok=True)
    for name, content in files.items():
        p = land / name
        if isinstance(content, bytes):
            p.write_bytes(content)
        elif isinstance(content, pa.Table):
            pq.write_table(content, p)
        else:
            p.write_text(content)
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "remove-tables-on-pass": True,
        "tables": tables,
        **top,
    }
    return cfg


def test_simple_pass(ray_session, tmp_path):
    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_PASS},
        {"table1": {"metadata": TABLE1_META}},
    )
    res = run_validation(cfg)
    assert res.all_tables_passed
    assert os.path.exists(tmp_path / "pass" / "table1" / "table1.csv")
    assert not os.path.exists(tmp_path / "land" / "table1.csv")  # removed on pass
    # per-table log written with reference-shaped record
    log = json.load(open(tmp_path / "log" / "tables" / "table1" / "log-table1-0.json"))
    assert log["valid"] and log["table-name"] == "table1"
    assert log["archived-path"].endswith("table1.csv")


def test_profile_flag_writes_column_stats(ray_session, tmp_path):
    """`profile: true` on a table writes one column-stats JSON per unit
    into the log area (n / n_null / min / max / approx_distinct)."""
    import glob

    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_PASS},
        {"table1": {"metadata": TABLE1_META, "profile": True}},
    )
    res = run_validation(cfg)
    assert res.all_tables_passed
    files = glob.glob(str(tmp_path / "log" / "profiles" / "table1" / "*.json"))
    assert len(files) == 1
    prof = {row["column"]: row for row in json.load(open(files[0]))}
    assert set(prof) >= {"my_int"}
    assert prof["my_int"]["n"] > 0
    assert {"n", "n_null", "min_str", "max_str", "approx_distinct"} <= set(
        prof["my_int"]
    )


def test_simple_fail_routes_to_fail(ray_session, tmp_path):
    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_FAIL},
        {"table1": {"metadata": TABLE1_META}},
    )
    res = run_validation(cfg)
    assert not res.all_tables_passed
    assert os.path.exists(tmp_path / "fail" / "table1" / "table1.csv")
    assert os.path.exists(tmp_path / "land" / "table1.csv")  # fail → not removed
    m = res.manifests[0]
    assert m.counts.get("my_int::min_max_test") == 1
    assert m.counts.get("animal::enum_test") == 1
    # violations sunk as parquet
    assert m.violations_path and os.path.isdir(m.violations_path)


def test_all_must_pass_routes_everything_to_fail(ray_session, tmp_path):
    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_PASS, "table1_b.csv": CSV_FAIL},
        {"table1": {"metadata": TABLE1_META}},
        **{"all-must-pass": True},
    )
    with pytest.raises(ValueError, match="did not pass"):
        run_validation(cfg)
    # BOTH files (incl. the passing one) routed to fail
    assert os.path.exists(tmp_path / "fail" / "table1" / "table1.csv")
    assert os.path.exists(tmp_path / "fail" / "table1" / "table1_b.csv")


def test_compression(ray_session, tmp_path):
    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_PASS},
        {"table1": {"metadata": TABLE1_META}},
        **{"compress-data": True},
    )
    run_validation(cfg)
    import gzip

    gz = tmp_path / "pass" / "table1" / "table1.csv.gz"
    assert gz.exists()
    assert gzip.open(gz, "rt").read() == CSV_PASS


def test_matcher_semantics(ray_session, tmp_path):
    from data_linter_ray.config import RunConfig

    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_PASS, "mystery.csv": CSV_PASS, ".hidden": "x", "zero.csv": ""},
        {"table1": {"metadata": TABLE1_META}},
    )
    rc = RunConfig.from_dict(cfg)
    files = list_land_files(rc.land_base_path)
    assert not any(".hidden" in f or "zero.csv" in f for f in files)  # excluded
    matched = match_files_to_tables(files, rc)  # unknown ok w/o fail-unknown-files
    assert len(matched["table1"]) == 1

    rc2 = RunConfig.from_dict({**cfg, "fail-unknown-files": {"exceptions": []}})
    with pytest.raises(FileExistsError, match="mystery"):
        match_files_to_tables(files, rc2)
    rc3 = RunConfig.from_dict(
        {**cfg, "fail-unknown-files": {"exceptions": ["mystery.csv"]}}
    )
    match_files_to_tables(files, rc3)

    # required table with no files
    rc4 = RunConfig.from_dict({**cfg, "tables": {"absent": {"metadata": TABLE1_META}}})
    with pytest.raises(FileNotFoundError, match="absent"):
        match_files_to_tables(files, rc4)

    # pattern matching overrides prefix
    rc5 = RunConfig.from_dict(
        {**cfg, "tables": {"t": {"metadata": TABLE1_META, "pattern": r"table1\.csv"}}}
    )
    assert match_files_to_tables(files, rc5)["t"]


ALL_TYPES_META = {
    "name": "all_types",
    "columns": [
        {"name": "i", "type": "int64", "nullable": False},
        {"name": "my_float", "type": "float64"},
        {"name": "my_string", "type": "string"},
    ],
}


def _mit_table(cols: dict) -> pa.Table:
    return pa.table(cols)


MIT_BASE = {"i": [1, 2], "my_float": [0.5, 1.5], "my_string": ["a", "✓,b"]}


@pytest.mark.parametrize(
    "scenario,data_cols,flags,expected",
    [
        ("sc1", MIT_BASE, {}, True),
        ("sc2", {k: v for k, v in MIT_BASE.items() if k != "my_string"}, {}, False),
        ("sc2", {k: v for k, v in MIT_BASE.items() if k != "my_string"}, {"allow-missing-cols": True}, True),
        ("sc3", {**MIT_BASE, "extra": [9, 9]}, {}, False),
        ("sc3", {**MIT_BASE, "extra": [9, 9]}, {"allow-unexpected-data": True}, True),
        (
            "sc4",
            {**{k: v for k, v in MIT_BASE.items() if k != "my_string"}, "my_string_new": ["a", "b"]},
            {"allow-missing-cols": True},
            False,
        ),
        (
            "sc4",
            {**{k: v for k, v in MIT_BASE.items() if k != "my_string"}, "my_string_new": ["a", "b"]},
            {"allow-missing-cols": True, "allow-unexpected-data": True},
            True,
        ),
        (
            "sc5",
            {f"{k}w": v for k, v in MIT_BASE.items()},
            {"allow-missing-cols": True, "allow-unexpected-data": True},
            False,  # zero overlap: always a hard fail
        ),
    ],
)
def test_mitigation_matrix(ray_session, tmp_path, scenario, data_cols, flags, expected):
    cfg = make_env(
        tmp_path,
        {"all_types.parquet": _mit_table(data_cols)},
        {"all_types": {"metadata": ALL_TYPES_META, **flags}},
    )
    res = run_validation(cfg)
    assert res.all_tables_passed == expected, scenario


@pytest.mark.parametrize(
    "header,ignore_case,expected",
    [
        ("my_int,animal,my_email", False, True),
        ("MY_INT,ANIMAL,MY_EMAIL", False, False),
        ("MY_INT,ANIMAL,MY_EMAIL", True, True),
        ("My_Int,Animal,My_Email", True, True),
    ],
)
def test_header_case_matrix(ray_session, tmp_path, header, ignore_case, expected):
    body = "10,cat,a@b.c\n15,dog,d@e.f\n"
    cfg = make_env(
        tmp_path,
        {"table1.csv": header + "\n" + body},
        {"table1": {"metadata": TABLE1_META, "headers-ignore-case": ignore_case}},
    )
    res = run_validation(cfg)
    assert res.all_tables_passed == expected


def test_headerless_csv(ray_session, tmp_path):
    body = "10,cat,a@b.c\n15,dog,d@e.f\n"
    cfg = make_env(
        tmp_path,
        {"table1.csv": body},
        {"table1": {"metadata": TABLE1_META, "expect-header": False}},
    )
    assert run_validation(cfg).all_tables_passed


def test_na_pandas_kwargs(ray_session, tmp_path):
    """Reference NA semantics (test_end_to_end_run.py:484-505): with
    keep_default_na=False + na_values=[""], literal "NA" stays a string
    (passes the enum that contains "NA"); with defaults it becomes null
    and fails the non-nullable check."""
    csv = "my_int,animal,my_email\n10,NA,a@b.c\n"
    base_tables = {"table1": {"metadata": TABLE1_META}}
    cfg = make_env(tmp_path, {"table1.csv": csv}, base_tables)
    res = run_validation(cfg)
    assert not res.all_tables_passed  # NA → null → nullable_test fails

    cfg2 = make_env(
        tmp_path,
        {"table1.csv": csv},
        {
            "table1": {
                "metadata": TABLE1_META,
                "pandas-kwargs": {"keep_default_na": False, "na_values": [""]},
            }
        },
    )
    res2 = run_validation(cfg2)
    assert res2.all_tables_passed


def test_row_limit_config(ray_session, tmp_path):
    rows = "\n".join(f"{10+i%10},cat,x@y.z" for i in range(50))
    cfg = make_env(
        tmp_path,
        {"table1.csv": "my_int,animal,my_email\n" + rows},
        {"table1": {"metadata": TABLE1_META, "row-limit": 7}},
    )
    res = run_validation(cfg)
    assert res.manifests[0].row_count == 7


def test_resume_skips_committed_units(ray_session, tmp_path):
    from data_linter_ray.state.manifest import ManifestStore, UnitManifest

    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_FAIL},  # invalid content
        {"table1": {"metadata": TABLE1_META}},
    )
    # pre-commit a manifest claiming this unit already validated OK
    store = ManifestStore(str(tmp_path / "log" / "data_linter_temporary_fs" / "status"))
    pre = UnitManifest(
        table="table1",
        source_path=str(tmp_path / "land" / "table1.csv"),
        valid=True,
        response={"valid": True},
    )
    store.commit(pre)
    res = run_validation(cfg, resume=True)
    # unit skipped → pre-committed verdict stands, file routed to pass
    assert res.all_tables_passed
    assert os.path.exists(tmp_path / "pass" / "table1" / "table1.csv")


def test_jsonl_table(ray_session, tmp_path):
    jsonl = (
        '{"my_int": 10, "animal": "cat", "my_email": "a@b.c"}\n'
        '{"my_int": 25, "animal": "dog", "my_email": "d@e.f"}\n'
    )
    cfg = make_env(
        tmp_path,
        {"table1.jsonl": jsonl},
        {"table1": {"metadata": TABLE1_META}},
    )
    res = run_validation(cfg)
    assert not res.all_tables_passed
    assert res.manifests[0].counts.get("my_int::min_max_test") == 1


TABLE2_META = {
    "name": "table2",
    "columns": [
        {"name": "employee_id", "type": "int64", "minimum": 100000, "maximum": 999999, "nullable": False},
        {"name": "employee_name", "type": "string"},
        {"name": "fte", "type": "float64", "minimum": 0.0, "maximum": 1.0},
    ],
}


def test_jsonl_missing_keys_inflates_nulls(ray_session, tmp_path):
    """F3 'missing_keys': a key absent in some rows reads as null →
    non-nullable check fails (reference tests/data/headers behavior)."""
    jsonl = (
        '{"employee_id": 123456, "employee_name": "a", "fte": 0.5}\n'
        '{"employee_name": "b", "fte": 0.5}\n'
    )
    cfg = make_env(tmp_path, {"table2.jsonl": jsonl}, {"table2": {"metadata": TABLE2_META}})
    res = run_validation(cfg)
    assert not res.all_tables_passed
    assert res.manifests[0].counts.get("employee_id::nullable_test") == 1


def test_jsonl_reordered_cols_pass(ray_session, tmp_path):
    """F3 'reordered_cols': same keys, different order — must pass."""
    jsonl = (
        '{"fte": 0.5, "employee_id": 123456, "employee_name": "a"}\n'
        '{"employee_name": "b", "fte": 1.0, "employee_id": 654321}\n'
    )
    cfg = make_env(tmp_path, {"table2.jsonl": jsonl}, {"table2": {"metadata": TABLE2_META}})
    assert run_validation(cfg).all_tables_passed


def test_jsonl_wrong_headers_fail(ray_session, tmp_path):
    """F3 'wrong_headers': renamed keys → zero overlap → hard fail."""
    jsonl = '{"emp": 1, "name": "a", "hours": 0.5}\n'
    cfg = make_env(tmp_path, {"table2.jsonl": jsonl}, {"table2": {"metadata": TABLE2_META}})
    res = run_validation(cfg)
    assert not res.all_tables_passed


def test_cast_failure_recorded_not_raised(ray_session, tmp_path):
    csv = "my_int,animal,my_email\nnot_a_number,cat,a@b.c\n"
    cfg = make_env(
        tmp_path, {"table1.csv": csv}, {"table1": {"metadata": TABLE1_META}}
    )
    res = run_validation(cfg)
    assert not res.all_tables_passed
    r = res.manifests[0].response
    assert r["valid"] is False
    assert "CastError" in r["parse_data"]["traceback"]
    assert "column my_int" in r["parse_data"]["traceback"]


def test_validator_engine_params_passthrough(ray_session, tmp_path):
    """``validator-engine-params`` at the top level reach every unit as
    defaults (reference passes them to each validator constructor,
    validation.py:391-420): log-verbosity set run-wide → violation value
    samples appear in the response."""
    cfg = make_env(
        tmp_path,
        {"table1.csv": CSV_FAIL},
        {"table1": {"metadata": TABLE1_META}},
        **{"validator-engine-params": {"log-verbosity": 5}},
    )
    res = run_validation(cfg)
    resp = res.manifests[0].response
    mm = resp["my_int"]["min_max_test"]
    assert mm["valid"] is False
    # with log-verbosity wired through, offending values are sampled
    assert "5" in mm["unexpected_values_sample"], mm


def test_validator_engine_params_unknown_key_rejected(tmp_path):
    from data_linter_ray.config import ConfigError, load_and_validate_config

    cfg = {
        "land-base-path": "x",
        "fail-base-path": "y",
        "log-base-path": "z",
        "tables": {"t": {}},
        "validator-engine-params": {"bogus-knob": 1},
    }
    with pytest.raises(ConfigError, match="bogus-knob"):
        load_and_validate_config(cfg)


def test_row_limit_random_sample(ray_session, tmp_path):
    """row-sample=random: reference row-limit semantics
    (pandas_validator.py:475-478, df.sample) — a random subset of at most
    row-limit rows is validated, deterministic under sample-seed."""
    rows = "\n".join(f"{5 if i % 2 else 15},cat,a@b.c" for i in range(200))
    csv = "my_int,animal,my_email\n" + rows + "\n"
    cfg = make_env(
        tmp_path,
        {"table1.csv": csv},
        {"table1": {"metadata": TABLE1_META, "row-limit": 50}},
        **{"validator-engine-params": {"row-sample": "random", "sample-seed": 7}},
    )
    res = run_validation(cfg)
    m = res.manifests[0]
    assert m.row_count <= 50
    # odd rows (my_int=5) violate min 10; a uniform sample must catch some
    # but validate fewer than the full 100 violating rows
    n_bad = m.counts.get("my_int::min_max_test", 0)
    assert 0 < n_bad < 100
    # deterministic under the same seed
    res2 = run_validation(cfg)
    assert res2.manifests[0].row_count == m.row_count
    assert res2.manifests[0].counts == m.counts


def test_config_schema_shape_errors(tmp_path):
    """jsonschema-grade shape validation (reference validates against a
    draft-07 schema, validation.py:133): type errors inside nested keys
    surface as ConfigError with a path, not a late TypeError."""
    from data_linter_ray.config import ConfigError, load_and_validate_config

    base = {
        "land-base-path": "x",
        "fail-base-path": "y",
        "log-base-path": "z",
        "tables": {"t": {"metadata": {"name": "t", "columns": []}}},
    }
    for mutation, frag in [
        ({"fail-unknown-files": {"exceptions": "not-a-list"}}, "exceptions"),
        ({"all-must-pass": "yes"}, "all-must-pass"),
        ({"tables": {"t": {"row-limit": "ten"}}}, "row-limit"),
        ({"tables": {"t": {"pattern": 42}}}, "pattern"),
    ]:
        cfg = {**base, **mutation}
        with pytest.raises(ConfigError, match=frag):
            load_and_validate_config(cfg)
    # valid config still loads (underscore aliases included)
    ok = load_and_validate_config({**base, "all_must_pass": True})
    assert ok.all_must_pass
    # an already-loaded RunConfig passes through unchanged
    assert load_and_validate_config(ok) is ok


def test_orc_and_feather_sources_roundtrip(ray_session, tmp_path):
    """ORC and Feather land files validate identically to the same data
    as parquet: suffix dispatch, and a read task yields one table per
    ORC stripe and per Feather record batch, as it yields one per
    parquet row group."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.feather as pf
    import pyarrow.orc as po

    from data_linter_ray.sources.readers import read_table_dataset
    from data_linter_ray.metadata import ColumnSpec, TableSchema

    n = 1000
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "value": pa.array(
                np.where(np.arange(n) % 7 == 0, 150.0, 50.0), pa.float64()
            ),
        }
    )
    orc_path = str(tmp_path / "events.orc")
    with po.ORCWriter(orc_path, stripe_size=1) as w:  # a stripe per write
        for i in range(3):
            w.write(t.slice(i * 334, 334))
    fe_path = str(tmp_path / "events.feather")
    pf.write_feather(t, fe_path, chunksize=334)  # three IPC batches

    schema = TableSchema(
        name="events",
        columns=[
            ColumnSpec(name="event_id", type="int64", nullable=False),
            ColumnSpec(name="value", type="float64", minimum=0.0, maximum=100.0),
        ],
    )
    from data_linter_ray.pipelines import validate_dataset

    results = {}
    for path in (orc_path, fe_path):
        ds = read_table_dataset(path, schema)
        assert ds.count() == n
        res = validate_dataset(ds, schema)
        results[path] = res.counts
    expect = {("value", "min_max_test"): int((np.arange(n) % 7 == 0).sum())}
    for path, counts in results.items():
        got = {k: v for k, v in counts.items() if v > 0}
        assert got == expect, (path, got)

    # sub-file streaming is real: a table per stripe / record batch
    from data_linter_ray.exchange import plan_files
    from data_linter_ray.sources.readers import FORMATS, _FileDatasource

    for fmt, path in (("orc", orc_path), ("feather", fe_path)):
        files = plan_files(path, FORMATS[fmt].plan)
        [task] = _FileDatasource(fmt, files).get_read_tasks(1)
        assert [b.num_rows for b in task()] == [334, 334, 332], fmt


def test_orc_feather_sink_roundtrip(ray_session, tmp_path):
    """Write-side: ORC and Feather sinks produce one file per block
    and round-trip through the matching readers losslessly."""
    import ray as _ray

    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.sources.readers import (
        read_table_dataset,
        write_feather_dataset,
        write_orc_dataset,
    )

    ds = _ray.data.range(5000).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    orc_dir = str(tmp_path / "orc_out")
    fe_dir = str(tmp_path / "fe_out")
    write_orc_dataset(ds, orc_dir)
    write_feather_dataset(ds, fe_dir)
    schema = TableSchema("t", [ColumnSpec("id", "int64")])
    back_o = read_table_dataset(orc_dir, schema, file_format="orc")
    back_f = read_table_dataset(fe_dir, schema, file_format="feather")
    assert back_o.count() == back_f.count() == 5000
    assert sorted(back_o.to_pandas()["id"]) == list(range(5000))
    assert sorted(back_f.to_pandas()["id"]) == list(range(5000))
