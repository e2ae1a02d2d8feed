"""API-surface parity tests: validator registry / single-file flow,
path utilities, timestamp-partitioned routing, IAM config generation."""

import gzip
import os

import pytest
import yaml

from data_linter_ray import utils
from data_linter_ray.validators import ParquetValidator, RayValidator, get_validator

META = {
    "name": "table1",
    "columns": [
        {"name": "my_int", "type": "int64", "minimum": 10, "maximum": 20},
        {"name": "animal", "type": "string", "enum": ["cat", "dog"]},
    ],
}


def test_single_file_validator_flow(ray_session, tmp_path):
    """Reference README.md:114-134 library flow."""
    f = tmp_path / "table1.csv"
    f.write_text("my_int,animal\n10,cat\n99,robot\n")
    pv = get_validator["pandas"](str(f), {}, META, log_verbosity=5)
    pv.read_data_and_validate()
    assert pv.valid is False
    r = pv.get_response_dict()
    assert r["my_int"]["min_max_test"]["valid"] is False
    assert r["my_int"]["min_max_test"]["unexpected_values_sample"] == ["99"]
    assert pv.response.get_names_of_column_failures() == ["animal", "my_int"] or \
        pv.response.get_names_of_column_failures() == ["my_int", "animal"]


def test_single_file_parquet_validator(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    f = tmp_path / "t.parquet"
    pq.write_table(pa.table({"my_int": pa.array([1], pa.int32()), "animal": ["cat"]}), f)
    pv = ParquetValidator(str(f), {}, META)
    pv.read_data_and_validate()
    assert not pv.valid
    assert "my_int" in pv.get_response_dict()["check_schema_conforms"]["cols_with_different_types"]


def test_validator_parse_error_captured(ray_session, tmp_path):
    pv = RayValidator(str(tmp_path / "missing.csv"), {}, META)
    pv.read_data_and_validate()
    assert not pv.valid
    assert "parse_data_to_pandas" in pv.get_response_dict()


def test_get_out_path():
    p = utils.get_out_path("/base", "t1", "123", "f.csv", compress=True, filenum=2,
                           timestamp_partition_name="mojap_ts")
    assert p == "/base/t1/mojap_ts=123/f-2-123.csv.gz"
    p = utils.get_out_path("/base", "t1", "123", "f.csv")
    assert p == "/base/t1/f-0-123.csv"


def test_timestamp_partitioned_routing(ray_session, tmp_path):
    from data_linter_ray.pipelines.run import run_validation

    land = tmp_path / "land"
    land.mkdir()
    (land / "table1.csv").write_text("my_int,animal\n10,cat\n")
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "timestamp-partition-name": "mojap_ts",
        "compress-data": True,
        "tables": {"table1": {"metadata": META}},
    }
    res = run_validation(cfg)
    assert res.all_tables_passed
    [part_dir] = os.listdir(tmp_path / "pass" / "table1")
    assert part_dir.startswith("mojap_ts=")
    [fn] = os.listdir(tmp_path / "pass" / "table1" / part_dir)
    assert fn.startswith("table1-0-") and fn.endswith(".csv.gz")
    with gzip.open(tmp_path / "pass" / "table1" / part_dir / fn, "rt") as f:
        assert "10,cat" in f.read()


def test_read_all_file_body(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("héllo")
    assert utils.read_all_file_body(str(f)) == "héllo"


def test_generate_iam_config(tmp_path):
    cfg = {
        "iam-role-name": "role1",
        "land-base-path": "s3://bucket/land/",
        "pass-base-path": "s3://bucket/pass/",
        "fail-base-path": "s3://bucket/fail/",
        "log-base-path": "s3://bucket/logs/",
    }
    out = str(tmp_path / "iam.yaml")
    result = utils.generate_iam_config(cfg, out)
    assert yaml.safe_load(open(out)) == result
    assert result["iam-role-name"] == "role1"
    assert "bucket/logs/*" in result["s3"]["write_only"][0]
    assert any("bucket/fail/" in p for p in result["s3"]["read_write"])
    with pytest.raises(ValueError, match="overwrite"):
        utils.generate_iam_config(cfg, out)

def test_reference_module_layout(ray_session, tmp_path):
    """data_linter_ray.validation mirrors the reference's import surface."""
    from data_linter_ray import validation as V

    land = tmp_path / "land"
    land.mkdir()
    (land / "table1.csv").write_text("my_int,animal\n10,cat\n")
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "tables": {"table1": {"metadata": META}},
    }
    matched = V.match_files_in_land_to_config(cfg)
    assert len(matched["table1"]) == 1
    V.validate_data(cfg)
    res = V.collect_all_status(cfg)
    assert res.all_tables_passed
    assert "pandas" in V.get_validator and "parquet" in V.get_validator


def test_accepted_but_unimplemented_engine_names(tmp_path):
    """Reference parity: config-schema.json accepts the frictionless /
    great-expectations engine names, but dispatch fails with a KeyError
    (reference validation.py:58-61 ships no such validator module)."""
    import pytest

    from data_linter_ray.config import ConfigError, RunConfig
    from data_linter_ray.validators import get_validator

    base = {
        "land-base-path": str(tmp_path) + "/",
        "fail-base-path": str(tmp_path) + "/",
        "log-base-path": str(tmp_path) + "/",
        "tables": {"t": {}},
    }
    for name in ("frictionless", "great-expectations"):
        cfg = RunConfig.from_dict({**base, "validator-engine": name})
        assert cfg.validator_engine == name  # config validation accepts
        with pytest.raises(KeyError, match="no such validator module"):
            get_validator[name]  # dispatch fails, reference shape
    with pytest.raises(ConfigError, match="validator-engine"):
        RunConfig.from_dict({**base, "validator-engine": "sqlmesh"})


def test_cli_version_flag(capsys):
    """Reference CLI parity: -v/--version prints prog + version and
    exits 0 (command_line.py:8-13)."""
    import pytest

    import data_linter_ray as dlr
    from data_linter_ray.cli import main

    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert dlr.__version__ in capsys.readouterr().out


def test_no_operator_takes_an_exchange_width():
    """Exchange width is decided in ``exchange.py`` only: no public
    operator or stage takes ``num_partitions`` / ``num_buckets``, and
    the width functions take no ``override`` (the env var is the one
    setting)."""
    import importlib
    import inspect
    import pkgutil

    import data_linter_ray.functions
    import data_linter_ray.stages
    from data_linter_ray import exchange

    offenders = []
    for pkg in (data_linter_ray.functions, data_linter_ray.stages):
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            mod = importlib.import_module(info.name)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported, checked where it is defined
                try:
                    params = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                offenders += [
                    f"{mod.__name__}.{name}({p})"
                    for p in ("num_partitions", "num_buckets")
                    if p in params
                ]
    assert offenders == []
    for fn in (exchange.exchange_width, exchange.join_width):
        assert "override" not in inspect.signature(fn).parameters


def test_unit_grouping_has_no_knob():
    """Grouping a table's land files into one Ray execution is decided by
    their footers alone: the run entry points and ``validate_dataset``
    take no parameter for it, and the package reads no new
    ``DATA_LINTER_RAY_*`` environment variable."""
    import inspect
    import pathlib
    import re

    import data_linter_ray
    from data_linter_ray.pipelines.run import run_validation, validate_phase
    from data_linter_ray.pipelines.table import validate_table_checkpointed
    from data_linter_ray.pipelines.validate import validate_dataset

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(run_validation) == ["config", "resume", "raise_on_failure"]
    assert params(validate_phase) == ["config", "store", "matched", "resume", "log"]
    assert params(validate_table_checkpointed) == [
        "input_path", "schema", "out_root", "table_name", "id_column", "ref_tables",
        "fragments_per_unit", "resume", "validate_kwargs",
    ]
    assert params(validate_dataset) == [
        "ds", "schema", "id_column", "ref_tables", "allow_missing_cols",
        "allow_unexpected_data", "row_limit", "row_sample", "sample_seed",
        "log_verbosity", "drift_baselines", "drift_threshold",
    ]
    root = pathlib.Path(data_linter_ray.__file__).parent
    env = {
        name
        for f in root.rglob("*.py")
        for name in re.findall(r"DATA_LINTER_RAY_[A-Z0-9_]+", f.read_text())
    }
    assert env == {"DATA_LINTER_RAY_S3_ENDPOINT", "DATA_LINTER_RAY_SHUFFLE_PARTITIONS"}
