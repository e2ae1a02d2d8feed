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
    setting). Sketch sizes and the quantile sketch are constants of
    ``state/sketches.py`` the same way: none takes ``quantile_sketch``,
    ``hll_p`` or ``depth``."""
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
                    for p in (
                        "num_partitions",
                        "num_buckets",
                        "quantile_sketch",
                        "hll_p",
                        "depth",
                    )
                    if p in params
                ]
    assert offenders == []
    for fn in (exchange.exchange_width, exchange.join_width):
        assert "override" not in inspect.signature(fn).parameters


def test_exchanges_and_folds_use_the_shared_primitives():
    """Keyed exchanges, driver folds and range splitters are written
    once, in ``exchange.py``: no Ray sort-based ``.map_groups(`` call
    remains in the package, and no operator module builds a ``TDigest``
    or decodes an ``iter_batches`` payload with ``np.frombuffer``
    (``exchange.fold_batches`` / ``range_bounds`` do that). The one
    ``TDigest`` an operator builds is ``grouped_quantiles_approx``'s:
    its per-group digests are its result, not range splitters. The hash
    partition is ``exchange.partition_of``'s alone: outside
    ``exchange.py`` no ``hash_array`` / ``hash_pandas_object`` result is
    taken ``%`` anything, and no function under ``functions/`` takes a
    ``width``."""
    import ast
    import pathlib

    import data_linter_ray

    hashes = ("hash_array", "hash_pandas_object")

    def name_of(func):
        return getattr(func, "attr", getattr(func, "id", None))

    def calls(node, name):
        return [
            c for c in ast.walk(node)
            if isinstance(c, ast.Call) and name_of(c.func) == name
        ]

    def hashed_modulo(fn):
        """``%`` lines in ``fn`` whose left side holds a hash call or a
        name bound in ``fn``, directly or through other names, to one."""

        def hashed(expr, bound):
            return any(
                (isinstance(n, ast.Call) and name_of(n.func) in hashes)
                or (isinstance(n, ast.Name) and n.id in bound)
                for n in ast.walk(expr)
            )

        assigns = [
            (a.targets if isinstance(a, ast.Assign) else [a.target], a.value)
            for a in ast.walk(fn)
            if isinstance(a, (ast.Assign, ast.AugAssign))
        ]
        bound: set = set()
        while True:
            more = {
                t.id
                for targets, value in assigns
                if hashed(value, bound)
                for t in targets
                if isinstance(t, ast.Name)
            }
            if more <= bound:
                break
            bound |= more
        return [
            b.lineno
            for b in ast.walk(fn)
            if isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mod)
            and hashed(b.left, bound)
        ]

    root = pathlib.Path(data_linter_ray.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(root).as_posix()
        offenders += [f"{rel}:{c.lineno} map_groups" for c in calls(tree, "map_groups")]
        if rel != "exchange.py":
            offenders += sorted(
                {
                    f"{rel}:{line} hash %"
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.Lambda))
                    for line in hashed_modulo(fn)
                }
            )
        if not rel.startswith("functions/"):
            continue
        offenders += [
            f"{rel}:{fn.lineno} {fn.name}(width)"
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and "width" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]
        ]
        digest_op = [
            (fn.lineno, fn.end_lineno)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and (rel, fn.name) == ("functions/quantiles.py", "grouped_quantiles_approx")
        ]
        offenders += [
            f"{rel}:{c.lineno} TDigest"
            for c in calls(tree, "TDigest")
            if not any(lo <= c.lineno <= hi for lo, hi in digest_op)
        ]
        for loop in ast.walk(tree):
            if isinstance(loop, ast.For) and calls(loop.iter, "iter_batches"):
                offenders += [
                    f"{rel}:{c.lineno} frombuffer"
                    for stmt in loop.body
                    for c in calls(stmt, "frombuffer")
                ]
    assert offenders == []


def test_unit_grouping_has_no_knob():
    """Grouping a table's land files into one Ray execution is decided by
    their footers alone, and a read's block count and batch size by its
    file listing and footers: the run entry points, ``validate_dataset``
    and the readers take no parameter for them, and the package reads no
    new ``DATA_LINTER_RAY_*`` environment variable."""
    import inspect
    import pathlib
    import re

    import data_linter_ray
    from data_linter_ray.pipelines.run import run_validation, validate_phase
    from data_linter_ray.pipelines.table import validate_table_checkpointed
    from data_linter_ray.pipelines.validate import validate_dataset
    from data_linter_ray.sources.readers import read_parquet_dataset, read_table_dataset

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
    assert params(read_parquet_dataset) == ["path", "include_paths"]
    assert params(read_table_dataset) == [
        "path", "schema", "table_params", "file_format", "include_paths",
    ]
    root = pathlib.Path(data_linter_ray.__file__).parent
    env = {
        name
        for f in root.rglob("*.py")
        for name in re.findall(r"DATA_LINTER_RAY_[A-Z0-9_]+", f.read_text())
    }
    assert env == {"DATA_LINTER_RAY_S3_ENDPOINT", "DATA_LINTER_RAY_SHUFFLE_PARTITIONS"}


def _package_trees():
    import ast
    import pathlib

    import data_linter_ray

    root = pathlib.Path(data_linter_ray.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def test_ray_tasks_are_defined_once():
    """Raw Ray tasks are wrapped at module level: a ``ray.remote`` inside
    a function body (a call or a decorator) gives every call a new
    function, exported to the cluster's function table each time."""
    import ast

    offenders = []
    for rel, tree in _package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            offenders += [
                f"{rel}:{node.lineno}"
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute)
                and node.attr == "remote"
                and isinstance(node.value, ast.Name)
                and node.value.id == "ray"
            ]
    assert sorted(set(offenders)) == []


def test_one_parquet_read_path():
    """Every file read of the package goes through the one datasource of
    ``sources.readers`` (planned on the driver): no ``read_parquet``,
    ``read_csv`` or ``read_json`` call of Ray's, no ``FileBasedDatasource``
    and none of its private hooks. ``read_lance`` is the one Ray reader
    left."""
    import ast

    ray_readers = {"read_parquet", "read_csv", "read_json"}
    private_hooks = {"_open_input_source", "_read_stream"}

    def offends(node) -> bool:
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                return f.id in ray_readers
            # pandas' and pyarrow's readers are not Ray's
            return (
                isinstance(f, ast.Attribute)
                and f.attr in ray_readers
                and ast.unparse(f.value) not in ("pd", "pandas", "pajson", "pyarrow.json")
            )
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(a.name.rsplit(".", 1)[-1] == "FileBasedDatasource" for a in node.names)
        if isinstance(node, ast.Attribute):
            return node.attr == "FileBasedDatasource"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name in private_hooks
        return False

    offenders = [
        f"{rel}:{c.lineno}"
        for rel, tree in _package_trees()
        for c in ast.walk(tree)
        if offends(c)
    ]
    assert offenders == []


def test_tracer_targets_resolve(monkeypatch):
    """Every ``(module, attribute path)`` the benchmark's tracer wraps
    (``perfbench/tracer.py`` ``TARGETS``) resolves the way the tracer
    looks it up, ``vars(owner)[attr]``: deleting or renaming a traced
    name fails here, not only in the benchmark's own slow test."""
    import importlib
    import importlib.util
    import pathlib
    import sys

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_traced_targets", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for modname, attr_path, *_ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = attr_path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append(f"{modname}:{attr_path}")
    assert missing == []
