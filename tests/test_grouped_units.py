"""One Ray execution per group of land files: ``run_validation`` validates
a table's files of one footer schema in one fused pass, and each file
still gets its own verdict, counts, samples, manifest and violations.

The equivalence tests run the same land directory twice — grouped, and
with every group cut to one file (``max_units`` patched to 1) — and
require the same manifests (``duration_s`` aside) and the same violation
rows per file."""

import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_linter_ray.pipelines import run

ORDERS = {
    "name": "orders",
    "columns": [
        {"name": "k", "type": "int64", "unique": True},
        {"name": "v", "type": "int64", "minimum": 0, "maximum": 100,
         "drift": {"threshold": 0.2}},
        {"name": "s", "type": "string", "enum": ["a", "b"]},
    ],
}
DOCS = {
    "name": "docs",
    "columns": [
        {"name": "path", "type": "string", "pattern": "^/"},
        {"name": "n", "type": "int64", "minimum": 0},
    ],
}


def _orders(k, v, s):
    return pa.table({"k": pa.array(k, pa.int64()), "v": pa.array(v, pa.int64()),
                     "s": pa.array(s, pa.string())})


@pytest.fixture(scope="module")
def land_master(tmp_path_factory):
    """Orders files: a within-file duplicate key (``3`` in orders_0), a
    key in two files (``1``), a misaligned file, a corrupt one,
    violations in two and drift in one; docs files with a data column
    named ``path``."""
    d = tmp_path_factory.mktemp("master")
    files = {
        "orders_0.parquet": _orders([1, 2, 3, 3, 6], [5, 150, 7, 8, 9], ["a", "b", "z", "a", None]),
        "orders_1.parquet": _orders([1, 4, 5], [1, 2, 3], ["a", "a", "b"]),
        "orders_2.parquet": pa.table({"k": pa.array([7], pa.int64())}),
        "orders_4.parquet": _orders([9, 10, 11, 9], [-1, 3, 4, 5], ["b", "b", "q", "q"]),
        "orders_5.parquet": _orders([20, 21], [50, 60], ["a", "b"]),
        "docs_0.parquet": pa.table({"path": ["/a", "/b"], "n": pa.array([1, 2], pa.int64())}),
        "docs_1.parquet": pa.table({"path": ["x", "/c"], "n": pa.array([-3, 2], pa.int64())}),
    }
    for name, t in files.items():
        pq.write_table(t, d / name)
    (d / "orders_3.parquet").write_bytes(b"PAR1 not a parquet file PAR1")

    import numpy as np

    from data_linter_ray.stages.sketch_stage import save_baselines
    from data_linter_ray.state.sketches import TDigest

    td = TDigest()
    td.add(np.array([1.0, 2.0, 3.0]))  # orders_1's values
    save_baselines({"v": {"tdigest": td}}, str(d.parent / "baseline.json"))
    return d


def _config(root, master, engine_params):
    return {
        "land-base-path": str(root / "land") + "/",
        "pass-base-path": str(root / "pass") + "/",
        "fail-base-path": str(root / "fail") + "/",
        "log-base-path": str(root / "log") + "/",
        "validator-engine-params": engine_params,
        "tables": {
            "orders": {"metadata": ORDERS,
                       "drift-baseline": str(master.parent / "baseline.json")},
            "docs": {"metadata": DOCS},
        },
    }


def _count_fused_passes(m, calls: list) -> None:
    """Append to ``calls`` the name of every ``Dataset.materialize`` and
    ``Dataset.write_datasink`` call: the fused pass of ``validate_units``
    must be a run's only Ray Data execution of a group — its violation
    write starts none."""
    import ray.data

    for name in ("materialize", "write_datasink"):

        def counting(ds, *args, _name=name, _orig=getattr(ray.data.Dataset, name), **kw):
            calls.append(_name)
            return _orig(ds, *args, **kw)

        m.setattr(ray.data.Dataset, name, counting)


def _fresh(root, master):
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(master, root / "land")


def _outcome(res) -> dict:
    """file name -> (manifest fields that must agree, violation rows)."""
    out = {}
    for m in res.manifests:
        rows = Counter()
        if m.violations_path:
            t = pq.read_table(m.violations_path)
            assert t.schema.names == ["row_ref", "column", "test", "value"]
            rows = Counter(zip(*(t[c].to_pylist() for c in t.schema.names)))
        out[os.path.basename(m.source_path)] = (
            m.valid, m.row_count, m.counts, m.response, m.archived_path, rows
        )
    return out


def _run_both(tmp_path, master, monkeypatch, engine_params, before=None):
    """The outcome of a grouped run and of a one-file-per-group run over
    the same land directory, and the fused-pass count of each. ``before``
    validates a subset first, so the runs resume."""
    root = tmp_path / "run"
    outcomes, passes = [], []
    for singles in (False, True):
        _fresh(root, master)
        calls = []
        with monkeypatch.context() as m:
            if singles:
                m.setattr(run, "max_units", lambda schema: 1)
            _count_fused_passes(m, calls)
            cfg = _config(root, master, engine_params)
            if before:
                before(cfg)
            res = run.run_validation(cfg, resume=before is not None,
                                     raise_on_failure=False)
        outcomes.append(_outcome(res))
        passes.append(len(calls))
    return outcomes, passes


@pytest.mark.parametrize(
    "engine_params",
    [
        {"log-verbosity": 5},
        {"log-verbosity": 0},
        {"row-limit": 3, "log-verbosity": 5},
        {"row-limit": 3, "row-sample": "random", "sample-seed": 7, "log-verbosity": 0},
    ],
    ids=["verbosity5", "verbosity0", "row_limit_head", "row_limit_random"],
)
def test_grouped_manifests_equal_single_file_groups(
    ray_session, tmp_path, land_master, monkeypatch, engine_params
):
    (grouped, singles), (n_grouped, n_singles) = _run_both(
        tmp_path, land_master, monkeypatch, engine_params
    )
    assert grouped == singles
    assert len(grouped) == 8
    if "row-limit" in engine_params:
        assert n_grouped == n_singles == 6  # every readable, aligned file alone
        return
    # orders 0, 1, 4, 5 in one pass; the docs files (a ``path`` column)
    # alone; the misaligned and the corrupt file without a read
    assert (n_grouped, n_singles) == (3, 6)

    valid = {f: o[0] for f, o in grouped.items()}
    assert valid == {
        "orders_0.parquet": False, "orders_1.parquet": True, "orders_2.parquet": False,
        "orders_3.parquet": False, "orders_4.parquet": False, "orders_5.parquet": False,
        "docs_0.parquet": True, "docs_1.parquet": False,
    }
    assert "parse_data" in grouped["orders_3.parquet"][3]
    assert "overall_validation" in str(grouped["orders_2.parquet"][3])
    counts = grouped["orders_0.parquet"][2]
    assert counts["k::unique_test"] == 1  # 3 twice; 1 is also in orders_1
    assert "k::unique_test" not in grouped["orders_1.parquet"][2]
    assert grouped["orders_4.parquet"][2]["k::unique_test"] == 1
    drift = {f: grouped[f][3]["v"]["drift_test"] for f in ("orders_1.parquet", "orders_5.parquet")}
    assert drift["orders_1.parquet"]["valid"] and not drift["orders_5.parquet"]["valid"]
    assert drift["orders_5.parquet"]["test_inputs"]["threshold"] == 0.2
    sample = grouped["orders_4.parquet"][3]["s"]["enum_test"]["unexpected_values_sample"]
    assert sample == ["q", "q"]
    assert grouped["docs_1.parquet"][2] == {"path::pattern_test": 1, "n::min_max_test": 1}


def test_grouped_resume_equals_single_file_groups(
    ray_session, tmp_path, land_master, monkeypatch
):
    """A resume where two orders files are already committed: the rest
    of the table still groups, and the outcome is the same."""
    from data_linter_ray.config import load_and_validate_config

    def before(cfg):
        config = load_and_validate_config(cfg)
        store = run.open_status_store(config)
        store.clear()
        matched = run.match_files_to_tables(run.list_land_files(config.land_base_path), config)
        first = {"orders": [p for p in matched["orders"]
                            if p.endswith(("orders_0.parquet", "orders_5.parquet"))]}
        run.validate_phase(config, store, first)

    (grouped, singles), (n_grouped, n_singles) = _run_both(
        tmp_path, land_master, monkeypatch, {"log-verbosity": 5}, before
    )
    assert grouped == singles and len(grouped) == 8
    # resumed: orders 1 and 4 in one pass, the docs files alone; the
    # first phase validated orders 0 and 5 in one pass
    assert (n_grouped, n_singles) == (1 + 3, 2 + 4)


def test_multi_file_read_tasks_equal_single_file_groups(
    ray_session, tmp_path, land_master, monkeypatch
):
    """On one CPU a read is 2 blocks wide, so the 4-file orders group is
    read by tasks of several files each: the manifests, samples and
    violation rows stay those of one-file groups."""
    from data_linter_ray import exchange
    from data_linter_ray.sources import readers

    widths = []
    width = readers.read_width

    def recording(paths):
        files = [paths] if isinstance(paths, str) else paths
        widths.append((len(files), width(paths)))
        return widths[-1][1]

    monkeypatch.setattr(exchange, "cluster_cpus", lambda: 1)
    monkeypatch.setattr(readers, "read_width", recording)
    (grouped, singles), (n_grouped, n_singles) = _run_both(
        tmp_path, land_master, monkeypatch, {"log-verbosity": 5}
    )
    assert grouped == singles and len(grouped) == 8
    assert (n_grouped, n_singles) == (3, 6)
    assert (4, 2) in widths  # the orders group: 4 files, 2 read blocks


def test_rerun_clears_stale_violation_parts(ray_session, tmp_path, land_master):
    """A part an earlier attempt left in a unit's violations directory
    (killed before its manifests were committed) is gone after a resumed
    run: only the new rows remain."""
    from data_linter_ray.state.manifest import UnitManifest

    root = tmp_path / "run"
    cfg = _config(root, land_master, {"log-verbosity": 5})
    _fresh(root, land_master)
    clean = _outcome(run.run_validation(cfg, raise_on_failure=False))

    _fresh(root, land_master)
    source = str(root / "land" / "orders_0.parquet")
    key = UnitManifest(table="orders", source_path=source, valid=False).key()
    stale = root / "log" / "violations" / "orders" / key
    stale.mkdir(parents=True)
    names = ["row_ref", "column", "test", "value"]
    pq.write_table(pa.table({c: ["stale"] for c in names}), stale / "part-999999.parquet")
    again = _outcome(run.run_validation(cfg, resume=True, raise_on_failure=False))
    assert again == clean
    assert not (stale / "part-999999.parquet").exists()


def _land(tmp_path, tables: dict) -> dict:
    land = tmp_path / "land"
    land.mkdir(parents=True)
    cfg_tables = {}
    for name, files in tables.items():
        for i, t in enumerate(files):
            pq.write_table(t, land / f"{name}_{i}.parquet")
        cfg_tables[name] = {"metadata": {
            "name": name,
            "columns": [{"name": "a", "type": "int64", "minimum": 0},
                        {"name": "b", "type": "string"}],
        }, "allow-missing-cols": True}
    return {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "tables": cfg_tables,
    }


def _count_passes(monkeypatch, cfg):
    calls = []
    with monkeypatch.context() as m:
        _count_fused_passes(m, calls)
        res = run.run_validation(cfg, raise_on_failure=False)
    return len(calls), res


def test_one_fused_pass_per_table(ray_session, tmp_path, monkeypatch):
    """3 tables × 4 files → 3 fused passes, with one verdict per file."""
    t = pa.table({"a": pa.array([1, -1], pa.int64()), "b": ["x", "y"]})
    ok = pa.table({"a": pa.array([1, 2], pa.int64()), "b": ["x", "y"]})
    cfg = _land(tmp_path, {n: [ok, t, ok, ok] for n in ("t1", "t2", "t3")})
    n, res = _count_passes(monkeypatch, cfg)
    assert n == 3
    assert len(res.manifests) == 12
    assert sorted(m.valid for m in res.manifests) == [False] * 3 + [True] * 9
    assert all(m.row_count == 2 for m in res.manifests)


def test_one_fused_pass_per_footer_schema(ray_session, tmp_path, monkeypatch):
    """A table whose files have two footer schemas → 2 fused passes."""
    ab = pa.table({"a": pa.array([1, 2], pa.int64()), "b": ["x", "y"]})
    a = pa.table({"a": pa.array([3, -4], pa.int64())})
    cfg = _land(tmp_path, {"t1": [ab, a, ab, a]})
    n, res = _count_passes(monkeypatch, cfg)
    assert n == 2
    assert {os.path.basename(m.source_path): m.valid for m in res.manifests} == {
        "t1_0.parquet": True, "t1_1.parquet": False,
        "t1_2.parquet": True, "t1_3.parquet": False,
    }


def test_samples_stay_per_file_when_files_share_a_fold_group(
    ray_session, tmp_path, monkeypatch
):
    """20 files make more stream blocks than the fold has groups, so one
    fold task holds several files' violation heads: each file still gets
    its own first ``log-verbosity`` samples."""
    files = [
        pa.table({"a": pa.array([-i, -i - 100, 5], pa.int64()), "b": ["x", "y", "z"]})
        for i in range(1, 21)
    ]
    out = []
    for singles in (False, True):
        cfg = _land(tmp_path / str(singles), {"t1": files})
        cfg["validator-engine-params"] = {"log-verbosity": 1}
        with monkeypatch.context() as m:
            if singles:
                m.setattr(run, "max_units", lambda schema: 1)
            res = run.run_validation(cfg, raise_on_failure=False)
        out.append({os.path.basename(r.source_path): r.response for r in res.manifests})
    assert out[0] == out[1]
    sample = out[0]["t1_3.parquet"]["a"]["min_max_test"]["unexpected_values_sample"]
    assert sample == ["-4"]


def test_empty_file_in_a_group(ray_session, tmp_path, monkeypatch):
    """A zero-row file beside failing files: empty blocks reach the
    violation write (any schema, no ``kind`` column) and write nothing,
    and every file's outcome is that of validating it alone."""
    bad = pa.table({"a": pa.array([1, -1], pa.int64()), "b": ["x", "y"]})
    empty = bad.slice(0, 0)
    out = []
    for singles in (False, True):
        cfg = _land(tmp_path / str(singles), {"t1": [bad, empty, bad]})
        with monkeypatch.context() as m:
            if singles:
                m.setattr(run, "max_units", lambda schema: 1)
            out.append(_outcome(run.run_validation(cfg, raise_on_failure=False)))
    grouped, alone = (
        {f: o[:4] + o[5:] for f, o in res.items()} for res in out  # archived paths differ
    )
    assert grouped == alone
    assert grouped["t1_1.parquet"][:2] == (True, 0)
    assert grouped["t1_2.parquet"][4] == Counter({(None, "a", "min_max_test", "-1"): 1})


def test_baselines_load_once_per_table(ray_session, tmp_path, land_master, monkeypatch):
    from data_linter_ray.stages import sketch_stage

    root = tmp_path / "run"
    _fresh(root, land_master)
    loads = []
    load = sketch_stage.load_baselines
    monkeypatch.setattr(sketch_stage, "load_baselines",
                        lambda path: loads.append(path) or load(path))
    res = run.run_validation(_config(root, land_master, {}), raise_on_failure=False)
    assert len([m for m in res.manifests if m.table == "orders"]) == 6
    assert loads == [str(land_master.parent / "baseline.json")]


def test_fused_checker_splits_a_batch_by_unit():
    """No Ray: a batch holding rows of two units, in three runs, is
    emitted run by run under each row's unit code — counts, row counts
    and the kind-2 uniqueness codes (unit × unique columns + column)."""
    import pyarrow.compute as pc

    from data_linter_ray.metadata import TableSchema
    from data_linter_ray.pipelines.validate import ROWS_KEY, _FusedChecker
    from data_linter_ray.stages.checker import BatchChecker, compile_plan

    schema = TableSchema.from_dict(
        {"name": "t", "columns": [{"name": "a", "type": "int64", "minimum": 0}]}
    )
    batch = pa.table({"a": [1, -1, -2, 3, -4], "path": ["x", "x", "y", "y", "x"]})
    plan = compile_plan(schema, batch.drop_columns(["path"]).schema)
    out = _FusedChecker([BatchChecker(plan)], ["a"], None, None, ["x", "y"])(batch)

    counts: Counter = Counter()
    ones = out.filter(pc.equal(out["kind"], 1))
    for key in zip(*(ones[k].to_pylist() for k in ("cc", "column", "test", "n"))):
        counts[key[:3]] += key[3]
    assert counts == {
        (0, ROWS_KEY, ROWS_KEY): 3, (1, ROWS_KEY, ROWS_KEY): 2,
        (0, "a", "min_max_test"): 2, (1, "a", "min_max_test"): 1,
    }
    twos = out.filter(pc.equal(out["kind"], 2))
    assert sorted(zip(twos["cc"].to_pylist(), twos["value"].to_pylist())) == [
        (0, "-1"), (0, "-4"), (0, "1"), (1, "-2"), (1, "3"),
    ]


def _without_samples(response: dict):
    """``response`` with its value samples taken out, and the samples as
    {(column, test): Counter of (row_ref, value)}."""
    import copy

    response = copy.deepcopy(response)
    samples = {}
    for col, tests in response.items():
        for test, entry in (tests.items() if isinstance(tests, dict) else ()):
            if isinstance(entry, dict) and "unexpected_values_sample" in entry:
                samples[col, test] = Counter(
                    zip(entry.pop("unexpected_index_sample"),
                        entry.pop("unexpected_values_sample"))
                )
    return response, samples


def test_shuffled_dimension_group_reads_its_input_once(ray_session, tmp_path, monkeypatch):
    """A 3-unit ``validate_units`` group whose FK column references a
    dimension past the broadcast threshold reads its input once (one
    ``map_batches`` call per input block, counted by marker files): the
    shuffled referential check reads the fused pass's stream, not the
    input per unit. Each unit's verdicts and counts equal validating it
    alone, and its samples do as multisets at log_verbosity 0."""
    import uuid

    import ray

    import data_linter_ray.stages.referential as R
    from data_linter_ray.metadata import TableSchema
    from data_linter_ray.pipelines.validate import validate_dataset, validate_units

    monkeypatch.setattr(R, "BROADCAST_ROW_THRESHOLD", 10)
    schema = TableSchema.from_dict({"name": "o", "columns": [
        {"name": "k", "type": "int64", "unique": True, "references": "dim.id"},
        {"name": "v", "type": "int64", "maximum": 5},
    ]})
    tables = [
        pa.table({"k": pa.array([1, 2, 60, 60, None, 70], pa.int64()),
                  "v": pa.array([1, 9, 2, 3, 4, 8], pa.int64())}),
        pa.table({"k": pa.array([3, 80, 60, 4], pa.int64()),
                  "v": pa.array([7, 1, 2, 3], pa.int64())}),
        pa.table({"k": pa.array([5, 6], pa.int64()), "v": pa.array([1, 2], pa.int64())}),
    ]
    dim = ray.data.from_arrow(pa.table({"id": pa.array(range(50), pa.int64())}))
    units = ["u0", "u1", "u2"]
    marks = tmp_path / "reads"
    marks.mkdir()

    def read(t: pa.Table, _dir=str(marks)) -> pa.Table:
        open(os.path.join(_dir, uuid.uuid4().hex), "w").close()
        return t

    group = ray.data.from_arrow(
        [t.append_column("path", pa.array([u] * t.num_rows)) for t, u in zip(tables, units)]
    ).map_batches(read, batch_format="pyarrow", batch_size=None)
    group.schema()  # learning it executes the first block; Ray keeps it
    for f in os.listdir(marks):
        os.remove(marks / f)
    grouped, _ = validate_units(
        group, schema, units, ref_tables={"dim.id": dim}, log_verbosity=0
    )
    assert len(os.listdir(marks)) == len(tables)

    dangling = []
    for t, res in zip(tables, grouped):
        alone = validate_dataset(
            ray.data.from_arrow(t), schema, ref_tables={"dim.id": dim}, log_verbosity=0
        )
        assert (res.valid, res.row_count, res.counts) == (
            alone.valid, alone.row_count, alone.counts
        )
        assert _without_samples(res.response.get_result()) == _without_samples(
            alone.response.get_result()
        )
        dangling.append(res.counts.get(("k", "referential_test"), 0))
    assert dangling == [3, 2, 0]
