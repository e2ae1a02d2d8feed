"""Drift inside ``validate_dataset``: the sketch partials ride the fused
pass as kind-3 stream rows and fold with the counts, so drift needs no
read or Ray Data execution of its own. The verdicts must equal the
standalone ``drift_check`` on the same data, see exactly the rows the
checks saw, and keep the edge behaviour of the standalone path."""

import json

import numpy as np
import pyarrow as pa
import pytest

import ray
from data_linter_ray import checks
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.pipelines import validate_dataset
from data_linter_ray.stages import sketch_stage
from data_linter_ray.state.sketches import HyperLogLog, TDigest, hash_array

SKETCH_KINDS = {"tdigest", "hll"}


def _table(seed: int, n: int, shift: float, keys: int) -> pa.Table:
    rng = np.random.RandomState(seed)
    return pa.table(
        {
            "id": pa.array(np.arange(n), pa.int64()),
            "a": rng.uniform(0, 100, n),
            "b": rng.uniform(0, 100, n) + shift,
            "k": pa.array(rng.randint(0, keys, n), pa.int64()),
            "k2": pa.array(rng.randint(0, keys, n), pa.int64()),
        }
    )


def _baselines() -> dict:
    """Baselines of one 20k-row sample: ``a`` and ``b`` uniform on
    [0, 100), ``k`` and ``k2`` with 500 distinct keys."""
    base = _table(1, 20_000, 0.0, 500)
    out = {}
    for c in ("a", "b"):
        td = TDigest()
        td.add(base[c].to_numpy())
        out[c] = {"tdigest": td}
    for c in ("k", "k2"):
        h = HyperLogLog()
        h.add_hashes(hash_array(base[c]))
        out[c] = {"hll": h}
    return out


SCHEMA = TableSchema(
    "t",
    [
        ColumnSpec("id", "int64"),
        # a min/max check with violations, so the violation stream is not
        # empty and its samples are exercised next to the sketch rows
        ColumnSpec("a", "float64", minimum=0.0, maximum=90.0, drift={"metric": "q"}),
        ColumnSpec("b", "float64", drift={"metric": "q"}),
        ColumnSpec("k", "int64", drift={"metric": "c"}),
        ColumnSpec("k2", "int64", drift={"metric": "c"}),
    ],
)


def _drift_entries(res) -> dict:
    out = res.response.get_result()
    return {
        c: out[c][checks.DRIFT_TEST]
        for c in ("a", "b", "k", "k2")
        if checks.DRIFT_TEST in out.get(c, {})
    }


def _current(seed=2):
    # a: same distribution (no drift); b: shifted by 60 (drift); k: 500
    # keys as the baseline; k2: 5,000 keys in its own column
    t = _table(seed, 40_000, 60.0, 500)
    wide = _table(seed + 1, 40_000, 0.0, 5_000)
    return t.set_column(t.schema.get_field_index("k2"), "k2", wide["k2"])


def test_validate_drift_equals_drift_check_without_second_execution(
    ray_session, monkeypatch
):
    """Same verdicts as the standalone ``drift_check``, distances within
    sketch error, and ``compute_sketches`` (the standalone execution) is
    never called by ``validate_dataset``. Kind-3 rows reach neither the
    violation Dataset nor the counts nor the samples."""
    baselines = _baselines()
    ds = ray.data.from_arrow([_current().slice(0, 15_000), _current().slice(15_000)])

    def no_second_execution(*a, **kw):
        raise AssertionError("validate_dataset ran a second sketch execution")

    with monkeypatch.context() as m:
        m.setattr(sketch_stage, "compute_sketches", no_second_execution)
        res = validate_dataset(
            ds, SCHEMA, id_column="id", log_verbosity=0, drift_baselines=baselines
        )
    standalone = {
        (r.column, r.metric): r
        for r in sketch_stage.drift_check(ds, baselines, threshold=0.1)
    }
    got = _drift_entries(res)
    assert set(got) == {"a", "b", "k", "k2"}
    assert {(c, e["test_inputs"]["metric"]) for c, e in got.items()} == set(standalone)
    for c, e in got.items():
        want = standalone[(c, e["test_inputs"]["metric"])]
        assert e["valid"] is want.valid
        assert e["test_inputs"]["distance"] == pytest.approx(want.distance, abs=0.03)
    assert [c for c, e in got.items() if not e["valid"]] == ["b", "k2"]

    # the sketch rows stay inside the stream
    assert res.counts == {("a", checks.MIN_MAX_TEST): res.counts[("a", checks.MIN_MAX_TEST)]}
    assert res.row_count == 40_000
    tests = set(res.violations.to_pandas()["test"])
    assert tests == {checks.MIN_MAX_TEST}
    out = res.response.get_result()
    assert not SKETCH_KINDS & {t for col in out.values() if isinstance(col, dict) for t in col}
    sample = out["a"][checks.MIN_MAX_TEST]["unexpected_values_sample"]
    assert len(sample) == res.counts[("a", checks.MIN_MAX_TEST)]
    assert all(float(v) > 90.0 for v in sample)


def test_per_column_drift_threshold(ray_session):
    """``ColumnSpec.drift["threshold"]`` overrides ``drift_threshold``
    for its column, and ``test_inputs`` records the threshold applied."""
    baselines = _baselines()
    schema = TableSchema(
        "t",
        [
            ColumnSpec("b", "float64", drift={"metric": "q", "threshold": 2.0}),
            ColumnSpec("b2", "float64", drift={"metric": "q"}),
        ],
    )
    t = _current()
    # b2 is the same shifted column as b, against the same baseline
    t = pa.table({"b": t["b"], "b2": t["b"]})
    baselines = {"b": baselines["b"], "b2": baselines["b"]}
    res = validate_dataset(
        ray.data.from_arrow(t), schema, drift_baselines=baselines, drift_threshold=0.1
    )
    out = res.response.get_result()
    b, b2 = out["b"][checks.DRIFT_TEST], out["b2"][checks.DRIFT_TEST]
    assert b["test_inputs"]["distance"] == b2["test_inputs"]["distance"]
    assert 0.1 < b["test_inputs"]["distance"] < 2.0
    assert b["test_inputs"]["threshold"] == 2.0 and b["valid"] is True
    assert b2["test_inputs"]["threshold"] == 0.1 and b2["valid"] is False


def test_drift_sketches_exactly_the_checked_rows(ray_session, monkeypatch):
    """With ``row_limit`` and an unseeded random sample, the folded
    t-digest counts exactly the rows the checks counted: the sketch
    comes from the same pass, not from a re-executed sample."""
    seen = []
    verdicts = sketch_stage.drift_results

    def record(current, *a):
        seen.append(current)
        return verdicts(current, *a)

    monkeypatch.setattr(sketch_stage, "drift_results", record)
    ds = ray.data.from_arrow(_current()).repartition(4)
    res = validate_dataset(
        ds,
        SCHEMA,
        row_limit=10_000,
        row_sample="random",
        drift_baselines=_baselines(),
    )
    assert 0 < res.row_count <= 10_000
    [current] = seen
    assert current["a"]["tdigest"].count == res.row_count
    assert current["b"]["tdigest"].count == res.row_count


def test_drift_edges_match_drift_check(ray_session):
    """An empty input gives no drift verdict. An all-null drift column
    gives the standalone path's verdict: no quantile distance (``None``,
    JSON ``null``), which fails, and the HLL distance of no key at all
    (a null is not a distinct key), 1.0. The response stays strict
    JSON."""
    baselines = _baselines()
    empty = _current().slice(0, 0)
    res = validate_dataset(ray.data.from_arrow(empty), SCHEMA, drift_baselines=baselines)
    assert _drift_entries(res) == {}
    assert sketch_stage.drift_check(ray.data.from_arrow(empty), baselines) == []

    n = 1_000
    nulls = pa.table(
        {
            "id": pa.array(np.arange(n), pa.int64()),
            "a": pa.nulls(n, pa.float64()),
            "b": pa.nulls(n, pa.float64()),
            "k": pa.nulls(n, pa.int64()),
            "k2": pa.nulls(n, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(nulls)
    res = validate_dataset(ds, SCHEMA, drift_baselines=baselines)
    got = _drift_entries(res)
    want = {r.column: r for r in sketch_stage.drift_check(ds, baselines)}
    assert set(got) == set(want) == {"a", "b", "k", "k2"}
    for c, e in got.items():
        assert e["valid"] is want[c].valid is False
        d = e["test_inputs"]["distance"]
        if c in ("a", "b"):
            assert d is None and want[c].distance is None
        else:
            assert d == want[c].distance == 1.0
    json.dumps(res.response.get_result(), allow_nan=False)


def test_baselines_round_trip_byte_identical(tmp_path):
    """``save_baselines`` → ``load_baselines`` gives back t-digest and
    HLL payloads byte-identical to the ones saved."""
    baselines = _baselines()
    path = sketch_stage.save_baselines(baselines, str(tmp_path / "base.json"))
    loaded = sketch_stage.load_baselines(path)
    assert {c: set(e) for c, e in loaded.items()} == {c: set(e) for c, e in baselines.items()}
    for c, e in baselines.items():
        for kind, sk in e.items():
            assert loaded[c][kind].to_bytes() == sk.to_bytes()


@pytest.mark.parametrize("kind", ["kll", "reservoir"])
def test_load_baselines_rejects_other_sketch_kinds(tmp_path, kind):
    """A baseline entry of a kind other than t-digest or HLL (the
    retired KLL sketch, or any unknown kind) fails to load, naming the
    file, the column and the kind, instead of silently dropping that
    column's drift verdict."""
    saved = tmp_path / "base.json"
    sketch_stage.save_baselines(_baselines(), str(saved))
    raw = json.loads(saved.read_text())
    raw["b"] = {kind: "AAAA"}
    saved.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as err:
        sketch_stage.load_baselines(str(saved))
    msg = str(err.value)
    assert str(saved) in msg and "'b'" in msg and f"'{kind}'" in msg
    assert "compute_sketches" in msg
