"""Checkpoint/resume under interruption: a run killed after validating
only some units must, on resume, skip the committed units and finish the
rest (the north rule's 'resumes from the last committed partition
checkpoint')."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from data_linter_ray.config import load_and_validate_config
from data_linter_ray.pipelines.run import (
    list_land_files,
    match_files_to_tables,
    open_status_store,
    run_validation,
    validate_phase,
)

META = {
    "name": "t1",
    "columns": [
        {"name": "a", "type": "int64", "minimum": 0, "maximum": 100, "nullable": False}
    ],
}


def test_interrupted_run_resumes(ray_session, tmp_path):
    land = tmp_path / "land"
    land.mkdir()
    for i in range(4):
        pq.write_table(pa.table({"a": pa.array([i, 50], pa.int64())}), land / f"t1_{i}.parquet")
    cfg_dict = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "tables": {"t1": {"metadata": META}},
    }
    config = load_and_validate_config(cfg_dict)

    # ---- phase 1 "crashes" after validating only the first two files ----
    store = open_status_store(config)
    store.clear()
    files = list_land_files(config.land_base_path)
    matched = match_files_to_tables(files, config)
    partial = {"t1": matched["t1"][:2]}
    validate_phase(config, store, partial, resume=False)
    assert len(store.all()) == 2
    mtimes_before = {
        m.key(): os.path.getmtime(store._path(m.key())) for m in store.all()
    }

    # ---- resumed run completes the remaining units ---------------------
    res = run_validation(cfg_dict, resume=True)
    assert len(res.manifests) == 4
    assert res.all_tables_passed
    # the two pre-committed units were NOT re-validated (manifest bodies
    # only touched by the routing-phase archived-path update)
    for m in res.manifests:
        assert m.archived_path  # all routed
    assert len(os.listdir(tmp_path / "pass" / "t1")) == 4
    # committed-before units kept their original validation payloads
    for key in mtimes_before:
        assert store.load(key).valid


def test_validate_table_checkpointed_resume(ray_session, tmp_path):
    """North-rule partition checkpointing: a killed table validation
    resumes from the last committed partition; completed partitions are
    never recomputed; folded counts are invariant."""
    import numpy as np
    import pyarrow.parquet as pq

    from data_linter_ray import synth
    from data_linter_ray.pipelines.table import validate_table_checkpointed

    inp = tmp_path / "table"
    inp.mkdir()
    for i in range(6):  # 6 fragments -> 3 units of 2
        pq.write_table(
            synth.make_documents_batch({"id": np.arange(i * 1000, (i + 1) * 1000)}),
            inp / f"frag-{i}.parquet",
        )
    out = str(tmp_path / "out")
    full = validate_table_checkpointed(
        str(inp), synth.documents_schema(), out,
        id_column="doc_id", fragments_per_unit=2,
    )
    assert full.partitions_total == 3 and full.partitions_validated == 3
    assert full.row_count == 6000 and not full.valid  # seeded violations
    assert full.counts.get("doc_id::pattern_test", 0) > 0

    # simulate a crash after unit 0: drop two manifests, corrupt their
    # fragments' bytes on disk is NOT needed — resume must skip unit 0
    # (committed) and re-validate only the dropped units
    from data_linter_ray.state.manifest import ManifestStore
    from data_linter_ray import fs

    store = ManifestStore(fs.join(out, "status"))
    keys = [m.key() for m in store.all()]
    for k in keys[1:]:
        fs.delete_file(fs.join(out, "status", f"{k}.json"))
    partial = validate_table_checkpointed(
        str(inp), synth.documents_schema(), out,
        id_column="doc_id", fragments_per_unit=2,
    )
    assert partial.partitions_validated == 2  # only the two dropped units
    assert partial.counts == full.counts and partial.row_count == 6000

    # fully-committed store: pure no-op resume
    again = validate_table_checkpointed(
        str(inp), synth.documents_schema(), out,
        id_column="doc_id", fragments_per_unit=2,
    )
    assert again.partitions_validated == 0
    assert again.counts == full.counts


def test_table_checkpoint_incremental_append(ray_session, tmp_path):
    """Appending new fragments to a fully-validated table: a resumed run
    validates ONLY the new partitions (incremental validation)."""
    import numpy as np
    import pyarrow.parquet as pq

    from data_linter_ray import synth
    from data_linter_ray.pipelines.table import validate_table_checkpointed

    inp = tmp_path / "table"
    inp.mkdir()
    for i in range(2):
        pq.write_table(
            synth.make_documents_batch({"id": np.arange(i * 500, (i + 1) * 500)}),
            inp / f"frag-{i}.parquet",
        )
    out = str(tmp_path / "out")
    first = validate_table_checkpointed(
        str(inp), synth.documents_schema(), out, id_column="doc_id", fragments_per_unit=1
    )
    assert first.partitions_validated == 2 and first.row_count == 1000

    # append two new fragments
    for i in range(2, 4):
        pq.write_table(
            synth.make_documents_batch({"id": np.arange(i * 500, (i + 1) * 500)}),
            inp / f"frag-{i}.parquet",
        )
    second = validate_table_checkpointed(
        str(inp), synth.documents_schema(), out, id_column="doc_id", fragments_per_unit=1
    )
    assert second.partitions_validated == 2  # only the new fragments
    assert second.partitions_total == 4 and second.row_count == 2000


def test_run_and_table_paths_produce_the_same_unit(ray_session, tmp_path):
    """A land file validated by ``run_validation`` and the same file as a
    one-fragment unit of ``validate_table_checkpointed`` run one unit
    body, so their manifests carry the same verdict, rows, counts and
    response."""
    from data_linter_ray.metadata import TableSchema
    from data_linter_ray.pipelines.table import validate_table_checkpointed

    meta = {
        "name": "t1",
        "columns": [
            {"name": "a", "type": "int64", "minimum": 0, "maximum": 100, "nullable": False},
            {"name": "s", "type": "string", "pattern": "^x", "enum": ["x1", "x2", "y"]},
        ],
    }
    t = pa.table(
        {
            "a": pa.array([5, 150, None, 7, -1], pa.int64()),
            "s": pa.array(["x1", "y", "x2", None, "z"], pa.string()),
        }
    )
    land, frags = tmp_path / "land", tmp_path / "frags"
    land.mkdir()
    frags.mkdir()
    pq.write_table(t, land / "t1_0.parquet")
    pq.write_table(t, frags / "t1_0.parquet")

    run = run_validation(
        {
            "land-base-path": str(land) + "/",
            "pass-base-path": str(tmp_path / "pass") + "/",
            "fail-base-path": str(tmp_path / "fail") + "/",
            "log-base-path": str(tmp_path / "log") + "/",
            "tables": {"t1": {"metadata": meta}},
        }
    )
    table = validate_table_checkpointed(
        str(frags), TableSchema.from_dict(meta), str(tmp_path / "out"),
        table_name="t1", fragments_per_unit=1,
    )
    (a,), (b,) = run.manifests, table.manifests
    assert not a.valid and a.counts  # the fixture has violations
    assert (a.valid, a.row_count, a.counts, a.response) == (
        b.valid, b.row_count, b.counts, b.response
    )


def test_manifest_commit_bytes_equal_asdict_dump(tmp_path):
    """A committed manifest is ``json.dumps(asdict(m))`` byte for byte,
    for a response with value samples, and loads back equal."""
    import json
    from dataclasses import asdict

    from data_linter_ray.state.manifest import ManifestStore, UnitManifest

    m = UnitManifest(
        table="t1",
        source_path=str(tmp_path / "land" / "t1.parquet"),
        valid=False,
        row_count=7,
        counts={"a::min_max_test": 2},
        response={
            "valid": False,
            "a": {
                "valid": False,
                "min_max_test": {
                    "valid": False,
                    "unexpected_values_sample": [101, -1],
                    "unexpected_index_sample": [None, None],
                    "test_inputs": {"column": "a", "minimum": 0, "maximum": 100},
                },
            },
        },
        violations_path=str(tmp_path / "log" / "violations"),
        archived_path=None,
        duration_s=0.25,
    )
    store = ManifestStore(str(tmp_path / "status"))
    path = store.commit(m)
    with open(path, "rb") as f:
        assert f.read() == json.dumps(asdict(m)).encode()
    assert store.load(m.key()) == m
