"""Lance reader dispatch (the BASELINE input hint names a Lance table).

The ``lance`` package cannot be installed in this sandbox (no network),
so these tests pin the two behaviors our registry owns:

- a ``.lance`` path dispatches to ``ray.data.read_lance`` and the
  resulting Dataset flows through the SAME ingest-normalize + validate
  stages as any other source (storage-agnostic Arrow batches) — proven
  with a stub ``read_lance`` backed by a parquet read of the identical
  interleaved ``(doc_id, spans)`` schema;
- when lance is genuinely absent, the gate raises a clear ImportError
  instead of an obscure attribute failure mid-pipeline.
"""

import pyarrow as pa
import pytest

import ray
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.sources.readers import read_table_dataset


def _interleaved_schema() -> TableSchema:
    return TableSchema(
        name="docs",
        columns=[
            ColumnSpec(name="doc_id", type="string", nullable=False),
            ColumnSpec(name="n_spans", type="int64", minimum=0),
        ],
    )


def test_lance_path_dispatches_to_read_lance(ray_session, tmp_path, monkeypatch):
    # stand-in Lance dataset: same interleaved shape, parquet-backed stub
    tbl = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(100)]),
            "spans": pa.array(
                [
                    [{"kind": "text", "text": f"t{i}", "media_ref": None, "offset": i}]
                    for i in range(100)
                ],
                type=pa.list_(
                    pa.struct(
                        [
                            ("kind", pa.string()),
                            ("text", pa.string()),
                            ("media_ref", pa.string()),
                            ("offset", pa.int32()),
                        ]
                    )
                ),
            ),
        }
    )
    pq_path = str(tmp_path / "docs.parquet")
    import pyarrow.parquet as pq

    pq.write_table(tbl, pq_path)

    seen = {}

    def fake_read_lance(uri, **kwargs):
        seen["uri"] = uri
        return ray.data.read_parquet(pq_path)

    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance)
    ds = read_table_dataset(str(tmp_path / "docs.lance"), _interleaved_schema())
    assert seen["uri"].endswith("docs.lance")
    out = ds.to_pandas()
    assert len(out) == 100
    assert list(out.columns) == ["doc_id", "spans"]
    # downstream stages consume the same Arrow batches regardless of source
    from data_linter_ray.stages.spans import SpanChecker

    viol = ds.map_batches(SpanChecker(), batch_format="pyarrow").to_pandas()
    assert len(viol) == 0  # all synthetic spans are well-formed


def test_lance_absent_raises_clear_importerror(ray_session, tmp_path):
    pytest.importorskip("ray")
    try:
        import lance  # noqa: F401

        pytest.skip("lance installed — gate not reachable")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="lance"):
        read_table_dataset(str(tmp_path / "x.lance"), _interleaved_schema())
