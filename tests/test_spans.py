"""Span-check kernels + interleaved-document synthesizer tests
(north-rule payload: FIXTURES.md F1, BASELINE.json input_hint)."""

import numpy as np
import pyarrow as pa
import pytest

import ray
from data_linter_ray.metadata import SPANS_TYPE
from data_linter_ray.stages import spans as sp
from data_linter_ray import synth


def spans_col(rows):
    return pa.array(rows, type=SPANS_TYPE)


def span(kind="text", text="hello", media_ref=None, offset=0):
    if kind != "text" and media_ref is None:
        media_ref = "media://cat/00000001"
        text = None
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


GOOD_ROW = [span(offset=0), span("image", offset=10), span(offset=20)]


def test_good_row_has_no_violations():
    masks = sp.span_check_masks(spans_col([GOOD_ROW]))
    for test, m in masks.items():
        assert not m.any(), test


def test_bad_kind():
    row = [span(), {"kind": "hologram", "text": None, "media_ref": None, "offset": 1}]
    masks = sp.span_check_masks(spans_col([GOOD_ROW, row]))
    assert masks["span_kind_enum"].tolist() == [False, True]
    # hologram is not "text" so media presence also fires for it
    assert masks["span_media_presence"].tolist() == [False, True]


def test_text_presence():
    row = [{"kind": "text", "text": None, "media_ref": None, "offset": 0}]
    masks = sp.span_check_masks(spans_col([row, GOOD_ROW]))
    assert masks["span_text_presence"].tolist() == [True, False]


def test_media_pattern():
    row = [span("image", media_ref="MEDIA://Bad_Ref", offset=0)]
    masks = sp.span_check_masks(spans_col([row]))
    assert masks["span_media_pattern"].tolist() == [True]


def test_offset_min_and_order():
    neg = [span(offset=-5)]
    ooo = [span(offset=10), span("image", offset=3)]
    masks = sp.span_check_masks(spans_col([neg, ooo, GOOD_ROW]))
    assert masks["span_offset_min"].tolist() == [True, False, False]
    assert masks["span_offset_order"].tolist() == [False, True, False]


def test_span_count_empty_and_null():
    masks = sp.span_check_masks(spans_col([[], None, GOOD_ROW]))
    assert masks["span_count"].tolist() == [True, True, False]


def test_equality_mask():
    a = spans_col([GOOD_ROW, GOOD_ROW, [span()], None])
    changed = [dict(GOOD_ROW[0]), dict(GOOD_ROW[1]), dict(GOOD_ROW[2])]
    changed[1] = {**changed[1], "media_ref": "media://cat/other"}
    b = spans_col([GOOD_ROW, changed, [span(), span()], None])
    mask = sp.span_sequence_equality_mask(a, b)
    assert mask.tolist() == [False, True, True, False]


def test_equality_offsets_flag():
    shifted = [{**s, "offset": s["offset"] + 1} for s in GOOD_ROW]
    a, b = spans_col([GOOD_ROW]), spans_col([shifted])
    assert sp.span_sequence_equality_mask(a, b).tolist() == [False]
    assert sp.span_sequence_equality_mask(a, b, compare_offsets=True).tolist() == [True]


# ---------------- synth + pipeline integration -------------------------


def test_synth_determinism(ray_session):
    """Same content regardless of partitioning (blocks may arrive in any
    order under the streaming executor — compare canonically sorted)."""
    import json

    def canon(rows):
        return sorted(json.dumps({"d": r["doc_id"], "s": r["spans"]}, sort_keys=True) for r in rows)

    t1 = synth.documents_dataset(2000, override_num_blocks=4).take_all()
    t2 = synth.documents_dataset(2000, override_num_blocks=7).take_all()
    assert canon(t1) == canon(t2)


def test_synth_violation_rates(ray_session):
    ds = synth.documents_dataset(20_000)
    viol = ds.map_batches(sp.SpanChecker(), batch_format="pyarrow").to_pandas()
    by_test = viol.groupby("test").size().to_dict()
    # ~2% of rows carry one bad span split over three modes
    total_bad = sum(by_test.values())
    assert 0.005 * 20_000 < total_bad < 0.05 * 20_000
    assert set(by_test) <= set(sp.SPAN_TESTS)

    from data_linter_ray import checks
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset

    schema = TableSchema(name="d", columns=[ColumnSpec(name="doc_id", type="string", unique=True)])
    dups = validate_dataset(ds.select_columns(["doc_id"]), schema).violations.to_pandas()
    dups = dups[dups["test"] == checks.UNIQUE_TEST]
    assert len(dups) > 0
    hot = dups[dups["row_ref"].str.startswith(synth.HOT_PREFIX)]
    assert len(hot) > 0 and hot["value"].astype(int).max() > 10  # hot-key skew present


def test_media_ref_integrity(ray_session):
    docs = synth.documents_dataset(5000)
    catalog = synth.media_catalog_dataset()
    from data_linter_ray.stages.referential import distinct_key_set

    checker = sp.SpanMediaRefChecker("spans", "doc_id", distinct_key_set(catalog, "media_ref"))
    viol = docs.map_batches(checker, batch_format="pyarrow").to_pandas()
    assert len(viol) > 0
    assert viol["value"].str.startswith("media://missing/").all()


def test_span_equality_pipeline(ray_session):
    docs = synth.documents_dataset(1000)

    def add_ref_copy(t: pa.Table) -> pa.Table:
        return t.append_column("spans_reference", t["spans"])

    same = docs.map_batches(add_ref_copy, batch_format="pyarrow")
    assert sp.span_equality_violations(same).count() == 0


def test_synth_vectorized_matches_rowwise():
    """The vectorized generator is byte-identical to the original
    row-wise one (fixtures, oracles, and bench inputs depend on it)."""
    import numpy as np

    from data_linter_ray import synth

    for start, n in [(0, 5_000), (123_457, 3_000)]:
        b = {"id": np.arange(start, start + n)}
        assert synth.make_documents_batch(b).equals(
            synth._make_documents_batch_rowwise(b)
        )
