"""Span-check kernels + interleaved-document synthesizer tests
(north-rule payload: FIXTURES.md F1, BASELINE.json input_hint)."""

import re

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ray
from data_linter_ray import checks, synth
from data_linter_ray.metadata import SPANS_TYPE
from data_linter_ray.stages import spans as sp


def spans_col(rows):
    return pa.array(rows, type=SPANS_TYPE)


def masks_of(rows):
    return sp.span_check_masks(sp.SpanContext(pa.table({"spans": spans_col(rows)})), "spans")


def span(kind="text", text="hello", media_ref=None, offset=0):
    if kind != "text" and media_ref is None:
        media_ref = "media://cat/00000001"
        text = None
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


GOOD_ROW = [span(offset=0), span("image", offset=10), span(offset=20)]


def test_good_row_has_no_violations():
    masks = masks_of([GOOD_ROW])
    for test, m in masks.items():
        assert not m.any(), test


def test_bad_kind():
    row = [span(), {"kind": "hologram", "text": None, "media_ref": None, "offset": 1}]
    masks = masks_of([GOOD_ROW, row])
    assert masks["span_kind_enum"].tolist() == [False, True]
    # hologram is not "text" so media presence also fires for it
    assert masks["span_media_presence"].tolist() == [False, True]


def test_text_presence():
    row = [{"kind": "text", "text": None, "media_ref": None, "offset": 0}]
    masks = masks_of([row, GOOD_ROW])
    assert masks["span_text_presence"].tolist() == [True, False]


def test_media_pattern():
    row = [span("image", media_ref="MEDIA://Bad_Ref", offset=0)]
    masks = masks_of([row])
    assert masks["span_media_pattern"].tolist() == [True]


def test_offset_min_and_order():
    neg = [span(offset=-5)]
    ooo = [span(offset=10), span("image", offset=3)]
    masks = masks_of([neg, ooo, GOOD_ROW])
    assert masks["span_offset_min"].tolist() == [True, False, False]
    assert masks["span_offset_order"].tolist() == [False, True, False]


def test_span_count_empty_and_null():
    masks = masks_of([[], None, GOOD_ROW])
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


# ---------------- the span kernel against a per-document oracle ---------

CATALOG = ["media://cat/1", "media://cat/2", "media://\U0001d538/3", "MEDIA://cat/4"]
DICT_SPANS_TYPE = pa.list_(
    pa.struct(
        [
            pa.field(f.name, pa.dictionary(pa.int32(), pa.string()))
            if f.name in ("kind", "media_ref")
            else f
            for f in SPANS_TYPE.value_type
        ]
    )
)

_span = st.fixed_dictionaries(
    {
        "kind": st.one_of(st.none(), st.sampled_from(sp.KIND_ENUM + ["hologram", "", "Text"])),
        "text": st.one_of(st.none(), st.text(max_size=4)),
        "media_ref": st.one_of(
            st.none(),
            st.sampled_from(CATALOG + ["media://missing/9", "media://cat/\U0001f600", "media://"]),
            st.text(max_size=6),
        ),
        "offset": st.one_of(st.none(), st.integers(-3, 40)),
    }
)
_row = st.one_of(
    st.none(),
    st.lists(_span, max_size=5),
    # past MAX_SPANS: one span repeated
    st.builds(lambda s, n: [s] * n, _span, st.integers(sp.MAX_SPANS + 1, sp.MAX_SPANS + 3)),
)


def _oracle(rows):
    """Per-document Python loop: {test: row mask} and the dangling
    (row, media_ref) pairs in span order."""
    masks = {t: [False] * len(rows) for t in sp.SPAN_TESTS}
    dangling = []
    for r, spans in enumerate(rows):
        n = 0 if spans is None else len(spans)
        masks["span_count"][r] = n < 1 or n > sp.MAX_SPANS
        for i, s in enumerate(spans or []):
            kind, text, media, off = s["kind"], s["text"], s["media_ref"], s["offset"]
            hit = {
                "span_kind_enum": kind not in sp.KIND_ENUM,
                "span_text_presence": kind == "text" and text is None,
                "span_media_presence": kind is not None and kind != "text" and media is None,
                "span_media_pattern": media is not None
                and re.fullmatch(r"media://[a-z0-9/]+", media) is None,
                "span_offset_min": off is not None and off < 0,
                "span_offset_order": i > 0
                and off is not None
                and spans[i - 1]["offset"] is not None
                and off < spans[i - 1]["offset"],
            }
            for t, v in hit.items():
                masks[t][r] |= v
            if media is not None and media not in CATALOG:
                dangling.append((r, media))
    return masks, dangling


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(_row, min_size=1, max_size=12), dictionary=st.booleans(), lead=st.integers(0, 2))
def test_span_kernel_matches_per_document_oracle(rows, dictionary, lead):
    """``span_check_masks``, ``SpanChecker`` and ``SpanMediaRefChecker``
    give the per-document loop's verdicts on plain and on
    dictionary-typed spans, also on a sliced batch."""
    spans = spans_col([None] * lead + rows)
    if dictionary:
        spans = spans.cast(DICT_SPANS_TYPE)
    ids = pa.array([f"d{i}" for i in range(-lead, len(rows))])
    table = pa.table({"doc_id": ids, "spans": spans}).slice(lead)
    want, want_dangling = _oracle(rows)

    ctx = sp.SpanContext(table)
    got = sp.span_check_masks(ctx, "spans")
    assert list(got) == sp.SPAN_TESTS
    for t in sp.SPAN_TESTS:
        assert got[t].tolist() == want[t], t

    viol = sp.SpanChecker("spans", "doc_id")(table, ctx)
    assert viol.to_pylist() == [
        {"row_ref": f"d{r}", "column": "spans", "test": t, "value": None}
        for t in sp.SPAN_TESTS
        for r in range(len(rows))
        if want[t][r]
    ]
    ref = sp.SpanMediaRefChecker("spans", "doc_id", pa.array(CATALOG))(table, ctx)
    assert ref.schema.field("value").type == pa.string()
    assert ref.to_pylist() == [
        {"row_ref": f"d{r}", "column": "spans", "test": checks.REFERENTIAL_TEST, "value": m}
        for r, m in want_dangling
    ]


def test_codes_read_null_dictionary_entries_and_narrow_indices():
    """A null dictionary entry codes -1 like a null index, and int8
    indices code as int32."""
    values = pa.DictionaryArray.from_arrays(
        pa.array([0, 1, None, 2, 1], pa.int8()), pa.array(["a", None, "b"])
    )
    dictionary, codes = sp._codes(values.slice(1))
    assert dictionary.to_pylist() == ["a", None, "b"]
    assert codes.dtype == np.int32 and codes.tolist() == [-1, -1, 2, -1]


def test_equality_and_quarantine_read_dictionary_spans_as_plain(ray_session, tmp_path):
    """``SpanEqualityChecker`` and ``quarantine.split_valid_rows`` give
    the same rows on a dictionary-encoded read of the spans as on the
    plain table, also when only one side of the equality is encoded."""
    import pyarrow.parquet as pq

    from data_linter_ray.sources.readers import read_table_dataset
    from data_linter_ray.stages.quarantine import split_valid_rows

    plain = synth.make_documents_batch({"id": np.arange(3_000)})
    changed = plain["spans"].to_pylist()
    for r in range(0, 3_000, 97):  # every 97th reference copy differs
        if changed[r]:
            changed[r][-1] = {**changed[r][-1], "media_ref": "media://cat/other"}
    plain = plain.append_column("spans_reference", spans_col(changed))
    path = str(tmp_path / "docs.parquet")
    pq.write_table(plain, path)

    schema = synth.documents_schema()
    # spans_reference is no span column of the schema, so it reads plain
    encoded = pa.concat_tables(ray.get(read_table_dataset(path, schema).to_arrow_refs()))
    assert encoded.schema.field("spans").type == DICT_SPANS_TYPE
    both = encoded.set_column(2, "spans_reference", encoded["spans_reference"].cast(DICT_SPANS_TYPE))
    checker = sp.SpanEqualityChecker()
    want = checker(plain)
    assert want.num_rows > 0
    for t in (encoded, both):
        assert checker(t).sort_by("row_ref").equals(want.sort_by("row_ref"))

    def doc_ids(ds):
        return sorted(ds.to_pandas()["doc_id"])

    got_valid, got_invalid = split_valid_rows(read_table_dataset(path, schema), schema)
    valid, invalid = split_valid_rows(ray.data.from_arrow(plain), schema)
    assert doc_ids(got_valid) == doc_ids(valid)
    assert doc_ids(got_invalid) == doc_ids(invalid) != []


def test_null_list_over_a_nonempty_range_holds_no_spans():
    """A null list whose offsets still span values (legal Arrow) holds
    no spans: its row fails only ``span_count``, and the spans under it
    are neither checked nor moved onto the rows around it."""
    bad = {"kind": "hologram", "text": None, "media_ref": "media://missing/1", "offset": -1}
    values = spans_col([[span(), bad, span("image", offset=3)]]).values
    spans = pa.ListArray.from_arrays(
        pa.array([0, 1, 2, 3], pa.int32()), values, mask=pa.array([False, True, False])
    )
    table = pa.table({"doc_id": ["a", "b", "c"], "spans": spans})
    ctx = sp.SpanContext(table)
    masks = sp.span_check_masks(ctx, "spans")
    assert {t: m.tolist() for t, m in masks.items() if m.any()} == {
        "span_count": [False, True, False]
    }
    catalog = pa.array(["media://cat/00000001"])
    assert sp.SpanMediaRefChecker("spans", "doc_id", catalog)(table, ctx).num_rows == 0
