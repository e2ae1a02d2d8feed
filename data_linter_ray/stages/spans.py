"""Span checks over ``list<struct>`` columns (north-rule payload).

The reference engine is flat-relational; these checks are the engine's
extension to interleaved text+media documents
(``BASELINE.json:input_hint``). All kernels flatten the list column once
per batch with ``pc.list_flatten`` / ``pc.list_parent_indices`` and work
on the flat child arrays with vectorized Arrow/numpy ops — never a Python
loop over rows (SURVEY.md §2.8).

Checks (FIXTURES.md F1 constraint set):
  - ``span_kind_enum``        kind ∈ {text, image, audio, video}
  - ``span_text_presence``    text non-null iff kind == "text"
  - ``span_media_presence``   media_ref non-null iff kind != "text"
  - ``span_media_pattern``    media_ref matches ^media://[a-z0-9/]+$
  - ``span_offset_min``       offset >= 0
  - ``span_offset_order``     offsets non-decreasing within a row
  - ``span_count``            list length within [1, 64]
  - ``span_media_ref_integrity``  flattened media_ref ⊆ media catalog

Plus row-wise **span-sequence equality** between two span columns
(kind, text, media_ref, order) — the per-row invariant the north rule
requires vs the reference copy of each document.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.checks import REFERENTIAL_TEST
from data_linter_ray.stages.checker import Checker, _stringify
from data_linter_ray.stages.referential import KeySetAntiJoin

KIND_ENUM = ["text", "image", "audio", "video"]
MEDIA_REF_PATTERN = "^media://[a-z0-9/]+$"
MAX_SPANS = 64

SPAN_TESTS = [
    "span_kind_enum",
    "span_text_presence",
    "span_media_presence",
    "span_media_pattern",
    "span_offset_min",
    "span_offset_order",
    "span_count",
]


def _flatten(spans: pa.ChunkedArray | pa.Array):
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    return spans, flat, parents


class SpanContext:
    """Per-batch memo shared by the span-family checkers: ONE
    combine+flatten per span column and ONE dictionary-encode of the
    flattened media_ref. The fused check pass always builds one per
    batch (construction is free; nothing is computed until a span
    checker asks). The media refs repeat heavily (a bounded asset
    catalog), so both the media pattern regex and the catalog anti-join
    run their kernel on the ~distinct dictionary and ``take`` the result
    back — measured ~25% of the fused checker's per-batch CPU on the
    interleaved corpus."""

    def __init__(self, table: pa.Table):
        self._table = table
        self._flat: dict = {}
        self._media_dict: dict = {}

    def flat(self, col: str):
        if col not in self._flat:
            self._flat[col] = _flatten(self._table[col])
        return self._flat[col]

    def media_dict(self, col: str):
        if col not in self._media_dict:
            _spans, flat, _parents = self.flat(col)
            self._media_dict[col] = flat.field("media_ref").dictionary_encode()
        return self._media_dict[col]


def _on_dict(kernel, dict_array) -> pa.Array:
    """Run a boolean kernel over a DictionaryArray's distinct values and
    expand back through the indices (null index → null, caller fills)."""
    small = kernel(dict_array.dictionary)
    return pc.take(small, dict_array.indices)


def span_check_masks(spans, ctx_pair=None) -> dict[str, np.ndarray]:
    """All span checks in one flatten pass → {test: row-level bool mask}.

    ``ctx_pair`` is an optional ``(flattened_triple, media_dict)`` from
    :class:`SpanContext`; without it both are computed locally."""
    if ctx_pair is not None:
        (spans, flat, parents), media_dict = ctx_pair
    else:
        spans, flat, parents = _flatten(spans)
        media_dict = flat.field("media_ref").dictionary_encode()
    n_rows = len(spans)
    kind = flat.field("kind")
    text = flat.field("text")
    media = flat.field("media_ref")
    offset = flat.field("offset")

    def rowify(flat_mask) -> np.ndarray:
        """element-level violation mask → row-level mask via parent index
        (bincount of violating parents — ~10× faster than logical_or.at)."""
        fm = (
            pc.fill_null(flat_mask, False).to_numpy(zero_copy_only=False)
            if not isinstance(flat_mask, np.ndarray)
            else flat_mask
        )
        hits = parents[: len(fm)][fm]
        return np.bincount(hits, minlength=n_rows).astype(bool)

    out: dict[str, np.ndarray] = {}
    is_text = pc.equal(kind, "text")
    out["span_kind_enum"] = rowify(
        pc.invert(pc.fill_null(pc.is_in(kind, value_set=pa.array(KIND_ENUM)), False))
    )
    out["span_text_presence"] = rowify(
        pc.and_kleene(pc.fill_null(is_text, False), pc.is_null(text))
    )
    out["span_media_presence"] = rowify(
        pc.and_kleene(
            pc.invert(pc.fill_null(is_text, True)), pc.is_null(media)
        )
    )
    out["span_media_pattern"] = rowify(
        pc.and_kleene(
            pc.invert(pc.is_null(media)),
            pc.invert(
                pc.fill_null(
                    _on_dict(
                        lambda d: pc.match_substring_regex(d, MEDIA_REF_PATTERN),
                        media_dict,
                    ),
                    False,
                )
            ),
        )
    )
    out["span_offset_min"] = rowify(pc.less(offset, 0))

    # offsets non-decreasing within each row: element i violates when it
    # shares a parent with element i-1 and offset[i] < offset[i-1]
    off = offset.to_numpy(zero_copy_only=False)
    if len(off):
        same_parent = np.empty(len(off), dtype=bool)
        same_parent[0] = False
        same_parent[1:] = parents[1:] == parents[:-1]
        decreasing = np.empty(len(off), dtype=bool)
        decreasing[0] = False
        with np.errstate(invalid="ignore"):
            decreasing[1:] = off[1:] < off[:-1]
        out["span_offset_order"] = rowify(same_parent & decreasing)
    else:
        out["span_offset_order"] = np.zeros(n_rows, dtype=bool)

    counts = pc.fill_null(pc.list_value_length(spans), 0)
    out["span_count"] = pc.or_(
        pc.less(counts, 1), pc.greater(counts, MAX_SPANS)
    ).to_numpy(zero_copy_only=False)
    return out


class SpanChecker(Checker):
    """map_batches callable: span checks → long-format violation rows."""

    def __init__(self, spans_col: str = "spans", id_column: str | None = "doc_id"):
        self.spans_col = spans_col
        self.id_column = id_column

    def findings(self, batch: pa.Table, ctx: SpanContext):
        pair = (ctx.flat(self.spans_col), ctx.media_dict(self.spans_col))
        for test, mask in span_check_masks(batch[self.spans_col], ctx_pair=pair).items():
            yield self.spans_col, test, np.flatnonzero(mask), None


class SpanMediaRefChecker(KeySetAntiJoin):
    """Per-batch: flattened spans.media_ref anti-joined against the
    broadcast catalog key set → violations attributed to the spans
    column, one per dangling span. (Batch-level so it can be fused into
    the single check pass.)"""

    def findings(self, batch: pa.Table, ctx: SpanContext):
        _spans, flat, parents = ctx.flat(self.column)
        media = flat.field("media_ref")
        dangling = self._dangling(media, ctx.media_dict(self.column))
        rows = parents[dangling.to_numpy(zero_copy_only=False)]
        yield self.column, REFERENTIAL_TEST, rows, _stringify(media.filter(dangling))


def span_sequence_equality_mask(left, right, compare_offsets: bool = False) -> np.ndarray:
    """Row-level inequality mask between two span columns.

    Exact span-sequence equality = same length AND element-wise equal
    (kind, text, media_ref) in order; ``compare_offsets`` adds offset.
    Fully vectorized: one flatten per side, numpy equality on children.
    """
    left = left.combine_chunks() if isinstance(left, pa.ChunkedArray) else left
    right = right.combine_chunks() if isinstance(right, pa.ChunkedArray) else right
    n = len(left)
    len_l = pc.fill_null(pc.list_value_length(left), -1).to_numpy(zero_copy_only=False)
    len_r = pc.fill_null(pc.list_value_length(right), -1).to_numpy(zero_copy_only=False)
    unequal = len_l != len_r
    both = ~unequal
    if not both.any():
        return unequal
    keep = pa.array(both)
    sub_l = pc.filter(left, keep)
    sub_r = pc.filter(right, keep)
    flat_l = pc.list_flatten(sub_l)
    flat_r = pc.list_flatten(sub_r)
    parents = pc.list_parent_indices(sub_l).to_numpy(zero_copy_only=False)
    fields = ["kind", "text", "media_ref"] + (["offset"] if compare_offsets else [])
    elem_neq = np.zeros(len(flat_l), dtype=bool)
    for f in fields:
        a, b = flat_l.field(f), flat_r.field(f)
        # null-safe inequality: values differ, or exactly one side null
        neq = pc.fill_null(pc.not_equal(a, b), False).to_numpy(zero_copy_only=False)
        null_mismatch = pc.xor(pc.is_null(a), pc.is_null(b)).to_numpy(zero_copy_only=False)
        elem_neq |= neq | null_mismatch
    row_neq_sub = np.bincount(parents[elem_neq], minlength=int(both.sum())).astype(bool)
    unequal[np.flatnonzero(both)] = row_neq_sub
    return unequal


class SpanEqualityChecker(Checker):
    """Per-batch row-wise span-sequence equality → violation rows."""

    def __init__(
        self,
        left_col: str = "spans",
        right_col: str = "spans_reference",
        id_column: str | None = "doc_id",
        compare_offsets: bool = False,
    ):
        self.left_col = left_col
        self.right_col = right_col
        self.id_column = id_column
        self.compare_offsets = compare_offsets

    def findings(self, batch: pa.Table, ctx):
        mask = span_sequence_equality_mask(
            batch[self.left_col], batch[self.right_col],
            compare_offsets=self.compare_offsets,
        )
        yield self.left_col, "span_sequence_equality", np.flatnonzero(mask), None


def span_equality_violations(
    ds: Dataset,
    left_col: str = "spans",
    right_col: str = "spans_reference",
    id_column: str | None = "doc_id",
    compare_offsets: bool = False,
) -> Dataset:
    """Rows whose span sequence differs from the reference copy."""
    cols = [left_col, right_col] + ([id_column] if id_column else [])
    return ds.select_columns(cols).map_batches(
        SpanEqualityChecker(left_col, right_col, id_column, compare_offsets),
        batch_format="pyarrow",
    )
