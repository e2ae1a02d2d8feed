"""Span checks over ``list<struct>`` columns (north-rule payload).

The reference engine is flat-relational; these checks are the engine's
extension to interleaved text+media documents
(``BASELINE.json:input_hint``). The kernel flattens each span column
once per batch (``pc.list_flatten``, each row's span count from
``pc.list_value_length``) and works on the flat child arrays in numpy —
never a Python loop over rows (SURVEY.md §2.8).

``kind`` and ``media_ref`` hold few distinct values (a four-word enum, a
bounded asset catalog), so they are checked as dictionary codes (Column
Sketches, SIGMOD 2018): each verdict — enum membership, is-text, the
media pattern, catalog membership — is computed once per distinct value
and gathered to the spans by code. The parquet read of a span column
already yields both fields dictionary-encoded
(:func:`~data_linter_ray.sources.readers.read_table_dataset`); a plain
input is encoded once per batch. Element verdicts become row masks in
one ``bincount`` over the violating spans' parent rows.

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
    """(flattened spans, ends): ``ends[r]`` is where row ``r``'s
    spans end in the flattened array, a null list holding none, so the
    row of flattened span ``i`` is ``np.searchsorted(ends, i, "right")``."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.chunk(0) if spans.num_chunks == 1 else spans.combine_chunks()
    lengths = pc.list_value_length(spans).fill_null(0).to_numpy(zero_copy_only=False)
    return pc.list_flatten(spans), np.cumsum(lengths)


def _nulls(values: pa.Array) -> np.ndarray:
    """uint8 per value: 1 where null, unpacked from the validity bitmap."""
    if not values.null_count:
        return np.zeros(len(values), np.uint8)
    bitmap = np.frombuffer(values.buffers()[0], np.uint8)
    valid = np.unpackbits(bitmap, count=values.offset + len(values), bitorder="little")
    return valid[values.offset :] ^ 1


def _codes(values: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(dictionary, int32 codes with -1 for null) of a string array: its
    own dictionary when it has one, else one ``dictionary_encode``."""
    if not pa.types.is_dictionary(values.type):
        values = values.dictionary_encode()
    dictionary, indices = values.dictionary, values.indices.cast(pa.int32())
    if not len(indices):
        return dictionary, np.empty(0, np.int32)
    codes = np.frombuffer(indices.buffers()[1], np.int32, len(indices), indices.offset * 4)
    null = _nulls(indices)
    if dictionary.null_count:  # a null dictionary entry is a null value
        null |= _nulls(dictionary).take(codes, mode="clip")
    # a null's code is all ones, -1
    return dictionary, codes | -null.astype(np.int32) if null.any() else codes


def _by_code(verdicts: dict[int, pa.Array], null: int, codes: np.ndarray) -> np.ndarray:
    """Per-dictionary-entry boolean verdicts, keyed by bit, gathered to
    every value by its code → uint8 per value: each bit whose verdict is
    true for its entry, and ``null`` for code -1 (a null value). When no
    entry has a bit, only the nulls have one, and nothing is gathered."""
    n = len(next(iter(verdicts.values())))
    table = np.zeros(n + 1, dtype=np.uint8)  # slot 0 is code -1's
    for bit, verdict in verdicts.items():
        table[1:] |= verdict.fill_null(False).to_numpy(zero_copy_only=False) * np.uint8(bit)
    if not table.any():
        return (codes < 0).view(np.uint8) * np.uint8(null)
    table[0] = null
    return pa.array(table).take(pa.array(codes + 1)).to_numpy()


class SpanContext:
    """Per-batch memo shared by the span-family checkers: ONE
    combine+flatten per span column (:func:`_flatten`), and per span
    column the (dictionary, codes) pair of its ``kind`` and of its
    ``media_ref`` (:func:`_codes`; ``-1`` codes a null). The fused check
    pass builds one per batch (construction is free; nothing is computed
    until a span checker asks), so :func:`span_check_masks` and
    :class:`SpanMediaRefChecker` share one flatten and one set of codes,
    and every per-value verdict runs once per distinct value."""

    def __init__(self, table: pa.Table):
        self._table = table
        self._flat: dict = {}
        self._codes: dict = {}

    def flat(self, col: str):
        if col not in self._flat:
            self._flat[col] = _flatten(self._table[col])
        return self._flat[col]

    def codes(self, col: str, field: str) -> tuple[pa.Array, np.ndarray]:
        if (col, field) not in self._codes:
            self._codes[col, field] = _codes(self.flat(col)[0].field(field))
        return self._codes[col, field]

    def media_dict(self, col: str) -> tuple[pa.Array, np.ndarray]:
        return self.codes(col, "media_ref")


# the first six SPAN_TESTS as bits of one uint8 per span
BAD_KIND, NO_TEXT, NO_MEDIA, BAD_MEDIA, NEG_OFFSET, OFFSET_DOWN = (1 << i for i in range(6))


def span_check_masks(ctx: SpanContext, col: str) -> dict[str, np.ndarray]:
    """All span checks of ``col`` over the context's one flatten →
    {test: row-level bool mask}, in :data:`SPAN_TESTS` order."""
    flat, ends = ctx.flat(col)
    n_rows = len(ends)
    kinds, kind = ctx.codes(col, "kind")
    medias, media = ctx.codes(col, "media_ref")

    # verdicts per distinct value, gathered by code: a kind's entry holds
    # BAD_KIND and the presence test it is subject to; a media ref's
    # holds BAD_MEDIA, and the null slot NO_MEDIA, so ANDing a kind's
    # presence test with the span's missing fields finds the violations
    kind_bits = _by_code(
        {
            BAD_KIND: pc.invert(pc.is_in(kinds, value_set=pa.array(KIND_ENUM))),
            NO_TEXT: pc.equal(kinds, "text"),
            NO_MEDIA: pc.not_equal(kinds, "text"),
        },
        BAD_KIND,
        kind,
    )
    media_bits = _by_code(
        {BAD_MEDIA: pc.invert(pc.match_substring_regex(medias, MEDIA_REF_PATTERN))},
        NO_MEDIA,
        media,
    )
    no_text = _nulls(flat.field("text")) * np.uint8(NO_TEXT)
    bits = kind_bits & (BAD_KIND | no_text | media_bits) | media_bits & BAD_MEDIA
    # a null offset is NaN here and fails neither offset test
    off = flat.field("offset").to_numpy(zero_copy_only=False)
    down = np.zeros(len(off), dtype=bool)
    with np.errstate(invalid="ignore"):
        bits |= (off < 0).view(np.uint8) * np.uint8(NEG_OFFSET)
        down[1:] = off[1:] < off[:-1]
    down[ends[ends < len(off)]] = False  # a row's first span has no predecessor
    bits |= down.view(np.uint8) * np.uint8(OFFSET_DOWN)

    bad = np.flatnonzero(bits != 0)
    rows = np.searchsorted(ends, bad, side="right")
    span, test = np.nonzero(np.unpackbits(bits[bad, None], axis=1, count=6, bitorder="little"))
    # one bincount over (test, row) of every violating span
    hits = np.bincount(test * n_rows + rows[span], minlength=6 * n_rows)
    out = dict(zip(SPAN_TESTS, hits.reshape(6, n_rows).astype(bool)))

    counts = np.diff(ends, prepend=0)
    out["span_count"] = (counts < 1) | (counts > MAX_SPANS)
    return out


class SpanChecker(Checker):
    """map_batches callable: span checks → long-format violation rows."""

    def __init__(self, spans_col: str = "spans", id_column: str | None = "doc_id"):
        self.spans_col = spans_col
        self.id_column = id_column

    def findings(self, batch: pa.Table, ctx: SpanContext):
        for test, mask in span_check_masks(ctx, self.spans_col).items():
            yield self.spans_col, test, np.flatnonzero(mask), None


class SpanMediaRefChecker(KeySetAntiJoin):
    """Per-batch: flattened spans.media_ref anti-joined against the
    broadcast catalog key set → violations attributed to the spans
    column, one per dangling span. The lookup runs once per distinct
    media ref and is gathered by code. (Batch-level so it can be fused
    into the single check pass.)"""

    def findings(self, batch: pa.Table, ctx: SpanContext):
        ends = ctx.flat(self.column)[1]
        medias, media = ctx.codes(self.column, "media_ref")
        dangling = np.flatnonzero(_by_code({1: self._dangling(medias)}, 0, media).view(bool))
        rows = np.searchsorted(ends, dangling, side="right")
        yield self.column, REFERENTIAL_TEST, rows, _stringify(medias.take(media[dangling]))


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
