"""Analysis / curation operators for INTERLEAVED text+media documents.

The north-rule input is a table of ``(doc_id, spans)`` rows where
``spans`` is ``list<struct<kind, text, media_ref, offset>>``.  The
validation stages (``stages/spans.py``) check such rows; the operators
here ANALYSE them — the per-document composition stats, the
render-to-training-text flattening, the media-asset usage counts and
the corpus kind mix a curation pipeline needs before/after validation.

All operators are vectorized over the FLATTENED span stream:
``pc.list_flatten`` + ``pc.list_parent_indices`` give one Arrow pass
per batch, per-row aggregation is ``np.add.reduceat`` over the
row-major flat order (the list layout guarantees parent indices are
non-decreasing), and the only exchange (media-ref counts) ships
pre-aggregated ``(ref, partial count)`` rows — one row per distinct
ref per batch, never one per span.

Reference provenance: the reference has no interleaved analogue (it
lints flat CSV/parquet, pandas_validator.py); these operators extend
its per-column profiling spirit (§2 A-drift / profiling) to the
span-struct data model the north rule mandates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups

KINDS = ("text", "image", "audio", "video")


_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)


def _flat(t: pa.Table, spans_col: str):
    """Flatten one batch's span lists → (struct fields, parent row idx,
    per-row list lengths). Null/empty lists contribute zero children;
    an all-null block (null-typed column) flattens to zero spans."""
    col = t[spans_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # blocks of only spans=None rows infer a null column; blocks of only
    # empty lists infer list<null> — both flatten to zero typed spans
    if pa.types.is_null(col.type) or (
        pa.types.is_list(col.type) and pa.types.is_null(col.type.value_type)
    ):
        return (
            pa.array([], _SPAN_STRUCT),
            np.empty(0, dtype=np.int64),
            np.zeros(t.num_rows, dtype=np.int64),
        )
    lengths = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    flat = pc.list_flatten(col)
    parents = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    return flat, parents, lengths


def _field(flat, name: str, typ: pa.DataType):
    """Typed struct-field access: blocks built from Python rows can
    infer an all-null field as null type — cast to the span schema."""
    f = flat.field(name)
    return f if f.type == typ else f.cast(typ)


def span_stats(
    ds: Dataset, spans_col: str = "spans", id_col: str = "doc_id"
) -> Dataset:
    """Per-document span composition → one row per input row:
    ``(doc_id, n_spans, n_text, n_image, n_audio, n_video,
    text_chars, max_offset)``.

    ``text_chars`` sums utf8 lengths of non-null texts on text-kind
    spans; ``max_offset`` is null when a row has no non-null offset
    (span-less rows and all-null-offset rows alike — SQL ``max`` of
    an empty/all-NULL set). One streaming pass, zero shuffle: every aggregate
    is an ``np.add.reduceat`` / segmented max over the row-major flat
    span stream."""

    def stats(t: pa.Table) -> pa.Table:
        flat, parents, lengths = _flat(t, spans_col)
        n = t.num_rows
        starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        kind = _field(flat, "kind", pa.string())
        out: dict = {id_col: t[id_col], "n_spans": pa.array(lengths)}
        masks = {}
        for k in KINDS:
            masks[k] = pc.fill_null(pc.equal(kind, k), False).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
        for k in KINDS:
            cnt = np.zeros(n, dtype=np.int64)
            if len(parents):
                np.add.at(cnt, parents, masks[k])
            out[f"n_{k}"] = pa.array(cnt)
        tlen = pc.fill_null(
            pc.utf8_length(_field(flat, "text", pa.string())), 0
        ).to_numpy(zero_copy_only=False).astype(np.int64) * masks["text"]
        chars = np.zeros(n, dtype=np.int64)
        if len(parents):
            np.add.at(chars, parents, tlen)
        out["text_chars"] = pa.array(chars)
        off_arr = _field(flat, "offset", pa.int32()).cast(pa.int64())
        off = pc.fill_null(off_arr, np.iinfo(np.int64).min).to_numpy(
            zero_copy_only=False
        )
        off_valid = pc.is_valid(off_arr).to_numpy(zero_copy_only=False)
        mx = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        n_off = np.zeros(n, dtype=np.int64)
        if len(parents):
            np.maximum.at(mx, parents, off)
            np.add.at(n_off, parents, off_valid.astype(np.int64))
        # SQL MAX semantics: NULL when the row has no non-null offset —
        # including rows whose spans exist but carry only null offsets
        out["max_offset"] = pa.array(
            pd.Series(mx).astype("Int64").mask(n_off == 0)
        )
        return pa.table(out)

    return ds.select_columns([id_col, spans_col]).map_batches(
        stats, batch_format="pyarrow"
    )


def extract_text(
    ds: Dataset,
    spans_col: str = "spans",
    id_col: str = "doc_id",
    sep: str = " ",
) -> Dataset:
    """Render each interleaved document to its training text: the
    non-null texts of its ``kind='text'`` spans joined by ``sep`` in
    span order → ``(doc_id, text)``; rows with no text span are
    dropped. This is the flattening step that feeds the text-side
    curation operators (dedup, quality, tokenize) from span documents.

    Vectorized: the join runs in polars (group_by over the already
    row-major parent index, Rust string concat), falling back to a
    pandas groupby-join when polars is absent."""

    def extract(t: pa.Table) -> pa.Table:
        flat, parents, _lengths = _flat(t, spans_col)
        is_text = pc.and_(
            pc.fill_null(pc.equal(_field(flat, "kind", pa.string()), "text"), False),
            _field(flat, "text", pa.string()).is_valid(),
        ).to_numpy(zero_copy_only=False)
        keep = np.asarray(is_text)
        texts = _field(flat, "text", pa.string()).filter(pa.array(keep))
        rows = parents[keep]
        if len(rows) == 0:
            return pa.table(
                {id_col: pa.array([], pa.string()), "text": pa.array([], pa.string())}
            )
        try:
            import polars as pl

            joined = (
                pl.DataFrame({"rid": rows, "t": pl.from_arrow(texts)})
                .group_by("rid", maintain_order=True)
                .agg(pl.col("t").str.join(sep))
            )
            rid = joined["rid"].to_numpy()
            txt = pa.array(joined["t"].to_list(), pa.string())
        except ImportError:  # pragma: no cover
            s = pd.DataFrame({"rid": rows, "t": texts.to_pandas()})
            agg = s.groupby("rid", sort=True)["t"].agg(sep.join)
            rid, txt = agg.index.to_numpy(), pa.array(agg.to_numpy(), pa.string())
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({id_col: ids.take(pa.array(rid)), "text": txt})

    return ds.select_columns([id_col, spans_col]).map_batches(
        extract, batch_format="pyarrow"
    )


def media_ref_counts(
    ds: Dataset,
    spans_col: str = "spans",
    min_refs: int = 1,
) -> Dataset:
    """Corpus-wide media-asset usage → ``(media_ref, n_refs)`` for refs
    appearing ≥ ``min_refs`` times (hot-asset discovery, orphan-asset
    diffing against the catalog). Two-level count: per-batch distinct
    (ref, partial) combiner → ref-hash partitioned sum — a hot asset
    costs one row per batch through the exchange, never one per span."""

    def local_counts(t: pa.Table) -> pa.Table:
        flat, _parents, _lengths = _flat(t, spans_col)
        refs = _field(flat, "media_ref", pa.string()).drop_null()
        if len(refs) == 0:
            return pa.table(
                {
                    "media_ref": pa.array([], pa.string()),
                    "n_refs": pa.array([], pa.int64()),
                }
            )
        vc = pa.table({"media_ref": refs}).group_by("media_ref").aggregate(
            [("media_ref", "count")]
        )
        return pa.table(
            {
                "media_ref": vc["media_ref"],
                "n_refs": vc["media_ref_count"].cast(pa.int64()),
            }
        )

    def final_sum(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("media_ref", as_index=False)["n_refs"].sum()
        return agg[agg["n_refs"] >= min_refs][["media_ref", "n_refs"]]

    return exchange_map_groups(
        ds.select_columns([spans_col]).map_batches(
            local_counts, batch_format="pyarrow"
        ),
        "media_ref",
        final_sum,
    )


def span_kind_mix(ds: Dataset, spans_col: str = "spans") -> pd.DataFrame:
    """Corpus kind histogram → ``(kind, n_spans, n_docs)``: total spans
    of each kind (including kinds outside the canonical enum — the
    malformed long tail is exactly what a curation report must show)
    and the number of DOCUMENTS containing the kind. Null kinds are
    dropped — they have no category; the validator flags them
    separately (``span_kind_enum``).

    Zero shuffle: each batch emits per-(kind) partials — n_spans plus
    a batch-local distinct row count, exact globally because every
    input row lives in exactly one batch — and a tiny driver fold sums
    them."""

    def partial(t: pa.Table) -> pa.Table:
        flat, parents, _lengths = _flat(t, spans_col)
        kind = _field(flat, "kind", pa.string())
        valid = kind.is_valid().to_numpy(zero_copy_only=False)
        keep = np.asarray(valid)
        kk = kind.filter(pa.array(keep)).to_pandas()
        pp = parents[keep]
        if len(kk) == 0:
            return pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "n_spans": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame({"kind": kk, "row": pp})
        spans = df.groupby("kind", as_index=False).size().rename(
            columns={"size": "n_spans"}
        )
        docs = (
            df.drop_duplicates()
            .groupby("kind", as_index=False)
            .size()
            .rename(columns={"size": "n_docs"})
        )
        m = spans.merge(docs, on="kind")
        return pa.table(
            {
                "kind": pa.array(m["kind"], pa.string()),
                "n_spans": pa.array(m["n_spans"].to_numpy(np.int64)),
                "n_docs": pa.array(m["n_docs"].to_numpy(np.int64)),
            }
        )

    parts = ds.select_columns([spans_col]).map_batches(
        partial, batch_format="pyarrow"
    ).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame(columns=["kind", "n_spans", "n_docs"])
    out = parts.groupby("kind", as_index=False)[["n_spans", "n_docs"]].sum()
    return out.sort_values("kind").reset_index(drop=True)
