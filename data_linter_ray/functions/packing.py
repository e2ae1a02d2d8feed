"""Sequence packing for LLM pre-training: assign every document a
global token offset and a training-sequence id by concatenation order.

The standard pre-training layout concatenates documents in a
deterministic order and cuts fixed-length sequences of ``chunk``
tokens; a document belongs to the sequence containing its first token
(documents may straddle a boundary — exactly GPT-style
concat-and-chunk). Computing each doc's start offset is a GLOBAL
prefix sum — the classic two-pass distributed scan:

  pass 1 (small): per-batch partial token sums per coarse id-range
      bucket → tiny ``groupby(bucket).sum`` → driver computes the
      K exclusive bucket offsets (K rows, not data rows) → broadcast
      via ``ray.put``.
  pass 2: one key-hash-free RANGE exchange (``groupby(bucket)``
      co-locates each contiguous id range), then inside each bucket a
      vectorized sort + cumsum, shifted by the broadcast bucket offset.

Scale shape: the only driver-side materialization is K bucket sums
(K ≈ hundreds); the exchange moves each row once; all per-row math is
numpy. Skew note: buckets are fixed-width id ranges — uniform for
dense ids (synthetic and most ingest ids); pass 1's bucket sums expose
any skew before pass 2 runs, and ``n_buckets`` widens the exchange.

Token counts use the engine's whitespace tokenization
(``text.token_count_table`` semantics) so the DuckDB oracle expresses
the same offsets with one window function.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups, exchange_width

WS = r"\s+"


def _ws_token_counts(text: pa.ChunkedArray | pa.Array) -> np.ndarray:
    trimmed = pc.utf8_trim_whitespace(text)
    splits = pc.split_pattern_regex(trimmed, WS)
    n = pc.if_else(
        pc.equal(trimmed, ""),
        pa.scalar(0, pa.int32()),
        pc.list_value_length(splits),
    )
    return pc.cast(n, pa.int64()).to_numpy(zero_copy_only=False)


def pack_offsets(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk: int = 2048,
    n_buckets: int | None = None,
) -> Dataset:
    """→ (id_col, n_tokens, start_offset, seq_id) — ``start_offset`` is
    the exclusive prefix sum of whitespace-token counts in ``id_col``
    order; ``seq_id = start_offset // chunk``.

    ``id_col`` must be integer and unique (document ids). Two passes
    over the pruned two-column input; see module docstring for the
    distributed-scan shape."""
    # bucket = fixed-width id range, from one cheap min/max aggregate
    # over the pruned id column (metadata-level work, not a shuffle)
    lohi = ds.select_columns([id_col]).aggregate(
        ray.data.aggregate.Min(id_col), ray.data.aggregate.Max(id_col)
    )
    lo, hi = lohi[f"min({id_col})"], lohi[f"max({id_col})"]
    K = n_buckets or max(exchange_width(ds), 64)
    width = max(1, (int(hi) - int(lo) + K) // K)

    def with_counts(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        n_tok = _ws_token_counts(t[text_col])
        bucket = pc.divide(pc.subtract(ids, pa.scalar(int(lo))), pa.scalar(width))
        return pa.table(
            {
                id_col: ids,
                "n_tokens": pa.array(n_tok, pa.int64()),
                "_bucket": pc.cast(bucket, pa.int64()),
            }
        )

    counted = ds.select_columns([id_col, text_col]).map_batches(
        with_counts, batch_format="pyarrow"
    )

    # pass 1: per-bucket token sums (partial-aggregated by map_batches
    # before the tiny groupby), collected driver-side — K rows only
    def bucket_partials(t: pa.Table) -> pa.Table:
        b = t["_bucket"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(b, return_inverse=True)
        sums = np.bincount(inv, weights=n.astype(np.float64)).astype(np.int64)
        return pa.table({"_bucket": pa.array(ub), "_sum": pa.array(sums)})

    parts = (
        counted.map_batches(bucket_partials, batch_format="pyarrow")
        .groupby("_bucket")
        .sum("_sum")
        .to_pandas()
        .sort_values("_bucket")
    )
    bucket_ids = parts["_bucket"].to_numpy()
    offsets = np.concatenate(
        [[0], np.cumsum(parts["sum(_sum)"].to_numpy())[:-1]]
    ).astype(np.int64)
    offset_ref = ray.put(dict(zip(bucket_ids.tolist(), offsets.tolist())))

    # pass 2: range exchange on _bucket, vectorized in-bucket scan
    def scan_bucket(g: "pa.Table") -> pa.Table:
        import pandas as pd

        df = g.to_pandas().sort_values(id_col, kind="stable")
        base = ray.get(offset_ref)[int(df["_bucket"].iloc[0])]
        n = df["n_tokens"].to_numpy()
        start = base + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy()),
                "n_tokens": pa.array(n, pa.int64()),
                "start_offset": pa.array(start),
                "seq_id": pa.array(start // chunk),
            }
        )

    return exchange_map_groups(
        counted, "_bucket", scan_bucket, num_partitions=K, batch_format="pyarrow"
    )
