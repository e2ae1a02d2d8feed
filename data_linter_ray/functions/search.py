"""BM25 full-text top-k retrieval over a document column.

The keyword-search sibling of the embedding kNN in
``functions/similarity.py``: rank documents against a free-text query
with Okapi BM25 (Robertson & Walker 1994; the Lucene-style
``ln((N - df + 0.5)/(df + 0.5) + 1)`` non-negative idf).

Scale shape — two streaming scans, zero shuffle:

  1. stats pass: per-batch (n_docs, Σdl, df per query term) partials
     folded on the driver (a handful of scalars; the combiner never
     ships rows). Term identity uses the engine's vectorized 64-bit
     token-hash pipeline (functions/dedup.py:208).
  2. score pass: corpus-wide vectorized tf per term → BM25 score →
     per-batch top-k → driver merges P×k candidate rows.

Float parity (the SQL oracle is hash-exact): idf values are computed
ONCE on the driver with ``math.log`` (glibc — the same libm DuckDB's
``ln`` binds), the per-doc fold adds terms in ascending-token order
(matching the oracle's ``sum(... ORDER BY tok)``), and every
arithmetic expression mirrors the SQL's left-associative grouping, so
each doc's score is the identical IEEE-754 operation sequence on both
sides.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import fold_batches
from data_linter_ray.functions.dedup import _token_hashes
from data_linter_ray.state.sketches import hash_array

_TOKEN_RE = re.compile(r"\W+")


def _query_terms(query: str) -> list[str]:
    return sorted({t for t in _TOKEN_RE.split(query.strip().lower()) if t})


def bm25_topk(
    ds: Dataset,
    query: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
):
    """→ pandas DataFrame (id_col, score), the top-``k`` docs by BM25
    score (ties broken by ascending id), docs with no query term
    excluded. Null ids excluded; null text scores as an empty doc."""
    import pandas as pd

    terms = _query_terms(query)
    qh = hash_array(pa.array(terms, pa.string())) if terms else np.empty(0, np.uint64)

    def doc_tfs(t: pa.Table):
        """→ (ids numpy, dl int64 per row, tf matrix (n, |terms|))."""
        t = t.filter(t[id_col].is_valid())
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = t.num_rows
        th, tp = _token_hashes(t[text_col])
        dl = np.bincount(tp, minlength=n).astype(np.int64)
        tf = np.zeros((n, len(terms)), dtype=np.int64)
        for j in range(len(terms)):
            sel = th == qh[j]
            if sel.any():
                tf[:, j] = np.bincount(tp[sel], minlength=n)
        return ids, dl, tf

    def stats_partial(t: pa.Table) -> np.ndarray:
        """→ [n_docs, Σdl, df per query term]."""
        ids, dl, tf = doc_tfs(t)
        return np.concatenate([[len(ids), dl.sum()], (tf > 0).sum(axis=0)])

    pruned = ds.select_columns([id_col, text_col])
    N, SDL, *DF = fold_batches(
        pruned, stats_partial, np.add, np.zeros(2 + len(terms), np.int64)
    ).tolist()

    if N == 0 or not terms:
        return pd.DataFrame(
            {id_col: pd.Series([], dtype=np.int64), "score": pd.Series([], dtype=np.float64)}
        )
    avgdl = SDL / N
    # driver-side math.log = glibc log = DuckDB ln, identical doubles
    idf = [math.log((N - int(d) + 0.5) / (int(d) + 0.5) + 1.0) for d in DF]

    def score_batch(t: pa.Table) -> pa.Table:
        ids, dl, tf = doc_tfs(t)
        dlf = dl.astype(np.float64)
        score = np.zeros(len(ids), dtype=np.float64)
        for j in range(len(terms)):
            tfj = tf[:, j].astype(np.float64)
            # mirrors the SQL expression's left-assoc grouping exactly
            denom = tfj + k1 * ((1.0 - b) + (b * dlf) / avgdl)
            score = score + (idf[j] * tfj * (k1 + 1.0)) / denom
        hit = tf.sum(axis=1) > 0
        ids, score = ids[hit], score[hit]
        order = np.lexsort((ids, -score))[:k]
        return pa.table(
            {id_col: pa.array(ids[order]), "score": pa.array(score[order])}
        )

    parts = []
    for batch in pruned.map_batches(score_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        parts.append(batch.to_pandas())
    allc = (
        pd.concat(parts, ignore_index=True)
        if parts
        else pd.DataFrame({id_col: [], "score": []})
    )
    allc = allc.sort_values(
        ["score", id_col], ascending=[False, True], kind="mergesort"
    ).head(k)
    return allc.reset_index(drop=True)
