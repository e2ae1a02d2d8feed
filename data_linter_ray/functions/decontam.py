"""Benchmark decontamination: flag corpus documents sharing token
n-grams with an evaluation/benchmark set.

Standard pre-training hygiene (the GPT-3 / PaLM recipe): any training
document that shares at least one distinct token n-gram with a held-out
benchmark document is contamination-suspect. The benchmark side is
small by construction (eval suites are thousands of docs, the corpus is
billions), so the scale shape is broadcast-not-shuffle:

  benchmark pass: vectorized shingle hashing (the dedup pipeline's
      uint64 token/shingle kernels, ``dedup._token_hashes`` /
      ``_shingle_hashes``) → per-batch distinct gram hashes → one
      driver-side ``np.unique`` over the partials → sorted array
      shipped ONCE via ``ray.put``.
  corpus pass: ``map_batches`` computes each doc's distinct gram
      hashes and counts membership against the broadcast array with
      ``np.searchsorted`` — zero shuffles over the big side.

Gram identity is a 64-bit hash of the token-hash sequence; collisions
are ~n²/2⁶⁵ (negligible at any benchmark size that fits a broadcast),
so counts equal the DuckDB oracle's distinct-string-gram intersection.
If the benchmark ever outgrows broadcast (≈100M grams), the same
composition degrades to the dedup module's hash-join path — documented
fallback, not implemented until needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from data_linter_ray.exchange import fold_batches
from data_linter_ray.functions.dedup import _shingle_hashes, _token_hashes


def _doc_distinct_grams(text, ngram: int):
    """→ (sorted distinct gram hashes, parent row ids) per batch."""
    th, tp = _token_hashes(text)
    sh, sp = _shingle_hashes(th, tp, ngram)
    if len(sh) == 0:
        return sh, sp
    # distinct per doc: sort by (parent, hash), drop adjacent dups
    order = np.lexsort((sh, sp))
    sh, sp = sh[order], sp[order]
    keep = np.concatenate([[True], (sp[1:] != sp[:-1]) | (sh[1:] != sh[:-1])])
    return sh[keep], sp[keep]


def benchmark_gram_hashes(benchmark: Dataset, text_col: str = "text", ngram: int = 3):
    """Distinct gram hashes of the benchmark set as one sorted uint64
    array (driver-side union of per-batch distinct partials — bounded by
    the benchmark's vocabulary, not the corpus)."""

    def partial(t: pa.Table) -> pa.Table:
        sh, _ = _doc_distinct_grams(t[text_col], ngram)
        return pa.table({"g": pa.array(np.unique(sh), pa.uint64())})

    parts = [
        b["g"].to_numpy(zero_copy_only=False)
        for b in benchmark.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)


def flag_contaminated(
    corpus: Dataset,
    benchmark: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
) -> Dataset:
    """→ (id_col, n_shared) for every corpus doc sharing ≥1 distinct
    token ``ngram``-gram with any benchmark doc. ``n_shared`` is the
    count of distinct shared grams."""
    grams_ref = ray.put(benchmark_gram_hashes(benchmark, text_col, ngram))

    # plain task fn (not an actor pool): the benchmark hash array is a
    # numpy array in plasma — ray.get per batch is a zero-copy shared
    # memory view, so there is no per-actor init to amortize and pool
    # startup (~100-200 ms/actor) would be pure overhead
    def flagger(t: pa.Table) -> pa.Table:
        bench = ray.get(grams_ref)
        sh, sp = _doc_distinct_grams(t[text_col], ngram)
        n_rows = len(t)
        if len(sh) and len(bench):
            idx = np.searchsorted(bench, sh)
            idx[idx == len(bench)] = 0  # clamp; equality check below decides
            hit = bench[idx] == sh
            n_shared = np.bincount(sp[hit], minlength=n_rows).astype(np.int64)
        else:
            n_shared = np.zeros(n_rows, np.int64)
        keep = n_shared > 0
        return pa.table(
            {
                id_col: t[id_col].take(pa.array(np.flatnonzero(keep))),
                "n_shared": pa.array(n_shared[keep]),
            }
        )

    return corpus.select_columns([id_col, text_col]).map_batches(
        flagger, batch_format="pyarrow"
    )


def flag_contaminated_bloom(
    corpus: Dataset,
    benchmark: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 3,
    n_bits: int = 1 << 23,
    k: int = 7,
) -> Dataset:
    """The fixed-memory scale path of :func:`flag_contaminated`: the
    benchmark gram set becomes a :class:`~data_linter_ray.state.
    sketches.BloomFilter` (n_bits/8 bytes REGARDLESS of benchmark
    size — a 10¹⁰-gram benchmark that would broadcast 80 GB of raw
    hashes ships as a fixed bitmap), built in one streaming driver
    fold of per-batch distinct gram hashes and broadcast once via
    ``ray.put``. NO FALSE NEGATIVES by construction — every doc the
    exact operator flags is flagged here (tested as a superset
    property); per-doc ``n_shared`` may count extra grams at the
    filter's FP rate, so this is the PRE-FILTER whose survivors can
    feed the exact verifier when exactness matters.

    → (id_col, n_shared) rows, like the exact operator.
    """
    from data_linter_ray.state.bloom import BloomFilter

    def gram_partial(t: pa.Table) -> np.ndarray:
        sh, _ = _doc_distinct_grams(t[text_col], ngram)
        return np.unique(sh)

    def add(bloom: BloomFilter, hashes: np.ndarray) -> BloomFilter:
        bloom.add_hashes(hashes)
        return bloom

    bloom = fold_batches(
        benchmark.select_columns([text_col]), gram_partial, add, BloomFilter(n_bits, k)
    )

    bloom_ref = ray.put(bloom.to_bytes())

    def flagger(t: pa.Table) -> pa.Table:
        blob = ray.get(bloom_ref) if isinstance(bloom_ref, ray.ObjectRef) else bloom_ref
        bf = BloomFilter.from_bytes(blob)
        sh, sp = _doc_distinct_grams(t[text_col], ngram)
        n_rows = len(t)
        if len(sh):
            hit = bf.contains_hashes(sh)
            n_shared = np.bincount(sp[hit], minlength=n_rows).astype(np.int64)
        else:
            n_shared = np.zeros(n_rows, np.int64)
        keep = n_shared > 0
        return pa.table(
            {
                id_col: t[id_col].take(pa.array(np.flatnonzero(keep))),
                "n_shared": pa.array(n_shared[keep]),
            }
        )

    return corpus.select_columns([id_col, text_col]).map_batches(
        flagger, batch_format="pyarrow"
    )
