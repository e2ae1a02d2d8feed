"""Unigram language-model quality scoring (perplexity proxy).

The CCNet/Gopher-style corpus-quality signal: train a unigram LM on
the corpus itself (token counts / total), then score every document by
its mean token log-probability. Low scores flag gibberish, boilerplate
and encoding junk; the score column feeds the engine's quarantine /
percentile-filter operators downstream.

Scale shape — one count exchange + one broadcast scoring pass:

  pass 1: per-batch token ``value_counts`` combiner (one row per
      distinct (batch, token)) → token-hash partitioned sum
      (``exchange_map_groups``) → vocabulary on the driver. With
      ``vocab_size=V`` each partition pre-truncates to its own top-V
      by (count desc, token asc) before the driver merge, so the
      driver never sees more than P·V rows; out-of-vocabulary tokens
      score at the ``alpha`` floor. ``vocab_size=None`` collects the
      full vocabulary (exact mode — the oracle query; document-scale
      corpora need the cap).
  pass 2: token→logprob lookup broadcast once via ``ray.put``; one
      streaming scan emits (id, n_tokens, mean_logprob) per document.

Float parity (exact-mode oracle is hash-exact): per-token logprob is
``math.log(c / T)`` on the driver (glibc libm — the same ``ln`` DuckDB
binds), per-document folds add ``tf · logp`` over DISTINCT tokens in
ascending token order (mirroring ``sum(... ORDER BY tok)``), and the
final division by the document length is one IEEE op on both sides.

Tokenization is the engine's standard Arrow RE2 ``\\W+`` split on
lowercased text (functions/text.py vocabulary pipeline), mirrored in
SQL by ``regexp_split_to_array(lower(trim(text)), '\\W+')``.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def _doc_tokens(t: pa.Table, text_col: str):
    """→ (flat token StringArray, parent row indices) — empties dropped."""
    text = t[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
    return flat.filter(pa.array(keep)), parents[keep]


def train_unigram_counts(
    ds: Dataset,
    text_col: str = "text",
    *,
    vocab_size: int | None = None,
) -> tuple[pd.DataFrame, int]:
    """→ (DataFrame(token, c), total token count T). With
    ``vocab_size`` the frame holds the global top-V tokens by
    (count desc, token asc); T always counts EVERY token."""

    def local_counts(t: pa.Table) -> pa.Table:
        flat, _ = _doc_tokens(t, text_col)
        vc = flat.value_counts()
        return pa.table(
            {"token": vc.field("values"), "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    def part_sum(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("token", as_index=False)["c"].sum()
        total = pd.DataFrame({"token": [None], "c": [agg["c"].sum()]})
        if vocab_size is not None:
            agg = agg.sort_values(
                ["c", "token"], ascending=[False, True], kind="mergesort"
            ).head(vocab_size)
        # the partition-total row (token null) rides along so T counts
        # truncated tokens too
        return pd.concat([agg[["token", "c"]], total], ignore_index=True)

    parts = exchange_map_groups(
        ds.select_columns([text_col]).map_batches(
            local_counts, batch_format="pyarrow"
        ),
        "token",
        part_sum,
    ).to_pandas()
    totals = parts[parts["token"].isna()]
    T = int(totals["c"].sum())
    vocab = parts[parts["token"].notna()]
    if vocab_size is not None:
        vocab = vocab.sort_values(
            ["c", "token"], ascending=[False, True], kind="mergesort"
        ).head(vocab_size)
    return vocab.reset_index(drop=True), T


def unigram_logprob(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    vocab_size: int | None = None,
    alpha: float = 0.5,
) -> Dataset:
    """→ (id_col, n_tokens, mean_logprob) for every document with at
    least one token (empty/null text emits nothing, matching the SQL
    token-join). ``mean_logprob = Σ_distinct-tok tf·ln(c/T) / dl``;
    out-of-vocabulary tokens (only possible with ``vocab_size``) score
    ``ln(alpha/T)``."""
    vocab, T = train_unigram_counts(ds, text_col, vocab_size=vocab_size)
    if T == 0:
        return ray.data.from_arrow(
            pa.schema(
                [(id_col, pa.int64()), ("n_tokens", pa.int64()),
                 ("mean_logprob", pa.float64())]
            ).empty_table()
        )
    logp = {
        tok: math.log(c / T) for tok, c in zip(vocab["token"], vocab["c"])
    }
    floor = math.log(alpha / T)
    logp_ref = ray.put(logp)

    # plain task function with a per-worker-process memo, not an actor
    # pool: the only state is the broadcast logprob dict, deserialized
    # once per worker via the mutable-default cache — actor startup
    # (~100-200 ms each) would dominate this streaming stage
    def score(t: pa.Table, _memo={}) -> pa.Table:
        if "logp" not in _memo:
            _memo["logp"] = ray.get(logp_ref)
        lp_map = _memo["logp"]
        t = t.filter(t[id_col].is_valid())
        ids = t[id_col].to_numpy(zero_copy_only=False)
        flat, parents = _doc_tokens(t, text_col)
        df = pd.DataFrame({"d": parents, "tok": flat.to_pandas()})
        # distinct (doc, token) tf, folded in ascending token order
        # per doc — the oracle's sum(tf*logp ORDER BY tok)
        tf = (
            df.groupby(["d", "tok"], as_index=False)
            .size()
            .sort_values(["d", "tok"], kind="mergesort")
        )
        lp = tf["tok"].map(lp_map).fillna(floor).to_numpy(np.float64)
        contrib = tf["size"].to_numpy(np.int64) * lp
        d = tf["d"].to_numpy(np.int64)
        # ordered segmented sum: np.add.at is UNBUFFERED and
        # processes elements in array order, so each doc's fold is
        # bit-exact left-to-right in ascending token order (the
        # stable sort above) — np.add.reduceat / np.sum pairwise-sum
        # and would drift from SQL's sum(... ORDER BY tok) in the
        # last ulps (verified empirically)
        docs, inv = np.unique(d, return_inverse=True)
        sums = np.zeros(len(docs), np.float64)
        np.add.at(sums, inv, contrib)
        dls = np.bincount(inv, weights=tf["size"].to_numpy(np.float64)).astype(
            np.int64
        )
        return pa.table(
            {
                id_col: pa.array(ids[docs]),
                "n_tokens": pa.array(dls, pa.int64()),
                "mean_logprob": pa.array(sums / dls, pa.float64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )
