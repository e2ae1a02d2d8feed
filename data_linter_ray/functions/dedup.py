"""Deduplication operators for training-data pipelines.

Five families (SURVEY-mandated additions for the 100 TB engine):

  - **exact**: content-hash → two-level min-id survivor selection. The
    per-batch combiner means only (hash, id, payload) of batch-local
    survivors enter the shuffle.
  - **MinHash + LSH**: token n-gram shingles → K-perm minhash signature →
    banded bucketing → candidate pairs from same-bucket groups. Fully
    vectorized per batch (flatten + segment-min, no per-row Python).
  - **SimHash**: 64-bit sign-aggregated token hashes; near-dup candidates
    by 16-bit chunk banding; hamming verification.
  - **n-gram Jaccard**: exact verification of candidate pairs.
  - **embedding cosine**: see functions/similarity.py.

All shuffle stages are groupbys over *derived small keys* (hashes,
bucket ids), never raw text, and every bucket is size-capped before the
quadratic pair step — the explicit skew guard for degenerate buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from data_linter_ray.exchange import block_refs, exchange_map_groups, exchange_width
from data_linter_ray.state.sketches import hash_array

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _local_survivors(text_col: str, id_col: str, extra_cols: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # polars-backed vectorized hash (~40× pandas on strings)
        df["_h"] = hash_array(t[text_col]).astype(np.int64)
        df = df.sort_values(id_col, kind="stable").drop_duplicates(
            "_h", keep="first"
        )
        return pa.Table.from_pandas(
            df[["_h", id_col] + [c for c in [text_col] + extra_cols]],
            preserve_index=False,
        )

    return fn


def exact_dedup(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id", keep_cols: list[str] | None = None
) -> Dataset:
    """One survivor row (min id) per distinct content value.

    The exchange is keyed on the content hash, and each of its coarse
    partitions picks the min id per hash vectorized in pandas — never
    one group per distinct value; per-group Python dispatch is the
    measured bottleneck at high-cardinality keys."""
    extra = [c for c in (keep_cols or []) if c not in (text_col, id_col)]
    pruned = ds.select_columns(sorted({text_col, id_col, *extra}))
    local = pruned.map_batches(
        _local_survivors(text_col, id_col, extra), batch_format="pyarrow"
    )

    def pick_min(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="stable")
        return g.drop_duplicates(subset=["_h"], keep="first")

    return exchange_map_groups(local, "_h", pick_min).drop_columns(["_h"])


def exact_duplicate_groups(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """(content group) rows with n>1: the duplicate report."""
    from ray.data.aggregate import Count, Min

    def add_hash(t: pa.Table) -> pa.Table:
        h = hash_array(t[text_col])
        return t.append_column("_h", pa.array(h.astype(np.int64)))

    hashed = ds.select_columns([text_col, id_col]).map_batches(
        add_hash, batch_format="pyarrow"
    ).repartition(exchange_width(ds))
    agg = hashed.groupby("_h").aggregate(
        Count(alias_name="n"), Min(id_col, alias_name="survivor_id")
    )
    return agg.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 1)).drop_columns(["_h"]),
        batch_format="pyarrow",
    )


def _bucketed_pairs(
    buckets: Dataset,
    key_cols: list[str],
    max_bucket: int,
    pair_fn,
) -> Dataset:
    """Generate within-bucket pairs WITHOUT one Ray group per bucket.

    Buckets are coarsely hash-partitioned on the bucket key
    (``groupby`` with one group per distinct (band,bucket) key means one
    Python map_groups call per group — pathological with 100k+ mostly-
    singleton buckets). Inside each coarse partition, rows are sorted by
    the composite key and pairs are generated only for the few buckets
    with ≥2 members.

    ``pair_fn(sub: pd.DataFrame) -> pd.DataFrame`` builds pairs for ONE
    real bucket (already capped to ``max_bucket`` rows).
    """
    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_cols + ["id"], kind="stable")
        sizes = g.groupby(key_cols, sort=False).size().to_numpy()
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        outs = []
        for s, n in zip(starts, sizes):
            if n < 2:
                continue
            outs.append(pair_fn(g.iloc[s : s + min(n, max_bucket)], n > max_bucket))
        if not outs:
            return pair_fn(g.iloc[0:0], False)
        return pd.concat(outs, ignore_index=True)

    return exchange_map_groups(buckets, key_cols, pairs_in_partition)


def _dedupe_pairs(cand: Dataset, agg: dict) -> Dataset:
    """Dedupe (id_a, id_b) pairs found via multiple buckets: per-batch
    local dedupe, then an exchange keyed on the pair (same two-level
    pattern as the uniqueness check)."""

    cols = list(agg)

    def local(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby(["id_a", "id_b"], as_index=False).agg(agg)
        return pa.Table.from_pandas(df, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["id_a", "id_b"], as_index=False).agg(agg)

    return exchange_map_groups(
        cand.map_batches(local, batch_format="pyarrow"), ["id_a", "id_b"], merge
    ).select_columns(["id_a", "id_b"] + cols)


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z + _MIX) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _token_hashes(text: pa.ChunkedArray | pa.Array, hash: str = "fast"):
    """→ (flat token hashes uint64, parent row indices).

    ``hash="md5"`` is the oracle-parity mode (DuckDB ``md5_number_lower``
    per token — a per-token Python loop, used only by oracle queries);
    the default ``"fast"`` mode is the vectorized production path."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
    if hash == "md5":
        from data_linter_ray.functions.text import _md5_lower64

        return _md5_lower64(flat.filter(pa.array(keep)).to_pylist()), parents[keep]
    h = hash_array(flat)
    return h[keep], parents[keep]


def _shingle_hashes(h: np.ndarray, parents: np.ndarray, n: int = 3):
    """Combine n consecutive same-row token hashes into shingle hashes."""
    if len(h) < n:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    valid = parents[: len(parents) - n + 1] == parents[n - 1 :]
    g = np.zeros(len(h) - n + 1, dtype=np.uint64)
    A = np.uint64(0x100000001B3)
    for i in range(n):
        g = (g * A + h[i : len(h) - n + 1 + i]) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return _splitmix(g[valid]), parents[: len(parents) - n + 1][valid]


_PERM_A = _splitmix(np.arange(1, 129, dtype=np.uint64) * np.uint64(0x9E3779B9)) | np.uint64(1)
_PERM_B = _splitmix(np.arange(1001, 1129, dtype=np.uint64))


def minhash_signatures(
    text: pa.ChunkedArray | pa.Array, num_perm: int = 64, ngram: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """→ (sig matrix [n_docs, num_perm] uint64, has_shingles bool[n_docs]).

    Segment-min per permutation via ``np.minimum.reduceat`` over the
    parent-sorted shingle stream (shingles arrive grouped by row):
    num_perm vectorized passes, zero Python per-row work, ~6× faster
    than scattered ``minimum.at``.
    """
    n_docs = len(text)
    th, tp = _token_hashes(text)
    sh, sp = _shingle_hashes(th, tp, ngram)
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    has = np.zeros(n_docs, dtype=bool)
    if len(sh):
        seg_starts = np.flatnonzero(
            np.concatenate([[True], sp[1:] != sp[:-1]])
        )
        rows = sp[seg_starts]
        for k in range(num_perm):
            pk = (sh * _PERM_A[k] + _PERM_B[k]) & np.uint64(0xFFFFFFFFFFFFFFFF)
            sig[rows, k] = np.minimum.reduceat(pk, seg_starts)
        has[rows] = True
    return sig, has


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """[n_docs, bands] int64 band bucket hashes."""
    n, k = sig.shape
    r = k // bands
    out = np.zeros((n, bands), dtype=np.uint64)
    A = np.uint64(0x100000001B3)
    for b in range(bands):
        g = np.zeros(n, dtype=np.uint64)
        for i in range(b * r, (b + 1) * r):
            g = (g * A + sig[:, i]) & np.uint64(0xFFFFFFFFFFFFFFFF)
        out[:, b] = _splitmix(g)
    return out.astype(np.int64)


def minhash_lsh_candidates(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    max_bucket: int = 64,
    dedupe: bool = True,
) -> Dataset:
    """Candidate near-duplicate pairs (id_a < id_b) from banded minhash.

    Shuffle key = (band index, band hash); buckets larger than
    ``max_bucket`` are truncated (size-capped skew guard) with the cap
    logged in the output via the ``truncated`` flag.
    """

    def emit_buckets(t: pa.Table) -> pa.Table:
        sig, has = minhash_signatures(t[text_col], num_perm, ngram)
        bh = _band_hashes(sig, bands)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(has)
        n, b = len(keep), bands
        return pa.table(
            {
                "band": np.repeat(np.arange(b, dtype=np.int32), n),
                "bucket": bh[keep].T.reshape(-1),
                "id": np.tile(ids[keep], b),
            }
        )

    buckets = ds.select_columns([id_col, text_col]).map_batches(
        emit_buckets, batch_format="pyarrow"
    )

    def pair_fn(sub: pd.DataFrame, truncated: bool) -> pd.DataFrame:
        ids = sub["id"].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "truncated": pd.Series([], dtype=bool),
                }
            )
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib], "truncated": truncated})

    cand = _bucketed_pairs(buckets, ["band", "bucket"], max_bucket, pair_fn)
    if not dedupe:
        # caller folds the cross-band dedupe into its own exchange (e.g.
        # verify_candidates_jaccard's bounded broadcast path) — saves a
        # whole pair-hash exchange
        return cand
    return _dedupe_pairs(cand, agg={"truncated": "max"})


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash_signatures(
    text: pa.ChunkedArray | pa.Array, hash: str = "fast"
) -> np.ndarray:
    """64-bit simhash per doc (sign of per-bit token-hash sums).

    ``hash="md5"`` makes the signature DuckDB-reproducible
    (``md5_number_lower`` per token + the same ±1 bit-sum algebra) so
    simhash pair sets gain an exact SQL oracle; production uses the
    vectorized ``"fast"`` hash."""
    n_docs = len(text)
    th, tp = _token_hashes(text, hash=hash)
    acc = np.zeros((n_docs, 64), dtype=np.int32)
    if len(th):
        bits = (
            np.unpackbits(th.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            .astype(np.int32)
        )  # [n_tokens, 64]
        contrib = 2 * bits - 1
        np.add.at(acc, tp, contrib)
    sig = (acc > 0).astype(np.uint64)
    out = np.zeros(n_docs, dtype=np.uint64)
    for b in range(64):
        out |= sig[:, b] << np.uint64(b)
    return out


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a ^ b).view(np.uint8).reshape(-1, 8)
    return _POP8[x].sum(axis=1).astype(np.int64)


def simhash_near_duplicates(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: int = 256,
    hash: str = "fast",
) -> Dataset:
    """Near-dup pairs with hamming(simhash) ≤ max_hamming, candidates via
    4×16-bit chunk banding (any pair within distance 3 shares a chunk —
    pigeonhole, so recall is exactly 1.0 at the default ``max_hamming=3``
    absent bucket truncation, NOT probabilistic).
    Pairs from a size-capped bucket carry ``truncated=True`` (no silent
    coverage caps — same contract as minhash/IVF/RP-LSH).
    ``hash="md5"`` selects the DuckDB-reproducible signature for oracle
    queries (see :func:`simhash_signatures`)."""

    def emit(t: pa.Table) -> pa.Table:
        sig = simhash_signatures(t[text_col], hash=hash)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        chunks = [
            ((sig >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            for c in range(4)
        ]
        return pa.table(
            {
                "chunk": np.repeat(np.arange(4, dtype=np.int32), len(ids)),
                "key": np.concatenate(chunks),
                "id": np.tile(ids, 4),
                "sig": np.tile(sig.astype(np.int64), 4),
            }
        )

    buckets = ds.select_columns([id_col, text_col]).map_batches(
        emit, batch_format="pyarrow"
    )

    def pair_fn(sub: pd.DataFrame, truncated: bool) -> pd.DataFrame:
        ids = sub["id"].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                    "truncated": pd.Series([], dtype=bool),
                }
            )
        sigs = sub["sig"].to_numpy().astype(np.uint64)
        ia, ib = np.triu_indices(len(ids), k=1)
        d = hamming64(sigs[ia], sigs[ib])
        ok = d <= max_hamming
        return pd.DataFrame(
            {
                "id_a": ids[ia][ok],
                "id_b": ids[ib][ok],
                "hamming": d[ok],
                "truncated": truncated,
            }
        )

    cand = _bucketed_pairs(buckets, ["chunk", "key"], max_bucket, pair_fn)
    return _dedupe_pairs(cand, agg={"hamming": "min", "truncated": "max"})


# ---------------------------------------------------------------------------
# connected components over near-dup pairs (dedup-group assignment)
# ---------------------------------------------------------------------------

#: at or below this many pairs, components are solved with a driver-side
#: union-find over JUST the pair list (near-dup pairs are a tiny
#: fraction of the corpus — collecting pairs is bounded; the corpus is
#: never collected). Above it, the iterative hash-min label propagation
#: runs fully distributed.
DRIVER_UNION_FIND_THRESHOLD = 5_000_000


def _union_find_components(a: np.ndarray, b: np.ndarray):
    """Driver-side connected components → (nodes, component_id = min id
    in component). Fully vectorized hash-min label propagation with
    pointer jumping (no per-edge Python): each round scatters the
    neighbour minimum over both edge directions (``np.minimum.at``)
    then halves chain depth with ``lab = lab[lab]``; converges in
    O(log diameter) rounds. Node ids sort ascending into compact
    indices, so the minimal label in component == minimal original id."""
    if len(a) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a) :]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        old = lab.copy()
        np.minimum.at(lab, ia, lab[ib])
        np.minimum.at(lab, ib, lab[ia])
        lab = lab[lab]  # pointer jumping
        lab = lab[lab]
        if np.array_equal(lab, old):
            break
    return nodes, nodes[lab]


def dedup_components(
    pairs: Dataset,
    mode: str = "auto",
    max_iters: int = 50,
) -> Dataset:
    """Near-dup pairs → (doc_id, component_id) with component_id = min
    doc id in the connected component. The standard dedup completion
    step: pick ``doc_id == component_id`` rows as survivors.

    ``mode="driver"``: vectorized label propagation over the collected
    PAIR list (bounded by the pair count — the corpus is never
    collected). ``mode="distributed"``: iterative hash-min label
    propagation (labels(v) ← min over v ∪ neighbors, a shuffle join per
    round; converges in O(component diameter) rounds — near-dup
    clusters are shallow; the classic MapReduce CC recipe, cf. Rastogi
    et al., "Finding Connected Components in Map-Reduce in Logarithmic
    Rounds", ICDE 2013). Fixpoint is detected with one cheap sum
    aggregate (labels only ever decrease). ``mode="auto"`` picks by
    pair count vs ``DRIVER_UNION_FIND_THRESHOLD``.
    """
    import ray.data as rd

    if mode not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown mode: {mode}")
    pairs = pairs.select_columns(["id_a", "id_b"]).materialize()
    if mode == "auto":
        mode = (
            "driver"
            if pairs.count() <= DRIVER_UNION_FIND_THRESHOLD
            else "distributed"
        )
    if mode == "driver":
        df = pairs.to_pandas()
        nodes, comp = _union_find_components(
            df["id_a"].to_numpy(), df["id_b"].to_numpy()
        )
        return rd.from_arrow(
            pa.table({"doc_id": nodes, "component_id": comp})
        )

    from data_linter_ray.exchange import join_width

    P = join_width(pairs)
    # symmetric edge list (src, dst)
    edges = pairs.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [t["id_a"].combine_chunks(), t["id_b"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [t["id_b"].combine_chunks(), t["id_a"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"], "label": t["src"]})

    from ray.data.aggregate import Min, Sum

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    prev_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
    for _ in range(max_iters):
        # neighbor candidates: for each edge (src,dst), dst can adopt
        # label(src)
        cand = edges.join(
            labels, "inner", P, on=("src",), right_on=("node",)
        ).select_columns(["dst", "label"]).rename_columns({"dst": "node"})
        labels = (
            labels.union(cand)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if cur_sum == prev_sum:  # labels are non-increasing → fixpoint
            break
        prev_sum = cur_sum
    return labels.rename_columns({"node": "doc_id", "label": "component_id"})


#: at or below this many loser (non-survivor) ids the drop set is
#: broadcast once (a remote task concatenates the loser blocks in the
#: object store — the driver only ever holds the ObjectRef); above it,
#: the corpus is anti-filtered through a coarse id-hash exchange
#: against the partitioned loser set — no broadcast object, bounded
#: per-partition memory.  5M is sized for *string* ids (doc ids are
#: fat — ~30-60 B each → a few hundred MB broadcast worst-case, read
#: zero-copy from plasma once per node).
BROADCAST_DROP_THRESHOLD = 5_000_000


@ray.remote(num_cpus=1)
def _concat_losers_task(*blocks) -> pa.Array:
    """Ray task: the ``_loser`` column of the loser blocks as one array."""
    tabs = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b) for b in blocks]
    col = pa.concat_tables(tabs)["_loser"].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
    return col


def drop_near_duplicates(
    ds: Dataset, components: Dataset, id_col: str = "doc_id"
) -> Dataset:
    """Filter the corpus to near-dup survivors: drop every row whose id
    appears in ``components`` with ``doc_id != component_id`` (the
    non-minimal members of each duplicate group). Rows not in any pair
    are untouched.

    Small loser sets (≤ ``BROADCAST_DROP_THRESHOLD``) broadcast once
    via ``ray.put`` and the corpus streams through one ``is_in``
    filter — no shuffle. Heavy-dup corpora (losers can approach corpus
    size) switch to a coarse id-hash exchange: corpus rows and loser
    ids co-partition by hash(id), each partition anti-filters locally —
    bounded per-partition memory, no corpus-sized broadcast."""
    losers_ds = components.select_columns(["doc_id", "component_id"]).map_batches(
        lambda t: pa.table(
            {"_loser": t["doc_id"].filter(
                pc.invert(pc.equal(t["doc_id"], t["component_id"]))
            )}
        ),
        batch_format="pyarrow",
    ).materialize()
    n_losers = losers_ds.count()
    if n_losers == 0:
        # nothing to drop — and concat_tables over zero loser blocks
        # would raise inside the broadcast task
        return ds

    if n_losers <= BROADCAST_DROP_THRESHOLD:
        # build the broadcast value set in the object store: a remote
        # task concatenates the (already Arrow) loser blocks — the
        # loser ids never pass through the driver as pandas/python.
        losers_ref = _concat_losers_task.remote(*losers_ds.to_arrow_refs())

        def keep(t: pa.Table) -> pa.Table:
            ls = ray.get(losers_ref)  # plasma-local after first node fetch
            return t.filter(
                pc.invert(pc.fill_null(pc.is_in(t[id_col], value_set=ls), False))
            )

        return ds.map_batches(keep, batch_format="pyarrow")

    # scale path: co-partition corpus rows and loser ids by id hash,
    # anti-filter inside each partition (the referential shuffle shape)
    def tag_corpus(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_is_loser_row", pa.array(np.zeros(t.num_rows, dtype=bool))
        )

    def tag_losers(t: pa.Table) -> pa.Table:
        out = pa.table({id_col: t["_loser"]})
        for c in ds.schema().names:
            if c != id_col:
                out = out.append_column(
                    c, pa.nulls(t.num_rows, ds.schema().base_schema.field(c).type)
                )
        return out.select(ds.schema().names).append_column(
            "_is_loser_row", pa.array(np.ones(t.num_rows, dtype=bool))
        )

    both = ds.map_batches(tag_corpus, batch_format="pyarrow").union(
        losers_ds.map_batches(tag_losers, batch_format="pyarrow")
    )

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        loser_ids = set(g.loc[g["_is_loser_row"], id_col])
        rows = g[~g["_is_loser_row"]]
        rows = rows[~rows[id_col].isin(loser_ids)]
        return rows.drop(columns=["_is_loser_row"])

    return exchange_map_groups(both, id_col, anti)


# ---------------------------------------------------------------------------
# exact n-gram jaccard verification
# ---------------------------------------------------------------------------


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact token n-gram Jaccard for one pair (verification of LSH
    candidates; pairs are few, so per-pair Python is fine here)."""
    import re

    def grams(s: str) -> set:
        toks = [t for t in re.split(r"\W+", s.lower().strip()) if t]
        return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / len(ga | gb)


#: below this many candidate pairs, the distinct doc-id set is collected
#: and broadcast to pre-filter the corpus BEFORE shingling (prunes the
#: expensive pass early); above it, every doc is shingled and the hash
#: join does the pruning — no driver materialization either way.
PREFILTER_PAIR_THRESHOLD = 2_000_000

#: at or below this many distinct candidate docs, their shingle sets are
#: collected into one broadcast lookup table (avg set ≈ 1 KB → ≤ ~100 MB
#: in the object store) instead of two hash joins — shuffle-actor
#: startup dominates small verify workloads.
BROADCAST_SETS_THRESHOLD = 100_000


def _jaccard_for_pairs(
    a_words: np.ndarray,
    a_offs: np.ndarray,
    ia: np.ndarray,
    b_words: np.ndarray,
    b_offs: np.ndarray,
    ib: np.ndarray,
) -> np.ndarray:
    """Jaccard for n pairs over sorted-unique uint64 sets, fully
    vectorized: concatenate both sides' (pair_id, value) streams, one
    lexsort, count adjacent duplicates per pair (each side's values are
    unique per set, so a shared value appears exactly twice). Replaces
    the per-pair ``np.intersect1d`` Python loop."""
    n = len(ia)
    if n == 0:
        return np.empty(0, np.float64)
    la = (a_offs[ia + 1] - a_offs[ia]).astype(np.int64)
    lb = (b_offs[ib + 1] - b_offs[ib]).astype(np.int64)
    pid_a = np.repeat(np.arange(n, dtype=np.int64), la)
    pid_b = np.repeat(np.arange(n, dtype=np.int64), lb)
    # gather each pair's set elements: start offset repeated + in-set rank
    idx_a = np.repeat(a_offs[ia], la) + (
        np.arange(la.sum(), dtype=np.int64) - np.repeat(np.cumsum(la) - la, la)
    )
    idx_b = np.repeat(b_offs[ib], lb) + (
        np.arange(lb.sum(), dtype=np.int64) - np.repeat(np.cumsum(lb) - lb, lb)
    )
    pids = np.concatenate([pid_a, pid_b])
    vals = np.concatenate([a_words[idx_a], b_words[idx_b]])
    order = np.lexsort((vals, pids))
    pids, vals = pids[order], vals[order]
    dup = (pids[1:] == pids[:-1]) & (vals[1:] == vals[:-1])
    inter = np.bincount(pids[1:][dup], minlength=n).astype(np.float64)
    union = (la + lb).astype(np.float64) - inter
    out = np.where(union == 0, 1.0, inter / np.maximum(union, 1.0))
    return out


def _decode_binary_sets(col: pa.ChunkedArray):
    """large_binary column → (uint64 word view, per-row word offsets) —
    zero-copy."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    words = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint64)
    return words, off // 8


def shingle_sets(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    needed_ids=None,
) -> Dataset:
    """Per-doc sorted-unique shingle-hash sets → (did, sh: large_binary).

    The set is encoded as little-endian uint64 bytes (Acero hash joins
    reject list-typed payload columns; binary round-trips zero-copy via
    ``np.frombuffer``). ``needed_ids`` (an ObjectRef to an arrow array)
    optionally pre-filters rows before the shingling pass.
    """
    import ray

    def to_sets(t: pa.Table) -> pa.Table:
        if needed_ids is not None:
            keys = (
                ray.get(needed_ids)
                if isinstance(needed_ids, ray.ObjectRef)
                else needed_ids
            )
            t = t.filter(pc.is_in(t[id_col], value_set=keys))
        th, tp = _token_hashes(t[text_col])
        sh, sp = _shingle_hashes(th, tp, ngram)
        n = t.num_rows
        order = np.lexsort((sh, sp))
        sh, sp = sh[order], sp[order]
        if len(sh):
            first = np.ones(len(sh), dtype=bool)
            first[1:] = (sh[1:] != sh[:-1]) | (sp[1:] != sp[:-1])
            sh, sp = sh[first], sp[first]
        counts = np.bincount(sp, minlength=n) if n else np.zeros(0, np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts * 8, out=offsets[1:])
        bin_arr = pa.Array.from_buffers(
            pa.large_binary(),
            n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(sh.tobytes())],
        )
        return pa.table({"did": t[id_col], "sh": bin_arr})

    return ds.select_columns([id_col, text_col]).map_batches(
        to_sets, batch_format="pyarrow"
    )


def verify_candidates_jaccard(
    ds: Dataset,
    candidates: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    ngram: int = 3,
) -> Dataset:
    """Exact n-gram Jaccard verification of candidate pairs, distributed.

    corpus → per-doc shingle-hash sets (one vectorized pass) → two hash
    joins attach set_a / set_b to each (id_a, id_b) pair → one
    ``map_batches`` computes |A∩B| / |A∪B| per pair via sorted-array
    intersection. The candidate set is never collected on the driver;
    only when it is small is its distinct id set broadcast to prune the
    corpus before shingling (mirrors the referential
    BROADCAST_ROW_THRESHOLD pattern, stages/referential.py).

    Returns a Dataset (id_a, id_b, jaccard) for pairs ≥ threshold.
    Set semantics match :func:`ngram_jaccard` (both-empty → 1.0) up to
    64-bit hash collisions.

    Non-deduped candidates (``minhash_lsh_candidates(dedupe=False)``)
    are deduped here on both paths: the bounded broadcast path dedupes
    before verification; the join path dedupes the (already
    thresholded, hence few) verified pairs with one pair-keyed
    exchange.
    """
    import ray

    candidates = candidates.select_columns(["id_a", "id_b"]).materialize()
    n_pairs = candidates.count()
    needed_ref = None
    if 0 < n_pairs <= PREFILTER_PAIR_THRESHOLD:
        ids = candidates.to_pandas()
        deduped = ids.drop_duplicates(["id_a", "id_b"])
        if len(deduped) < len(ids):
            # candidates arrived non-deduped (minhash_lsh_candidates
            # dedupe=False): fold the dedupe here — bounded by the
            # prefilter threshold, replaces a whole pair-hash exchange
            import ray.data as _rd

            candidates = _rd.from_pandas(deduped.reset_index(drop=True))
        needed = np.union1d(ids["id_a"].to_numpy(), ids["id_b"].to_numpy())
        needed_ref = ray.put(pa.array(needed))
    sets = shingle_sets(ds, text_col, id_col, ngram, needed_ids=needed_ref)

    if needed_ref is not None and len(needed) <= BROADCAST_SETS_THRESHOLD:
        # fast path: the needed docs' shingle sets are KB–MB scale —
        # broadcast one (did → set) lookup and verify each candidate
        # block independently: two executions, zero shuffle actors
        # (vs two hash joins whose aggregator-pool startup dominates
        # small workloads). Bounded by BROADCAST_SETS_THRESHOLD docs.
        sets_tbl = pa.concat_tables(ray.get(block_refs(sets.materialize())))
        lut_ref = ray.put(sets_tbl)

        def jac_broadcast(t: pa.Table) -> pa.Table:
            lut = ray.get(lut_ref) if isinstance(lut_ref, ray.ObjectRef) else lut_ref
            import pandas as pd

            dids = lut["did"].to_numpy(zero_copy_only=False)
            words, offs = _decode_binary_sets(lut["sh"])
            # duplicate corpus ids would make pd.Index.get_indexer raise —
            # keep-first, matching the scale path's first-match behavior
            uniq = ~pd.Index(dids).duplicated(keep="first")
            if not uniq.all():
                pos = np.flatnonzero(uniq)
                index = pd.Index(dids[pos])
                lut_map = pos
            else:
                index = pd.Index(dids)
                lut_map = None
            ia = index.get_indexer(t["id_a"].to_numpy(zero_copy_only=False))
            ib = index.get_indexer(t["id_b"].to_numpy(zero_copy_only=False))
            keep = (ia >= 0) & (ib >= 0)  # inner-join semantics
            ia, ib = ia[keep], ib[keep]
            if lut_map is not None:
                ia, ib = lut_map[ia], lut_map[ib]
            out = _jaccard_for_pairs(words, offs, ia, words, offs, ib)
            res = pa.table(
                {
                    "id_a": t["id_a"].filter(pa.array(keep)) if not keep.all() else t["id_a"],
                    "id_b": t["id_b"].filter(pa.array(keep)) if not keep.all() else t["id_b"],
                    "jaccard": out,
                }
            )
            return res.filter(pc.greater_equal(res["jaccard"], threshold))

        return candidates.map_batches(jac_broadcast, batch_format="pyarrow")

    # scale path: two hash joins attach each side's set, then one
    # vectorized pass. (Ray's hash join drops the right-side key column.)
    from data_linter_ray.exchange import join_width

    P = join_width(candidates)
    j1 = candidates.join(
        sets, "inner", P, on=("id_a",), right_on=("did",)
    ).rename_columns({"sh": "sh_a"})
    j2 = j1.join(
        sets, "inner", P, on=("id_b",), right_on=("did",)
    ).rename_columns({"sh": "sh_b"})

    def jac(t: pa.Table) -> pa.Table:
        aw, ao = _decode_binary_sets(t["sh_a"])
        bw, bo = _decode_binary_sets(t["sh_b"])
        rows = np.arange(t.num_rows, dtype=np.int64)
        out = _jaccard_for_pairs(aw, ao, rows, bw, bo, rows)
        res = pa.table({"id_a": t["id_a"], "id_b": t["id_b"], "jaccard": out})
        return res.filter(pc.greater_equal(res["jaccard"], threshold))

    verified = j2.map_batches(jac, batch_format="pyarrow")
    # the hash joins preserve candidate multiplicity (a non-deduped
    # candidate stream would emit duplicate verified pairs) — one cheap
    # pair-keyed exchange over the already-thresholded survivors
    return _dedupe_pairs(verified, agg={"jaccard": "max"})
