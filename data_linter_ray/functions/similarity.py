"""Similarity search over an embedding column (``list<float>``).

- **Brute-force cosine top-k** (baseline): the query matrix is broadcast
  once via ``ray.put``; each batch does one numpy matmul against it and
  emits per-batch local top-k, merged per query in one keyed exchange. The
  full corpus is never collected.
- **Embedding near-duplicate pairs**: all-pairs via broadcast of the
  (normalized) corpus matrix — the documented single-node-feasible
  baseline; the **IVF variant** below is the scale path: k-means-lite
  centroids → per-batch cluster assignment → candidate search restricted
  to same-cluster buckets (a keyed exchange, not a broadcast).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

import ray

from data_linter_ray.exchange import exchange_map_groups, exchange_width, fold_batches

logger = logging.getLogger(__name__)


def _stack(col) -> np.ndarray:
    """list<float> arrow column → [n, d] float64 matrix (zero-copy flatten)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def knn_brute_force(
    ds: Dataset,
    query_ids: list,
    k: int = 10,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> Dataset:
    """Top-k cosine neighbours for the given query ids.

    Returns (query_id, neighbor_id, rank) — rank 1-based by descending
    similarity, ties broken by ascending neighbor id (deterministic).
    """
    import pyarrow.compute as pc

    qset = pa.array(query_ids)
    q_tbl = (
        ds.select_columns([id_col, emb_col])
        .map_batches(
            lambda t: t.filter(pc.is_in(t[id_col], value_set=qset)),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    q_ids = q_tbl[id_col].to_numpy()
    Q = _normalize(np.stack(q_tbl[emb_col].to_numpy()).astype(np.float64))
    q_ref = ray.put((q_ids, Q))

    def local_topk(t: pa.Table) -> pa.Table:
        qi, qm = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        M = _normalize(_stack(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        S = qm @ M.T  # [n_q, n_batch]
        rows = {"query_id": [], "neighbor_id": [], "sim": []}
        kk = min(k, S.shape[1])
        for row, qid in enumerate(qi):
            s = S[row]
            if exclude_self:
                s = np.where(ids == qid, -np.inf, s)
            top = np.argpartition(-s, kk - 1)[:kk]
            rows["query_id"].extend([qid] * len(top))
            rows["neighbor_id"].extend(ids[top])
            rows["sim"].extend(s[top])
        return pa.table(rows)

    local = ds.select_columns([id_col, emb_col]).map_batches(
        local_topk, batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["query_id", "sim", "neighbor_id"], ascending=[True, False, True]
        ).groupby("query_id").head(k)
        g = g.assign(rank=g.groupby("query_id").cumcount() + 1)
        return g[["query_id", "neighbor_id", "rank"]]

    return exchange_map_groups(local, "query_id", merge)


#: corpora at or below this row count use the exact broadcast all-pairs
#: path; above it, the IVF bucketed path (no driver materialization, no
#: O(n²) matmul) is selected automatically — the same size-dispatch
#: pattern as referential's BROADCAST_ROW_THRESHOLD
#: (stages/referential.py).
BROADCAST_CORPUS_THRESHOLD = 100_000


def embedding_near_duplicates(
    ds: Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    mode: str = "auto",
    n_clusters: int = 64,
    n_probe: int = 2,
) -> Dataset:
    """All pairs (id_a < id_b) with cosine ≥ threshold, plus a
    ``truncated`` flag (always False on the exact broadcast path; True on
    the IVF path for pairs from a size-capped cluster).

    ``mode``: "broadcast" = exact all-pairs (corpus matrix in the object
    store, per-batch matmul — single-node-feasible baseline);
    "ivf" = :func:`ivf_near_duplicates` (bucketed, approximate near the
    cluster boundaries); "auto" = broadcast at ≤
    ``BROADCAST_CORPUS_THRESHOLD`` rows, IVF above.
    """
    if mode not in ("auto", "broadcast", "ivf"):
        raise ValueError(f"unknown mode: {mode}")
    if mode == "auto":
        mode = (
            "broadcast" if ds.count() <= BROADCAST_CORPUS_THRESHOLD else "ivf"
        )
    if mode == "ivf":
        return ivf_near_duplicates(
            ds,
            threshold=threshold,
            n_clusters=n_clusters,
            id_col=id_col,
            emb_col=emb_col,
            n_probe=n_probe,
        )
    full = ds.select_columns([id_col, emb_col]).to_pandas()
    ids_all = full[id_col].to_numpy()
    M_all = _normalize(np.stack(full[emb_col].to_numpy()).astype(np.float64))
    ref = ray.put((ids_all, M_all))

    def pairs(t: pa.Table) -> pa.Table:
        ia, MA = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        M = _normalize(_stack(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        S = M @ MA.T
        r, c = np.nonzero(S >= threshold)
        keep = ids[r] < ia[c]
        return pa.table(
            {
                "id_a": ids[r][keep],
                "id_b": ia[c][keep],
                "truncated": np.zeros(int(keep.sum()), dtype=bool),
            }
        )

    return ds.select_columns([id_col, emb_col]).map_batches(
        pairs, batch_format="pyarrow"
    )


def _capped_bucket_pairs(
    g: pd.DataFrame, ids_col: str, emb_col: str, threshold: float, max_bucket: int
) -> pd.DataFrame:
    """All-pairs cosine ≥ threshold within ONE bucket, size-capped.

    Buckets beyond ``max_bucket`` rows are truncated (deterministically:
    sorted by id, head) — NEVER silently: the dropped-row count is
    logged and every emitted pair carries ``truncated=True`` so
    downstream consumers see the coverage cap (same contract as the
    minhash ``truncated`` flag, dedup.py)."""
    truncated = len(g) > max_bucket
    if truncated:
        logger.warning(
            "near-dup bucket truncated: %d of %d rows dropped (max_bucket=%d)",
            len(g) - max_bucket,
            len(g),
            max_bucket,
        )
    g = g.sort_values(ids_col, kind="stable").head(max_bucket)
    ids = g[ids_col].to_numpy()
    if len(ids) < 2:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "truncated": pd.Series([], dtype=bool),
            }
        )
    M = _normalize(np.stack(g[emb_col].to_numpy()).astype(np.float64))
    S = M @ M.T
    r, c = np.nonzero(S >= threshold)
    keep = ids[r] < ids[c]
    return pd.DataFrame(
        {"id_a": ids[r][keep], "id_b": ids[c][keep], "truncated": truncated}
    )


def ivf_near_duplicates(
    ds: Dataset,
    threshold: float = 0.95,
    n_clusters: int = 16,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    max_bucket: int = 4096,
    n_probe: int = 2,
) -> Dataset:
    """Scale path: bucket vectors by nearest centroid (one ``cluster % P``
    exchange, no corpus broadcast), then all-pairs within each bucket.
    Misses cross-cluster pairs near boundaries — the standard IVF recall
    trade-off; raising ``n_probe`` duplicates each row into its
    top-``n_probe`` clusters, trading shuffle volume for boundary
    recall. Pairs from a size-capped cluster carry ``truncated=True``
    (no silent coverage caps)."""
    from data_linter_ray.functions.dedup import _dedupe_pairs

    if n_probe < 1 or n_probe > n_clusters:
        raise ValueError(f"n_probe must be in [1, n_clusters], got {n_probe}")
    # deterministic training: same input → same clusters on every run
    C = kmeans_fit(ds, id_col=id_col, emb_col=emb_col, n_clusters=n_clusters)
    c_ref = ray.put(C)
    P = exchange_width(ds)

    def assign(t: pa.Table) -> pa.Table:
        cm = ray.get(c_ref) if isinstance(c_ref, ray.ObjectRef) else c_ref
        M = _normalize(_stack(t[emb_col]))
        S = M @ cm.T
        k = min(n_probe, S.shape[1])
        topk = np.argsort(-S, axis=1)[:, :k]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        emb = t[emb_col].combine_chunks()
        cluster = topk.T.reshape(-1)
        return pa.table(
            {
                "cluster": cluster.astype(np.int32),
                id_col: np.tile(ids, k),
                emb_col: pa.concat_arrays([emb] * k),
                "_part": (cluster % P).astype(np.int64),
            }
        )

    assigned = ds.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow"
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                _capped_bucket_pairs(g, id_col, emb_col, threshold, max_bucket)
                for _, g in df.groupby("cluster")
            ],
            ignore_index=True,
        )

    pairs = exchange_map_groups(assigned, "_part", bucket_pairs, num_partitions=P)
    # a pair can surface from several probe clusters — two-level
    # pair-hash exchange (never one Ray group per pair)
    return _dedupe_pairs(pairs, agg={"truncated": "max"})


#: at or below this many distinct candidate doc ids, their embeddings
#: are collected into one broadcast lookup (d≈32 float64 → ~256 B/row)
#: for cosine verification; above it, two hash joins attach each side's
#: embedding — no driver materialization either way.
BROADCAST_EMB_THRESHOLD = 200_000


def verify_candidates_cosine(
    ds: Dataset,
    candidates: Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> Dataset:
    """Exact cosine verification of candidate (id_a, id_b) pairs.

    Mirrors dedup's ``verify_candidates_jaccard`` shape: only the
    candidate ID LIST is ever collected (bounded by the candidate
    count); small candidate sets use a broadcast (id → embedding)
    lookup, large ones two hash joins sized by ``join_width``. Extra
    candidate columns (e.g. ``truncated``) pass through unchanged."""
    from data_linter_ray.exchange import join_width

    candidates = candidates.materialize()
    extra = [c for c in candidates.schema().names if c not in ("id_a", "id_b")]
    ids_df = candidates.select_columns(["id_a", "id_b"]).to_pandas()
    needed = np.union1d(ids_df["id_a"].to_numpy(), ids_df["id_b"].to_numpy())
    if len(needed) == 0:
        return candidates

    if len(needed) <= BROADCAST_EMB_THRESHOLD:
        needed_arr = pa.array(needed)
        sub = (
            ds.select_columns([id_col, emb_col])
            .map_batches(
                lambda t: t.filter(pc.is_in(t[id_col], value_set=needed_arr)),
                batch_format="pyarrow",
            )
            .to_pandas()
        )
        # keep-first on duplicate ids, matching the join path's behavior
        sub = sub.drop_duplicates(id_col, keep="first")
        lut_ids = sub[id_col].to_numpy()
        M = _normalize(np.stack(sub[emb_col].to_numpy()).astype(np.float64))
        ref = ray.put((lut_ids, M))

        def verify(t: pa.Table) -> pa.Table:
            li, lm = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            index = pd.Index(li)
            ia = index.get_indexer(t["id_a"].to_numpy(zero_copy_only=False))
            ib = index.get_indexer(t["id_b"].to_numpy(zero_copy_only=False))
            keep = (ia >= 0) & (ib >= 0)
            sims = np.full(t.num_rows, -1.0)
            sims[keep] = np.einsum("ij,ij->i", lm[ia[keep]], lm[ib[keep]])
            return t.filter(pa.array(sims >= threshold))

        return candidates.map_batches(verify, batch_format="pyarrow")

    P = join_width(candidates)

    # Acero hash joins reject list-typed payload columns (same
    # constraint dedup's shingle sets hit) — ship each NORMALIZED
    # embedding as its raw float64 bytes (large_binary round-trips
    # zero-copy via np.frombuffer)
    def encode(t: pa.Table) -> pa.Table:
        M = _normalize(_stack(t[emb_col]))
        n, d = M.shape
        offs = (np.arange(n + 1, dtype=np.int64) * d * 8).tobytes()
        bin_arr = pa.Array.from_buffers(
            pa.large_binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(M.tobytes())]
        )
        return pa.table({id_col: t[id_col], "_embbin": bin_arr})

    emb = ds.select_columns([id_col, emb_col]).map_batches(
        encode, batch_format="pyarrow"
    )
    j1 = candidates.join(
        emb, "inner", P, on=("id_a",), right_on=(id_col,)
    ).rename_columns({"_embbin": "_emb_a"})
    j2 = j1.join(
        emb, "inner", P, on=("id_b",), right_on=(id_col,)
    ).rename_columns({"_embbin": "_emb_b"})

    def _decode(col: pa.ChunkedArray) -> np.ndarray:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        flat = np.frombuffer(arr.buffers()[2] or b"", dtype=np.float64)
        d = (offs[1] - offs[0]) // 8 if len(arr) else 1
        return flat[offs[0] // 8 : offs[-1] // 8].reshape(len(arr), int(d))

    def verify_joined(t: pa.Table) -> pa.Table:
        A = _decode(t["_emb_a"])
        B = _decode(t["_emb_b"])
        sims = np.einsum("ij,ij->i", A, B)
        out = t.drop_columns(["_emb_a", "_emb_b"])
        return out.filter(pa.array(sims >= threshold))

    verified = j2.map_batches(verify_joined, batch_format="pyarrow")
    return verified.select_columns(["id_a", "id_b"] + extra)


def rp_lsh_near_duplicates(
    ds: Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_planes: int = 16,
    n_bands: int = 4,
    seed: int = 42,
    max_bucket: int = 4096,
) -> Dataset:
    """Random-hyperplane LSH near-duplicate pairs (Charikar, "Similarity
    estimation techniques from rounding algorithms", STOC 2002): sign of
    ``n_planes`` seeded Gaussian projections → ``n_bands`` bucket keys
    per vector (banded, so any pair whose signatures agree on one band
    collides) → candidate pairs → exact cosine verification.

    Scale shape (candidates-then-verify, the minhash split): the band
    shuffle carries ONLY (band, key, id) — embeddings never ride the
    exchange — and buckets are coarse-partitioned via the shared
    ``_bucketed_pairs`` machinery (never one Ray group per bucket).
    Verification re-attaches embeddings through a bounded broadcast or
    two hash joins (:func:`verify_candidates_cosine`). No k-means
    training pass (buckets come from data-independent projections).
    Candidates only (recall < 1 near the hyperplanes, like any LSH);
    verified pairs are exact cosine ≥ threshold, no false positives.
    Pairs from a size-capped bucket carry ``truncated=True`` (no silent
    coverage caps).
    """
    from data_linter_ray.functions.dedup import _bucketed_pairs, _dedupe_pairs

    if n_planes % n_bands:
        raise ValueError("n_planes must divide into n_bands bands")
    r = n_planes // n_bands

    def emit(t: pa.Table) -> pa.Table:
        M = _normalize(_stack(t[emb_col]))
        planes = np.random.RandomState(seed).randn(M.shape[1], n_planes)
        bits = (M @ planes) > 0  # [n, n_planes]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keys, bands, out_ids = [], [], []
        for b in range(n_bands):
            chunk = bits[:, b * r : (b + 1) * r]
            key = (chunk * (1 << np.arange(r))).sum(axis=1).astype(np.int64)
            keys.append(key)
            bands.append(np.full(len(ids), b, dtype=np.int32))
            out_ids.append(ids)
        return pa.table(
            {
                "band": np.concatenate(bands),
                "key": np.concatenate(keys),
                "id": np.concatenate(out_ids),
            }
        )

    buckets = ds.select_columns([id_col, emb_col]).map_batches(
        emit, batch_format="pyarrow"
    )

    def pair_fn(sub: pd.DataFrame, truncated: bool) -> pd.DataFrame:
        if truncated:
            logger.warning(
                "rp-lsh bucket truncated at %d rows (max_bucket)", max_bucket
            )
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
        return pd.DataFrame(
            {"id_a": ids[ia], "id_b": ids[ib], "truncated": truncated}
        )

    cand = _bucketed_pairs(buckets, ["band", "key"], max_bucket, pair_fn)
    deduped = _dedupe_pairs(cand, agg={"truncated": "max"})
    return verify_candidates_cosine(
        ds, deduped, threshold=threshold, id_col=id_col, emb_col=emb_col
    )


def quantize_embeddings(
    ds: Dataset,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    out_col: str = "embedding_q8",
    scale_col: str = "q_scale",
) -> Dataset:
    """Symmetric per-vector int8 quantization: each embedding maps to
    round(x / s * 127) with s = max(|x|) (s = 1 for all-zero vectors),
    emitted as a ``list<int8>`` plus the float64 scale — a 4-8× memory
    cut for ANN indexes / shuffles with bounded (~0.4%) per-component
    error. One vectorized pass per batch; reconstruct with
    ``x ≈ q / 127 * s``."""

    def fn(t: pa.Table) -> pa.Table:
        col = t[emb_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        M = _stack(col)  # [n, d] float64
        s = np.abs(M).max(axis=1)
        s[s == 0] = 1.0
        x = M / s[:, None] * 127.0
        # half-away-from-zero (SQL round semantics; np.round is half-even)
        q = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int8)
        n, d = q.shape
        flat = pa.array(q.reshape(-1), pa.int8())
        q_arr = pa.FixedSizeListArray.from_arrays(flat, d)
        return pa.table(
            {
                id_col: t[id_col],
                out_col: q_arr,
                scale_col: pa.array(s, pa.float64()),
            }
        )

    return ds.select_columns([id_col, emb_col]).map_batches(
        fn, batch_format="pyarrow"
    )


def kmeans_fit(
    ds: Dataset,
    id_col: str = "doc_id",
    emb_col: str = "embedding",
    n_clusters: int = 16,
    iters: int = 5,
    sample_n: int = 10_000,
    seed: int = 42,
) -> np.ndarray:
    """Deterministic spherical k-means training → [k, d] centroids.

    The training sample is id-mod selected (every ``step``-th id) and
    id-sorted — NOT a seeded ``random_sample``, whose row set depends
    on Ray task ordering — so identical inputs give identical centroids
    on every run and partitioning. Training on a bounded sample is the
    standard IVF recipe; assignment stays distributed."""
    n = ds.count()
    step = max(1, n // max(sample_n, 1))

    def pick(t: pa.Table) -> pa.Table:
        t = t.filter(t[id_col].is_valid())
        k = t[id_col]
        return t.filter(
            pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, step), step)), 0)
        )

    sample = (
        ds.select_columns([id_col, emb_col])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
        .sort_values(id_col)
    )
    X = _normalize(np.stack(sample[emb_col].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    C = X[rng.choice(len(X), size=min(n_clusters, len(X)), replace=False)]
    for _ in range(iters):
        assign = (X @ C.T).argmax(axis=1)
        for c in range(len(C)):
            members = X[assign == c]
            if len(members):
                C[c] = members.mean(axis=0)
        C = _normalize(C)
    return C


def kmeans_cluster(
    ds: Dataset,
    id_col: str = "doc_id",
    emb_col: str = "embedding",
    n_clusters: int = 16,
    iters: int = 5,
    sample_n: int = 10_000,
    seed: int = 42,
) -> Dataset:
    """Spherical k-means clustering as a first-class operator →
    Dataset (id, cluster, sim): each row's nearest centroid by cosine
    and the similarity to it.

    Scale shape (the IVF recipe, made public): centroids train
    driver-side on a bounded random sample (``sample_n``), ship ONCE
    via ``ray.put``, and assignment is one streaming matmul pass over
    the corpus — no shuffle, no iteration over the full data.
    Deterministic given the seed (argmax ties resolve to the lowest
    centroid index). Iterative float training is not SQL-expressible,
    so the driver records a rows-only check; validity is pinned in
    pytest (assignment optimality + determinism)."""
    import ray

    C = kmeans_fit(
        ds, id_col=id_col, emb_col=emb_col, n_clusters=n_clusters,
        iters=iters, sample_n=sample_n, seed=seed,
    )
    ref = ray.put(C)

    def assign(t: pa.Table) -> pa.Table:
        cen = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        M = _normalize(_stack(t[emb_col]))
        S = M @ cen.T
        best = S.argmax(axis=1)
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(best.astype(np.int64)),
                "sim": pa.array(S[np.arange(len(best)), best]),
            }
        )

    return ds.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def cross_knn(
    left: Dataset,
    reference: Dataset,
    k: int = 1,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    left_filter=None,
    filter_cols: list[str] | None = None,
) -> Dataset:
    """For EVERY left row, the top-k cosine neighbours from a separate
    reference set — the vector-join used to tag new data against a
    curated corpus (nearest labeled example, nearest centroid, dedupe
    vs a reference crawl).

    Returns (query_id, neighbor_id, rank), rank 1-based by descending
    similarity with ties broken by ascending neighbor id. No float
    column leaves the operator (ranks are discrete), so results are
    SQL-hash-stable.

    Scale shape: the reference matrix is collected once (bounded by the
    broadcast-small rule — use IVF routing for reference sets beyond
    object-store comfort), ``ray.put`` once, and every left batch
    resolves its own top-k in ONE vectorized matmul + argpartition —
    no exchange, no per-group dispatch, one streaming pass.

    ``left_filter`` (a ``pa.Table -> pa.Table`` row filter needing
    ``filter_cols``) runs INSIDE the top-k fn rather than as an
    upstream ``Dataset.filter``: Ray passes empty blocks through
    map_batches without calling the UDF, so an upstream filter that
    empties a block would leak the INPUT schema into the output stream
    (the mixed-block-schema hazard); fused in here, every non-empty
    input block yields a correctly-typed (possibly 0-row) output."""
    import pyarrow.compute as pc  # noqa: F401

    r_tbl = reference.select_columns([id_col, emb_col]).to_pandas()
    rids = r_tbl[id_col].to_numpy()
    R = _normalize(np.stack(r_tbl[emb_col].to_numpy()).astype(np.float64))
    # pre-sort the reference by id: positions then scan in ascending id
    # order, which makes the boundary-tie repair below (and any
    # equal-similarity ordering) deterministic by (−sim, id)
    _order = np.argsort(rids, kind="stable")
    rids, R = rids[_order], R[_order]
    ref_ref = ray.put((rids, R))

    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("neighbor_id", pa.int64()),
            ("rank", pa.int64()),
        ]
    )

    def topk(t: pa.Table) -> pa.Table:
        ri, rm = ray.get(ref_ref) if isinstance(ref_ref, ray.ObjectRef) else ref_ref
        if left_filter is not None:
            t = left_filter(t)
        if t.num_rows == 0:
            return out_schema.empty_table()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        M = _normalize(_stack(t[emb_col]))
        S = M @ rm.T  # [n_batch, n_ref]
        n = S.shape[0]
        kk = min(k, S.shape[1])
        idx = np.argpartition(-S, kk - 1, axis=1)[:, :kk]
        rows = np.arange(n)[:, None]
        sims = S[rows, idx]
        # argpartition picks an ARBITRARY subset of entries tied exactly
        # at the k-th similarity (common with duplicate reference
        # embeddings); repair those rows so boundary ties resolve to the
        # smallest neighbor ids (reference is pre-sorted by id, so
        # ascending position == ascending id)
        thr = sims.min(axis=1)
        n_gt = (S > thr[:, None]).sum(axis=1)
        n_eq = (S == thr[:, None]).sum(axis=1)
        for r in np.flatnonzero(n_gt + n_eq > kk):
            gt = np.flatnonzero(S[r] > thr[r])
            eq = np.flatnonzero(S[r] == thr[r])[: kk - len(gt)]
            sel = np.concatenate([gt, eq])
            idx[r, :] = sel
            sims[r, :] = S[r, sel]
        nbr = ri[idx]
        # per-row order by (-sim, neighbor id): two stable argsorts
        o1 = np.argsort(nbr, axis=1, kind="stable")
        sims = np.take_along_axis(sims, o1, 1)
        nbr = np.take_along_axis(nbr, o1, 1)
        o2 = np.argsort(-sims, axis=1, kind="stable")
        nbr = np.take_along_axis(nbr, o2, 1)
        return pa.table(
            {
                "query_id": pa.array(np.repeat(ids, kk)),
                "neighbor_id": pa.array(nbr.reshape(-1)),
                "rank": pa.array(np.tile(np.arange(1, kk + 1), n)),
            },
            schema=out_schema,
        )

    cols = sorted({id_col, emb_col, *(filter_cols or [])})
    return left.select_columns(cols).map_batches(topk, batch_format="pyarrow")


def group_centroids(
    ds: Dataset,
    group_col: str,
    emb_col: str = "embedding",
    *,
    round_to: int | None = None,
):
    """Per-group mean embedding (class centroids) — nearest-centroid
    classification, IVF seeding, dataset-cartography input. One
    streaming scan: per-batch (group, count, Σvector) partials (a
    D-float64 lane per group per batch), folded on the driver
    (groups × D doubles — KB scale for enumerable label domains, the
    same broadcast-small assumption as the outlier moments).

    → pandas DataFrame (group, dim, centroid) in tidy form, dim
    1-based; ``round_to`` absorbs partial-sum fold order vs SQL (see
    corr_matrix). Null groups and null embeddings are excluded."""
    import pandas as pd

    def partial(t: pa.Table) -> dict:
        """→ {group: (count, Σvector)} over the batch's valid rows."""
        t = t.filter(
            pa.compute.and_(t[group_col].is_valid(), t[emb_col].is_valid())
        )
        if t.num_rows == 0:
            return {}
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        M = _stack(t[emb_col])
        order = np.argsort(g, kind="stable")
        gs, Ms = g[order], M[order]
        uniq, starts = np.unique(gs, return_index=True)
        bounds = np.append(starts, len(gs))
        return {
            int(u): (int(hi - lo), Ms[lo:hi].sum(axis=0))
            for u, lo, hi in zip(uniq, bounds[:-1], bounds[1:])
        }

    def merge(acc: dict, part: dict) -> dict:
        for g, (n, s) in part.items():
            e = acc.setdefault(g, [0, np.zeros(len(s))])
            e[0] += n
            e[1] = e[1] + s
        return acc

    acc = fold_batches(ds.select_columns([group_col, emb_col]), partial, merge, {})
    rows = {"group": [], "dim": [], "centroid": []}
    for g in sorted(acc):
        n, s = acc[g]
        c = s / n
        if round_to is not None:
            c = np.round(c, round_to)
        rows["group"].extend([g] * len(c))
        rows["dim"].extend(range(1, len(c) + 1))
        rows["centroid"].extend(c)
    return pd.DataFrame(
        {
            "group": pd.Series(rows["group"], dtype=np.int64),
            "dim": pd.Series(rows["dim"], dtype=np.int64),
            "centroid": pd.Series(rows["centroid"], dtype=np.float64),
        }
    )


def kmeans_cluster_quantized(
    ds: Dataset,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_clusters: int = 8,
    iters: int = 2,
    scale: int = 10_000,
) -> Dataset:
    """INTEGER-EXACT Lloyd k-means → Dataset (id, cluster, dist2) — the
    oracle-checkable clustering variant. Embeddings quantize to the
    integer grid ``floor(x·scale + 0.5)`` (identical float64 expression
    both engines, immune to round-half conventions); distances are
    EXACT integer squared-Euclidean; centroid updates are element-wise
    FLOOR means (pure integer arithmetic); ties at argmin resolve to
    the lowest cluster index. Every step is bit-reproducible in SQL
    (unrolled CTE rounds), so the full (id, cluster, dist2) output
    hash-matches a DuckDB oracle — unlike the float spherical path
    (:func:`kmeans_cluster`), whose BLAS summation order is not
    SQL-expressible.

    Init: the ``n_clusters`` smallest ids' vectors, cluster index in
    id order (deterministic, no sampling). Scale shape: quantized rows
    materialize once; each iteration is ONE streaming pass emitting
    (K·d sums + K counts) int64 partials per block (KB to the driver,
    :func:`~data_linter_ray.exchange.fold_batches`); assignment is one
    final matmul pass. No shuffle anywhere.

    Exactness bound: quantized values |q| ≤ scale·max|x|; products ≤
    (2·scale·max|x|)², per-row sums ≤ d· that — keep d·(2·scale·max|x|)²
    < 2^53 (float64-exact matmul domain; d=64, scale=1e4, |x|≤1 →
    2.6e10, far inside)."""
    import ray

    def quantize(t: pa.Table) -> pa.Table:
        M = _stack(t[emb_col])
        Q = np.floor(M * float(scale) + 0.5)
        n, d = Q.shape
        return pa.table(
            {
                id_col: t[id_col],
                "_q": pa.FixedSizeListArray.from_arrays(
                    pa.array(Q.reshape(-1).astype(np.int64)), d
                ),
            }
        )

    quant = (
        ds.select_columns([id_col, emb_col])
        .map_batches(quantize, batch_format="pyarrow")
        .materialize()
    )

    # init: the n_clusters smallest ids — per-block k-smallest partials,
    # then one bounded driver pick (≤ k rows per block)
    def k_smallest(t: pa.Table) -> pa.Table:
        idx = np.argsort(
            t[id_col].to_numpy(zero_copy_only=False), kind="mergesort"
        )[:n_clusters]
        return t.take(pa.array(idx))

    cand = (
        quant.map_batches(k_smallest, batch_format="pyarrow")
        .to_pandas()
        .sort_values(id_col)
        .head(n_clusters)
    )
    C = np.stack(
        [np.asarray(v, dtype=np.int64) for v in cand["_q"].to_numpy()]
    ).astype(np.float64)  # exact: |values| << 2^53
    k, d = C.shape

    def _dist2(M: np.ndarray, C_: np.ndarray) -> np.ndarray:
        # |v|^2 - 2 v.c + |c|^2 — float64 matmul over exact integers
        return (
            (M * M).sum(axis=1, keepdims=True)
            - 2.0 * (M @ C_.T)
            + (C_ * C_).sum(axis=1)
        )

    for _ in range(iters):
        C_ref = ray.put(C)

        def partial(t: pa.Table, C_ref=C_ref) -> np.ndarray:
            C_ = ray.get(C_ref) if isinstance(C_ref, ray.ObjectRef) else C_ref
            M = _stack(t["_q"])  # float64, exact integers
            best = _dist2(M, C_).argmin(axis=1)  # first occurrence = lowest
            sums = np.zeros((k, d), np.int64)
            np.add.at(sums, best, M.astype(np.int64))
            cnt = np.bincount(best, minlength=k).astype(np.int64)
            return np.concatenate([sums.reshape(-1), cnt])

        tot = fold_batches(quant, partial, np.add, np.zeros(k * d + k, np.int64))
        sums, cnt = tot[: k * d].reshape(k, d), tot[k * d :]
        newC = C.copy()
        nz = cnt > 0  # empty cluster keeps its previous centroid
        newC[nz] = np.floor_divide(sums[nz], cnt[nz, None]).astype(np.float64)
        C = newC

    C_ref = ray.put(C)

    def assign(t: pa.Table, C_ref=C_ref) -> pa.Table:
        C_ = ray.get(C_ref) if isinstance(C_ref, ray.ObjectRef) else C_ref
        M = _stack(t["_q"])
        D = _dist2(M, C_)
        best = D.argmin(axis=1)
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(best.astype(np.int64)),
                "dist2": pa.array(
                    D[np.arange(len(best)), best].astype(np.int64)
                ),
            }
        )

    return quant.map_batches(assign, batch_format="pyarrow")
