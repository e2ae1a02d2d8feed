"""Fuzzy key matching: all pairs within Levenshtein distance ≤ 1,
distributed, with deletion-neighborhood blocking.

Blocking (the SymSpell / FastSS idea — Bocek et al., "Fast Similarity
Search in Large Dictionaries", 2007): two strings are within edit
distance 1 iff they share an entry of their deletion neighborhoods
{s} ∪ {s minus one char}. Substitution pairs share a same-position
deletion, insert/delete pairs share the shorter string itself, equal
strings share their identity entry. So candidate generation is a
self-join on neighborhood-entry hash — a bucketed exchange, never an
all-pairs scan.

Everything is vectorized over padded byte matrices — variant hashing
uses a left-positional polynomial hash with an ODD base, so the
"shift the suffix down one position" step of a deletion is a single
modular multiply by the base's inverse mod 2^64 (odd ⇒ invertible):

    H(s) = Σ_j s[j]·B^j  (wrapping uint64)
    H(s del i) = Σ_{j<i} s[j]·B^j + (Σ_{j>i} s[j]·B^j)·B⁻¹

Hash collisions only ever create false CANDIDATES; every candidate is
exactly verified (hamming for equal lengths, aligned-suffix check for
±1 lengths), so the output is exact.

Granularity note: edits are BYTE-level over the UTF-8 encoding —
identical to character Levenshtein for ASCII (hypothesis-verified
against a reference DP over the full ASCII range), while a multi-byte
code point counts as its byte length. For char-exact semantics over
non-ASCII keys, transcode to a fixed-width representation upstream.

Scale shape: per-batch vectorized variant emit (≤ len+1 entries per
row) → coarse hash-partition exchange on the entry key → per-bucket
pair generation (``max_bucket`` cap with the engine-wide ``truncated``
flag — no silent coverage loss) → pair-keyed dedupe exchange → exact
vectorized verification. Names ride with the pairs so verification
needs no second join against the corpus.

Reference provenance: the reference has no fuzzy matching; this is a
net-new operator family (brief: "the operations a large-scale
training-data pipeline would need") built on the engine's bucketed
pair machinery (functions/dedup.py).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups

logger = logging.getLogger(__name__)

#: polynomial base — odd, so invertible mod 2^64 (pow(B, -1, 2**64))
_B = np.uint64(1099511628211)
_B_INV = np.uint64(pow(1099511628211, -1, 2**64))
#: mixes the string length into the entry key (splitmix64 constant)
_LEN_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pad_matrix(strs: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """utf8 array → (zero-padded uint8 matrix (n, Lmax), lengths).

    Built by one flat scatter over the arrow values buffer — no Python
    per-string work."""
    arr = strs.combine_chunks() if isinstance(strs, pa.ChunkedArray) else strs
    n = len(arr)
    if n == 0 or arr.buffers()[1] is None:
        return np.zeros((n, 1), dtype=np.uint8), np.zeros(n, dtype=np.int64)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    buf = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    lens = offs[1:] - offs[:-1]
    L = int(lens.max()) if n else 0
    mat = np.zeros((n, max(L, 1)), dtype=np.uint8)
    if n and lens.sum():
        within = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        mat[rows, within] = buf[np.repeat(offs[:-1], lens) + within]
    return mat, lens


def _entry_keys(mat: np.ndarray, lens: np.ndarray):
    """→ (keys uint64, row_idx int64): one identity entry per string
    plus one entry per single-char deletion, all vectorized."""
    n, L = mat.shape
    with np.errstate(over="ignore"):
        powers = np.empty(L, dtype=np.uint64)
        p = np.uint64(1)
        for j in range(L):
            powers[j] = p
            p = p * _B
        m64 = mat.astype(np.uint64)
        terms = m64 * powers[None, :]          # c_j · B^j
        pre = np.cumsum(terms, axis=1, dtype=np.uint64)  # inclusive prefix
        full = pre[:, L - 1] if L else np.zeros(n, np.uint64)
        # mask padding out of `full`: padding bytes are 0 ⇒ contribute 0
        ident = full ^ (lens.astype(np.uint64) * _LEN_MIX)
        # deletion at column i (only i < len): prefix(<i) + suffix(>i)·B⁻¹
        cols = np.arange(L, dtype=np.int64)
        valid = cols[None, :] < lens[:, None]
        pre_excl = pre - terms                  # Σ_{j<i}
        suf = full[:, None] - pre               # Σ_{j>i}
        dels = pre_excl + suf * _B_INV
        dels = dels ^ ((lens[:, None].astype(np.uint64) - np.uint64(1)) * _LEN_MIX)
        rows_d, cols_d = np.nonzero(valid)
        keys = np.concatenate([ident, dels[rows_d, cols_d]])
        ridx = np.concatenate([np.arange(n, dtype=np.int64), rows_d])
    return keys, ridx


def _dist_le1(a: pa.Array, b: pa.Array) -> np.ndarray:
    """Exact per-pair check dist(a, b) ≤ 1 → int8 distance (0, 1) or -1
    when the distance exceeds 1; fully vectorized on padded matrices."""
    both = pa.concat_arrays([
        a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a,
        b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b,
    ])
    mat, lens = _pad_matrix(both)
    n = len(a)
    ma, mb = mat[:n], mat[n:]
    la, lb = lens[:n], lens[n:]
    # orient so x is the longer side for the ±1 case
    swap = lb > la
    mx = np.where(swap[:, None], mb, ma)
    mn = np.where(swap[:, None], ma, mb)
    lx = np.where(swap, lb, la)
    ln = np.where(swap, la, lb)
    out = np.full(n, -1, dtype=np.int8)
    diff = lx - ln

    eq_len = diff == 0
    mism = (ma != mb).sum(axis=1)
    out[eq_len & (mism == 0)] = 0
    out[eq_len & (mism == 1)] = 1

    one = diff == 1
    if one.any():
        L = mat.shape[1]
        xs, ns_ = mx[one], mn[one]
        # first mismatch position of the aligned prefixes
        neq = xs != ns_
        p = np.where(neq.any(axis=1), neq.argmax(axis=1), lx[one])
        # suffix check: x[p+1:] == n[p:] — gather with per-row offset
        cols = np.arange(L, dtype=np.int64)
        idx = np.minimum(p[:, None] + 1 + cols[None, :], L - 1)
        x_shift = np.take_along_axis(xs, idx, axis=1)
        idxn = np.minimum(p[:, None] + cols[None, :], L - 1)
        n_shift = np.take_along_axis(ns_, idxn, axis=1)
        # only positions that still belong to the suffix matter
        rel_valid = cols[None, :] < (lx[one][:, None] - (p[:, None] + 1))
        ok = ~((x_shift != n_shift) & rel_valid).any(axis=1)
        res = np.where(p < lx[one], np.where(ok, 1, -1), 1).astype(np.int8)
        out[one] = res
    return out


def fuzzy_key_pairs(
    ds: Dataset,
    id_col: str,
    name_col: str,
    max_bucket: int = 4096,
) -> Dataset:
    """All (id_a < id_b) pairs whose ``name_col`` values are within
    Levenshtein distance 1 → Dataset (id_a, id_b, name_a, name_b,
    dist, truncated). Null ids/names are excluded."""

    def variants(t: pa.Table) -> pa.Table:
        t = t.drop_null()
        strs = t[name_col].combine_chunks() if isinstance(
            t[name_col], pa.ChunkedArray
        ) else t[name_col]
        mat, lens = _pad_matrix(strs)
        keys, ridx = _entry_keys(mat, lens)
        ids = t[id_col].to_numpy(zero_copy_only=False)[ridx]
        names = strs.take(pa.array(ridx))
        # dedupe (key, id) locally: duplicate deletions (e.g. "aab"
        # deleting either 'a') would double pairs downstream
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        names = names.take(pa.array(order))
        keep = np.ones(len(keys), dtype=bool)
        keep[1:] = (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])
        return pa.table(
            {
                "key": keys[keep].astype(np.int64),
                "id": ids[keep],
                "name": names.filter(pa.array(keep)),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("key", sort=False):
            m = len(grp)
            if m < 2:
                continue
            truncated = m > max_bucket
            if truncated:
                logger.warning(
                    "fuzzy bucket truncated: %d of %d rows dropped "
                    "(max_bucket=%d)", m - max_bucket, m, max_bucket,
                )
                grp = grp.sort_values("id", kind="stable").head(max_bucket)
                m = max_bucket
            ids = grp["id"].to_numpy()
            names = grp["name"].to_numpy()
            r, c = np.triu_indices(m, k=1)
            ia, ib = ids[r], ids[c]
            flip = ia > ib
            ia2 = np.where(flip, ib, ia)
            ib2 = np.where(flip, ia, ib)
            na = np.where(flip, names[c], names[r])
            nb = np.where(flip, names[r], names[c])
            keep = ia2 != ib2
            outs.append(pd.DataFrame({
                "id_a": ia2[keep], "id_b": ib2[keep],
                "name_a": na[keep], "name_b": nb[keep],
                "truncated": np.full(int(keep.sum()), truncated),
            }))
        if not outs:
            return pd.DataFrame({
                "id_a": pd.Series([], dtype=np.int64),
                "id_b": pd.Series([], dtype=np.int64),
                "name_a": pd.Series([], dtype=object),
                "name_b": pd.Series([], dtype=object),
                "truncated": pd.Series([], dtype=bool),
            })
        return pd.concat(outs, ignore_index=True)

    def dedupe_verify(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            ["id_a", "id_b", "truncated"], kind="mergesort"
        ).drop_duplicates(["id_a", "id_b"], keep="last")
        dist = _dist_le1(pa.array(g["name_a"]), pa.array(g["name_b"]))
        g = g[dist >= 0]
        g = g.assign(dist=dist[dist >= 0].astype(np.int64))
        g = g.astype({"id_a": np.int64, "id_b": np.int64})
        return pa.Table.from_pandas(
            g.reset_index(drop=True), preserve_index=False
        ).replace_schema_metadata(None)

    cands = exchange_map_groups(
        ds.select_columns([id_col, name_col]).map_batches(
            variants, batch_format="pyarrow"
        ),
        "key",
        bucket_pairs,
    )
    return exchange_map_groups(cands, ["id_a", "id_b"], dedupe_verify)
