"""Text-analysis operators for training-data pipelines.

All operators are vectorized Arrow kernels inside ``map_batches`` (RE2
regexes — same engine DuckDB uses, so oracle SQL matches exactly):

  - token counting: whitespace tokens + a BPE-ish word/punct regex count
  - quality scoring: length / punctuation / digit / stopword signals
  - language ID: stopword-hit heuristic over a small per-language lexicon
  - fingerprinting: md5 content fingerprint (oracle-checkable) and a fast
    64-bit stable hash for dedup keys
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

WS = r"\s+"
BPE_ISH = r"\w+|[^\w\s]"
PUNCT = r"[^\w\s]"
DIGIT = r"[0-9]"

# tiny per-language stopword lexicons (public common words)
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "for", "with", "was"],
    "es": ["el", "la", "de", "que", "los", "las", "una", "por", "con", "para"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "mit", "ein", "auf", "für"],
    "fr": ["le", "la", "les", "des", "est", "une", "dans", "pour", "que", "sur"],
}


def _lang_pattern(words: list[str]) -> str:
    return r"\b(?:" + "|".join(words) + r")\b"


def token_count_table(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(… , n_tokens_ws, n_tokens_bpe) appended. Empty/whitespace-only
    strings count 0 whitespace tokens."""
    text = t[text_col]
    trimmed = pc.utf8_trim_whitespace(text)
    splits = pc.split_pattern_regex(trimmed, WS)
    n_ws = pc.if_else(
        pc.equal(trimmed, ""),
        pa.scalar(0, pa.int32()),
        pc.list_value_length(splits),
    )
    n_bpe = pc.count_substring_regex(text, BPE_ISH)
    return t.append_column("n_tokens_ws", pc.cast(n_ws, pa.int64())).append_column(
        "n_tokens_bpe", pc.cast(n_bpe, pa.int64())
    )


def quality_table(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality signals: n_chars_q, n_punct, n_digits, n_stopwords, and
    punct_ratio (double, single division — deterministic)."""
    text = t[text_col]
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(text, PUNCT), pa.int64())
    n_digit = pc.cast(pc.count_substring_regex(text, DIGIT), pa.int64())
    n_stop = pc.cast(
        pc.count_substring_regex(text, _lang_pattern(LANG_STOPWORDS["en"])), pa.int64()
    )
    denom = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    ratio = pc.divide(pc.cast(n_punct, pa.float64()), pc.cast(denom, pa.float64()))
    for name, arr in [
        ("n_chars_q", n_chars),
        ("n_punct", n_punct),
        ("n_digits", n_digit),
        ("n_stopwords", n_stop),
        ("punct_ratio", ratio),
    ]:
        t = t.append_column(name, arr)
    return t


def langid_table(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic language ID: most stopword hits wins ("und" = undetermined
    when no lexicon hits). Vectorized: one RE2 count per language."""
    text = t[text_col]
    langs = list(LANG_STOPWORDS)
    scores = np.stack(
        [
            pc.fill_null(
                pc.count_substring_regex(pc.utf8_lower(text), _lang_pattern(ws)), 0
            ).to_numpy(zero_copy_only=False)
            for ws in LANG_STOPWORDS.values()
        ],
        axis=1,
    )
    best = scores.argmax(axis=1)
    hit = scores.max(axis=1) > 0
    pred = np.where(hit, np.array(langs, dtype=object)[best], "und")
    return t.append_column("lang_pred", pa.array(pred, type=pa.string()))


def fingerprint_table(t: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 hex fingerprint (exactly DuckDB's ``md5(text)``) + fast stable
    64-bit hash for shuffle keys. md5 is a per-value C call via hashlib —
    fine for fingerprint queries; the hot dedup path uses ``hash64``."""
    import pandas as pd

    s = t[text_col].to_pandas()
    md5 = s.map(
        lambda x: hashlib.md5(x.encode()).hexdigest() if isinstance(x, str) else None
    )
    h64 = pd.util.hash_pandas_object(s, index=False).to_numpy(dtype=np.uint64)
    return t.append_column("fp_md5", pa.array(md5, type=pa.string())).append_column(
        "fp_hash64", pa.array(h64.astype(np.int64), type=pa.int64())
    )


# ---- Dataset-level wrappers ----------------------------------------------


def with_token_counts(ds: Dataset, text_col: str = "text") -> Dataset:
    return ds.map_batches(
        lambda t: token_count_table(t, text_col), batch_format="pyarrow"
    )


def with_quality(ds: Dataset, text_col: str = "text") -> Dataset:
    return ds.map_batches(lambda t: quality_table(t, text_col), batch_format="pyarrow")


def with_langid(ds: Dataset, text_col: str = "text") -> Dataset:
    return ds.map_batches(lambda t: langid_table(t, text_col), batch_format="pyarrow")


def with_fingerprint(ds: Dataset, text_col: str = "text") -> Dataset:
    return ds.map_batches(
        lambda t: fingerprint_table(t, text_col), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# rolling-hash document fingerprints (0-mod-p + winnowing)
# ---------------------------------------------------------------------------


def flat_tokens(text: pa.ChunkedArray | pa.Array):
    """CANONICAL engine tokenization → (flat Arrow string array of
    tokens, int64 parent row indices): lowercase → trim → ``\\W+``
    split → empties dropped. Bit-identical to the SQL oracle's
    ``list_filter(regexp_split_to_array(lower(trim(text)), '\\W+'),
    t -> t <> '')`` — every oracle-paired operator must tokenize
    through ONE of these two forms. New call sites use this helper;
    the older inline copies in this module predate it and are pinned
    by their own oracle tests."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
    return flat.filter(pa.array(keep)), parents[keep]


def _gram_strings(text: pa.ChunkedArray | pa.Array, k: int):
    """token k-gram strings per row → (flat gram list, parent row idx).
    Grams are chr(31)-joined lowered tokens — the same gram identity the
    DuckDB oracle constructs."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    words = np.asarray(flat.to_pylist(), dtype=object)[keep]
    parents = parents[keep]
    n = len(words)
    if n < k:
        return [], np.empty(0, np.int64)
    same = parents[: n - k + 1] == parents[k - 1 :]
    grams = [
        "\x1f".join(words[i : i + k]) for i in np.flatnonzero(same)
    ]
    return grams, parents[: n - k + 1][same]


def _md5_lower64(grams: list[str]) -> np.ndarray:
    """uint64 per gram == DuckDB ``md5_number_lower`` (bytes 8..16 of the
    md5 digest, little-endian) — the oracle-parity hash."""
    out = np.empty(len(grams), dtype=np.uint64)
    for i, g in enumerate(grams):
        out[i] = np.frombuffer(hashlib.md5(g.encode()).digest(), "<u8")[1]
    return out


def _gram_hashes(text, k: int, hash: str):
    """→ (uint64 gram hashes, parent row indices) under either hash mode.

    ``hash="md5"`` is the oracle-parity path (DuckDB md5_number_lower on
    the chr(31)-joined gram string) — per-gram Python, kept ONLY so the
    driver's SQL oracle can reproduce it bit-exactly. ``hash="fast"`` is
    the production path: the same vectorized uint64 token-hash → shingle
    rolling-hash pipeline the dedup operators use (dedup.py
    _token_hashes/_shingle_hashes) — zero per-element Python."""
    if hash == "fast":
        from data_linter_ray.functions.dedup import _shingle_hashes, _token_hashes

        th, tp = _token_hashes(text)
        return _shingle_hashes(th, tp, k)
    if hash != "md5":
        raise ValueError(f"unknown hash mode: {hash!r} (use 'md5' or 'fast')")
    grams, parents = _gram_strings(text, k)
    return _md5_lower64(grams), parents


_HEX_LUT = np.array([f"{i:02x}".encode() for i in range(256)], dtype="S2")


def _hex16(vals: np.ndarray) -> pa.Array:
    """Vectorized 16-char lower-hex rendering of uint64 values (the
    per-value f-string loop was the last Python in this path)."""
    if len(vals) == 0:
        return pa.array([], pa.string())
    b = np.ascontiguousarray(vals.astype(">u8")).view(np.uint8).reshape(-1, 8)
    hx = np.ascontiguousarray(_HEX_LUT[b]).view("S16").ravel()
    return pa.array(hx.astype("U16"), pa.string())


def modp_fingerprint_table(
    t: pa.Table, text_col: str = "text", id_col: str = "doc_id",
    k: int = 3, mod_p: int = 8, hash: str = "md5",
) -> pa.Table:
    """0-mod-p rolling fingerprint (Manber, "Finding similar files in a
    large file system", USENIX 1994; Broder's shingle sampling): keep the
    distinct k-gram hashes with h ≡ 0 (mod p). Output is flattened
    (doc_id, fp-hex) rows — one per selected fingerprint.

    ``hash="fast"`` swaps the per-gram md5 for the vectorized uint64
    shingle pipeline (see :func:`_gram_hashes`) — same selection
    semantics, different hash family, ~30× cheaper; use it everywhere
    except the md5-parity oracle query."""
    ids = t[id_col].to_numpy(zero_copy_only=False)
    h, parents = _gram_hashes(t[text_col], k, hash)
    sel = h % np.uint64(mod_p) == 0
    hs, ps = h[sel], parents[sel]
    # distinct per (row, hash)
    if len(hs):
        order = np.lexsort((hs, ps))
        hs, ps = hs[order], ps[order]
        first = np.ones(len(hs), bool)
        first[1:] = (hs[1:] != hs[:-1]) | (ps[1:] != ps[:-1])
        hs, ps = hs[first], ps[first]
    return pa.table({id_col: pa.array(ids[ps]), "fp": _hex16(hs)})


def winnow_fingerprint_table(
    t: pa.Table, text_col: str = "text", id_col: str = "doc_id",
    k: int = 5, w: int = 4, hash: str = "md5",
) -> pa.Table:
    """Winnowing fingerprints (Schleimer, Wilkerson & Aiken, "Winnowing:
    local algorithms for document fingerprinting", SIGMOD 2003): in each
    window of ``w`` consecutive k-gram hashes pick the minimum (rightmost
    on ties), dedupe selected positions. Vectorized: the window min is a
    reduce over w shifted views; rightmost-tie via reversed argmin.
    Output: flattened (doc_id, fp-hex) rows. ``hash`` as in
    :func:`modp_fingerprint_table`."""
    ids = t[id_col].to_numpy(zero_copy_only=False)
    h, parents = _gram_hashes(t[text_col], k, hash)
    n = len(h)
    sel_pos: list[np.ndarray] = []
    if n:
        # windows must not span rows: a window starting at i is valid when
        # parents[i] == parents[i + w - 1]; rows shorter than w grams keep
        # their single minimum (standard winnowing boundary handling keeps
        # at least one fingerprint per document ≥ 1 gram)
        if n >= w:
            stack = np.stack([h[s : n - w + 1 + s] for s in range(w)])  # [w, m]
            # rightmost tie-break: scan windows reversed so argmin finds
            # the LAST minimal element
            rev = stack[::-1]
            offs = (w - 1) - rev.argmin(axis=0)
            valid = parents[: n - w + 1] == parents[w - 1 :]
            pos = (np.arange(n - w + 1) + offs)[valid]
            sel_pos.append(pos)
        # per-row fallback for rows with 1..w-1 grams: their own min
        counts = np.bincount(parents)
        short_rows = np.flatnonzero((counts > 0) & (counts < w))
        if len(short_rows):
            starts = np.concatenate([[0], np.cumsum(counts)])
            for r in short_rows:
                seg = h[starts[r] : starts[r + 1]]
                sel_pos.append(np.array([starts[r] + (len(seg) - 1 - seg[::-1].argmin())]))
    if sel_pos:
        pos = np.unique(np.concatenate(sel_pos))
        hs, ps = h[pos], parents[pos]
        order = np.lexsort((hs, ps))
        hs, ps = hs[order], ps[order]
        first = np.ones(len(hs), bool)
        first[1:] = (hs[1:] != hs[:-1]) | (ps[1:] != ps[:-1])
        hs, ps = hs[first], ps[first]
    else:
        hs, ps = np.empty(0, np.uint64), np.empty(0, np.int64)
    return pa.table({id_col: pa.array(ids[ps]), "fp": _hex16(hs)})


def with_modp_fingerprints(ds: Dataset, **kw) -> Dataset:
    cols = [kw.get("id_col", "doc_id"), kw.get("text_col", "text")]
    return ds.select_columns(cols).map_batches(
        lambda t, _kw=kw: modp_fingerprint_table(t, **_kw), batch_format="pyarrow"
    )


def with_winnow_fingerprints(ds: Dataset, **kw) -> Dataset:
    cols = [kw.get("id_col", "doc_id"), kw.get("text_col", "text")]
    return ds.select_columns(cols).map_batches(
        lambda t, _kw=kw: winnow_fingerprint_table(t, **_kw), batch_format="pyarrow"
    )


def normalize_text(
    ds: Dataset, text_col: str = "text", out_col: str = "text_norm",
    keep_cols: list[str] | None = None,
) -> Dataset:
    """Canonical text cleaning for training corpora: Unicode NFC
    normalization → whitespace runs collapsed to single spaces → outer
    trim → remaining (non-whitespace) control characters stripped.
    Matches DuckDB's ``nfc_normalize`` + ``regexp_replace`` exactly, so
    the operator is SQL-oracle-checkable end-to-end.

    The regex steps are RE2 Arrow kernels (vectorized). For NFC, this
    pyarrow build's ``utf8_normalize`` returns DEcomposed output for
    every requested form (verified broken), so NFC is applied as:
    vectorized ASCII detection (ASCII is NFC-invariant — zero extra
    work on the common case) + Python ``unicodedata`` only on the rare
    non-ASCII rows."""
    import pyarrow.compute as pc

    cols = sorted(set((keep_cols or []) + [text_col]))

    def fn(t: pa.Table) -> pa.Table:
        import unicodedata

        s = t[text_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        non_ascii = pc.fill_null(
            pc.invert(pc.match_substring_regex(s, r"^[\x00-\x7f]*$")), False
        ).to_numpy(zero_copy_only=False)
        if non_ascii.any():
            # touch ONLY the non-ASCII rows: take → normalize → scatter
            # back with replace_with_mask (the ASCII bulk never leaves
            # Arrow)
            idx = np.flatnonzero(non_ascii)
            fixed = [
                unicodedata.normalize("NFC", v)
                for v in s.take(pa.array(idx)).to_pylist()
            ]
            s = pc.replace_with_mask(
                s, pa.array(non_ascii), pa.array(fixed, pa.string())
            )
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim_whitespace(s)
        s = pc.replace_substring_regex(s, "[[:cntrl:]]", "")
        return t.append_column(out_col, s)

    return ds.select_columns(cols).map_batches(fn, batch_format="pyarrow")


def token_doc_frequency(
    ds: Dataset,
    text_col: str = "text",
    min_df: int = 1,
) -> Dataset:
    """Corpus document frequency per token → (token, df) rows with
    df ≥ ``min_df`` (vocabulary building / stop-word discovery).

    Tokenization matches the dedup/shingle pipeline: lowercase, split
    on ``\\W+``, empties dropped, DISTINCT per document. Scale shape is
    the two-level count used across the engine: per-batch (token,
    partial df) combiner — one row per distinct (batch, token), so a
    stop-word costs one row per batch in the shuffle, never one per
    document — then a token-hash partitioned sum."""
    import pandas as pd

    from data_linter_ray.exchange import exchange_map_groups

    def local_df(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
        )
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
        flat = flat.filter(pa.array(keep))
        parents = parents[keep]
        # distinct (doc, token) within the batch, then count docs per token
        s = pd.DataFrame(
            {"tok": flat.to_pandas(), "doc": parents}
        ).drop_duplicates()
        vc = s.groupby("tok", as_index=False).size().rename(columns={"size": "df"})
        return pa.table(
            {
                "token": pa.array(vc["tok"], pa.string()),
                "df": pa.array(vc["df"].to_numpy(np.int64)),
            }
        )

    def final_sum(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("token", as_index=False)["df"].sum()
        return agg[agg["df"] >= min_df][["token", "df"]]

    return exchange_map_groups(
        ds.select_columns([text_col]).map_batches(local_df, batch_format="pyarrow"),
        "token",
        final_sum,
    )


def duplicate_sentences(
    ds: Dataset,
    text_col: str = "text",
    min_docs: int = 2,
    sep: str = ". ",
) -> Dataset:
    """Cross-document duplicate sentences → (sentence, n_docs) for
    units appearing in ≥ ``min_docs`` documents — the C4-style
    boilerplate/template-detection signal at sentence granularity.

    Split is a LITERAL separator (no regex, no case-folding) so results
    are bytes-exact; a document's sentences are de-duplicated within
    the document first, and since every document lives in exactly one
    row, the per-batch (sentence, partial doc-count) combiner is
    globally correct after one sentence-hash partitioned sum — the same
    two-level shape as :func:`token_doc_frequency`."""
    import pandas as pd

    from data_linter_ray.exchange import exchange_map_groups

    def local(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        parts = pc.split_pattern(text, pattern=sep)
        flat = pc.list_flatten(parts)
        parents = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
        keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
        s = pd.DataFrame(
            {"sent": flat.filter(pa.array(keep)).to_pandas(), "doc": parents[keep]}
        ).drop_duplicates()
        vc = s.groupby("sent", as_index=False).size().rename(columns={"size": "n_docs"})
        return pa.table(
            {
                "sentence": pa.array(vc["sent"], pa.string()),
                "n_docs": pa.array(vc["n_docs"].to_numpy(np.int64)),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("sentence", as_index=False)["n_docs"].sum()
        return agg[agg["n_docs"] >= min_docs][["sentence", "n_docs"]]

    return exchange_map_groups(
        ds.select_columns([text_col]).map_batches(local, batch_format="pyarrow"),
        "sentence",
        final,
    )


def tfidf_top_terms(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
) -> Dataset:
    """Top-``k`` TF-IDF terms per document → (id_col, term, rank, tf,
    df); score = tf · ln(N/df), ties broken by term ascending.

    Two stages: document frequencies come from the distributed
    :func:`token_doc_frequency` exchange and are collected driver-side
    (vocabulary-bounded — the same broadcast-small rule as the
    referential and decontamination broadcasts; for an unbounded
    vocabulary pass a ``min_df`` view of the df table through a hash
    join instead), shipped ONCE via ``ray.put``; the corpus side is
    then one ``map_batches`` pass (actor pool: the df lookup is
    deserialized once per actor, not per batch) computing per-doc term
    counts, scores, and top-k — zero shuffle over documents. The
    emitted columns are integers + terms (the float score stays
    internal), so output hash-matches the SQL window oracle."""
    import pandas as pd

    import ray

    n_docs = ds.count()
    df_tbl = token_doc_frequency(ds, text_col=text_col)
    df_map: dict[str, int] = {}
    for b in df_tbl.iter_batches(batch_format="pyarrow"):
        df_map.update(zip(b["token"].to_pylist(), b["df"].to_pylist()))
    ref = ray.put(df_map)

    # plain task fn + per-worker memo (not an actor pool: the only
    # state is one broadcast dict; pool startup would dominate)
    def scorer(t: pa.Table, _memo={}) -> pa.Table:
        if "df" not in _memo:
            _memo["df"] = ray.get(ref)
        df_lookup = _memo["df"]
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
        )
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
        s = pd.DataFrame(
            {"tok": flat.filter(pa.array(keep)).to_pandas(), "doc": parents[keep]}
        )
        tf = s.groupby(["doc", "tok"], as_index=False).size().rename(
            columns={"size": "tf"}
        )
        tf["df"] = tf["tok"].map(df_lookup).astype(np.int64)
        tf["_score"] = tf["tf"].to_numpy(np.float64) * np.log(
            float(n_docs) / tf["df"].to_numpy(np.float64)
        )
        tf = tf.sort_values(
            ["doc", "_score", "tok"], ascending=[True, False, True], kind="stable"
        )
        top = tf.groupby("doc", sort=False).head(k).copy()
        top["rank"] = top.groupby("doc", sort=False).cumcount() + 1
        ids = t[id_col].take(pa.array(top["doc"].to_numpy()))
        return pa.table(
            {
                id_col: ids,
                "term": pa.array(top["tok"], pa.string()),
                "rank": pa.array(top["rank"].to_numpy(np.int64)),
                "tf": pa.array(top["tf"].to_numpy(np.int64)),
                "df": pa.array(top["df"].to_numpy(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        scorer, batch_format="pyarrow"
    )


def repetition_stats(ds: Dataset, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """Gopher-style within-document repetition signals (Rae et al. 2021
    §A1.1 "repetition" filters, as used by RefinedWeb / Dolma): per doc

      - ``n_tokens``            total tokens
      - ``top_token_n``         occurrences of the most frequent token
      - ``n_trigrams``          total token trigrams (with multiplicity)
      - ``n_distinct_trigrams`` distinct token trigrams
      - ``top_trigram_n``       occurrences of the most frequent trigram

    All five are INTEGER counts (callers derive the Gopher ratios
    ``top_token_n/n_tokens`` and ``1 - n_distinct/n_trigrams`` — emitting
    numerators/denominators keeps the SQL oracle hash-exact with no
    float-summation order hazard). Everything is doc-local: one
    ``map_batches`` pass, zero shuffle. Gram identity uses the 64-bit
    token-hash pipeline (collision odds ~1e-15 per doc at 100 grams —
    distinctness counts match string distinctness in practice)."""
    import pandas as pd

    from data_linter_ray.functions.dedup import _shingle_hashes, _token_hashes

    def stats(t: pa.Table) -> pa.Table:
        n = t.num_rows
        h, parents = _token_hashes(t[text_col])
        n_tokens = np.bincount(parents, minlength=n).astype(np.int64)

        def per_doc_counts(keys: np.ndarray, par: np.ndarray):
            """→ (n_total, n_distinct, top_n) per doc for (par, key) items."""
            total = np.bincount(par, minlength=n).astype(np.int64)
            if len(keys) == 0:
                z = np.zeros(n, dtype=np.int64)
                return total, z.copy(), z.copy()
            order = np.lexsort((keys, par))
            sk, sp = keys[order], par[order]
            new = np.empty(len(sk), dtype=bool)
            new[0] = True
            new[1:] = (sk[1:] != sk[:-1]) | (sp[1:] != sp[:-1])
            starts = np.flatnonzero(new)
            runs = np.diff(np.append(starts, len(sk)))
            run_doc = sp[starts]
            distinct = np.bincount(run_doc, minlength=n).astype(np.int64)
            top = np.zeros(n, dtype=np.int64)
            np.maximum.at(top, run_doc, runs)
            return total, distinct, top

        _, _, top_token = per_doc_counts(h, parents)
        g, gp = _shingle_hashes(h, parents, 3)
        n_tri, n_dist_tri, top_tri = per_doc_counts(g, gp)
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": pa.array(n_tokens),
                "top_token_n": pa.array(top_token),
                "n_trigrams": pa.array(n_tri),
                "n_distinct_trigrams": pa.array(n_dist_tri),
                "top_trigram_n": pa.array(top_tri),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        stats, batch_format="pyarrow"
    )


def overlap_pairs(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    mod_p: int = 8,
    min_shared: int = 3,
    max_df: int = 50,
    hash: str = "fast",
) -> Dataset:
    """MOSS-style document-overlap detection (Schleimer/Wilkerson/Aiken
    SIGMOD 2003 §1; Manber 1994): pairs of documents sharing at least
    ``min_shared`` selected 0-mod-p k-gram fingerprints → Dataset
    (id_a, id_b, n_shared).

    Fingerprints appearing in more than ``max_df`` documents are
    DROPPED before pair generation (MOSS's "ignore matches in too many
    documents" rule) — a deterministic, SQL-mirrorable df cap rather
    than a silent truncation, and the bound that keeps per-bucket pair
    fan-out quadratic only in ``max_df``.

    Scale shape: fingerprint pass (vectorized, ``hash="fast"`` uint64
    pipeline; ``"md5"`` for the oracle) → ONE coarse fp-hash exchange
    where each partition applies the df cap and emits its buckets'
    pairs → pair-keyed exchange sums shared counts and applies
    ``min_shared``. No all-pairs stage anywhere.
    """
    import pandas as pd

    from data_linter_ray.exchange import exchange_map_groups

    fps = with_modp_fingerprints(
        ds, id_col=id_col, text_col=text_col, k=k, mod_p=mod_p, hash=hash
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("fp", sort=False):
            m = len(grp)
            if m < 2 or m > max_df:
                continue
            ids = np.sort(grp[id_col].to_numpy())
            r, c = np.triu_indices(m, k=1)
            outs.append(pd.DataFrame({"id_a": ids[r], "id_b": ids[c]}))
        if not outs:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    pairs = exchange_map_groups(fps, "fp", bucket_pairs)

    def count_shared(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["id_a", "id_b"], as_index=False).size()
        agg = agg[agg["size"] >= min_shared].rename(columns={"size": "n_shared"})
        agg["n_shared"] = agg["n_shared"].astype(np.int64)
        return agg[["id_a", "id_b", "n_shared"]]

    return exchange_map_groups(pairs, ["id_a", "id_b"], count_shared)


def chunk_documents(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    chunk: int = 128,
    stride: int = 64,
) -> Dataset:
    """Sliding-window token chunking — the RAG / pretraining splitter:
    every document becomes rows (id, chunk_id, n_tokens, text) where
    chunk ``j`` holds whitespace tokens ``[j·stride, j·stride+chunk)``
    re-joined with single spaces. Chunk starts run at every stride
    while tokens remain, so tail chunks may be shorter (and, when
    stride < chunk, partially contained in their predecessor — the
    standard overlapping-window convention). Documents with zero
    tokens emit nothing; token case/whitespace beyond the split is
    preserved.

    Fully vectorized flat-map: one Arrow ``\\s+`` split per batch, the
    overlapped chunk token indices built as a ragged arange (repeat +
    cumsum), one ``flat.take`` and one ``binary_join_element_wise``-
    style list join — zero per-chunk Python. Doc-local, zero shuffle.
    """

    def chunks(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(text, r"\s+")
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
        flat = flat.filter(pa.array(keep))
        parents = parents[keep]
        n_rows = t.num_rows
        dl = np.bincount(parents, minlength=n_rows)  # tokens per doc
        doc_off = np.concatenate([[0], np.cumsum(dl)])

        n_chunks = -(-dl // stride)  # ceil; 0 for empty docs
        doc_of_chunk = np.repeat(np.arange(n_rows), n_chunks)
        # chunk_id within its doc: ragged arange over n_chunks
        first = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        cid = np.arange(int(n_chunks.sum())) - np.repeat(first, n_chunks)
        starts = cid * stride
        lens = np.minimum(chunk, dl[doc_of_chunk] - starts)
        # ragged arange of flat-token indices per chunk
        tok_first = doc_off[doc_of_chunk] + starts
        coff = np.concatenate([[0], np.cumsum(lens)])
        idx = np.arange(int(lens.sum())) - np.repeat(coff[:-1] - tok_first, lens)
        chunk_toks = pa.ListArray.from_arrays(
            pa.array(coff, pa.int32()), flat.take(pa.array(idx))
        )
        joined = pc.binary_join(chunk_toks, " ")
        ids = t[id_col].take(pa.array(doc_of_chunk))
        return pa.table(
            {
                id_col: ids,
                "chunk_id": pa.array(cid.astype(np.int64)),
                "n_tokens": pa.array(lens.astype(np.int64)),
                "text": joined,
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        chunks, batch_format="pyarrow"
    )


def gopher_flags(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    keep_cols: list[str] | None = None,
    min_tokens: int = 50,
    max_tokens: int = 100_000,
    min_mean_word_len: int = 3,
    max_mean_word_len: int = 10,
    max_top_token_pct: int = 30,
    max_dup_trigram_pct: int = 30,
) -> Dataset:
    """Gopher-rule composite document filter (Rae et al. 2021 §A1.1,
    the RefinedWeb/Dolma curation gate): per document, boolean rule
    flags plus the overall ``keep`` verdict.

      - ``r_tokens``     min_tokens ≤ n_tokens ≤ max_tokens
      - ``r_word_len``   mean token length in [min, max] — evaluated as
        the integer cross-multiplication ``min·n ≤ Σlen ≤ max·n``
      - ``r_top_token``  most frequent token ≤ max_top_token_pct% —
        ``top_n · 100 ≤ pct · n_tokens``
      - ``r_dup_tri``    duplicate-trigram mass ≤ max_dup_trigram_pct%
        (vacuously true when the doc has no trigrams)
      - ``keep``         AND of the four

    Every comparison is INTEGER (cross-multiplied ratios), so the
    verdicts hash-match SQL with zero float hazards. One doc-local
    ``map_batches`` pass fuses token hashing, trigram runs, and token
    char sums — zero shuffle."""
    from data_linter_ray.functions.dedup import _shingle_hashes, _token_hashes

    def flags(t: pa.Table) -> pa.Table:
        n = t.num_rows
        h, parents = _token_hashes(t[text_col])
        n_tokens = np.bincount(parents, minlength=n).astype(np.int64)

        # token char sum (same \W+ token set as the hash pipeline)
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\W+"
        )
        flat = pc.list_flatten(toks)
        par2 = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep_m = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False))
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)[keep_m]
        char_sum = np.bincount(par2[keep_m], weights=lens, minlength=n).astype(
            np.int64
        )

        def run_stats(keys: np.ndarray, par: np.ndarray):
            total = np.bincount(par, minlength=n).astype(np.int64)
            top = np.zeros(n, dtype=np.int64)
            distinct = np.zeros(n, dtype=np.int64)
            if len(keys):
                order = np.lexsort((keys, par))
                sk, sp = keys[order], par[order]
                new = np.empty(len(sk), dtype=bool)
                new[0] = True
                new[1:] = (sk[1:] != sk[:-1]) | (sp[1:] != sp[:-1])
                starts = np.flatnonzero(new)
                runs = np.diff(np.append(starts, len(sk)))
                run_doc = sp[starts]
                distinct = np.bincount(run_doc, minlength=n).astype(np.int64)
                np.maximum.at(top, run_doc, runs)
            return total, distinct, top

        _, _, top_token = run_stats(h, parents)
        g, gp = _shingle_hashes(h, parents, 3)
        n_tri, n_dist_tri, _ = run_stats(g, gp)

        r_tokens = (n_tokens >= min_tokens) & (n_tokens <= max_tokens)
        r_word_len = (char_sum >= min_mean_word_len * n_tokens) & (
            char_sum <= max_mean_word_len * n_tokens
        ) & (n_tokens > 0)
        r_top = (top_token * 100) <= (max_top_token_pct * n_tokens)
        dup = n_tri - n_dist_tri
        r_tri = (dup * 100) <= (max_dup_trigram_pct * n_tri)
        cols = {id_col: t[id_col]}
        for c in keep_cols or []:
            cols[c] = t[c]
        cols.update(
            {
                "r_tokens": pa.array(r_tokens),
                "r_word_len": pa.array(r_word_len),
                "r_top_token": pa.array(r_top),
                "r_dup_tri": pa.array(r_tri),
                "keep": pa.array(r_tokens & r_word_len & r_top & r_tri),
            }
        )
        return pa.table(cols)

    read_cols = sorted({id_col, text_col, *(keep_cols or [])})
    return ds.select_columns(read_cols).map_batches(
        flags, batch_format="pyarrow"
    )


def bigram_collocations(
    ds,
    text_col: str = "text",
    min_count: int = 2,
    round_to: int = 9,
    vocab_limit: int = 5_000_000,
):
    """Consecutive-token bigram collocations with pointwise mutual
    information: → Dataset (w1, w2, n, pmi) for bigrams with exact
    count ≥ ``min_count``; PMI = ln(n·N / (n_w1·n_w2)) over exact
    corpus counts (N = total bigrams). The collocation report of a
    corpus-curation pipeline (boilerplate phrases, tokenizer-merge
    candidates).

    Tokenization is the engine's standard (lowercase, ``\\W+`` split,
    empties dropped BEFORE pairing — so adjacency is over the filtered
    token list, exactly the SQL ``list_filter`` → ``list_transform``
    composition).

    Scale shape: pass A folds per-batch unigram counts + bigram totals
    on the driver — VOCABULARY-bounded, the same documented broadcast
    contract as tfidf's df table (``vocab_limit`` guards the bound:
    exceeding it raises rather than silently ballooning the driver);
    pass B is a per-batch (w1, w2) count combiner (a hot bigram costs
    one row per batch, never one per occurrence) → one bigram-hash
    :func:`~data_linter_ray.exchange.keyed_scatter_gather` exchange →
    exact sums → vectorized PMI against the ``ray.put`` unigram table.
    Float contract: one double ratio ``n·N/(n_a·n_b)`` (SQL operand
    order) → glibc ln → round to ``round_to`` on both sides."""
    import pandas as pd
    import ray

    from data_linter_ray.exchange import exchange_map_groups

    def _tokens(t: pa.Table):
        return flat_tokens(t[text_col])

    def uni_partial(t: pa.Table) -> pa.Table:
        flat, parents = _tokens(t)
        vc = flat.value_counts()
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        n_pairs = (
            int((parents[1:] == parents[:-1]).sum()) if len(parents) else 0
        )
        vals = vc.field("values").combine_chunks() if isinstance(
            vc.field("values"), pa.ChunkedArray
        ) else vc.field("values")
        return pa.table(
            {
                "w": pa.concat_arrays([vals, pa.array([None], pa.string())]),
                "n": pa.array(
                    np.append(
                        vc.field("counts").cast(pa.int64()).to_numpy(
                            zero_copy_only=False
                        ),
                        n_pairs,
                    ),
                    pa.int64(),
                ),
            }
        )

    uni: dict = {}
    n_total = 0
    for b in (
        ds.select_columns([text_col])
        .map_batches(uni_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        ws = b["w"].to_pylist()
        ns = b["n"].to_numpy(zero_copy_only=False)
        for w, n in zip(ws, ns):
            if w is None:
                n_total += int(n)
            else:
                uni[w] = uni.get(w, 0) + int(n)
        if len(uni) > vocab_limit:
            raise ValueError(
                f"unigram vocabulary exceeds vocab_limit={vocab_limit}; "
                "the driver-fold broadcast contract does not hold"
            )
    if n_total == 0:
        return ray.data.from_arrow(
            pa.schema(
                [("w1", pa.string()), ("w2", pa.string()),
                 ("n", pa.int64()), ("pmi", pa.float64())]
            ).empty_table()
        )
    uni_ref = ray.put(uni)
    NB = float(n_total)

    def bigram_partial(t: pa.Table) -> pa.Table:
        flat, parents = _tokens(t)
        if len(parents) < 2:
            return pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        idx = np.flatnonzero(parents[1:] == parents[:-1])
        w1 = flat.take(pa.array(idx))
        w2 = flat.take(pa.array(idx + 1))
        df = pd.DataFrame({"w1": w1.to_pandas(), "w2": w2.to_pandas()})
        cnt = df.groupby(["w1", "w2"], as_index=False, sort=False).size()
        return pa.table(
            {
                "w1": pa.array(cnt["w1"], pa.string()),
                "w2": pa.array(cnt["w2"], pa.string()),
                "n": pa.array(cnt["size"].to_numpy(np.int64)),
            }
        )

    def reduce_pmi(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["w1", "w2"], as_index=False, sort=False)["n"].sum()
        agg = agg[agg["n"] >= min_count]
        if not len(agg):
            # typed Arrow empty (a str-dtype pandas empty maps to Arrow
            # null and poisons the dataset schema)
            return pa.table(
                {"w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64()),
                 "pmi": pa.array([], pa.float64())}
            )
        u = ray.get(uni_ref) if isinstance(uni_ref, ray.ObjectRef) else uni_ref
        na = agg["w1"].map(u).to_numpy(np.float64)
        nb = agg["w2"].map(u).to_numpy(np.float64)
        n = agg["n"].to_numpy(np.int64)
        ratio = (n.astype(np.float64) * NB) / (na * nb)
        agg["pmi"] = np.round(np.log(ratio), round_to) + 0.0
        return agg[["w1", "w2", "n", "pmi"]]

    return exchange_map_groups(
        ds.select_columns([text_col]).map_batches(
            bigram_partial, batch_format="pyarrow"
        ),
        ["w1", "w2"],
        reduce_pmi,
    )


def clean_lines(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_words: int = 3,
    require_terminal_punct: bool = True,
    blocklist: tuple = ("lorem ipsum", "javascript"),
    min_lines_kept: int = 1,
) -> Dataset:
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2, public
    recipe): split each document on ``sep`` and KEEP a line only if it

    - ends in terminal punctuation (``. ! ? "``) when
      ``require_terminal_punct``,
    - has ≥ ``min_words`` whitespace words, and
    - contains no blocklist phrase (case-insensitive substring regex).

    → (doc_id, text_clean, n_kept, n_dropped); documents keeping fewer
    than ``min_lines_kept`` lines are dropped entirely (the C4
    doc-level rule). One streaming pass, zero shuffle: every rule is an
    RE2 kernel over the flattened line stream, per-doc counts are
    ``np.add.at`` folds, and the kept-line re-join runs in polars.

    Reference provenance: extends the reference's regex/length column
    predicates (pandas_validator.py pattern/length tests) to line
    granularity inside a document."""
    import numpy as np

    import re as _re

    # docstring contract is "substring": escape each phrase so regex
    # metacharacters in a blocklist entry (e.g. "c++") match literally
    rules_re = "|".join(_re.escape(p) for p in blocklist)

    def clean(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lines = pc.split_pattern(pc.cast(text, pa.string()), sep)
        flat = pc.list_flatten(lines)
        parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        n = t.num_rows
        n_all = pc.fill_null(pc.list_value_length(lines), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)

        words_ok = pc.greater_equal(
            pc.count_substring_regex(flat, r"\S+"), min_words
        )
        keep = words_ok
        if require_terminal_punct:
            keep = pc.and_(keep, pc.match_substring_regex(flat, r'[.!?"]$'))
        if blocklist:
            keep = pc.and_(
                keep,
                pc.invert(
                    pc.match_substring_regex(pc.utf8_lower(flat), rules_re)
                ),
            )
        keep_np = pc.fill_null(keep, False).to_numpy(zero_copy_only=False)
        keep_np = np.asarray(keep_np)

        n_kept = np.zeros(n, dtype=np.int64)
        if len(parents):
            np.add.at(n_kept, parents, keep_np.astype(np.int64))

        kept_lines = flat.filter(pa.array(keep_np))
        kept_rows = parents[keep_np]
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if len(kept_rows):
            try:
                import polars as pl

                joined = (
                    pl.DataFrame(
                        {"rid": kept_rows, "l": pl.from_arrow(kept_lines)}
                    )
                    .group_by("rid", maintain_order=True)
                    .agg(pl.col("l").str.join(sep))
                )
                rid = joined["rid"].to_numpy()
                txt = pa.array(joined["l"].to_list(), pa.string())
            except ImportError:  # pragma: no cover
                s = pd.DataFrame({"rid": kept_rows, "l": kept_lines.to_pandas()})
                agg = s.groupby("rid", sort=True)["l"].agg(sep.join)
                rid = agg.index.to_numpy()
                txt = pa.array(agg.to_numpy(), pa.string())
        else:
            rid = np.empty(0, dtype=np.int64)
            txt = pa.array([], pa.string())
        surviving = rid[n_kept[rid] >= min_lines_kept]
        txt = txt.filter(pa.array(n_kept[rid] >= min_lines_kept))
        return pa.table(
            {
                id_col: ids.take(pa.array(surviving)),
                "text_clean": txt,
                "n_kept": pa.array(n_kept[surviving]),
                "n_dropped": pa.array((n_all - n_kept)[surviving]),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        clean, batch_format="pyarrow"
    )
