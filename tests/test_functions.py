"""Training-data operators: text analysis, dedup families, similarity."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray
from data_linter_ray import exchange
from data_linter_ray.functions import dedup, similarity, text


@pytest.fixture(scope="module")
def docs(ray_session, sf_dir):
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def test_token_counts_vs_duckdb(docs, sf_dir):
    import duckdb

    got = (
        text.with_token_counts(docs)
        .select_columns(["doc_id", "n_tokens_ws", "n_tokens_bpe"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
        r"len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens_ws, "
        r"len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_tokens_bpe "
        f"FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
    ).df()
    assert (got["n_tokens_ws"].to_numpy() == exp["n_tokens_ws"].to_numpy()).all()
    assert (got["n_tokens_bpe"].to_numpy() == exp["n_tokens_bpe"].to_numpy()).all()


def test_quality_vs_duckdb(docs, sf_dir):
    import duckdb

    got = (
        text.with_quality(docs)
        .select_columns(["doc_id", "n_chars_q", "n_punct", "n_stopwords"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        r"SELECT doc_id, length(text) AS n_chars_q, "
        r"len(regexp_extract_all(text, '[^\w\s]')) AS n_punct, "
        r"len(regexp_extract_all(text, '\b(?:the|and|of|to|in|is|that|for|with|was)\b')) AS n_stopwords "
        f"FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
    ).df()
    for c in ["n_chars_q", "n_punct", "n_stopwords"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_langid_smoke(docs):
    out = text.with_langid(docs).select_columns(["lang", "lang_pred"]).to_pandas()
    # the synthetic corpus is word salad; just require the operator to be
    # deterministic, total, and emit only known labels
    assert set(out["lang_pred"]) <= set(text.LANG_STOPWORDS) | {"und"}
    assert len(out) == docs.count()


def test_fingerprint_md5(docs, sf_dir):
    import duckdb

    got = (
        text.with_fingerprint(docs)
        .select_columns(["doc_id", "fp_md5"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"SELECT doc_id, md5(text) AS fp_md5 FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
    ).df()
    assert (got["fp_md5"] == exp["fp_md5"]).all()


def test_exact_dedup(ray_session, docs):
    # duplicate the corpus with shifted ids: survivors = original ids
    n = docs.count()

    def shift(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(t["doc_id"], 1_000_000),
        )

    doubled = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    survivors = dedup.exact_dedup(doubled, "text", "doc_id").to_pandas()
    assert len(survivors) == n
    assert (survivors["doc_id"] < 1_000_000).all()

    groups = dedup.exact_duplicate_groups(doubled, "text", "doc_id").to_pandas()
    assert len(groups) == n
    assert (groups["n"] == 2).all()


def _mutated_corpus(ray_session, sf_dir, n_rows=200):
    """docs ∪ near-dup copies (one token appended) with ids +10_000."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet").limit(n_rows)

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    return ds.select_columns(["doc_id", "text"]).union(
        ds.select_columns(["doc_id", "text"]).map_batches(mutate, batch_format="pyarrow")
    )


def test_minhash_lsh_finds_near_dups(ray_session, sf_dir):
    corpus = _mutated_corpus(ray_session, sf_dir)
    cand = dedup.minhash_lsh_candidates(corpus).to_pandas()
    # every (i, i+10k) mutated pair should be a candidate
    mut = cand[cand["id_b"] - cand["id_a"] == 10_000]
    assert len(mut) >= 0.9 * 200
    verified = dedup.verify_candidates_jaccard(
        corpus, ray.data.from_pandas(cand[["id_a", "id_b"]]), threshold=0.7
    ).to_pandas()
    v = verified[verified["id_b"] - verified["id_a"] == 10_000]
    assert len(v) >= 0.9 * 200
    assert (verified["jaccard"] >= 0.7).all()


def test_verify_jaccard_matches_per_pair_oracle(ray_session, sf_dir):
    """Distributed shingle-set Jaccard == per-pair Python ngram_jaccard on
    the same texts (hash-set vs tuple-set equivalence)."""
    corpus = _mutated_corpus(ray_session, sf_dir, n_rows=30)
    texts = {r["doc_id"]: r["text"] for r in corpus.take_all()}
    ids = sorted(texts)[:20]
    import pandas as pd

    pairs = pd.DataFrame(
        {"id_a": ids[:-1], "id_b": ids[1:]}
    )
    got = (
        dedup.verify_candidates_jaccard(
            corpus, ray.data.from_pandas(pairs), threshold=0.0
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(pairs)
    for _, row in got.iterrows():
        expect = dedup.ngram_jaccard(texts[row["id_a"]], texts[row["id_b"]])
        assert abs(row["jaccard"] - expect) < 1e-12


def test_simhash_near_dups(ray_session, sf_dir):
    corpus = _mutated_corpus(ray_session, sf_dir)
    pairs = dedup.simhash_near_duplicates(corpus, max_hamming=3).to_pandas()
    mut = pairs[pairs["id_b"] - pairs["id_a"] == 10_000]
    assert len(mut) >= 0.5 * 200  # simhash is coarser than minhash
    assert (pairs["hamming"] <= 3).all()


def test_simhash_md5_signature_matches_duckdb(sf_dir):
    """hash="md5" simhash signatures are bit-for-bit reproducible in
    DuckDB (md5_number_lower per token + ±1 bit-sum sign algebra) — the
    basis of the simhash_dedup SQL oracle."""
    import duckdb
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sig_py = dedup.simhash_signatures(t["text"], hash="md5")
    con = duckdb.connect()
    con.register("documents", t)
    df = con.execute(
        "WITH toks AS (SELECT doc_id, unnest(list_filter("
        r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
        "FROM documents), "
        "th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks), "
        "bits AS (SELECT doc_id, b, "
        "SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS s "
        "FROM th, range(64) r(b) GROUP BY doc_id, b) "
        "SELECT doc_id, SUM(CASE WHEN s > 0 THEN (1::UBIGINT << b) "
        "ELSE 0::UBIGINT END)::UBIGINT AS sig FROM bits GROUP BY doc_id "
        "ORDER BY doc_id"
    ).df()
    order = np.argsort(t["doc_id"].to_numpy())
    assert (sig_py[order] == df["sig"].to_numpy().astype(np.uint64)).all()


def test_simhash_md5_pairs_exact_recall(ray_session, sf_dir):
    """At max_hamming=3 the 4×16-bit banding recall is exactly 1.0
    (pigeonhole), so the pair set equals the all-pairs brute force."""
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.slice(0, 120)
    corpus = ray.data.from_arrow(t).repartition(4)
    got = (
        dedup.simhash_near_duplicates(corpus, max_hamming=3, hash="md5")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    sig = dedup.simhash_signatures(t["text"], hash="md5")
    ids = t["doc_id"].to_numpy()
    ia, ib = np.triu_indices(len(ids), k=1)
    d = dedup.hamming64(sig[ia], sig[ib])
    ok = d <= 3
    lo = np.minimum(ids[ia][ok], ids[ib][ok])
    hi = np.maximum(ids[ia][ok], ids[ib][ok])
    exp = sorted(zip(lo, hi))
    assert list(zip(got["id_a"], got["id_b"])) == exp
    assert not got["truncated"].any()


def test_minhash_signature_determinism():
    a = pa.array(["the quick brown fox jumps over the lazy dog"] * 2 + ["other words here entirely"])
    s1, h1 = dedup.minhash_signatures(a)
    s2, h2 = dedup.minhash_signatures(a)
    assert (s1 == s2).all() and (h1 == h2).all()
    assert (s1[0] == s1[1]).all()  # identical docs → identical signatures
    assert (s1[0] != s1[2]).any()


def test_knn_vs_numpy(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    ids = full["vec_id"].to_numpy()
    out = (
        similarity.knn_brute_force(ds, query_ids=[0, 1, 2], k=5)
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    for q in [0, 1, 2]:
        qi = np.flatnonzero(ids == q)[0]
        s = M[qi] @ M.T
        s[qi] = -np.inf
        order = np.lexsort((ids, -s))[:5]
        exp = ids[order].tolist()
        got = out[out["query_id"] == q]["neighbor_id"].tolist()
        assert got == exp, (q, got, exp)


def test_embedding_near_duplicates(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    got = similarity.embedding_near_duplicates(ds, threshold=0.45).to_pandas()
    full = ds.to_pandas()
    M = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = M @ M.T
    ids = full["vec_id"].to_numpy()
    r, c = np.nonzero(S >= 0.45)
    exp = {(ids[i], ids[j]) for i, j in zip(r, c) if ids[i] < ids[j]}
    assert set(zip(got["id_a"], got["id_b"])) == exp
    assert len(exp) > 0


def test_ivf_near_duplicates_recall(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    exact = similarity.embedding_near_duplicates(ds, threshold=0.4).to_pandas()
    ivf = similarity.ivf_near_duplicates(ds, threshold=0.4, n_clusters=8).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    ivf_pairs = set(zip(ivf["id_a"], ivf["id_b"]))
    assert ivf_pairs <= exact_pairs  # no false positives
    if exact_pairs:
        assert len(ivf_pairs) / len(exact_pairs) >= 0.5  # 2-probe recall


def test_sample_per_key_exact(ray_session, monkeypatch):
    """Per-key cap: kept rows are exactly the n smallest order values
    per key (pandas oracle), null keys dropped, stable across widths."""
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.sampling import sample_per_key

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 40, 2000).astype("float64"),
            "oid": np.arange(2000, dtype="int64"),
        }
    )
    df.loc[df.index % 17 == 0, "k"] = np.nan
    exp = (
        df.dropna(subset=["k"])
        .sort_values(["k", "oid"])
        .groupby("k", sort=False)
        .head(5)
        .sort_values("oid")
        .reset_index(drop=True)[["k", "oid"]]
    )
    for width in (2, 16):
        monkeypatch.setenv(exchange.ENV_VAR, str(width))
        got = (
            sample_per_key(rd.from_pandas(df).repartition(6), "k", 5, "oid")
            .to_pandas()
            .sort_values("oid")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["k", "oid"]], exp, check_dtype=False)


def test_deterministic_fraction(ray_session):
    import ray.data as rd

    from data_linter_ray.functions.sampling import deterministic_fraction

    ds = rd.range(1000).map_batches(
        lambda t: pa.table({"id": t["id"]}), batch_format="pyarrow"
    )
    # power-of-two and general denominators
    got8 = deterministic_fraction(ds, "id", 3, 8).to_pandas()
    assert len(got8) == 375 and (got8["id"] % 8 < 3).all()
    got10 = deterministic_fraction(ds, "id", 3, 10).to_pandas()
    assert len(got10) == 300 and (got10["id"] % 10 < 3).all()


def test_normalize_text_matches_duckdb(ray_session):
    """NFC + whitespace collapse + trim + control strip — byte-exact vs
    DuckDB on adversarial inputs (combining chars, tabs, NULs, nulls)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.text import normalize_text

    vals = [
        "café  x",       # combining acute → NFC é
        "  a\t\tb\n\nc  ",
        "a\x00b\x07c",
        "",
        None,
        "already clean",
        "é́ mixed",  # é + extra combining mark
    ]
    df = pd.DataFrame({"doc_id": range(len(vals)), "text": pd.array(vals, dtype="string")})
    got = (
        normalize_text(rd.from_pandas(df), keep_cols=["doc_id"])
        .to_pandas()
        .sort_values("doc_id")["text_norm"]
        .tolist()
    )
    exp = duckdb.sql(
        "SELECT regexp_replace(trim(regexp_replace("
        r"nfc_normalize(text), '\s+', ' ', 'g')), "
        "'[[:cntrl:]]', '', 'g') FROM df ORDER BY doc_id"
    ).fetchall()
    assert got == [r[0] for r in exp]


def test_token_doc_frequency_exact(ray_session, monkeypatch):
    """Two-level df count == a pandas per-doc-distinct oracle, invariant
    across input partitionings and exchange widths."""
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.text import token_doc_frequency

    docs = [
        "the cat sat on the mat",
        "the dog SAT. the dog!",
        "",
        "cat cat cat",
        None,
    ]
    df = pd.DataFrame({"text": pd.array(docs, dtype="string")})
    import re

    exp: dict = {}
    for d in docs:
        if not d:
            continue
        for tok in {t for t in re.split(r"\W+", d.lower().strip()) if t}:
            exp[tok] = exp.get(tok, 0) + 1
    for width in (2, 8):
        monkeypatch.setenv(exchange.ENV_VAR, str(width))
        got = (
            token_doc_frequency(rd.from_pandas(df).repartition(3))
            .to_pandas()
        )
        assert dict(zip(got["token"], got["df"])) == exp, width


def test_duplicate_sentences_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.text import duplicate_sentences

    docs = [
        "the cat sat. the dog ran. unique one",
        "the cat sat. something else. the dog ran",
        "the cat sat. the cat sat. solo line",   # repeat WITHIN one doc counts once
        "totally different text",
    ]
    ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(3)
    got = duplicate_sentences(ds, min_docs=2).to_pandas()
    assert dict(zip(got["sentence"], got["n_docs"])) == {
        "the cat sat": 3,
        "the dog ran": 2,
    }


def test_quantize_embeddings_roundtrip(ray_session):
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.similarity import quantize_embeddings

    rng = np.random.RandomState(4)
    emb = [rng.randn(16).tolist() for _ in range(100)] + [[0.0] * 16]
    ds = rd.from_pandas(pd.DataFrame({"vec_id": range(101), "embedding": emb}))
    q = quantize_embeddings(ds).to_pandas().sort_values("vec_id").reset_index(drop=True)
    for i in (0, 50, 100):
        orig = np.asarray(emb[i])
        qv = np.asarray(q["embedding_q8"].iloc[i], dtype=np.float64)
        s = q["q_scale"].iloc[i]
        recon = qv / 127.0 * s
        assert np.abs(recon - orig).max() <= s / 127.0 / 2 + 1e-12
        assert np.abs(qv).max() <= 127
    assert q["q_scale"].iloc[100] == 1.0  # zero vector convention


def test_group_topk_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.sampling import group_topk

    rng = np.random.RandomState(3)
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 10, 500),
            "v": rng.randint(0, 50, 500),  # ties guaranteed
            "oid": np.arange(500),
        }
    )
    exp = (
        df.sort_values(["k", "v", "oid"], ascending=[True, False, True])
        .groupby("k", sort=False)
        .head(4)
        .sort_values("oid")
        .reset_index(drop=True)
    )
    got = (
        group_topk(
            rd.from_pandas(df).repartition(5), "k", "v", 4, tie_col="oid"
        )
        .to_pandas()
        .sort_values("oid")
        .reset_index(drop=True)
    )
    import pandas.testing as pdt

    pdt.assert_frame_equal(got[["k", "oid", "v"]], exp[["k", "oid", "v"]], check_dtype=False)


def test_histogram_exact(ray_session):
    import ray.data as rd

    from data_linter_ray.functions.profile import histogram

    rng = np.random.RandomState(9)
    vals = np.concatenate([rng.uniform(-10, 110, 5000), [np.nan] * 10])
    import pandas as pd

    ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(7)
    got = histogram(ds, "x", lo=0.0, hi=100.0, bins=10).to_pandas()
    clean = vals[~np.isnan(vals)]
    idx = np.clip(((clean - 0.0) / 10.0).astype(np.int64), 0, 9)
    exp = np.bincount(idx, minlength=10)
    assert dict(zip(got["bin"], got["n"])) == {
        b: int(n) for b, n in enumerate(exp) if n > 0
    }


def test_top_values_exact(ray_session, monkeypatch):
    """Exact top-k heavy hitters: matches a pandas value_counts oracle,
    including count-tie break by value asc, at two exchange widths."""
    import pandas as pd
    import ray.data as rd

    from data_linter_ray.functions.profile import top_values

    rng = np.random.RandomState(5)
    vals = rng.zipf(1.5, 5000) % 97  # skewed, with ties
    df = pd.DataFrame({"v": vals.astype("int64")})
    exp = (
        df["v"].value_counts().rename_axis("value").reset_index(name="n")
        .sort_values(["n", "value"], ascending=[False, True])
        .head(7)
        .reset_index(drop=True)
    )
    for width in (2, 16):
        monkeypatch.setenv(exchange.ENV_VAR, str(width))
        got = top_values(rd.from_pandas(df).repartition(8), "v", k=7).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_dedup_components_driver_vs_distributed(ray_session):
    """Both component paths agree: component_id = min id in the
    connected component, nodes = ids appearing in ≥1 pair."""
    import ray.data as rd

    pairs = rd.from_items(
        [
            {"id_a": 1, "id_b": 2},
            {"id_a": 2, "id_b": 3},
            {"id_a": 10, "id_b": 11},
            {"id_a": 20, "id_b": 21},
            {"id_a": 21, "id_b": 22},
            {"id_a": 22, "id_b": 23},
            {"id_a": 1, "id_b": 2},  # duplicate pair must be harmless
        ]
    )
    exp = {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20, 23: 20}
    for mode in ("driver", "distributed"):
        got = dedup.dedup_components(pairs, mode=mode).to_pandas()
        assert dict(zip(got["doc_id"], got["component_id"])) == exp, mode


def test_dedup_components_chain_converges(ray_session):
    """A diameter-9 chain needs several hash-min rounds — exercises the
    iterative fixpoint (labels stop decreasing), not just one join."""
    import ray.data as rd

    pairs = rd.from_items([{"id_a": i, "id_b": i + 1} for i in range(9)])
    got = dedup.dedup_components(pairs, mode="distributed").to_pandas()
    assert set(got["component_id"]) == {0}
    assert len(got) == 10


def test_drop_near_duplicates(ray_session):
    """Corpus filter keeps component survivors (min id) and all unpaired
    rows, drops every non-minimal group member."""
    import ray.data as rd

    corpus = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in (1, 2, 3, 10, 11, 50)]
    )
    pairs = rd.from_items(
        [{"id_a": 1, "id_b": 2}, {"id_a": 2, "id_b": 3}, {"id_a": 10, "id_b": 11}]
    )
    comps = dedup.dedup_components(pairs)
    kept = dedup.drop_near_duplicates(corpus, comps).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 10, 50]


def test_drop_near_duplicates_shuffle_path_parity(ray_session, monkeypatch):
    """Above BROADCAST_DROP_THRESHOLD the survivor filter switches to
    the co-partitioned anti-exchange — identical kept set."""
    import ray.data as rd

    corpus = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(200)]
    )
    pairs = rd.from_items(
        [{"id_a": i, "id_b": i + 100} for i in range(50)]
    )
    comps = dedup.dedup_components(pairs)
    broad = dedup.drop_near_duplicates(corpus, comps).to_pandas()
    monkeypatch.setattr(dedup, "BROADCAST_DROP_THRESHOLD", 0)
    shuffled = dedup.drop_near_duplicates(corpus, comps).to_pandas()
    assert sorted(broad["doc_id"]) == sorted(shuffled["doc_id"])
    assert len(broad) == 150  # ids 100-149 dropped
    assert sorted(broad.columns) == sorted(shuffled.columns)


def test_drop_near_duplicates_threshold_boundary_heavy_dup(ray_session, monkeypatch):
    """Heavy-dup corpus (80% of rows are losers) with string doc ids,
    pinned exactly at the broadcast/exchange boundary: n_losers equal to
    the threshold takes the broadcast path, one less than n_losers takes
    the co-partition path; both keep the identical survivor set."""
    import ray.data as rd

    n = 500
    # 100 groups of 5 near-identical docs -> survivor = lexicographic min id
    corpus = rd.from_items(
        [{"doc_id": f"doc-{i:05d}", "text": f"g{i % 100}"} for i in range(n)]
    )
    pairs = rd.from_items(
        [
            {"id_a": f"doc-{g:05d}", "id_b": f"doc-{g + 100 * k:05d}"}
            for g in range(100)
            for k in range(1, 5)
        ]
    )
    comps = dedup.dedup_components(pairs)
    n_losers = 400

    monkeypatch.setattr(dedup, "BROADCAST_DROP_THRESHOLD", n_losers)
    broad = dedup.drop_near_duplicates(corpus, comps).to_pandas()
    monkeypatch.setattr(dedup, "BROADCAST_DROP_THRESHOLD", n_losers - 1)
    shuffled = dedup.drop_near_duplicates(corpus, comps).to_pandas()

    expect = sorted(f"doc-{g:05d}" for g in range(100))
    assert sorted(broad["doc_id"]) == expect
    assert sorted(shuffled["doc_id"]) == expect
    assert sorted(broad.columns) == sorted(shuffled.columns)


def test_near_dup_truncated_flag(ray_session):
    """Oversized IVF clusters / LSH buckets must NOT cap silently: every
    emitted pair carries the ``truncated`` flag (True when its bucket
    was size-capped), mirroring the minhash contract."""
    import ray.data as rd

    rng = np.random.RandomState(0)
    base = rng.randn(8).astype(np.float64)
    # 60 near-identical vectors → one hot cluster / one hot LSH bucket
    rows = [
        {"vec_id": i, "embedding": (base + rng.randn(8) * 0.01).tolist()}
        for i in range(60)
    ]
    ds = rd.from_items(rows)
    ivf = similarity.ivf_near_duplicates(
        ds, threshold=0.9, n_clusters=2, max_bucket=16
    ).to_pandas()
    assert "truncated" in ivf.columns
    assert len(ivf) > 0 and ivf["truncated"].all()
    lsh = similarity.rp_lsh_near_duplicates(
        ds, threshold=0.9, max_bucket=16
    ).to_pandas()
    assert "truncated" in lsh.columns
    assert len(lsh) > 0 and lsh["truncated"].all()
    # an un-capped run reports truncated=False everywhere
    ok = similarity.ivf_near_duplicates(
        ds, threshold=0.9, n_clusters=2, max_bucket=4096
    ).to_pandas()
    assert not ok["truncated"].any()
    assert len(ok) >= len(ivf)


def test_verify_candidates_cosine_join_path_parity(ray_session, sf_dir, monkeypatch):
    """Above BROADCAST_EMB_THRESHOLD the verifier switches to two hash
    joins — same verified pair set as the broadcast path."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    broad = similarity.rp_lsh_near_duplicates(ds, threshold=0.4).to_pandas()
    monkeypatch.setattr(similarity, "BROADCAST_EMB_THRESHOLD", 0)
    joined = similarity.rp_lsh_near_duplicates(ds, threshold=0.4).to_pandas()
    assert set(zip(broad["id_a"], broad["id_b"])) == set(
        zip(joined["id_a"], joined["id_b"])
    )
    assert len(broad) > 0


def test_ivf_n_probe_knob(ray_session, sf_dir):
    """n_probe=1 must be a subset of n_probe=3 (more probes → more
    boundary candidates), and both subsets of exact."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    exact = similarity.embedding_near_duplicates(ds, threshold=0.4).to_pandas()
    p1 = similarity.ivf_near_duplicates(
        ds, threshold=0.4, n_clusters=8, n_probe=1
    ).to_pandas()
    p3 = similarity.ivf_near_duplicates(
        ds, threshold=0.4, n_clusters=8, n_probe=3
    ).to_pandas()
    s1 = set(zip(p1["id_a"], p1["id_b"]))
    s3 = set(zip(p3["id_a"], p3["id_b"]))
    se = set(zip(exact["id_a"], exact["id_b"]))
    assert s1 <= s3 <= se
    with pytest.raises(ValueError):
        similarity.ivf_near_duplicates(ds, n_clusters=8, n_probe=0)


def test_embedding_near_dups_auto_routes_to_ivf(ray_session, sf_dir, monkeypatch):
    """Above BROADCAST_CORPUS_THRESHOLD, mode='auto' takes the IVF path —
    no driver-side corpus materialization, no O(n²) matmul. Exercised on
    a 10× corpus (id-shifted copies so near-dup structure is preserved)."""
    base = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    n = base.count()

    def shift(k):
        def f(t: pa.Table) -> pa.Table:
            return t.set_column(
                t.schema.get_field_index("vec_id"),
                "vec_id",
                pc.add(t["vec_id"], 100_000 * k),
            )

        return f

    big = base
    for k in range(1, 10):
        big = big.union(base.map_batches(shift(k), batch_format="pyarrow"))
    monkeypatch.setattr(similarity, "BROADCAST_CORPUS_THRESHOLD", n)

    # route check: broadcast would materialize the corpus on the driver —
    # poison to_pandas on the input to prove IVF never calls it
    got = similarity.embedding_near_duplicates(
        big, threshold=0.4, n_clusters=8
    ).to_pandas()
    assert len(got) > 0
    # every within-replica pair from the base corpus may appear; verify a
    # sampled subset against exact cosine on the base replica
    exact = similarity.embedding_near_duplicates(
        base, threshold=0.4, mode="broadcast"
    ).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    rep0 = got[(got["id_a"] < 100_000) & (got["id_b"] < 100_000)]
    assert set(zip(rep0["id_a"], rep0["id_b"])) <= exact_pairs


def test_embedding_near_dups_auto_small_is_exact(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    auto = similarity.embedding_near_duplicates(ds, threshold=0.45).to_pandas()
    exact = similarity.embedding_near_duplicates(
        ds, threshold=0.45, mode="broadcast"
    ).to_pandas()
    key = lambda df: set(zip(df["id_a"], df["id_b"]))
    assert key(auto) == key(exact)


def test_modp_fingerprints_vs_duckdb(docs, sf_dir):
    import duckdb

    got = (
        text.with_modp_fingerprints(docs)
        .to_pandas()
        .sort_values(["doc_id", "fp"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "WITH toks AS (SELECT doc_id, list_filter("
        r"regexp_split_to_array(lower(trim(text)), '\W+'), x -> x <> '') AS tk "
        f"FROM read_parquet('{sf_dir}/documents.parquet')), "
        "grams AS (SELECT doc_id, unnest(CASE WHEN len(tk)>=3 "
        "THEN list_transform(generate_series(1,len(tk)-2), "
        "i -> tk[i]||chr(31)||tk[i+1]||chr(31)||tk[i+2]) ELSE [] END) AS g FROM toks), "
        "h AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS hv FROM grams) "
        "SELECT doc_id, lpad(lower(to_hex(hv)),16,'0') AS fp FROM h "
        "WHERE hv % 8 = 0 ORDER BY doc_id, fp"
    ).df()
    assert len(got) == len(exp)
    assert (got["fp"] == exp["fp"]).all() and (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()


def test_winnow_fingerprints_vs_naive(docs):
    """Vectorized winnowing == the SIGMOD-2003 definition run naively
    (rightmost-min per window, deduped positions)."""
    import hashlib
    import re

    import pandas as pd

    sub = docs.limit(40).to_pandas()
    got = (
        text.with_winnow_fingerprints(ray.data.from_pandas(sub))
        .to_pandas()
        .groupby("doc_id")["fp"]
        .apply(set)
    )

    def naive(s, k=5, w=4):
        toks = [x for x in re.split(r"\W+", s.lower().strip()) if x]
        grams = ["\x1f".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
        hs = [
            int(np.frombuffer(hashlib.md5(g.encode()).digest(), "<u8")[1])
            for g in grams
        ]
        if not hs:
            return set()
        sel = set()
        if len(hs) >= w:
            for i in range(len(hs) - w + 1):
                win = hs[i : i + w]
                m = min(win)
                sel.add(i + max(j for j, v in enumerate(win) if v == m))
        else:
            m = min(hs)
            sel.add(max(i for i, v in enumerate(hs) if v == m))
        return {f"{hs[p]:016x}" for p in sel}

    for _, row in sub.iterrows():
        assert got.get(row["doc_id"], set()) == naive(row["text"]), row["doc_id"]


def test_asof_join_matches_pandas(ray_session):
    """Distributed as-of join == pandas merge_asof on a quotes/trades
    style fixture, both directions, across the hash-partition exchange."""
    import pandas as pd

    from data_linter_ray.functions.timeseries import asof_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame(
        {"ts": rng.randint(0, 1000, 500), "k": rng.randint(0, 7, 500), "lx": np.arange(500)}
    )
    right = pd.DataFrame(
        {
            "ts": np.repeat(np.arange(0, 1000, 10), 7),
            "k": np.tile(np.arange(7), 100),
            "price": rng.rand(700),
        }
    )
    for direction in ["backward", "forward"]:
        got = (
            asof_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                on="ts",
                by="k",
                direction=direction,
            )
            .to_pandas()
            .sort_values(["k", "ts", "lx"])
            .reset_index(drop=True)
        )
        exp = pd.merge_asof(
            left.sort_values("ts", kind="stable"),
            right.sort_values("ts", kind="stable"),
            on="ts",
            by="k",
            direction=direction,
        ).sort_values(["k", "ts", "lx"]).reset_index(drop=True)[got.columns]
        assert got.equals(exp), direction


def test_range_join_matches_pandas(ray_session):
    from data_linter_ray.functions.timeseries import range_join

    import pandas as pd

    rng = np.random.RandomState(5)
    left = pd.DataFrame(
        {"ts": rng.randint(0, 1000, 400), "k": rng.randint(0, 5, 400), "lx": np.arange(400)}
    )
    starts = rng.randint(0, 900, 60)
    right = pd.DataFrame(
        {"s": starts, "e": starts + rng.randint(10, 120, 60), "k": rng.randint(0, 5, 60), "rid": np.arange(60)}
    )
    got = (
        range_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            left_time="ts",
            right_start="s",
            right_end="e",
            by="k",
        )
        .to_pandas()
        .sort_values(["k", "lx", "rid"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k")
    exp = exp[(exp["s"] <= exp["ts"]) & (exp["ts"] <= exp["e"])].sort_values(
        ["k", "lx", "rid"]
    ).reset_index(drop=True)[got.columns]
    assert len(got) > 0
    assert got.equals(exp)


def test_rp_lsh_near_duplicates(ray_session, sf_dir):
    """Random-hyperplane LSH: no false positives (exact cosine verify)
    and reasonable recall vs the exact broadcast pairs."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    exact = similarity.embedding_near_duplicates(
        ds, threshold=0.4, mode="broadcast"
    ).to_pandas()
    lsh = similarity.rp_lsh_near_duplicates(ds, threshold=0.4).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    lsh_pairs = set(zip(lsh["id_a"], lsh["id_b"]))
    assert lsh_pairs <= exact_pairs  # verified → no false positives
    if exact_pairs:
        assert len(lsh_pairs) / len(exact_pairs) >= 0.5  # banded recall


def test_sessionize_matches_pandas(ray_session):
    import pandas as pd

    from data_linter_ray.functions.timeseries import sessionize

    rng = np.random.RandomState(9)
    df = pd.DataFrame(
        {
            "ts": rng.randint(0, 100_000, 2000),
            "k": rng.randint(0, 11, 2000),
        }
    )
    got = (
        sessionize(ray.data.from_pandas(df), time_col="ts", by="k", gap=500)
        .to_pandas()
        .sort_values(["k", "session_start"])
        .reset_index(drop=True)
    )
    # naive reference: per key, sort, split on gaps > 500
    rows = []
    for k, sub in df.groupby("k"):
        ts = np.sort(sub["ts"].to_numpy())
        brk = np.flatnonzero(np.diff(ts) > 500) + 1
        for seg in np.split(ts, brk):
            rows.append({"k": k, "session_start": seg[0], "session_end": seg[-1], "n_rows": len(seg)})
    exp = pd.DataFrame(rows).sort_values(["k", "session_start"]).reset_index(drop=True)
    assert got[["k", "session_start", "session_end", "n_rows"]].astype("int64").equals(
        exp.astype("int64")
    )


def test_profile_dataset(ray_session, sf_dir):
    """One-pass profile: exact n/nulls/min/max (native-type folding) and
    HLL distinct within tolerance of the exact count."""
    import duckdb

    from data_linter_ray.functions.profile import profile_dataset

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    out = profile_dataset(ds, ["event_id", "user_id", "value", "event_type"]).to_pandas().set_index("column")
    exact = duckdb.sql(
        "SELECT count(*) AS n, count(DISTINCT user_id) AS du, "
        "min(value) AS mv, max(value) AS xv, min(user_id) AS mu "
        f"FROM read_parquet('{sf_dir}/events.parquet')"
    ).df().iloc[0]
    assert (out["n"] == exact["n"]).all()
    assert out.loc["value", "min_str"] == str(exact["mv"])
    assert out.loc["value", "max_str"] == str(exact["xv"])
    # native-type folding: numeric min, not lexicographic
    assert out.loc["user_id", "min_str"] == str(int(exact["mu"]))
    est = out.loc["user_id", "approx_distinct"]
    assert abs(est - exact["du"]) / exact["du"] < 0.05


def test_asof_join_num_partitions(ray_session, monkeypatch):
    """Results are invariant to the exchange width (set by the env var)."""
    import pandas as pd

    from data_linter_ray.functions.timeseries import asof_join

    rng = np.random.RandomState(4)
    left = pd.DataFrame({"ts": rng.randint(0, 500, 200), "k": rng.randint(0, 5, 200), "lx": np.arange(200)})
    right = pd.DataFrame({"ts": np.arange(0, 500, 25).repeat(5), "k": np.tile(np.arange(5), 20), "p": np.arange(100)})
    outs = []
    for P in (4, 64):
        monkeypatch.setenv(exchange.ENV_VAR, str(P))
        outs.append(
            asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                      on="ts", by="k")
            .to_pandas().sort_values(["k", "ts", "lx"]).reset_index(drop=True)
        )
    assert outs[0].equals(outs[1])


def test_asof_join_property(ray_session):
    """Property test: random small frames (incl. empty sides, duplicate
    left times, singleton keys) always match pandas merge_asof."""
    import pandas as pd

    from data_linter_ray.functions.timeseries import asof_join

    rng = np.random.RandomState(12)
    for trial in range(8):
        nl, nr = rng.randint(0, 40), rng.randint(0, 40)
        left = pd.DataFrame(
            {"ts": rng.randint(0, 50, nl), "k": rng.randint(0, 3, nl), "lx": np.arange(nl)}
        )
        right = pd.DataFrame(
            {
                "ts": np.sort(rng.choice(50, size=nr, replace=False)) if nr else np.array([], dtype=int),
                "k": rng.randint(0, 3, nr),
                "p": np.arange(nr),
            }
        )
        if nl == 0:
            continue  # ray from_pandas on empty frame: degenerate, skip
        got = (
            asof_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right if nr else right.astype({"ts": "int64", "k": "int64", "p": "int64"})),
                on="ts",
                by="k",
            )
            .to_pandas()
            .sort_values(["k", "ts", "lx"])
            .reset_index(drop=True)
        ) if nr else None
        if got is None:
            continue
        exp = pd.merge_asof(
            left.sort_values("ts", kind="stable"),
            right.sort_values("ts", kind="stable"),
            on="ts",
            by="k",
        ).sort_values(["k", "ts", "lx"]).reset_index(drop=True)[got.columns]
        # documented contract: right payload ints are pinned to float64
        # (nullable under left-outer semantics) even when every row
        # matched — pandas keeps int64 in that case
        exp["p"] = exp["p"].astype("float64")
        assert got.equals(exp), f"trial {trial}"


def test_modp_fast_mode_matches_scalar_reference(docs):
    """hash="fast" (production path, zero per-gram Python) == a scalar
    re-composition of the same primitives (token hash -> FNV roll ->
    splitmix), selection semantics identical to the md5 mode."""
    import re

    import pyarrow as pa

    from data_linter_ray.functions.dedup import _splitmix
    from data_linter_ray.state.sketches import hash_array

    sub = docs.limit(30).to_pandas()
    got = (
        text.with_modp_fingerprints(ray.data.from_pandas(sub), hash="fast")
        .to_pandas()
        .groupby("doc_id")["fp"]
        .apply(set)
    )

    def naive(s, k=3, p=8):
        toks = [x for x in re.split(r"\W+", s.lower().strip()) if x]
        if len(toks) < k:
            return set()
        th = hash_array(pa.array(toks, pa.string()))
        A = np.uint64(0x100000001B3)
        out = set()
        with np.errstate(over="ignore"):
            for i in range(len(toks) - k + 1):
                g = np.uint64(0)
                for j in range(k):
                    g = g * A + th[i + j]
                h = int(_splitmix(np.array([g], dtype=np.uint64))[0])
                if h % p == 0:
                    out.add(f"{h:016x}")
        return out

    for _, row in sub.iterrows():
        assert got.get(row["doc_id"], set()) == naive(row["text"]), row["doc_id"]


def test_winnow_fast_mode_runs_and_dedupes(docs):
    """Winnowing in fast mode: selected fingerprints are a subset of the
    doc's gram hashes, distinct per doc, and every doc with >= k tokens
    yields at least one fingerprint."""
    sub = docs.limit(20).to_pandas()
    out = (
        text.with_winnow_fingerprints(ray.data.from_pandas(sub), hash="fast")
        .to_pandas()
    )
    assert out["fp"].str.fullmatch("[0-9a-f]{16}").all()
    assert not out.duplicated(["doc_id", "fp"]).any()
    n_tokens = sub["text"].str.lower().str.strip().str.split(r"\W+").map(
        lambda t: len([x for x in t if x])
    )
    covered = set(out["doc_id"])
    for did, n in zip(sub["doc_id"], n_tokens):
        if n >= 5:
            assert did in covered


def test_clean_lines_c4_rules(ray_session):
    """Line-keep rules: terminal punctuation required, ≥3 words,
    blocklist phrases dropped (case-insensitive), doc dropped when no
    line survives; counts account for every input line."""
    import ray.data as rd

    from data_linter_ray.functions import text as T

    ds = rd.from_items(
        [
            {"doc_id": "a", "text": "good line one here.\nok go.\n"
                                     "LOREM IPSUM dolor sit amet.\n"
                                     "ends without punct words"},
            {"doc_id": "b", "text": "only bad.\nx y"},
            {"doc_id": "c", "text": 'keep this line fine!\nand "this quoted one"'},
            {"doc_id": "d", "text": "enable javascript to continue here."},
        ]
    )
    out = T.clean_lines(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == ["a", "c"]  # b, d fully dropped
    assert out.loc[0, "text_clean"] == "good line one here."
    assert (out.loc[0, "n_kept"], out.loc[0, "n_dropped"]) == (1, 3)
    assert out.loc[1, "text_clean"] == 'keep this line fine!\nand "this quoted one"'
    assert (out.loc[1, "n_kept"], out.loc[1, "n_dropped"]) == (2, 0)
    # punctuation rule can be relaxed
    relaxed = T.clean_lines(ds, require_terminal_punct=False).to_pandas()
    a = relaxed[relaxed["doc_id"] == "a"].iloc[0]
    assert a["n_kept"] == 2  # the unpunctuated 4-word line now survives


def test_clean_lines_blocklist_regex_metachars(ray_session):
    """Blocklist phrases are LITERAL substrings: regex metacharacters
    ('c++', '(ad)') must not change matching semantics or error."""
    import ray.data as rd

    from data_linter_ray.functions import text as T

    ds = rd.from_items(
        [
            {"doc_id": "a", "text": "we write c++ code every day."},
            {"doc_id": "b", "text": "plain happy line stays here."},
            {"doc_id": "c", "text": "this has (ad) inside it ok."},
            # 'cxx' must NOT match blocklist entry 'c++' (regex would)
            {"doc_id": "d", "text": "we write cxx code every day."},
        ]
    )
    out = (
        T.clean_lines(ds, blocklist=("c++", "(ad)"))
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == ["b", "d"]


def test_drop_near_duplicates_zero_losers(ray_session):
    """Components with no non-minimal members (every doc is its own
    survivor) leave the corpus untouched — no empty-concat crash in the
    broadcast path."""
    import ray.data as rd

    corpus = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(5)]
    )
    comps = rd.from_items(
        [{"doc_id": i, "component_id": i} for i in range(5)]
    )
    kept = dedup.drop_near_duplicates(corpus, comps).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 1, 2, 3, 4]


def test_c4_clean_documents_vs_duckdb(ray_session, sf_dir):
    """The corpus query (deterministic line construction + C4 rules)
    matches its DuckDB oracle byte-for-byte."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    got = entrymod.queries()["c4_clean_documents"](sf_dir).to_pandas()
    exp = con.execute(entrymod.oracle_sql()["c4_clean_documents"]).df()
    got = got.sort_values("doc_id").reset_index(drop=True)
    exp = exp.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
