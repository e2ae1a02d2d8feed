"""Round-3 training-data operators: PII scan/redaction, sequence
packing (distributed prefix sum), benchmark decontamination, per-group
z-score outliers."""

import re

import numpy as np
import pyarrow as pa
import pytest

import ray


# ---------------------------------------------------------------------------
# PII
# ---------------------------------------------------------------------------


PII_TEXTS = [
    "mail me at alice@example.com or bob.smith+x@sub.domain.org thanks",
    "call 555-867-5309 or 555.123.4567 now",
    "host 10.0.0.1 and 192.168.1.255 down",
    "ssn 123-45-6789 leaked and 999-88-7777 too",
    "clean text with no pii at all",
    "",
    "mixed a@b.co plus 1.2.3.4 plus 111-22-3333 end",
]


def test_pii_counts_and_redaction_vs_duckdb(ray_session):
    import duckdb

    from data_linter_ray.functions.pii import (
        PII_PATTERNS,
        REDACT_ORDER,
        with_pii_counts,
        with_redaction,
    )

    t = pa.table({"doc_id": list(range(len(PII_TEXTS))), "text": PII_TEXTS})
    ds = ray.data.from_arrow(t)
    got = (
        with_redaction(with_pii_counts(ds))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    con = duckdb.connect()
    con.register("docs", t)
    count_cols = ", ".join(
        f"CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_{k}"
        for k, (pat, _) in PII_PATTERNS.items()
    )
    red = "text"
    for kind in REDACT_ORDER:
        pat, token = PII_PATTERNS[kind]
        red = f"regexp_replace({red}, '{pat}', '{token}', 'g')"
    exp = con.sql(
        f"SELECT doc_id, {count_cols}, {red} AS text_redacted "
        "FROM docs ORDER BY doc_id"
    ).df()

    for k in PII_PATTERNS:
        assert (got[f"n_{k}"].to_numpy() == exp[f"n_{k}"].to_numpy()).all(), k
    assert list(got["text_redacted"]) == list(exp["text_redacted"])
    total = sum(got[f"n_{k}"].to_numpy() for k in PII_PATTERNS)
    assert (got["has_pii"].to_numpy() == (total > 0)).all()


def test_pii_redaction_order_specific_first(ray_session):
    # an SSN-shaped local part inside an email must be claimed by the
    # email pattern (redacted first), not double-redacted
    from data_linter_ray.functions.pii import redact_table

    t = pa.table({"text": ["id 123-45-6789@example.com here"]})
    out = redact_table(t)["text_redacted"].to_pylist()
    assert out == ["id <EMAIL> here"]


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------


def test_pack_offsets_matches_window(ray_session, sf_dir):
    import duckdb

    from data_linter_ray.functions.packing import pack_offsets

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    got = (
        pack_offsets(ds, chunk=512, n_buckets=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "WITH t AS (SELECT doc_id, CAST(CASE WHEN trim(text) = '' THEN 0 ELSE "
        r"len(regexp_split_to_array(trim(text), '\s+')) END AS BIGINT) AS n_tokens "
        f"FROM read_parquet('{sf_dir}/documents.parquet')), "
        "w AS (SELECT doc_id, n_tokens, CAST(COALESCE(sum(n_tokens) OVER ("
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS BIGINT) AS start_offset FROM t) "
        "SELECT doc_id, n_tokens, start_offset, start_offset // 512 AS seq_id "
        "FROM w ORDER BY doc_id"
    ).df()
    assert len(got) == len(exp)
    for c in ["doc_id", "n_tokens", "start_offset", "seq_id"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    # global invariant: offsets partition the concatenated token stream
    assert got["start_offset"].iloc[-1] + got["n_tokens"].iloc[-1] == int(
        got["n_tokens"].sum()
    )


def test_pack_offsets_bucket_width_invariance(ray_session, sf_dir):
    # result is independent of the exchange width (pure function of input)
    from data_linter_ray.functions.packing import pack_offsets

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    a = pack_offsets(ds, chunk=64, n_buckets=2).to_pandas().sort_values("doc_id")
    b = pack_offsets(ds, chunk=64, n_buckets=37).to_pandas().sort_values("doc_id")
    assert (a["start_offset"].to_numpy() == b["start_offset"].to_numpy()).all()
    assert (a["seq_id"].to_numpy() == b["seq_id"].to_numpy()).all()


# ---------------------------------------------------------------------------
# decontamination
# ---------------------------------------------------------------------------


def _py_grams(s: str, n: int = 3) -> set:
    toks = [t for t in re.split(r"\W+", s.strip().lower()) if t]
    if len(toks) < n:
        return set()
    return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def test_flag_contaminated_vs_python(ray_session):
    from data_linter_ray.functions.decontam import flag_contaminated

    corpus_texts = [
        "the quick brown fox jumps over the lazy dog",
        "a completely different sentence about ray data engines",
        "question: the quick brown fox appears in this benchmark item",
        "short one",
        "lazy dog sleeps all day long under the warm sun",
        "",
    ]
    bench_texts = [
        "the quick brown fox jumps high",
        "under the warm sun we rest",
    ]
    bench_set = set().union(*[_py_grams(b) for b in bench_texts])
    expected = {
        i: len(_py_grams(t) & bench_set)
        for i, t in enumerate(corpus_texts)
        if _py_grams(t) & bench_set
    }
    assert expected  # the fixture must actually exercise overlap

    corpus = ray.data.from_arrow(
        pa.table({"doc_id": list(range(len(corpus_texts))), "text": corpus_texts})
    )
    bench = ray.data.from_arrow(
        pa.table({"doc_id": [0, 1], "text": bench_texts})
    )
    got = flag_contaminated(corpus, bench).to_pandas()
    assert dict(zip(got["doc_id"], got["n_shared"])) == expected


def test_flag_contaminated_empty_benchmark(ray_session):
    from data_linter_ray.functions.decontam import flag_contaminated

    corpus = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2], "text": ["some words here now", "other text"]})
    )
    bench = ray.data.from_arrow(pa.table({"doc_id": [9], "text": ["xy"]}))
    assert flag_contaminated(corpus, bench).count() == 0


# ---------------------------------------------------------------------------
# z-score outliers
# ---------------------------------------------------------------------------


def test_zscore_outliers_matches_pandas(ray_session):
    import pandas as pd

    from data_linter_ray.functions.outliers import group_moments, zscore_outliers

    rng = np.random.default_rng(7)
    n = 4000
    groups = np.array(["a", "b", "c"], object)[rng.integers(0, 3, n)]
    vals = rng.normal(50.0, 5.0, n)
    vals[:25] += 60.0  # unambiguous outliers
    groups[5] = None  # null key rows are excluded
    vals[7] = np.nan  # null value rows are excluded
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n)),
            "event_type": pa.array(groups, pa.string()),
            "value": pa.array(vals),
        }
    )
    ds = ray.data.from_arrow(t).repartition(5)

    got = (
        zscore_outliers(ds, "value", "event_type", z=3.0, keep_cols=["event_id"])
        .to_pandas()
        .sort_values("event_id")
    )

    df = t.to_pandas().dropna(subset=["event_type", "value"])
    stats = df.groupby("event_type")["value"].agg(
        mean="mean", std=lambda s: s.std(ddof=0)
    )
    j = df.join(stats, on="event_type")
    exp_ids = set(
        j.loc[(j["std"] > 0) & ((j["value"] - j["mean"]).abs() > 3.0 * j["std"]),
              "event_id"]
    )
    assert set(got["event_id"]) == exp_ids
    assert exp_ids  # fixture sanity: some outliers exist
    assert 5 not in set(got["event_id"]) and 7 not in set(got["event_id"])

    # moments themselves are exact vs pandas
    mom = group_moments(ds, "value", "event_type").set_index("event_type")
    for k in ["a", "b", "c"]:
        assert mom.loc[k, "mean"] == pytest.approx(stats.loc[k, "mean"], rel=1e-12)
        assert mom.loc[k, "std"] == pytest.approx(stats.loc[k, "std"], rel=1e-9)


def test_zscore_outliers_constant_group_emits_nothing(ray_session):
    from data_linter_ray.functions.outliers import zscore_outliers

    t = pa.table(
        {"g": ["x"] * 10, "v": [5.0] * 10, "event_id": list(range(10))}
    )
    out = zscore_outliers(
        ray.data.from_arrow(t), "v", "g", z=1.0, keep_cols=["event_id"]
    )
    assert out.count() == 0


# ---------------------------------------------------------------------------
# deterministic split assignment
# ---------------------------------------------------------------------------


def test_assign_split_matches_case_expr(ray_session, sf_dir):
    import duckdb

    from data_linter_ray.functions.sampling import assign_split

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    got = (
        assign_split(ds, "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "SELECT doc_id, CASE WHEN doc_id % 100 < 80 THEN 'train' "
        "WHEN doc_id % 100 < 90 THEN 'val' ELSE 'test' END AS split "
        f"FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
    ).df()
    assert list(got["split"]) == list(exp["split"])
    # custom weights + null ids dropped
    t = pa.table({"id": [0, 1, 2, 3, 4, 5, None]})
    out = (
        assign_split(ray.data.from_arrow(t), "id", splits=[("a", 2), ("b", 1)])
        .to_pandas()
        .sort_values("id")
    )
    assert list(out["split"]) == ["a", "a", "b", "a", "a", "b"]
    assert len(out) == 6


def test_assign_split_partitioning_invariant(ray_session, sf_dir):
    from data_linter_ray.functions.sampling import assign_split

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    a = assign_split(ds, "doc_id").to_pandas().sort_values("doc_id")
    b = (
        assign_split(ds.repartition(13), "doc_id")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(a["split"]) == list(b["split"])


# ---------------------------------------------------------------------------
# functional-dependency check
# ---------------------------------------------------------------------------


def test_fd_violations_exact(ray_session):
    from data_linter_ray.stages.fd import fd_violations

    t = pa.table(
        {
            "acct": ["a", "a", "a", "b", "b", "c", None, "d", "d"],
            "ccy": ["USD", "USD", "EUR", "GBP", "GBP", "JPY", "USD", None, "CHF"],
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    got = fd_violations(ds, "acct", "ccy").to_pandas().sort_values("acct")
    # 'a' → {USD, EUR}; 'b' single; 'c' single; null det excluded;
    # 'd' has a null dep (ignored) + CHF → single value
    assert list(got["acct"]) == ["a"]
    assert list(got["n_values"]) == [2]


def test_fd_violations_vs_duckdb(ray_session, sf_dir):
    import duckdb

    from data_linter_ray.stages.fd import fd_violations

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    got = (
        fd_violations(ds, "user_id", "event_type")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "SELECT user_id, count(DISTINCT event_type) AS n_values "
        f"FROM read_parquet('{sf_dir}/events.parquet') "
        "WHERE user_id IS NOT NULL AND event_type IS NOT NULL "
        "GROUP BY user_id HAVING count(DISTINCT event_type) > 1 ORDER BY user_id"
    ).df()
    assert (got["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
    assert (got["n_values"].to_numpy() == exp["n_values"].to_numpy()).all()


# ---------------------------------------------------------------------------
# global rank
# ---------------------------------------------------------------------------


def test_global_rank_matches_sql(ray_session, sf_dir):
    import duckdb

    from data_linter_ray.functions.ranking import global_rank

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    got = (
        global_rank(ds, "value", "event_id")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        'SELECT event_id, value, rank() OVER (ORDER BY value) AS "rank" '
        f"FROM read_parquet('{sf_dir}/events.parquet') "
        "WHERE value IS NOT NULL ORDER BY event_id"
    ).df()
    assert len(got) == len(exp)
    assert (got["rank"].to_numpy() == exp["rank"].to_numpy()).all()


def test_global_rank_all_null_column(ray_session):
    """An all-null value column has no min/max; its rows are dropped
    like the null rows of any column, leaving a typed empty result."""
    from data_linter_ray.functions.ranking import global_rank

    t = pa.table({"id": [1, 2, 3], "v": pa.array([None] * 3, pa.float64())})
    out = global_rank(ray.data.from_arrow(t).repartition(2), "v", "id")
    assert out.count() == 0
    assert out.schema().names == ["id", "v", "rank"]
    assert out.schema().types == [pa.int64(), pa.float64(), pa.int64()]


def test_global_rank_ties_nulls_and_width(ray_session):
    from data_linter_ray.functions.ranking import global_rank

    vals = [5.0, 1.0, 5.0, None, 2.0, 5.0, 9.0, 1.0]
    t = pa.table({"id": list(range(len(vals))), "v": vals})
    ds = ray.data.from_arrow(t).repartition(3)
    # competition rank: 1.0→1,1.0→1, 2.0→3, 5.0→4 (x3), 9.0→7; null dropped
    exp = {1: 1, 7: 1, 4: 3, 0: 4, 2: 4, 5: 4, 6: 7}
    for k in (2, 16):
        got = global_rank(ds, "v", "id", n_buckets=k).to_pandas()
        assert dict(zip(got["id"], got["rank"])) == exp


def test_global_rank_constant_column(ray_session):
    from data_linter_ray.functions.ranking import global_rank

    t = pa.table({"id": [1, 2, 3], "v": [4.0, 4.0, 4.0]})
    got = global_rank(ray.data.from_arrow(t), "v", "id").to_pandas()
    assert list(got["rank"]) == [1, 1, 1]


# ---------------------------------------------------------------------------
# tf-idf
# ---------------------------------------------------------------------------


def test_tfidf_top_terms_vs_duckdb(ray_session, sf_dir):
    import duckdb

    from data_linter_ray.functions.text import tfidf_top_terms

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    got = (
        tfidf_top_terms(ds, k=3)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        "WITH toks AS (SELECT doc_id, unnest(list_filter("
        r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
        f"FROM read_parquet('{sf_dir}/documents.parquet')), "
        "tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok), "
        "df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok), "
        "n AS (SELECT count(*) AS n FROM "
        f"read_parquet('{sf_dir}/documents.parquet')), "
        "scored AS (SELECT tf.doc_id, tf.tok AS term, tf.tf, df.df, "
        "row_number() OVER (PARTITION BY tf.doc_id "
        "ORDER BY tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) DESC, tf.tok) AS rnk "
        "FROM tf JOIN df USING (tok), n) "
        "SELECT doc_id, term, rnk, tf, df FROM scored WHERE rnk <= 3 "
        "ORDER BY doc_id, rnk"
    ).df()
    assert len(got) == len(exp)
    assert list(got["term"]) == list(exp["term"])
    assert (got["tf"].to_numpy() == exp["tf"].to_numpy()).all()
    assert (got["df"].to_numpy() == exp["df"].to_numpy()).all()


# ---------------------------------------------------------------------------
# repetition stats (Gopher filters)
# ---------------------------------------------------------------------------


def test_repetition_stats_crafted(ray_session):
    from data_linter_ray.functions.text import repetition_stats

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "spam spam spam spam spam",      # one token ×5 → 3 identical trigrams
                "a b c a b c a b c",             # 7 trigrams, 3 distinct, top=3
                "all distinct words right here",
                "",                               # empty doc → all zeros
            ],
        }
    )
    got = (
        repetition_stats(ray.data.from_arrow(t).repartition(2))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert got.loc[1].tolist() == [5, 5, 3, 1, 3]
    assert got.loc[2].tolist() == [9, 3, 7, 3, 3]
    assert got.loc[3].tolist() == [5, 1, 3, 3, 1]
    assert got.loc[4].tolist() == [0, 0, 0, 0, 0]


def test_repetition_stats_vs_duckdb(ray_session, sf_dir):
    import duckdb

    import __ray_entry__ as e

    got = e.queries()["repetition_stats"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    exp = con.execute(e.oracle_sql()["repetition_stats"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True).astype(a.dtypes.to_dict())
    assert a.equals(b)


# ---------------------------------------------------------------------------
# exact quantiles
# ---------------------------------------------------------------------------


def test_exact_quantiles_matches_quantile_disc(ray_session, sf_dir):
    import duckdb
    import numpy as np

    from data_linter_ray.functions.quantiles import exact_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    lst = "[" + ",".join(map(str, qs)) + "]"
    exp = (
        duckdb.sql(
            f"WITH lq AS (SELECT quantile_disc(value, {lst}) AS vs "
            f"FROM read_parquet('{sf_dir}/events.parquet')) "
            f"SELECT unnest({lst}) AS q, unnest(vs) AS value FROM lq"
        )
        .df()["value"]
        .to_numpy()
    )
    # multi-round refinement path (max_collect=50) AND single-collect path
    for mc in (50, 65536):
        got = (
            exact_quantiles(ds, "value", qs, max_collect=mc)
            .sort_values("q")["value"]
            .to_numpy()
        )
        assert (got == exp).all(), (mc, got, exp)


def test_exact_quantiles_duplicate_heavy_and_small(ray_session):
    import numpy as np

    from data_linter_ray.functions.quantiles import exact_quantiles

    # one dominant duplicated value exercises the non-shrinking-interval
    # guard (interval collapses to width < resolution → limit(1) member)
    vals = [7.5] * 5000 + [1.0, 2.0, 99.0, None]
    ds = ray.data.from_items([{"v": v} for v in vals]).repartition(4)
    got = exact_quantiles(ds, "v", [0.5, 1.0], max_collect=10, max_rounds=3)
    assert dict(zip(got["q"], got["value"])) == {0.5: 7.5, 1.0: 99.0}

    # constant column
    ds2 = ray.data.from_items([{"v": 3.25}] * 100)
    got2 = exact_quantiles(ds2, "v", [0.0, 0.5, 1.0])
    assert set(got2["value"]) == {3.25}


def test_exact_quantiles_cols_fused_matches_per_column(ray_session):
    """The multi-column engine (one shared scan family) returns the
    same quantile_disc values as per-column calls — across a mixed
    batch: one column under the collect cap, one forced through
    multi-round refinement, one constant, one all-null."""
    import pandas as pd

    from data_linter_ray.functions.quantiles import (
        exact_quantiles,
        exact_quantiles_cols,
    )

    rng = np.random.RandomState(5)
    n = 6000
    df = pd.DataFrame(
        {
            "a": np.round(rng.gamma(2.0, 10.0, n), 3),
            "b": rng.randint(0, 50, n).astype(np.float64),
            "c": np.full(n, 1.5),
            "d": np.full(n, np.nan),
        }
    )
    df.loc[rng.choice(n, 100, replace=False), "a"] = np.nan
    ds = ray.data.from_pandas(df).repartition(4)

    specs = {
        "a": [0.1, 0.5, 0.9],
        "b": [0.25, 0.75, 1.0],
        "c": [0.5],
        "d": [0.5, 0.9],
    }
    # max_collect=64 forces refinement for a and b; c resolves at the
    # stats pass (hi == lo); d has no non-null values
    fused = exact_quantiles_cols(ds, specs, max_collect=64)
    for col, qs in specs.items():
        solo = exact_quantiles(ds, col, qs, max_collect=64)
        pd.testing.assert_frame_equal(fused[col], solo)
    assert fused["d"]["value"].isna().all()
    assert (fused["c"]["value"] == 1.5).all()


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters + weighted sampling
# ---------------------------------------------------------------------------


def test_heavy_hitters_exact_vs_groupby(ray_session):
    """Zero-shuffle MG two-pass == the exact GROUP BY/HAVING set, on a
    skewed stream whose per-batch distinct count forces MG truncation."""
    import pandas as pd

    from data_linter_ray.functions.profile import heavy_hitters

    rng = np.random.RandomState(11)
    vals = (rng.zipf(1.4, 40_000) % 3_000).astype(np.int64)
    m = 31
    ds = ray.data.from_arrow(pa.table({"k": vals})).repartition(8)
    got = heavy_hitters(ds, "k", m=m).to_pandas()

    true = pd.Series(vals).value_counts()
    exp = true[true * (m + 1) > len(vals)]
    exp = (
        exp.rename_axis("k").reset_index(name="n")
        .sort_values(["n", "k"], ascending=[False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_heavy_hitters_empty_and_uniform(ray_session):
    """No value above the threshold -> empty result with pinned schema."""
    from data_linter_ray.functions.profile import heavy_hitters

    uniform = np.arange(5_000, dtype=np.int64)  # every count == 1
    ds = ray.data.from_arrow(pa.table({"k": uniform}))
    out = heavy_hitters(ds, "k", m=15)
    assert out.num_rows == 0
    assert out.schema.names == ["k", "n"]
    assert out.schema.field("k").type == pa.int64()

    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    out2 = heavy_hitters(empty, "k", m=15)
    assert out2.num_rows == 0 and out2.schema.names == ["k", "n"]


def test_weighted_fraction_probability_and_determinism(ray_session):
    """Inclusion decision == the documented IEEE expression per row;
    both hash modes deterministic across runs; zero-weight rows never
    sampled; weight >= W/k rows always sampled."""
    import hashlib

    from data_linter_ray.functions.sampling import weighted_fraction

    n = 2_000
    ids = np.arange(n, dtype=np.int64)
    w = np.ones(n, dtype=np.int64)
    w[:5] = 10_000_000  # p caps at 1.0 -> always in
    w[5:10] = 0  # p == 0 -> never in
    t = pa.table({"id": ids, "wt": w})
    ds = ray.data.from_arrow(t).repartition(4)
    k = 50
    got = (
        weighted_fraction(ds, "id", "wt", k=k)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    W = float(w.sum())
    u = np.fromiter(
        (np.frombuffer(hashlib.md5(str(v).encode()).digest(), "<u8")[1]
         for v in ids),
        dtype=np.uint64, count=n,
    )
    p = np.minimum(1.0, (k * w).astype(np.float64) / W)
    exp_mask = u.astype(np.float64) < p * 18446744073709551616.0
    assert got["id"].tolist() == ids[exp_mask].tolist()
    assert set(ids[:5]) <= set(got["id"])  # capped p=1 rows always kept
    assert not (set(ids[5:10]) & set(got["id"]))  # zero weight never kept

    again = (
        weighted_fraction(ds, "id", "wt", k=k)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert got.equals(again)

    fast1 = weighted_fraction(ds, "id", "wt", k=k, hash="fast").to_pandas()
    fast2 = weighted_fraction(ds, "id", "wt", k=k, hash="fast").to_pandas()
    assert sorted(fast1["id"]) == sorted(fast2["id"])
    assert set(ids[:5]) <= set(fast1["id"])


def test_weighted_fraction_null_handling(ray_session):
    from data_linter_ray.functions.sampling import weighted_fraction

    t = pa.table(
        {
            "id": pa.array([1, None, 3, 4], pa.int64()),
            "wt": pa.array([5, 5, None, 1_000_000], pa.int64()),
        }
    )
    out = weighted_fraction(
        ray.data.from_arrow(t), "id", "wt", k=10
    ).to_pandas()
    # null id / null weight rows are excluded; the huge-weight row's
    # p caps at 1 so it must be present
    assert 4 in set(out["id"]) and not ({None} & set(out["id"]))


def test_bigram_collocations_exact(ray_session):
    """Counts and PMI match a pure-Python reference; empty tokens drop
    BEFORE pairing; min_count filters; cross-document pairs never
    form."""
    import math

    import pandas as pd

    from data_linter_ray.functions.text import bigram_collocations

    texts = [
        "red fox! red fox. blue fox",   # punctuation splits but pairs remain
        "red  fox",                     # double space -> empty token dropped
        "blue",                         # single token -> no bigram
        "",                             # empty doc
        "fox red fox",
    ]
    ds = ray.data.from_arrow(pa.table({"text": texts})).repartition(3)
    got = (
        bigram_collocations(ds, min_count=2)
        .to_pandas().sort_values(["w1", "w2"]).reset_index(drop=True)
    )

    # reference: tokenize per doc, pair consecutive, count
    import re
    uni, bi, nb = {}, {}, 0
    for tx in texts:
        toks = [t for t in re.split(r"\W+", tx.lower().strip()) if t]
        for t in toks:
            uni[t] = uni.get(t, 0) + 1
        for a, b in zip(toks, toks[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
            nb += 1
    exp_rows = []
    for (a, b), n in sorted(bi.items()):
        if n >= 2:
            pmi = round(math.log(n * float(nb) / (uni[a] * uni[b])), 9) + 0.0
            exp_rows.append((a, b, n, pmi))
    exp = pd.DataFrame(exp_rows, columns=["w1", "w2", "n", "pmi"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert ("red", "fox") in {(r.w1, r.w2) for r in got.itertuples()}


def test_bigram_collocations_empty_and_vocab_guard(ray_session):
    import pytest

    from data_linter_ray.functions.text import bigram_collocations

    empty = ray.data.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = bigram_collocations(empty)
    # Ray's to_pandas drops columns on an empty dataset; the Dataset
    # schema is the contract
    assert out.count() == 0
    assert out.schema().names == ["w1", "w2", "n", "pmi"]

    ds = ray.data.from_arrow(pa.table({"text": ["a b c d e f g h"]}))
    with pytest.raises(ValueError):
        bigram_collocations(ds, vocab_limit=3)


def test_quantile_bucketize_exact(ray_session):
    """Buckets equal 1 + #(boundaries strictly below value) with
    quantile_disc boundaries; equal-depth on a permutation of 1..100;
    nulls excluded."""
    import pandas as pd

    from data_linter_ray.functions.quantiles import quantile_bucketize

    v = np.arange(1, 101, dtype=np.int64)
    rng = np.random.RandomState(4)
    rng.shuffle(v)
    t = pa.table(
        {
            "id": pa.array(np.arange(100), pa.int64()),
            "v": pa.array(v, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(5)
    got = (
        quantile_bucketize(ds, "v", keep_cols=["id"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    # quantile_disc on 1..100: k = max(ceil(100*q),1) -> 25, 50, 75
    df = pd.DataFrame({"id": np.arange(100), "v": v})
    df["exp"] = 1 + (df["v"] > 25).astype(int) + (df["v"] > 50).astype(int) + (df["v"] > 75).astype(int)
    merged = got.merge(df, on="id")
    assert (merged["bucket"] == merged["exp"]).all()
    assert merged.groupby("bucket").size().tolist() == [25, 25, 25, 25]

    with_null = pa.table(
        {"id": pa.array([1, 2], pa.int64()), "v": pa.array([5, None], pa.int64())}
    )
    out = quantile_bucketize(
        ray.data.from_arrow(with_null), "v", keep_cols=["id"]
    ).to_pandas()
    assert out["id"].tolist() == [1]


def test_flag_contaminated_bloom_superset(ray_session, sf_dir):
    """The Bloom pre-filter flags a SUPERSET of the exact operator's
    docs (no false negatives), with identical n_shared whenever the
    filter is large enough that no probe collides."""
    import pandas as pd
    import ray

    from data_linter_ray.functions.decontam import (
        flag_contaminated,
        flag_contaminated_bloom,
    )

    corpus = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    import pyarrow as pa
    import pyarrow.compute as pc

    bench = corpus.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], 7), 0)
        ),
        batch_format="pyarrow",
    )
    exact = flag_contaminated(corpus, bench).to_pandas()
    bloom = flag_contaminated_bloom(
        corpus, bench, n_bits=1 << 22, k=7
    ).to_pandas()
    e = exact.set_index("doc_id")["n_shared"]
    b = bloom.set_index("doc_id")["n_shared"]
    assert set(e.index).issubset(set(b.index))      # superset of flags
    # no false negatives per gram either: bloom count >= exact count
    joined = pd.concat([e, b], axis=1, keys=["e", "bl"]).fillna(0)
    assert (joined["bl"] >= joined["e"]).all()
    # at this tiny load the 4M-bit filter should be exact in practice
    assert (joined["bl"] == joined["e"]).mean() > 0.99
