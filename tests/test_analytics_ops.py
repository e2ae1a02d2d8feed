"""Window / funnel / rollup / pivot / fuzzy / diff operator tests —
crafted edge cases plus DuckDB parity on real testdata."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from data_linter_ray import exchange


def _oracle_check(name: str, sf_dir: str, tables=("events",)):
    import __ray_entry__ as e

    got = e.queries()[name](sf_dir)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    exp = con.execute(e.oracle_sql()[name]).df()
    cols = sorted(got.columns)
    assert cols == sorted(exp.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True).astype(a.dtypes.to_dict())
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    return a


# ---------------------------------------------------------------------------
# keyed window functions
# ---------------------------------------------------------------------------


def test_keyed_window_crafted(ray_session):
    from data_linter_ray.functions.window import keyed_window

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:05", "2024-01-01 00:00:05",
         "2024-01-01 00:01:00", None, "2024-01-01 00:00:30"]
    )
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2, None], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "i": pa.array([10, 11, 12, 20, 21, 30], pa.int64()),
            "v": pa.array([None, 5.0, 1.0, None, 2.0, 9.0], pa.float64()),
        }
    )
    out = (
        keyed_window(ray.data.from_arrow(t).repartition(3), "k", "ts", "i", "v")
        .to_pandas()
        .sort_values(["k", "seq"])
        .reset_index(drop=True)
    )
    # null key and null ts rows dropped
    assert len(out) == 4
    assert out["k"].tolist() == [1, 1, 1, 2]
    assert out["seq"].tolist() == [1, 2, 3, 1]
    # first row of each key: null gap; tie broken by i
    assert out["gap_us"].tolist()[0] is pd.NA or pd.isna(out["gap_us"].iloc[0])
    assert out["gap_us"].iloc[1] == 5_000_000
    assert out["gap_us"].iloc[2] == 0
    # running max skips nulls and CARRIES across them (SQL semantics)
    assert pd.isna(out["run_max"].iloc[0])
    assert out["run_max"].iloc[1] == 5.0
    assert out["run_max"].iloc[2] == 5.0


def test_user_event_deltas_vs_duckdb(ray_session, sf_dir):
    _oracle_check("user_event_deltas", sf_dir)


# ---------------------------------------------------------------------------
# funnel
# ---------------------------------------------------------------------------


def test_funnel_crafted(ray_session):
    from data_linter_ray.functions.window import funnel

    def ev(k, t, typ):
        return {"k": k, "ts": pd.Timestamp(t), "typ": typ}

    rows = [
        # user 1 completes the full funnel
        ev(1, "2024-01-01 00:00", "view"),
        ev(1, "2024-01-01 00:01", "click"),
        ev(1, "2024-01-01 00:02", "purchase"),
        # user 2: click BEFORE view → stage 2 requires strictly-after
        ev(2, "2024-01-01 00:00", "click"),
        ev(2, "2024-01-01 00:01", "view"),
        # user 3: click at the SAME instant as view → strict > fails
        ev(3, "2024-01-01 00:00", "view"),
        ev(3, "2024-01-01 00:00", "click"),
        # user 4: no funnel events at all
        ev(4, "2024-01-01 00:00", "error"),
    ]
    ds = ray.data.from_items(rows).repartition(2)
    out = (
        funnel(ds, "k", "ts", "typ", ["view", "click", "purchase"])
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert out["reached"].tolist() == [3, 1, 1, 0]
    assert pd.isna(out.loc[2, "t2"]) and pd.isna(out.loc[3, "t2"])


def test_funnel_stages_vs_duckdb(ray_session, sf_dir):
    _oracle_check("funnel_stages", sf_dir)


# ---------------------------------------------------------------------------
# rollup / pivot
# ---------------------------------------------------------------------------


def test_rollup_crafted(ray_session):
    from data_linter_ray.functions.olap import rollup_counts

    t = pa.table(
        {
            "a": ["x", "x", "y", "y", "y"],
            "b": ["p", "q", "p", "p", "q"],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )
    out = rollup_counts(
        ray.data.from_arrow(t).repartition(3), "a", "b", sum_col="v"
    ).to_pandas()
    key = out.set_index(["a", "b"])
    assert key.loc[("x", "p"), "n"] == 1
    assert key.loc[("y", "p"), "n"] == 2 and key.loc[("y", "p"), "sum_v"] == 7.0
    sub = out[out["b"].isna() & out["a"].notna()].set_index("a")
    assert sub.loc["x", "n"] == 2 and sub.loc["y", "sum_v"] == 12.0
    total = out[out["a"].isna() & out["b"].isna()]
    assert total["n"].iloc[0] == 5 and total["sum_v"].iloc[0] == 15.0


def test_lineitem_rollup_vs_duckdb(ray_session, sf_dir):
    _oracle_check("lineitem_rollup", sf_dir, tables=("lineitem",))


def test_pivot_crafted(ray_session):
    from data_linter_ray.functions.olap import pivot_counts

    t = pa.table(
        {
            "u": pa.array([1, 1, 2, None, 2, 1], pa.int64()),
            "c": ["a", "b", "a", "a", "zzz", "a"],
        }
    )
    out = (
        pivot_counts(ray.data.from_arrow(t).repartition(3), "u", "c", ["a", "b"])
        .to_pandas()
        .set_index("u")
        .sort_index()
    )
    # null index dropped; unknown category 'zzz' ignored
    assert out.loc[1].tolist() == [2, 1]
    assert out.loc[2].tolist() == [1, 0]


def test_user_event_pivot_vs_duckdb(ray_session, sf_dir):
    _oracle_check("user_event_pivot", sf_dir)


# ---------------------------------------------------------------------------
# fuzzy matching
# ---------------------------------------------------------------------------


def test_fuzzy_crafted_all_edit_kinds(ray_session):
    from data_linter_ray.functions.fuzzy import fuzzy_key_pairs

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "s": ["kitten", "mitten", "kitte", "kittens", "kitten", "banana", None],
        }
    )
    out = (
        fuzzy_key_pairs(ray.data.from_arrow(t).repartition(3), "id", "s")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    pairs = {(r.id_a, r.id_b): r.dist for r in out.itertuples()}
    assert pairs[(1, 2)] == 1  # substitution
    assert pairs[(1, 3)] == 1  # deletion
    assert pairs[(1, 4)] == 1  # insertion
    assert pairs[(1, 5)] == 0  # exact duplicate
    assert pairs[(2, 5)] == 1 and pairs[(3, 5)] == 1 and pairs[(4, 5)] == 1
    assert all(b != 6 and a != 6 for a, b in pairs)  # banana matches nothing
    # distance-2 pairs never emitted: mitten vs kitte is dist 2
    assert (2, 3) not in pairs and (2, 4) not in pairs and (3, 4) not in pairs


def test_fuzzy_truncation_flag(ray_session):
    from data_linter_ray.functions.fuzzy import fuzzy_key_pairs

    # 12 identical strings in one bucket with max_bucket=8 → truncated
    t = pa.table(
        {
            "id": pa.array(list(range(12)), pa.int64()),
            "s": ["same"] * 12,
        }
    )
    out = fuzzy_key_pairs(
        ray.data.from_arrow(t), "id", "s", max_bucket=8
    ).to_pandas()
    assert out["truncated"].all()
    assert len(out) == 8 * 7 // 2


def test_fuzzy_name_pairs_vs_duckdb(ray_session, sf_dir):
    _oracle_check("fuzzy_name_pairs", sf_dir, tables=("customer",))


# ---------------------------------------------------------------------------
# snapshot diff
# ---------------------------------------------------------------------------


def test_snapshot_diff_crafted(ray_session):
    from data_linter_ray.functions.diff import snapshot_diff

    a = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, None], pa.int64()),
            "x": ["a", "b", "c", None, "e"],
            "y": pa.array([1.0, 2.0, None, 4.0, 5.0], pa.float64()),
        }
    )
    b = pa.table(
        {
            "k": pa.array([2, 3, 4, 5], pa.int64()),
            "x": ["b", "C", None, "new"],
            "y": pa.array([2.0, None, 4.5, 5.0], pa.float64()),
        }
    )
    out = (
        snapshot_diff(
            ray.data.from_arrow(a).repartition(2),
            ray.data.from_arrow(b).repartition(2),
            "k",
            ["x", "y"],
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert out.loc[1, "status"] == "removed" and out.loc[1, "changed_cols"] is None
    assert 2 not in out.index  # identical incl. null-safe y
    # y is null on BOTH sides for k=3 → null-safe equal, only x differs
    assert out.loc[3, "status"] == "changed" and out.loc[3, "changed_cols"] == "x"
    assert out.loc[4, "status"] == "changed" and out.loc[4, "changed_cols"] == "y"
    assert out.loc[5, "status"] == "added"


def test_snapshot_diff_vs_duckdb(ray_session, sf_dir):
    _oracle_check("snapshot_diff", sf_dir, tables=("orders",))


# ---------------------------------------------------------------------------
# grouped quantiles / BM25
# ---------------------------------------------------------------------------


def test_grouped_quantiles_crafted(ray_session):
    from data_linter_ray.functions.quantiles import grouped_quantiles

    t = pa.table(
        {
            "g": ["a"] * 100 + ["b"] * 4 + ["c"] * 2 + [None] * 3,
            "v": [float(i) for i in range(100)]
            + [10.0, 20.0, 30.0, 40.0]
            + [None, None]
            + [1.0, 2.0, 3.0],
        }
    )
    out = grouped_quantiles(
        ray.data.from_arrow(t).repartition(3), "v", "g", [0.5, 1.0],
        max_collect=10,  # force the multi-round path for group a
    )
    d = {(r.group, r.q): r.value for r in out.itertuples()}
    assert d[("a", 0.5)] == 49.0 and d[("a", 1.0)] == 99.0
    assert d[("b", 0.5)] == 20.0 and d[("b", 1.0)] == 40.0
    assert np.isnan(d[("c", 0.5)])  # all-null group
    assert ("", 0.5) not in d and (None, 0.5) not in d  # null group dropped


def test_grouped_quantiles_vs_duckdb(ray_session, sf_dir):
    _oracle_check("grouped_quantiles", sf_dir)


def test_bm25_crafted(ray_session):
    from data_linter_ray.functions.search import bm25_topk

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "apple banana apple",
                "apple",
                "cherry cherry cherry",
                "banana apple apple apple apple apple",
            ],
        }
    )
    out = bm25_topk(ray.data.from_arrow(t).repartition(2), "apple banana", k=3)
    # doc 3 has no query terms → excluded even with k=3 slots left
    assert 3 not in set(out["doc_id"])
    assert len(out) == 3
    # doc 1 holds both terms with short length → ranks first
    assert out["doc_id"].iloc[0] == 1


def test_bm25_topk_vs_duckdb(ray_session, sf_dir):
    _oracle_check("bm25_topk", sf_dir, tables=("documents",))


def test_value_iqr_outliers_vs_duckdb(ray_session, sf_dir):
    _oracle_check("value_iqr_outliers", sf_dir)


def test_fuzzy_entities_vs_duckdb(ray_session, sf_dir):
    _oracle_check("fuzzy_entities", sf_dir, tables=("customer",))


def test_fuzzy_entities_transitive(ray_session):
    """a-b and b-c fuzzy-match (but a-c is dist 2) → one entity."""
    from data_linter_ray.functions.dedup import dedup_components
    from data_linter_ray.functions.fuzzy import fuzzy_key_pairs

    t = pa.table(
        {
            "id": pa.array([10, 20, 30, 40], pa.int64()),
            "s": ["abcd", "abce", "abcf", "zzzz"],
        }
    )
    pairs = fuzzy_key_pairs(ray.data.from_arrow(t), "id", "s")
    comp = dedup_components(pairs).to_pandas().set_index("doc_id")
    # abcd-abce-abcf chain: all three land in entity 10; zzzz is alone
    assert comp.loc[10, "component_id"] == 10
    assert comp.loc[20, "component_id"] == 10
    assert comp.loc[30, "component_id"] == 10
    assert 40 not in comp.index  # unmatched nodes are not emitted


# ---------------------------------------------------------------------------
# equi-join dispatcher
# ---------------------------------------------------------------------------


def test_equi_join_broadcast_shuffle_parity(ray_session, sf_dir):
    from data_linter_ray.functions.joins import equi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    def norm(ds):
        df = ds.to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    bc = norm(equi_join(orders, cust, on=("o_custkey",),
                        right_on=("c_custkey",), strategy="broadcast"))
    sh = norm(equi_join(orders, cust, on=("o_custkey",),
                        right_on=("c_custkey",), strategy="shuffle"))
    pd.testing.assert_frame_equal(bc, sh, check_dtype=False)


def test_equi_join_left_outer_broadcast(ray_session):
    from data_linter_ray.functions.joins import equi_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "x": ["a", "b", "c"]}))
    right = ray.data.from_arrow(pa.table({"rk": [1, 3], "y": [10, 30]}))
    out = (
        equi_join(left, right, on=("k",), right_on=("rk",),
                  how="left_outer", strategy="broadcast")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3]
    assert out["y"].tolist()[0] == 10 and pd.isna(out["y"].iloc[1])
    assert "rk" not in out.columns  # right key folded into left key


# ---------------------------------------------------------------------------
# MOSS overlap / incremental validation
# ---------------------------------------------------------------------------


def test_overlap_pairs_crafted(ray_session):
    from data_linter_ray.functions.text import overlap_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                base,                       # 1 and 2 share almost all 5-grams
                base + " extra",
                "one two three four five six seven eight nine ten",
                base,                       # 4 = exact copy of 1
            ],
        }
    )
    out = (
        overlap_pairs(
            ray.data.from_arrow(t).repartition(2),
            k=5, mod_p=1, min_shared=2, max_df=10, hash="fast",
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    pairs = {(r.id_a, r.id_b): r.n_shared for r in out.itertuples()}
    # doc 1 has 6 5-grams; all shared with copies
    assert pairs[(1, 4)] == 6
    assert pairs[(1, 2)] == 6 and pairs[(2, 4)] == 6
    assert not any(3 in p for p in pairs)


def test_overlap_pairs_df_cap(ray_session):
    from data_linter_ray.functions.text import overlap_pairs

    # the same text in 5 docs with max_df=4 → every fingerprint exceeds
    # the df cap → no pairs at all (MOSS "too common" rule)
    t = pa.table(
        {
            "doc_id": pa.array(list(range(5)), pa.int64()),
            "text": ["common words repeated here exactly the same way"] * 5,
        }
    )
    out = overlap_pairs(
        ray.data.from_arrow(t), k=5, mod_p=1, min_shared=1, max_df=4, hash="fast"
    ).to_pandas()
    assert len(out) == 0


def test_overlap_pairs_vs_duckdb(ray_session, sf_dir):
    _oracle_check("overlap_pairs", sf_dir, tables=("documents",))


def test_incremental_violations_vs_duckdb(ray_session, sf_dir):
    _oracle_check("incremental_violations", sf_dir, tables=("orders",))


# ---------------------------------------------------------------------------
# semi/anti join + stratified mixture
# ---------------------------------------------------------------------------


def test_semi_anti_join_null_semantics(ray_session):
    from data_linter_ray.functions.joins import anti_join, semi_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, None, 4], pa.int64()), "x": ["a", "b", "c", "d"]})
    )
    right = ray.data.from_arrow(pa.table({"rk": pa.array([2, None, 2], pa.int64())}))
    semi = semi_join(left, right, on=("k",), right_on=("rk",)).to_pandas()
    anti = anti_join(left, right, on=("k",), right_on=("rk",)).to_pandas()
    # IN semantics: null keys never match
    assert semi["x"].tolist() == ["b"]
    # NOT EXISTS: null-keyed left rows are KEPT
    assert sorted(anti["x"]) == ["a", "c", "d"]


def test_big_spenders_vs_duckdb(ray_session, sf_dir):
    _oracle_check("big_spenders", sf_dir, tables=("customer", "orders"))


def test_customers_no_orders_vs_duckdb(ray_session, sf_dir):
    _oracle_check("customers_no_orders", sf_dir, tables=("customer", "orders"))


def test_stratified_fraction_crafted(ray_session):
    from data_linter_ray.functions.sampling import stratified_fraction

    t = pa.table(
        {
            "s": ["a"] * 10 + ["b"] * 10 + ["c"] * 10 + [None],
            "i": pa.array(list(range(30)) + [99], pa.int64()),
        }
    )
    out = stratified_fraction(
        ray.data.from_arrow(t).repartition(3), "s", "i",
        {"a": (1, 2), "b": (1, 1)}, default=(0, 1),
    ).to_pandas()
    by = out.groupby("s")["i"].apply(list).to_dict()
    assert by["a"] == [0, 2, 4, 6, 8] or sorted(by["a"]) == [0, 2, 4, 6, 8]
    assert sorted(by["b"]) == list(range(10, 20))  # keep-all stratum
    assert "c" not in by  # default (0,1) drops
    assert len(out) == 15  # null stratum dropped


def test_corpus_mixture_vs_duckdb(ray_session, sf_dir):
    _oracle_check("corpus_mixture", sf_dir, tables=("documents",))


# ---------------------------------------------------------------------------
# union-by-name / CDC apply
# ---------------------------------------------------------------------------


def test_union_by_name_crafted(ray_session):
    from data_linter_ray.functions.evolve import union_by_name

    a = ray.data.from_arrow(pa.table({"x": [1, 2], "y": ["a", "b"]}))
    b = ray.data.from_arrow(pa.table({"y": ["c"], "z": [9.5]}))
    out = union_by_name([a, b]).to_pandas()
    assert sorted(out.columns) == ["x", "y", "z"]
    assert out["x"].tolist()[:2] == [1, 2] and pd.isna(out["x"].iloc[2])
    assert pd.isna(out["z"].iloc[0]) and out["z"].iloc[2] == 9.5


def test_union_by_name_type_conflict_raises(ray_session):
    from data_linter_ray.functions.evolve import union_by_name

    a = ray.data.from_arrow(pa.table({"x": pa.array([1], pa.int64())}))
    b = ray.data.from_arrow(pa.table({"x": pa.array(["s"], pa.string())}))
    with pytest.raises(TypeError, match="conflicting types"):
        union_by_name([a, b])


def test_apply_changes_crafted(ray_session):
    from data_linter_ray.functions.evolve import apply_changes

    base = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, None], pa.int64()),
                "v": ["a", "b", "c", "x"],
            }
        )
    )
    changes = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([2, 2, 3, 4], pa.int64()),
                "v": ["b1", "b2", None, "new"],
                "seq": pa.array([1, 2, 1, 1], pa.int64()),
                "op": ["U", "D", "U", "U"],
            }
        )
    )
    out = (
        apply_changes(base.repartition(2), changes.repartition(2), "k", "seq")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    # key 2: U then D at higher seq → deleted; key 3: upsert with null
    # payload overwrites; key 4: insert; null base key dropped
    assert sorted(out.index) == [1, 3, 4]
    assert out.loc[1, "v"] == "a"
    assert out.loc[3, "v"] is None or pd.isna(out.loc[3, "v"])
    assert out.loc[4, "v"] == "new"


def test_entity_union_vs_duckdb(ray_session, sf_dir):
    _oracle_check("entity_union", sf_dir, tables=("customer", "supplier"))


def test_apply_changes_vs_duckdb(ray_session, sf_dir):
    _oracle_check("apply_changes", sf_dir, tables=("orders",))


def test_kmeans_cluster_validity_and_determinism(ray_session, sf_dir):
    from data_linter_ray.functions.similarity import kmeans_cluster

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out1 = (
        kmeans_cluster(ds, id_col="vec_id", n_clusters=4, iters=3)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    out2 = (
        kmeans_cluster(ds, id_col="vec_id", n_clusters=4, iters=3)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out1, out2)  # deterministic given seed
    assert out1["cluster"].between(0, 3).all()
    assert out1["cluster"].nunique() > 1  # non-degenerate on real data
    # every point's recorded sim is the max over all centroids: verify
    # optimality by recomputing against the same training
    from data_linter_ray.functions.similarity import _normalize, kmeans_fit

    C = kmeans_fit(ds, id_col="vec_id", n_clusters=4, iters=3)
    emb = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    M = _normalize(np.stack(emb["embedding"].to_numpy()).astype(np.float64))
    S = M @ C.T
    assert (out1["cluster"].to_numpy() == S.argmax(axis=1)).all()


def test_kmeans_cluster_size_stability(ray_session, sf_dir):
    """Documented pass for the rows-only driver check (iterative float
    training is not SQL-expressible): the PARTITIONING of points into
    clusters must be invariant to input block layout and to re-runs —
    identical per-cluster sizes and identical member sets."""
    from data_linter_ray.functions.similarity import kmeans_cluster

    ds1 = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ds2 = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).repartition(7)
    a = (
        kmeans_cluster(ds1, id_col="vec_id", n_clusters=8, iters=5)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    b = (
        kmeans_cluster(ds2, id_col="vec_id", n_clusters=8, iters=5)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert a["cluster"].tolist() == b["cluster"].tolist()
    sizes = a.groupby("cluster").size()
    assert sizes.sum() == len(a)
    # no cluster degenerates to a singleton dump on the real corpus
    assert (sizes > 0).all() and sizes.max() < len(a)


def test_kmeans_quantized_edge_cases_vs_oracle(ray_session, tmp_path):
    """Integer-exact Lloyd k-means on crafted data that forces the
    edges the sf fixtures never hit: an EMPTY cluster (duplicate init
    vectors — argmin ties to the lowest index starve the higher one,
    coalesce keeps its centroid), negative values (floor-mean and
    floor-division sign semantics), and exact distance ties. The
    engine must hash-match the same unrolled-CTE oracle the driver
    runs, re-bound to the crafted table."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from data_linter_ray.functions.similarity import kmeans_cluster_quantized

    rng = np.random.RandomState(7)
    n, d, k = 40, 4, 3
    emb = rng.uniform(-0.5, 0.5, (n, d)).astype(np.float32)
    # ids 0 and 1 get IDENTICAL vectors -> init centroids 0 and 1 are
    # equal, every point ties between them, all resolve to cluster 0:
    # cluster 1 is empty after round 1 and must keep its centroid
    emb[1] = emb[0]
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1)), d
            ).cast(pa.list_(pa.float32())),
        }
    )
    path = str(tmp_path / "emb.parquet")
    pq.write_table(t, path)

    got = (
        kmeans_cluster_quantized(
            ray.data.read_parquet(path), id_col="vec_id",
            n_clusters=k, iters=2, scale=10_000,
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    sql = entrymod._embedding_clusters_sql().replace(
        "LIMIT 8", f"LIMIT {k}"
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{path}')"
    )
    exp = con.execute(sql).df()
    assert got["cluster"].tolist() == exp["cluster"].tolist()
    assert got["dist2"].tolist() == exp["dist2"].tolist()
    # round 1 starves cluster 1 (every point ties to the equal centroid
    # 0, lowest index wins) — the empty-cluster keep-old path ran on
    # BOTH sides, or the hash match above could not hold; centroid 1
    # then re-captures points near the original location after centroid
    # 0 moves to its members' mean, so all three clusters end non-empty
    assert set(got["cluster"]) == {0, 1, 2}
    # rows 0/1 are identical -> identical assignment at dist2 == min
    assert got.loc[0, "cluster"] == got.loc[1, "cluster"]
    assert got.loc[0, "dist2"] == got.loc[1, "dist2"]


def test_value_percent_rank_vs_duckdb(ray_session, sf_dir):
    _oracle_check("value_percent_rank", sf_dir)


def test_sequence_order_violations_exact(ray_session, monkeypatch):
    """Rows flagged iff ts < per-key running max in seq order; first
    row of a key never flags; equal ts never flags (strict <); exact
    across exchange widths."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.window import sequence_order_violations

    base = np.datetime64("2024-01-01T00:00:00", "us")
    mk = lambda s: base + np.timedelta64(s, "s")
    rows = [
        # key 1: monotone -> no violations
        (1, 1, mk(10)), (1, 2, mk(20)), (1, 3, mk(30)),
        # key 2: regression at seq 3 (ts 15 < max 25) and seq 5
        (2, 1, mk(5)), (2, 2, mk(25)), (2, 3, mk(15)),
        (2, 4, mk(40)), (2, 5, mk(39)),
        # key 3: equal ts is NOT a violation (strict <)
        (3, 1, mk(7)), (3, 2, mk(7)),
        # key 4: first row huge ts, later keys' firsts unaffected
        (4, 1, mk(1000)), (4, 2, mk(999)),
        # nulls excluded
        (None, 9, mk(1)), (5, None, mk(1)), (5, 9, None),
    ]
    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "s": pa.array([r[1] for r in rows], pa.int64()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow(t).repartition(5)
    got = (
        sequence_order_violations(ds, "k", "s", "ts")
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    assert list(zip(got["k"], got["s"])) == [(2, 3), (2, 5), (4, 2)]
    assert got.columns.tolist() == ["k", "s", "ts", "prev_max_ts"]
    # prev_max is the true running max, not just the previous row
    assert got.loc[0, "prev_max_ts"] == pd.Timestamp(mk(25))
    assert got.loc[1, "prev_max_ts"] == pd.Timestamp(mk(40))

    monkeypatch.setenv(exchange.ENV_VAR, "2")
    got2 = (
        sequence_order_violations(ds, "k", "s", "ts")
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)


def test_collapse_repeats_exact(ray_session, monkeypatch):
    """Consecutive equal values collapse (null==null included), any
    change survives, first-of-key always survives; exact across
    widths."""
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.window import collapse_repeats

    rows = [
        (1, 1, "a"), (1, 2, "a"), (1, 3, "b"), (1, 4, "b"), (1, 5, "a"),
        (2, 1, None), (2, 2, None), (2, 3, "x"),   # null run collapses
        (3, 1, "z"),                                # single row survives
        (None, 1, "q"), (4, None, "q"),             # null key/seq dropped
    ]
    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "s": pa.array([r[1] for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    got = (
        collapse_repeats(ds, "k", "s", ["v"])
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    assert list(zip(got["k"], got["s"])) == [
        (1, 1), (1, 3), (1, 5), (2, 1), (2, 3), (3, 1)
    ]
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    got2 = (
        collapse_repeats(ds, "k", "s", ["v"])
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)


@pytest.mark.parametrize(
    "name,tables,sf",
    [
        ("heavy_users", ("events",), None),
        ("weighted_sample", ("documents",), None),
        ("dominant_lang", ("documents",), None),
        # sf0.01: the 1h-skew injection yields zero violations at
        # sf0.001 (both sides empty — vacuous); 7 real rows at sf0.01
        ("out_of_order_events", ("events",), "/root/testdata/sf0.01"),
        ("source_lang_entropy", ("documents",), None),
        ("collocations", ("documents",), None),
        ("compacted_events", ("events",), None),
        ("length_quartiles", ("documents",), None),
        ("source_overlap", ("documents",), None),
    ],
)
def test_new_query_oracle_pairs(ray_session, sf_dir, name, tables, sf):
    """In-CI DuckDB parity for the batch-2 query/oracle pairs — the
    oracle SQL strings themselves (thresholds, md5 2^64 expression,
    PMI operand order) are exercised here, not only by the out-of-band
    driver gate."""
    _oracle_check(name, sf or sf_dir, tables=tables)


@pytest.mark.parametrize(
    "name,tables",
    [
        ("segment_price_trend", ("lineitem",)),
        ("trailing_hour_load", ("events",)),
        ("daily_value_snapshot", ("events",)),
        ("price_benford", ("lineitem",)),
        ("null_cooccurrence", ("lineitem",)),
    ],
)
def test_batch3_query_oracle_pairs(ray_session, sf_dir, name, tables):
    """In-CI DuckDB parity for the batch-3 query/oracle pairs
    (regression / time-rolling / resample / benford / missingness)."""
    _oracle_check(name, sf_dir, tables=tables)


def test_time_rolling_crafted_peers_and_bounds(ray_session, monkeypatch):
    """RANGE-frame semantics on a crafted stream: peers at an equal
    timestamp share one frame (including LATER peers in tie order),
    the window bound is inclusive, and an all-null-value frame emits
    a NULL sum with roll_n = 0."""
    from data_linter_ray.functions.window import time_rolling

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:30:00", "2024-01-01 00:30:00",
         "2024-01-01 01:30:00", "2024-01-01 03:00:00",
         "2024-01-01 00:10:00"]
    )
    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 1, 2],
            "ts": ts,
            "i": [1, 2, 3, 4, 5, 6],
            "v": [1.0, 2.0, 4.0, 8.0, None, 16.0],
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    got = (
        time_rolling(ray.data.from_pandas(df), "k", "ts", "i", "v",
                     window_us=3_600_000_000)
        .to_pandas().sort_values(["k", "i"]).reset_index(drop=True)
    )
    # row i=1: frame {1.0} → 100; rows i=2,3 are PEERS: both frames
    # hold {1,2,4} → 700; i=4 at 01:30 covers [00:30, 01:30] → {2,4,8}
    # → 1400; i=5 at 03:00 has only the null row → NULL, n=0
    assert got["roll_sum_cents"].tolist()[:4] == [100, 700, 700, 1400]
    assert pd.isna(got.loc[4, "roll_sum_cents"]) and got.loc[4, "roll_n"] == 0
    assert got.loc[5, "roll_sum_cents"] == 1600
    assert got["roll_n"].tolist() == [1, 3, 3, 3, 0, 1]


def test_time_rolling_numeric_axis_same_unit(ray_session, monkeypatch):
    """A plain numeric µs-epoch order column is compared against
    window_us in the SAME unit (no ×1000 ns rescale): results equal
    the timestamp-typed run on identical instants."""
    from data_linter_ray.functions.window import time_rolling

    us = np.array([0, 30, 30, 90, 180, 10], dtype=np.int64) * 60_000_000
    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 1, 2],
            "ts_us": us,
            "i": [1, 2, 3, 4, 5, 6],
            "v": [1.0, 2.0, 4.0, 8.0, None, 16.0],
        }
    )
    df_dt = df.assign(ts_us=pd.to_datetime(us, unit="us"))
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    got_num = (
        time_rolling(ray.data.from_pandas(df), "k", "ts_us", "i", "v",
                     window_us=3_600_000_000)
        .to_pandas().sort_values(["k", "i"]).reset_index(drop=True)
    )
    got_dt = (
        time_rolling(ray.data.from_pandas(df_dt), "k", "ts_us", "i", "v",
                     window_us=3_600_000_000)
        .to_pandas().sort_values(["k", "i"]).reset_index(drop=True)
    )
    assert got_num["roll_sum_cents"].tolist()[:4] == [100, 700, 700, 1400]
    assert got_num["roll_n"].tolist() == got_dt["roll_n"].tolist() == [1, 3, 3, 3, 0, 1]


def test_time_rolling_band_blocks_equal(ray_session, sf_dir):
    """The overflow-safe key-block path (several bands per partition)
    must produce the identical table as the single-block path."""
    import data_linter_ray.functions.window as W

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )
    base = (
        W.time_rolling(ds, "user_id", "ts", "event_id", "value")
        .to_pandas().sort_values(["user_id", "event_id"]).reset_index(drop=True)
    )
    old = W._BAND_CAP
    try:
        # span+window ≈ 30 days ns ≈ 2.6e15; cap 2^53 → ~3 keys/block
        W._BAND_CAP = 1 << 53
        small = (
            W.time_rolling(ds, "user_id", "ts", "event_id", "value")
            .to_pandas().sort_values(["user_id", "event_id"]).reset_index(drop=True)
        )
    finally:
        W._BAND_CAP = old
    pd.testing.assert_frame_equal(base, small)


def test_resample_ffill_crafted(ray_session, monkeypatch):
    """Forward fill on a crafted series: NULL before the key's first
    observation, last-tie collapse at duplicate timestamps, selection-
    exact values, and the multi-block band path agrees."""
    import data_linter_ray.functions.timeseries as T

    df = pd.DataFrame(
        {
            "k": ["a", "a", "a", "b"],
            "ts": pd.to_datetime(
                ["2024-01-02 06:00", "2024-01-02 06:00",
                 "2024-01-04 00:00", "2024-01-03 12:00"]
            ),
            "i": [1, 2, 3, 4],
            "v": [10.0, 20.0, 30.0, 40.0],
        }
    )

    monkeypatch.setenv(exchange.ENV_VAR, "2")

    def run():
        return (
            T.resample_ffill(
                ray.data.from_pandas(df), key="k", time_col="ts", tie="i",
                value="v", start="2024-01-01", stop="2024-01-05",
                step_us=86_400_000_000,
            )
            .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
        )

    got = run()
    a = got[got["k"] == "a"]["v"].tolist()
    b = got[got["k"] == "b"]["v"].tolist()
    # day1,2 precede a's first obs (06:00 > 00:00 grid) → null, null;
    # day3 carries the tie-collapsed 20.0 (NOT 10.0); day4 flips to 30
    assert pd.isna(a[0]) and pd.isna(a[1])
    assert a[2:] == [20.0, 30.0, 30.0]
    assert pd.isna(b[0]) and pd.isna(b[1]) and pd.isna(b[2])
    assert b[3:] == [40.0, 40.0]
    old = T._BAND_CAP
    try:
        T._BAND_CAP = 1 << 53
        pd.testing.assert_frame_equal(got, run())
    finally:
        T._BAND_CAP = old


def test_benford_digit_boundaries(ray_session):
    """String-based digit extraction survives the classic float traps:
    1000 (log10 → 2.9999…96), 0.3 (0.3/0.1 → 2.9999…96), scientific
    notation, negatives, and excludes 0 / null."""
    from data_linter_ray.functions.stats import benford_profile

    df = pd.DataFrame(
        {"v": [1000.0, 0.3, 1e-5, -700.0, 0.0, None, 9.999, 2e17]}
    )
    got = benford_profile(ray.data.from_pandas(df), "v")
    by_digit = dict(zip(got["digit"], got["n"]))
    assert by_digit[1] == 2          # 1000, 1e-5
    assert by_digit[3] == 1          # 0.3
    assert by_digit[7] == 1          # -700
    assert by_digit[9] == 1          # 9.999
    assert by_digit[2] == 1          # 2e17
    assert int(got["n"].sum()) == 6  # 0 and null excluded


def test_group_regression_all_null_empty(ray_session):
    from data_linter_ray.functions.stats import group_regression

    df = pd.DataFrame({"g": [None, None], "x": [1.0, 2.0], "y": [1.0, 2.0]})
    out = group_regression(ray.data.from_pandas(df), "g", "x", "y")
    assert out.empty
    assert list(out.columns) == ["g", "n", "slope", "intercept", "r2"]


def test_group_regression_nan_payload_pinned(ray_session):
    """Pins the NaN policy ``corr_matrix`` shares: a non-null NaN x is
    deleted pairwise like a null, so group q is fitted on its two other
    rows (SQL ``regr_*`` would return NaN)."""
    from data_linter_ray.functions.stats import group_regression

    nan = float("nan")
    t = pa.table(
        {
            "g": ["p", "p", "p", "q", "q", "q"],
            "x": pa.array([1.0, 2.0, 3.0, 1.0, nan, 3.0]),
            "y": pa.array([2.0, 4.0, 6.0, 1.0, 2.0, 3.0]),
        }
    )
    out = group_regression(ray.data.from_arrow(t), "g", "x", "y", round_to=9)
    assert out["n"].tolist() == [3, 2]
    # q keeps (1, 1) and (3, 3): slope 1, intercept 0, r² 1
    assert out["slope"].tolist() == [2.0, 1.0]
    assert out["intercept"].tolist() == [0.0, 0.0]
    assert out["r2"].tolist() == [1.0, 1.0]


def test_null_cooccurrence_exact(ray_session):
    from data_linter_ray.functions.profile import null_cooccurrence

    df = pd.DataFrame(
        {
            "a": [1.0, None, None, 4.0],
            "b": [None, None, 3.0, 4.0],
            "c": [1.0, 2.0, 3.0, 4.0],
        }
    )
    out = null_cooccurrence(ray.data.from_pandas(df), ["a", "b", "c"])
    row = out[(out["col_a"] == "a") & (out["col_b"] == "b")].iloc[0]
    assert (row["n_rows"], row["n_a_null"], row["n_b_null"], row["n_both_null"]) == (4, 2, 2, 1)
    row = out[(out["col_a"] == "a") & (out["col_b"] == "c")].iloc[0]
    assert row["n_both_null"] == 0


def test_ks_two_sample_oracle(ray_session, sf_dir):
    _oracle_check("value_distribution_ks", sf_dir, tables=("events",))


def test_ks_two_sample_crafted(ray_session, monkeypatch):
    """KS on a crafted pair with ties and a known sup: group a =
    {1,1,2,3}, group b = {2,3,3,4}. CDF steps at v∈{1,2,3,4}:
    F_a = .5,.75,1,1 / F_b = 0,.25,.75,1 → sup = .5 at v=1; identical
    at two exchange widths; degenerate empty group → NaN."""
    from data_linter_ray.functions.stats import ks_two_sample

    df = pd.DataFrame(
        {
            "g": ["a"] * 4 + ["b"] * 4 + ["zz", None],
            "v": [1.0, 1.0, 2.0, 3.0, 2.0, 3.0, 3.0, 4.0, 99.0, 1.0],
        }
    )
    out = ks_two_sample(ray.data.from_pandas(df), "v", "g", "a", "b")
    assert (out["n_a"][0], out["n_b"][0]) == (4, 4)
    assert out["ks"][0] == 0.5
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out2 = ks_two_sample(ray.data.from_pandas(df), "v", "g", "a", "b")
    pd.testing.assert_frame_equal(out, out2)
    empty = ks_two_sample(ray.data.from_pandas(df), "v", "g", "a", "nope")
    assert empty["n_b"][0] == 0 and pd.isna(empty["ks"][0])


@pytest.mark.parametrize(
    "name", ["event_segment_chisq", "value_psi"]
)
def test_drift_quality_oracle_pairs(ray_session, sf_dir, name):
    _oracle_check(name, sf_dir, tables=("events",))


def test_contingency_table_crafted(ray_session):
    """Known 2×2 table: a/x=30, a/y=10, b/x=10, b/y=50. Expected counts
    row·col/N and χ² terms verified against the closed form; null rows
    excluded; empty input → typed empty frame."""
    from data_linter_ray.functions.stats import contingency_table

    df = pd.DataFrame(
        {
            "r": ["a"] * 40 + ["b"] * 60 + [None],
            "c": ["x"] * 30 + ["y"] * 10 + ["x"] * 10 + ["y"] * 50 + ["x"],
        }
    )
    out = contingency_table(ray.data.from_pandas(df), "r", "c")
    assert out["n"].tolist() == [30, 10, 10, 50]
    # expected: row a (40) x col x (40) / 100 = 16, etc.
    assert out["expected"].tolist() == [16.0, 24.0, 24.0, 36.0]
    assert out["chi2_term"].tolist() == [
        (30 - 16.0) ** 2 / 16.0, (10 - 24.0) ** 2 / 24.0,
        (10 - 24.0) ** 2 / 24.0, (50 - 36.0) ** 2 / 36.0,
    ]
    empty = contingency_table(
        ray.data.from_pandas(pd.DataFrame({"r": [None], "c": [None]})), "r", "c"
    )
    assert empty.empty


def test_psi_bins_crafted(ray_session):
    """Identical distributions → psi_term 0 everywhere; an empty
    current bin → NULL term; boundary ties go UP a bin (v >= q)."""
    from data_linter_ray.functions.stats import psi_bins

    ref = pd.DataFrame({"v": [1.0, 2.0, 3.0, 4.0] * 25})
    same = psi_bins(
        ray.data.from_pandas(ref), ray.data.from_pandas(ref), "v", n_bins=4
    )
    # boundaries = quantile_disc at .25/.5/.75 = [1,2,3]; a value EQUAL
    # to a boundary goes UP (v >= q): 1→bin1, 2→bin2, {3,4}→bin3;
    # bin 0 holds only v < min-boundary — empty here
    assert same["n_ref"].tolist() == same["n_cur"].tolist() == [0, 25, 25, 50]
    assert (same["psi_term"].dropna() == 0.0).all()
    assert pd.isna(same["psi_term"][0])  # both sides empty → NULL

    cur = pd.DataFrame({"v": [1.0, 2.0, 4.0] * 10})
    shift = psi_bins(
        ray.data.from_pandas(ref), ray.data.from_pandas(cur), "v", n_bins=4
    )
    assert shift["n_cur"].tolist() == [0, 10, 10, 10]
    assert (shift["psi_term"].dropna() != 0).all()


def test_psi_bins_tagged_matches_two_dataset_form(ray_session):
    """The fused single-input form (one materialization, one fused
    both-sides count fold) is value-identical to psi_bins on the
    equivalent split inputs — including null values and null tags."""
    from data_linter_ray.functions.stats import psi_bins, psi_bins_tagged

    rng = np.random.RandomState(3)
    n = 4000
    v = np.round(rng.gamma(2.0, 10.0, n), 3)
    v[rng.choice(n, 50, replace=False)] = np.nan
    is_ref = rng.rand(n) < 0.6
    df = pd.DataFrame({"v": v, "is_ref": is_ref})

    two = psi_bins(
        ray.data.from_pandas(df[df["is_ref"]][["v"]]),
        ray.data.from_pandas(df[~df["is_ref"]][["v"]]),
        "v",
        n_bins=10,
        round_to=9,
    )
    one = psi_bins_tagged(
        ray.data.from_pandas(df), "v", "is_ref", n_bins=10, round_to=9
    )
    pd.testing.assert_frame_equal(one, two)


def test_psi_bins_tagged_null_tag_counts_as_current(ray_session):
    """A NULL ref tag routes the row to the CURRENT side
    (fill_null(False)) — pinned against psi_bins on the split where
    null-tagged rows join the cur input, and shown to differ from the
    drop-null-tags split so a regression that silently drops them
    cannot pass."""
    from data_linter_ray.functions.stats import psi_bins, psi_bins_tagged

    rng = np.random.RandomState(7)
    n = 1500
    v = np.round(rng.gamma(2.0, 10.0, n), 3)
    tag = pd.Series(rng.rand(n) < 0.5, dtype="boolean")
    tag[rng.choice(n, 200, replace=False)] = pd.NA
    df = pd.DataFrame({"v": v, "is_ref": tag})

    is_ref = tag.fillna(False).to_numpy(bool)
    two = psi_bins(
        ray.data.from_pandas(df.loc[is_ref, ["v"]]),
        ray.data.from_pandas(df.loc[~is_ref, ["v"]]),
        "v",
        n_bins=8,
        round_to=9,
    )
    one = psi_bins_tagged(
        ray.data.from_pandas(df), "v", "is_ref", n_bins=8, round_to=9
    )
    pd.testing.assert_frame_equal(one, two)
    # guard distinguishes from the drop-null-tags interpretation
    assert int(one["n_cur"].sum()) == int((~is_ref).sum()) > int(
        (tag == False).sum()  # noqa: E712 — masked-bool compare drops NA
    )


def test_gini_oracle(ray_session, sf_dir):
    _oracle_check("value_gini", sf_dir, tables=("events",))


def test_gini_crafted(ray_session, monkeypatch):
    """Closed-form checks: perfect equality → 0; one holder of all
    value among n → (n-1)/n; width invariance; null exclusion."""
    from data_linter_ray.functions.stats import gini

    eq = pd.DataFrame({"v": [5.0] * 8 + [None]})
    out = gini(ray.data.from_pandas(eq), "v")
    assert out["n"][0] == 8 and out["gini"][0] == 0.0

    onehot = pd.DataFrame({"v": [0.0] * 9 + [10.0]})
    out = gini(ray.data.from_pandas(onehot), "v")
    assert out["gini"][0] == (10 - 1) / 10
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out2 = gini(ray.data.from_pandas(onehot), "v")
    pd.testing.assert_frame_equal(out, out2)


def test_mannwhitney_oracle(ray_session, sf_dir):
    _oracle_check("value_mannwhitney", sf_dir, tables=("events",))


def test_mannwhitney_crafted(ray_session, monkeypatch):
    """Textbook case with ties: a={1,2,2}, b={2,3}. Average ranks:
    1→1, run of three 2s at positions 2-4 → avg 3, 3→5.
    R_a = 1+3+3 = 7 → U_a = 7 - 3·4/2 = 1; U_b = 6 - 1 = 5.
    Width invariance and the scipy closed form both confirm."""
    from data_linter_ray.functions.stats import mannwhitney_u

    df = pd.DataFrame(
        {"g": ["a", "a", "a", "b", "b", None], "v": [1.0, 2.0, 2.0, 2.0, 3.0, 9.9]}
    )
    out = mannwhitney_u(ray.data.from_pandas(df), "v", "g", "a", "b")
    assert (out["n_a"][0], out["n_b"][0]) == (3, 2)
    assert out["u_a"][0] == 1.0 and out["u_b"][0] == 5.0
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out2 = mannwhitney_u(ray.data.from_pandas(df), "v", "g", "a", "b")
    pd.testing.assert_frame_equal(out, out2)


def test_spearman_oracle(ray_session, sf_dir):
    _oracle_check("price_quantity_spearman", sf_dir, tables=("lineitem",))


def test_spearman_crafted(ray_session, monkeypatch):
    """Monotone (nonlinear) relation → rho exactly 1; reversed → -1;
    ties handled by average ranks (scipy's convention): the crafted
    tie case matches the closed form computed by hand."""
    from data_linter_ray.functions.stats import spearman_corr

    mono = pd.DataFrame({"x": [1.0, 2.0, 3.0, 4.0], "y": [1.0, 8.0, 27.0, 64.0]})
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = spearman_corr(ray.data.from_pandas(mono), "x", "y")
    # the closed form evaluates sqrt(d1)*sqrt(d2), which differs from
    # sqrt(d1*d2) by an ulp — 1.0 is approached, not hit (the oracle
    # computes the identical expression, so parity is still exact)
    assert abs(out["rho"][0] - 1.0) < 1e-12
    rev = mono.assign(y=-mono["y"])
    got_rev = spearman_corr(ray.data.from_pandas(rev), "x", "y")["rho"][0]
    assert abs(got_rev + 1.0) < 1e-12

    # ties: x = [1,1,2], y = [1,2,3]. avg ranks x: 1.5,1.5,3; y: 1,2,3
    # → rho = cov/σxσy = ((1.5-2)(1-2)+(1.5-2)(2-2)+(3-2)(3-2)) /
    #   sqrt(0.25+0.25+1)/sqrt(2) = 1.5/sqrt(1.5·2) = sqrt(3)/2
    tie = pd.DataFrame({"x": [1.0, 1.0, 2.0], "y": [1.0, 2.0, 3.0]})
    got = spearman_corr(ray.data.from_pandas(tie), "x", "y")["rho"][0]
    import math

    assert abs(got - math.sqrt(3) / 2) < 1e-12


def test_kendall_oracle(ray_session, sf_dir):
    _oracle_check("value_user_kendall", sf_dir, tables=("events",))


def test_kendall_crafted_and_random(ray_session, monkeypatch):
    """Exact c/d vs an O(n²) brute force on random tied data at two
    exchange widths, plus the textbook no-tie case τ = 1."""
    from data_linter_ray.functions.stats import kendall_tau

    mono = pd.DataFrame({"x": [1.0, 2.0, 3.0], "y": [10.0, 20.0, 30.0]})
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = kendall_tau(ray.data.from_pandas(mono), "x", "y")
    assert (out["c"][0], out["d"][0]) == (3, 0)
    assert abs(out["tau_b"][0] - 1.0) < 1e-12

    rng = np.random.RandomState(11)
    n = 150
    df = pd.DataFrame(
        {
            "x": rng.randint(0, 8, n).astype(float),
            "y": rng.randint(0, 6, n).astype(float),
        }
    )
    X, Y = df["x"].to_numpy(), df["y"].to_numpy()
    c = d = 0
    for i in range(n):
        s = (X[i] - X[i + 1:]) * (Y[i] - Y[i + 1:])
        c += int((s > 0).sum())
        d += int((s < 0).sum())
    for p in (2, 5):
        monkeypatch.setenv(exchange.ENV_VAR, str(p))
        out = kendall_tau(ray.data.from_pandas(df), "x", "y")
        assert (out["c"][0], out["d"][0]) == (c, d), (p, out)


def test_kendall_driver_matrix_bounded(ray_session, monkeypatch):
    """Fleet-scale guard for kendall's driver fold: the ONLY per-bucket
    partials that reach the driver are one row per non-empty x-bucket
    carrying a Q-length count vector (≤ P·Q ints total) plus one scalar
    row per y-bucket — bounded by the exchange width, NEVER by n.
    Verified by spying on the exchanged partial frames at a forced
    width on 60k heavily-tied rows, and by partition-invariance of the
    exact statistic (wide result == width-1 result)."""
    from data_linter_ray.functions.stats import kendall_tau

    n = 60_000
    i = np.arange(n)
    df = pd.DataFrame(
        {
            # heavy ties + skew: 97 x-levels, 89 y-levels, hot x=0 band
            "x": np.where(i % 5 == 0, 0, i % 97).astype(float),
            "y": ((i * 7) % 89).astype(float),
        }
    )

    captured = []
    orig = exchange.exchange_map_groups

    def spy(ds, by, fn, *, num_partitions=None, **kw):
        out = orig(ds, by, fn, num_partitions=num_partitions, **kw).materialize()
        captured.append((num_partitions, out.to_pandas()))
        return out

    monkeypatch.setattr(exchange, "exchange_map_groups", spy)

    P = 16
    monkeypatch.setenv(exchange.ENV_VAR, str(P))
    wide = kendall_tau(ray.data.from_pandas(df), "x", "y")

    assert len(captured) == 2  # x pass, y pass
    (px, xres), (py, yres) = captured
    # x pass: ≤ P rows, each _m exactly Q ints (Q ≤ P) — the driver
    # matrix is ≤ P·Q ints whatever n is
    assert px == P and len(xres) <= P
    q_lens = {len(r.split()) for r in xres["_m"]}
    assert len(q_lens) == 1 and q_lens.pop() <= P
    # y pass: ≤ Q scalar rows
    assert py == P and len(yres) <= P
    # partition-invariance: the wide exchange computes the identical
    # exact statistic as the single-bucket path
    monkeypatch.setattr(exchange, "exchange_map_groups", orig)
    monkeypatch.setenv(exchange.ENV_VAR, "1")
    one = kendall_tau(ray.data.from_pandas(df), "x", "y")
    assert (wide["c"][0], wide["d"][0]) == (one["c"][0], one["d"][0])
    assert wide["n"][0] == n


@pytest.mark.parametrize(
    "name", ["event_segment_mi", "event_segment_cramers_v"]
)
def test_association_oracle_pairs(ray_session, sf_dir, name):
    _oracle_check(name, sf_dir, tables=("events",))


def test_mutual_information_crafted(ray_session):
    """Independent columns → every mi_term 0 (exactly: n_ab·N equals
    n_a·n_b, ln(1) = 0); a perfectly dependent pair → MI = ln(2)."""
    from data_linter_ray.functions.stats import mutual_information

    ind = pd.DataFrame(
        {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
    )
    out = mutual_information(ray.data.from_pandas(ind), "a", "b")
    assert (out["mi_term"] == 0.0).all()

    dep = pd.DataFrame({"a": ["x", "y"] * 20, "b": ["p", "q"] * 20})
    out = mutual_information(ray.data.from_pandas(dep), "a", "b")
    import math

    assert abs(out["mi_term"].sum() - math.log(2)) < 1e-12


def test_value_autocorr_oracle(ray_session, sf_dir):
    _oracle_check("value_autocorr", sf_dir, tables=("events",))


def test_lag_correlation_crafted(ray_session, monkeypatch):
    """AR(1)-like alternating series → corr −1 within a key; pairs
    never cross keys; a null value voids its two pairs but keeps its
    ordering position (SQL lag semantics)."""
    from data_linter_ray.functions.window import lag_correlation

    ts = pd.to_datetime([f"2024-01-01 00:00:{i:02d}" for i in range(6)])
    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 2, 2],
            "ts": list(ts[:4]) + list(ts[:2]),
            "i": [1, 2, 3, 4, 5, 6],
            "v": [1.0, -1.0, 1.0, -1.0, 5.0, 5.0],
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = lag_correlation(ray.data.from_pandas(df), "k", "ts", "i", "v")
    # key 1 contributes 3 perfectly alternating pairs; key 2's pair is
    # constant (5,5) — pooled corr < 0 but not exactly -1
    assert out["n_pairs"][0] == 4

    nulled = df.assign(v=[1.0, None, 1.0, -1.0, 5.0, 5.0])
    out2 = lag_correlation(ray.data.from_pandas(nulled), "k", "ts", "i", "v")
    # the null voids pairs (1,2) and (2,3); (3,4) and key-2 remain
    assert out2["n_pairs"][0] == 2


def test_joint_histogram_oracle(ray_session, sf_dir):
    _oracle_check("price_quantity_heatmap", sf_dir, tables=("lineitem",))


def test_joint_histogram_crafted(ray_session):
    """Cell totals sum to n; boundary values go UP a bin; empty cells
    are omitted (GROUP BY parity)."""
    from data_linter_ray.functions.stats import joint_histogram

    df = pd.DataFrame(
        {"x": [1.0, 1.0, 2.0, 2.0], "y": [1.0, 2.0, 1.0, 2.0]}
    )
    out = joint_histogram(
        ray.data.from_pandas(df), "x", "y", n_bins_x=2, n_bins_y=2
    )
    # boundaries: qx=[1], qy=[1] (quantile_disc at .5 of {1,1,2,2}=1);
    # v >= q sends every value up: bins {1→1, 2→1}? No: #{[1] ≤ v} = 1
    # for all → every row lands in (1, 1)
    assert out["n"].sum() == 4
    assert len(out) == 1 and (out.iloc[0]["bin_x"], out.iloc[0]["bin_y"]) == (1, 1)


def test_segment_drift_ks_oracle(ray_session, sf_dir):
    _oracle_check("segment_drift_ks", sf_dir, tables=("events",))


def test_ks_per_group_crafted(ray_session, monkeypatch):
    """A group identical to the pool has a small-but-nonzero KS (its
    own mass shifts the pooled CDF); a disjoint-support group carries
    the largest; width invariance; the max_groups guard raises."""
    from data_linter_ray.functions.stats import ks_per_group

    df = pd.DataFrame(
        {
            "g": ["a"] * 50 + ["b"] * 50,
            "v": [float(i % 10) for i in range(50)]
            + [float(100 + i % 10) for i in range(50)],
        }
    )
    out = ks_per_group(ray.data.from_pandas(df), "v", "g")
    # both groups hold half the mass with disjoint support: F_a hits 1
    # while pooled is at .5 → sup = .5 for each
    assert out["ks"].tolist() == [0.5, 0.5]
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out2 = ks_per_group(ray.data.from_pandas(df), "v", "g")
    pd.testing.assert_frame_equal(out, out2)

    with pytest.raises(ValueError):
        ks_per_group(ray.data.from_pandas(df), "v", "g", max_groups=1)


@pytest.mark.parametrize(
    "name,tables",
    [
        ("vocab_zipf_slope", ("documents",)),
        ("source_dup_rate", ("documents",)),
    ],
)
def test_corpus_composition_oracle_pairs(ray_session, sf_dir, name, tables):
    _oracle_check(name, sf_dir, tables=tables)


def test_event_basket_lift_oracle(ray_session, sf_dir):
    _oracle_check("event_basket_lift", sf_dir, tables=("events",))


def test_cooccurrence_lift_crafted(ray_session, monkeypatch):
    """Hand-computed 3-basket case: items P/Q co-occur in 2 of 3
    baskets with n_P = 3, n_Q = 2 → lift = 2·3/(3·2) = 1; a pair
    appearing once with rarer singles lifts above 1; duplicates within
    a basket count once."""
    from data_linter_ray.functions.stats import cooccurrence_lift

    df = pd.DataFrame(
        {
            "b": ["1", "1", "1", "2", "2", "3", "3", "3"],
            "i": ["P", "Q", "P", "P", "Q", "P", "R", "R"],
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = cooccurrence_lift(ray.data.from_pandas(df), "b", "i")
    out = out.set_index(["item_a", "item_b"])
    assert out.loc[("P", "Q"), "n_ab"] == 2
    assert out.loc[("P", "Q"), "lift"] == (2 * 3) / (3 * 2)
    assert out.loc[("P", "R"), "n_ab"] == 1
    assert out.loc[("P", "R"), "lift"] == (1 * 3) / (3 * 1)
    assert ("Q", "R") not in out.index


@pytest.mark.parametrize(
    "name,tables",
    [
        ("price_by_quantity_quartiles", ("lineitem",)),
        ("weekly_drift_ks", ("events",)),
        ("funnel_conversion", ("events",)),
    ],
)
def test_batch3_composition_oracle_pairs(ray_session, sf_dir, name, tables):
    """Composition queries: conditional quantiles (bucketize →
    grouped quantiles), the weekly drift-KS timeline, and the funnel
    conversion summary."""
    _oracle_check(name, sf_dir, tables=tables)


def test_value_sla_verdicts_oracle(ray_session, sf_dir):
    _oracle_check("value_sla_verdicts", sf_dir, tables=("events",))


def test_session_duration_quartiles_oracle(ray_session, sf_dir):
    _oracle_check("session_duration_quartiles", sf_dir, tables=("events",))


@pytest.mark.parametrize(
    "name,tables",
    [
        ("source_pareto", ("documents",)),
        ("source_freshness", ("events",)),
    ],
)
def test_quality_dashboard_oracle_pairs(ray_session, sf_dir, name, tables):
    _oracle_check(name, sf_dir, tables=tables)


def test_value_cusum_alarms_oracle(ray_session, sf_dir):
    _oracle_check("value_cusum_alarms", sf_dir, tables=("events",))


def test_cusum_alarms_crafted(ray_session, monkeypatch):
    """The clamp resets after dips; alarms fire only once the running
    excess crosses the threshold; keys are independent (band-segmented
    running min never leaks across keys); null values are neutral."""
    from data_linter_ray.functions.window import cusum_alarms

    ts = pd.to_datetime([f"2024-01-01 00:00:{i:02d}" for i in range(10)])
    df = pd.DataFrame(
        {
            "k": [1] * 6 + [2] * 4,
            "ts": list(ts[:6]) + list(ts[:4]),
            "i": list(range(10)),
            "v": [50.0, 52.0, 55.0, 54.0, None, 55.0,
                  40.0, 45.0, 50.0, 42.0],
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = (
        cusum_alarms(
            ray.data.from_pandas(df), "k", "ts", "i", "v",
            ref_cents=5000, slack_cents=100, threshold_cents=500,
        )
        .to_pandas().sort_values("i").reset_index(drop=True)
    )

    def brute(vals):
        S, flags = 0, []
        for v in vals:
            dev = 0 if v is None else int(round(v * 100)) - 5100
            S = max(0, S + dev)
            flags.append(S > 500)
        return flags

    b1 = brute([50, 52, 55, 54, None, 55])
    b2 = brute([40, 45, 50, 42])
    expect = [i for i, f in enumerate(b1) if f] + [
        6 + i for i, f in enumerate(b2) if f
    ]
    assert out["i"].tolist() == expect


def test_grouped_value_mad_oracle(ray_session, sf_dir):
    _oracle_check("grouped_value_mad", sf_dir, tables=("events",))


def test_gap_quartiles_oracle(ray_session, sf_dir):
    _oracle_check("gap_quartiles", sf_dir, tables=("events",))


def test_nan_payloads_excluded_like_nulls(ray_session, monkeypatch):
    """Float NaN payloads (non-null NaN, which survive Arrow drop_null)
    are excluded explicitly by the rank/two-sample/heatmap family —
    the documented policy (same as gini). Before the explicit filter,
    NaN rows were dropped ACCIDENTALLY (pandas groupby discards NaN
    keys) in some folds but counted in others (t-digest, searchsorted
    → last bucket), so this pins: result over NaN-injected input ==
    result over the NaN-free subset, at multiple partition counts."""
    import numpy as np

    from data_linter_ray.functions.stats import (
        joint_histogram,
        kendall_tau,
        ks_per_group,
        ks_two_sample,
        mannwhitney_u,
        spearman_corr,
    )

    rng = np.random.RandomState(7)
    n = 400
    clean = pd.DataFrame(
        {
            "g": np.where(rng.rand(n) < 0.5, "a", "b"),
            "x": rng.randint(0, 20, n).astype(np.float64),
            "y": rng.randint(0, 20, n).astype(np.float64),
        }
    )
    dirty = clean.copy()
    # sprinkle NaN into both columns on disjoint extra rows
    extra = pd.DataFrame(
        {
            "g": ["a", "b", "a", "b"],
            "x": [np.nan, 1.0, np.nan, 5.0],
            "y": [2.0, np.nan, np.nan, 7.0],
        }
    )
    dirty = pd.concat([dirty, extra], ignore_index=True)

    for P in (1, 3):
        monkeypatch.setenv(exchange.ENV_VAR, str(P))
        ds_clean = ray.data.from_pandas(clean)
        ds_dirty = ray.data.from_pandas(dirty)

        # two-group family: value column NaN rows excluded
        want = ks_two_sample(ds_clean, "x", "g", "a", "b")
        got = ks_two_sample(ds_dirty, "x", "g", "a", "b")
        # dirty input has 2 extra non-NaN x rows (1.0 in b, 5.0 in b)
        assert got["n_a"][0] == want["n_a"][0]
        assert got["n_b"][0] == want["n_b"][0] + 2

        # pairwise family: any-NaN pairs excluded entirely — the last
        # extra row (5.0, 7.0) is the only fully-clean addition
        sp_want = spearman_corr(
            ray.data.from_pandas(
                pd.concat([clean, extra.iloc[[3]]], ignore_index=True)
            ),
            "x",
            "y",
        )
        sp_got = spearman_corr(ds_dirty, "x", "y")
        assert sp_got["n"][0] == len(clean) + 1
        assert sp_got["rho"][0] == sp_want["rho"][0]

        kt_want = kendall_tau(
            ray.data.from_pandas(
                pd.concat([clean, extra.iloc[[3]]], ignore_index=True)
            ),
            "x",
            "y",
        )
        kt_got = kendall_tau(ds_dirty, "x", "y")
        pd.testing.assert_frame_equal(kt_got, kt_want)

        jh_want = joint_histogram(
            ray.data.from_pandas(
                pd.concat([clean, extra.iloc[[3]]], ignore_index=True)
            ),
            "x",
            "y",
        )
        jh_got = joint_histogram(ds_dirty, "x", "y")
        pd.testing.assert_frame_equal(jh_got, jh_want)

        kpg_got = ks_per_group(ds_dirty, "x", "g")
        assert int(kpg_got["n"].sum()) == len(clean) + 2  # 2 non-NaN x extras

        mw_got = mannwhitney_u(ds_dirty, "x", "g", "a", "b")
        assert mw_got["n_a"][0] + mw_got["n_b"][0] == len(clean) + 2
