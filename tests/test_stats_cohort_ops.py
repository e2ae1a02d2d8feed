"""Correlation / interpolated-percentile / full-outer-join / cohort
retention — crafted edge cases plus DuckDB parity on real testdata."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from data_linter_ray import exchange


def _oracle_check(name: str, sf_dir: str, tables):
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
# corr_matrix
# ---------------------------------------------------------------------------


def test_corr_matrix_crafted(ray_session):
    from data_linter_ray.functions.stats import corr_matrix

    x = np.arange(100, dtype=np.float64)
    t = pa.table(
        {
            "a": pa.array(x),
            "b": pa.array(2.0 * x + 3.0),        # corr(a, b) = 1
            "c": pa.array(-x),                    # corr(a, c) = -1
            "d": pa.array(np.full(100, 7.0)),     # zero variance → NaN
        }
    )
    out = corr_matrix(
        ray.data.from_arrow(t).repartition(4), ["a", "b", "c", "d"], round_to=9
    )
    got = {(r.col_x, r.col_y): r.corr for r in out.itertuples()}
    assert got[("a", "b")] == 1.0
    assert got[("a", "c")] == -1.0
    assert np.isnan(got[("a", "d")])
    assert (out["n"] == 100).all()


def test_corr_matrix_pairwise_null_deletion(ray_session):
    from data_linter_ray.functions.stats import corr_matrix

    # a-b complete on rows 0-3 (corr -1); b null on row 4 where a has an
    # outlier — pairwise deletion must ignore it for the (a, b) pair
    t = pa.table(
        {
            "a": pa.array([1.0, 2.0, 3.0, 4.0, 1000.0]),
            "b": pa.array([4.0, 3.0, 2.0, 1.0, None]),
        }
    )
    out = corr_matrix(ray.data.from_arrow(t), ["a", "b"], round_to=9)
    assert out["n"].tolist() == [4]
    assert out["corr"].tolist() == [-1.0]


def test_corr_matrix_nan_payload_deleted_like_null(ray_session):
    """Pins today's NaN policy: a non-null NaN payload is pairwise-
    deleted exactly like a null (SQL ``corr`` would return NaN)."""
    from data_linter_ray.functions.stats import corr_matrix

    nan = float("nan")
    t = pa.table(
        {
            "a": pa.array([1.0, 2.0, nan, 4.0, 5.0]),
            "b": pa.array([2.0, 4.0, 6.0, 8.0, None]),
            "c": pa.array([1.0, 0.0, 1.0, 0.0, 1.0]),
        }
    )
    assert t["a"].null_count == 0  # a real NaN, not a null
    out = corr_matrix(ray.data.from_arrow(t), ["a", "b", "c"], round_to=9)
    assert out["n"].tolist() == [3, 4, 4]
    assert out["corr"].tolist() == [1.0, 0.0, round(-1 / 5**0.5, 9)]


def test_lineitem_corr_vs_duckdb(ray_session, sf_dir):
    _oracle_check("lineitem_corr", sf_dir, ("lineitem",))


# ---------------------------------------------------------------------------
# percentile_cont
# ---------------------------------------------------------------------------


def test_percentile_cont_crafted(ray_session):
    from data_linter_ray.functions.quantiles import percentile_cont

    vals = [10.0, 20.0, 30.0, 40.0]  # quartile interpolation points
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(2)
    out = percentile_cont(ds, "v", [0.0, 0.25, 0.5, 1.0])
    got = dict(zip(out["q"], out["value"]))
    assert got[0.0] == 10.0
    assert got[0.25] == 17.5    # RN = 0.75 between 10 and 20
    assert got[0.5] == 25.0
    assert got[1.0] == 40.0


def test_percentile_cont_matches_numpy_random(ray_session):
    from data_linter_ray.functions.quantiles import percentile_cont

    rng = np.random.default_rng(7)
    vals = rng.normal(size=5001)
    qs = [0.01, 0.37, 0.5, 0.93]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(5)
    # force multi-round refinement with a tiny collect cap
    out = percentile_cont(ds, "v", qs, n_buckets=16, max_collect=64)
    exp = np.quantile(vals, qs)  # numpy 'linear' == SQL quantile_cont
    assert np.allclose(out["value"].to_numpy(), exp, rtol=0, atol=1e-12)


def test_value_percentiles_cont_vs_duckdb(ray_session, sf_dir):
    _oracle_check("value_percentiles_cont", sf_dir, ("events",))


# ---------------------------------------------------------------------------
# full-outer equi_join
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
def test_full_outer_both_sides_exclusive(ray_session, strategy):
    from data_linter_ray.functions.joins import equi_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()), "a": ["x", "y", "z"]})
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 3, 4], pa.int64()), "b": pa.array([20, 30, 40], pa.int64())})
    )
    out = (
        equi_join(left, right, on=("k",), how="full_outer", strategy=strategy)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3, 4]
    # left-only row: null right payload; right-only row: null left payload
    assert pd.isna(out.loc[0, "b"]) and out.loc[0, "a"] == "x"
    assert pd.isna(out.loc[3, "a"]) and out.loc[3, "b"] == 40


def test_full_outer_broadcast_right_key_rename(ray_session):
    from data_linter_ray.functions.joins import equi_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()), "a": ["x"]})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([9], pa.int64()), "b": pa.array([90], pa.int64())})
    )
    out = (
        equi_join(
            left, right, on=("k",), right_on=("rk",),
            how="full_outer", strategy="broadcast",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # the unmatched right key surfaces coalesced into the left key column
    assert out["k"].tolist() == [1, 9]
    assert pd.isna(out.loc[1, "a"]) and out.loc[1, "b"] == 90


def test_customer_order_activity_vs_duckdb(ray_session, sf_dir):
    _oracle_check("customer_order_activity", sf_dir, ("customer", "orders"))


# ---------------------------------------------------------------------------
# retention_matrix
# ---------------------------------------------------------------------------


def test_retention_matrix_crafted(ray_session, monkeypatch):
    from data_linter_ray.functions.cohort import retention_matrix

    week = 604800 * 1_000_000  # µs
    # user 1: weeks 0,1,2 — cohort 0; user 2: weeks 1,1,3 — cohort 1
    # (duplicate activity in one week counts once); user 3: week 2 only
    ts = np.array(
        [0, week, 2 * week, week, week + 5, 3 * week, 2 * week],
        dtype="datetime64[us]",
    )
    t = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 2, 3], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "4")
    out = retention_matrix(ray.data.from_arrow(t).repartition(3), "u", "ts")
    cells = {(r.cohort_period, r.period): r.n_users for r in out.itertuples()}
    assert cells == {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,   # user 1
        (1, 1): 1, (1, 3): 1,              # user 2
        (2, 2): 1,                         # user 3
    }
    assert out.dtypes.astype(str).tolist() == ["int64"] * 3


def test_retention_matrix_all_null_empty(ray_session):
    """Null users and null timestamps are excluded, so an all-null
    input is an empty matrix with the documented, typed columns."""
    from data_linter_ray.functions.cohort import retention_matrix

    t = pa.table(
        {
            "u": pa.array([None, 1], pa.int64()),
            "ts": pa.array([0, None], pa.timestamp("us")),
        }
    )
    out = retention_matrix(ray.data.from_arrow(t), "u", "ts")
    assert out.empty
    assert list(out.columns) == ["cohort_period", "period", "n_users"]
    assert out.dtypes.astype(str).tolist() == ["int64"] * 3


def test_user_retention_vs_duckdb(ray_session, sf_dir):
    _oracle_check("user_retention", sf_dir, ("events",))


# ---------------------------------------------------------------------------
# unigram LM scoring
# ---------------------------------------------------------------------------


def test_unigram_logprob_crafted(ray_session):
    import math

    from data_linter_ray.functions.lm import unigram_logprob

    # corpus: 5 'a' (3 + 2 from "a.a"), 2 'b', T = 7
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["a a A", "b a.a", "B", ""], pa.string()),
        }
    )
    out = (
        unigram_logprob(ray.data.from_arrow(t).repartition(2))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # the empty doc emits nothing
    assert out["doc_id"].tolist() == [1, 2, 3]
    la, lb = math.log(5 / 7), math.log(2 / 7)
    assert out["n_tokens"].tolist() == [3, 3, 1]
    assert out.loc[0, "mean_logprob"] == (3 * la) / 3
    assert out.loc[1, "mean_logprob"] == (2 * la + 1 * lb) / 3
    assert out.loc[2, "mean_logprob"] == lb


def test_unigram_logprob_vocab_cap_oov_floor(ray_session, monkeypatch):
    import math

    from data_linter_ray.functions.lm import unigram_logprob

    # 'a' x4 dominates; with vocab_size=1 'b' and 'c' fall to the
    # alpha/T floor
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a a a a", "b c"], pa.string()),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "1")
    out = (
        unigram_logprob(ray.data.from_arrow(t), vocab_size=1, alpha=0.5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    T = 6
    assert out.loc[0, "mean_logprob"] == math.log(4 / T)
    assert out.loc[1, "mean_logprob"] == math.log(0.5 / T)


def test_lm_scores_vs_duckdb(ray_session, sf_dir):
    got = _oracle_check("lm_scores", sf_dir, ("documents",))
    assert len(got) > 0


# ---------------------------------------------------------------------------
# keyed rolling aggregates
# ---------------------------------------------------------------------------


def test_keyed_rolling_crafted(ray_session):
    from data_linter_ray.functions.window import keyed_rolling

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:01", "2024-01-01 00:00:02",
         "2024-01-01 00:00:03", "2024-01-01 00:00:04", None]
    )
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "i": pa.array([10, 11, 12, 13, 20, 21], pa.int64()),
            # null value keeps its row in the frame but contributes 0
            "v": pa.array([1.0, None, 3.0, 5.0, 7.0, 9.0], pa.float64()),
        }
    )
    out = (
        keyed_rolling(
            ray.data.from_arrow(t).repartition(3), "k", "ts", "i", "v", window=2
        )
        .to_pandas()
        .sort_values(["k", "i"])
        .reset_index(drop=True)
    )
    # the null-ts row is dropped
    assert out["i"].tolist() == [10, 11, 12, 13, 20]
    assert out["roll_sum_cents"].tolist() == [100, 100, 300, 800, 700]
    assert out["roll_n"].tolist() == [1, 1, 1, 2, 1]
    assert out["roll_max"].tolist() == [1.0, 1.0, 3.0, 5.0, 7.0]


def test_user_value_rolling_vs_duckdb(ray_session, sf_dir):
    _oracle_check("user_value_rolling", sf_dir, ("events",))


@pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
def test_right_outer_join(ray_session, strategy):
    from data_linter_ray.functions.joins import equi_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()), "a": ["x", "y"]})
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 4], pa.int64()), "b": pa.array([20, 40], pa.int64())})
    )
    out = (
        equi_join(left, right, on=("k",), how="right_outer", strategy=strategy)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # left-only key 1 excluded; right-only key 4 padded with null left
    assert out["k"].tolist() == [2, 4]
    assert out.loc[0, "a"] == "y" and out.loc[0, "b"] == 20
    assert pd.isna(out.loc[1, "a"]) and out.loc[1, "b"] == 40


# ---------------------------------------------------------------------------
# grouped percentile_cont
# ---------------------------------------------------------------------------


def test_grouped_percentile_cont_crafted(ray_session):
    from data_linter_ray.functions.quantiles import grouped_percentile_cont

    t = pa.table(
        {
            "g": pa.array(["a"] * 4 + ["b"] * 3 + ["c"], pa.string()),
            # group c has only a null value → NULL quantile, group kept
            "v": pa.array([10.0, 20.0, 30.0, 40.0, 1.0, 2.0, 4.0, None]),
        }
    )
    out = grouped_percentile_cont(
        ray.data.from_arrow(t).repartition(3), "v", "g", [0.25, 0.5]
    )
    got = {(r.group, r.q): r.value for r in out.itertuples()}
    assert got[("a", 0.25)] == 17.5 and got[("a", 0.5)] == 25.0
    assert got[("b", 0.5)] == 2.0 and got[("b", 0.25)] == 1.5
    assert np.isnan(got[("c", 0.5)])


def test_grouped_percentiles_cont_vs_duckdb(ray_session, sf_dir):
    _oracle_check("grouped_percentiles_cont", sf_dir, ("events",))


def test_winsorize_crafted(ray_session):
    from data_linter_ray.functions.quantiles import winsorize

    vals = list(map(float, range(1, 101)))  # 1..100
    t = pa.table(
        {
            "id": pa.array(range(101), pa.int64()),
            "v": pa.array(vals + [None]),
        }
    )
    out = (
        winsorize(
            ray.data.from_arrow(t).repartition(4), "v", lo_q=0.1, hi_q=0.9
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # fences = quantile_disc(0.1/0.9) = 10th / 90th smallest = 10, 90
    assert out["v_capped"].min() == 10.0 and out["v_capped"].max() == 90.0
    assert out.loc[49, "v_capped"] == 50.0       # interior untouched
    assert pd.isna(out.loc[100, "v_capped"])     # null stays null


def test_value_winsorized_vs_duckdb(ray_session, sf_dir):
    _oracle_check("value_winsorized", sf_dir, ("events",))


# ---------------------------------------------------------------------------
# group_count_distinct / cross_knn
# ---------------------------------------------------------------------------


def test_group_count_distinct_crafted(ray_session, monkeypatch):
    from data_linter_ray.functions.stats import group_count_distinct

    t = pa.table(
        {
            "g": pa.array(["a", "a", "a", "b", "b", None, "c"], pa.string()),
            # duplicate values across batches must count once; null
            # value and null group excluded
            "v": pa.array([1, 1, 2, 7, 7, 9, None], pa.int64()),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out = group_count_distinct(ray.data.from_arrow(t).repartition(4), "g", "v")
    assert dict(zip(out["g"], out["n_distinct"])) == {"a": 2, "b": 1}


def test_cross_knn_crafted(ray_session):
    from data_linter_ray.functions.similarity import cross_knn

    left = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([10, 11], pa.int64()),
                "embedding": [[1.0, 0.0], [0.0, 1.0]],
            }
        )
    )
    refs = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                # ref 3 duplicates ref 2 → tie broken by ascending id
                "embedding": [[0.9, 0.1], [0.1, 0.9], [0.1, 0.9]],
            }
        )
    )
    out = (
        cross_knn(left, refs, k=2)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert out[out["query_id"] == 10]["neighbor_id"].tolist()[0] == 1
    assert out[out["query_id"] == 11]["neighbor_id"].tolist() == [2, 3]


def test_cross_knn_boundary_ties_pick_smallest_ids(ray_session):
    """Ties EXACTLY at the k-th similarity: argpartition alone would
    admit an arbitrary tied neighbor; the repair must keep the smallest
    ids. 4 identical references tie at rank 2-4 with k=2 → neighbor
    set {1, 2}, never {1, 3} or {1, 4}; shuffled insertion order must
    not matter."""
    from data_linter_ray.functions.similarity import cross_knn

    left = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([10], pa.int64()),
                "embedding": [[1.0, 0.0]],
            }
        )
    )
    refs = ray.data.from_arrow(
        pa.table(
            {
                # deliberately NOT id-sorted; ids 2,3,4 are duplicates
                "vec_id": pa.array([4, 1, 3, 2], pa.int64()),
                "embedding": [
                    [0.5, 0.5],
                    [0.9, 0.1],
                    [0.5, 0.5],
                    [0.5, 0.5],
                ],
            }
        )
    )
    out = (
        cross_knn(left, refs, k=2)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    assert out["neighbor_id"].tolist() == [1, 2]


def test_event_type_reach_vs_duckdb(ray_session, sf_dir):
    _oracle_check("event_type_reach", sf_dir, ("events",))


def test_nearest_reference_vs_duckdb(ray_session, sf_dir):
    _oracle_check("nearest_reference", sf_dir, ("embeddings",))


def test_chunk_documents_crafted(ray_session):
    from data_linter_ray.functions.text import chunk_documents

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b  c d e", "x", "   "], pa.string()),
        }
    )
    out = (
        chunk_documents(
            ray.data.from_arrow(t).repartition(2), chunk=3, stride=2
        )
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = out[out["doc_id"] == 1]
    assert d1["text"].tolist() == ["a b c", "c d e", "e"]
    assert d1["n_tokens"].tolist() == [3, 3, 1]
    assert out[out["doc_id"] == 2]["text"].tolist() == ["x"]
    # whitespace-only doc emits nothing
    assert (out["doc_id"] == 3).sum() == 0


def test_document_chunks_vs_duckdb(ray_session, sf_dir):
    _oracle_check("document_chunks", sf_dir, ("documents",))


def test_grouped_quantiles_extreme_dynamic_range(ray_session):
    # the grouped engine must survive the same stall the ungrouped
    # re-anchoring fix covers: subnormals vs 1.0 in one group
    from data_linter_ray.functions.quantiles import grouped_quantiles

    tiny = 5e-324
    vals = [tiny] * 40 + [1.0] * 10
    t = pa.table(
        {
            "g": pa.array(["a"] * 50 + ["b"] * 3, pa.string()),
            "v": pa.array(vals + [1.0, 2.0, 3.0]),
        }
    )
    out = grouped_quantiles(
        ray.data.from_arrow(t).repartition(3), "v", "g", [0.5, 0.9],
        n_buckets=16, max_collect=4, max_rounds=6,
    )
    got = {(r.group, r.q): r.value for r in out.itertuples()}
    assert got[("a", 0.5)] == tiny      # 25th smallest of 50
    assert got[("a", 0.9)] == 1.0       # 45th smallest
    assert got[("b", 0.5)] == 2.0


def test_expression_violations_null_semantics(ray_session):
    import pyarrow.dataset as pads

    from data_linter_ray.functions.constraints import expression_violations

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "a": pa.array([1.0, 5.0, None, 2.0]),
            "b": pa.array([1.0, 5.0, 1.0, None]),
        }
    )
    # CHECK (a + b < 4): row 1 passes; row 2 fails (10); rows 3,4 have
    # a NULL predicate — SQL CHECK treats unknown as a violation here
    out = (
        expression_violations(
            ray.data.from_arrow(t).repartition(2),
            (pads.field("a") + pads.field("b")) < 4,
        )
        .to_pandas()
        .sort_values("id")
    )
    assert out["id"].tolist() == [2, 3, 4]


def test_lineitem_check_violations_vs_duckdb(ray_session, sf_dir):
    _oracle_check("lineitem_check_violations", sf_dir, ("lineitem",))


def test_deduped_chunks_vs_duckdb(ray_session, sf_dir):
    _oracle_check("deduped_chunks", sf_dir, ("documents",))


def test_extract_json_field_shapes(ray_session):
    from data_linter_ray.functions.jsonfields import extract_json_field

    a = pa.array(
        ['{"k": 69}', '{"j": 1, "k": -3}', '{"j": 2}', None, "junk",
         '{"k": "notanint"}']
    )
    got = extract_json_field(a, "k", "int").to_pylist()
    assert got == [69, -3, None, None, None, None]
    s = pa.array(['{"name": "bob", "k": 1}', '{"name": 7}'])
    assert extract_json_field(s, "name", "string").to_pylist() == ["bob", None]
    d = pa.array(['{"x": 1.5e3}', '{"x": -2.25}'])
    assert extract_json_field(d, "x", "double").to_pylist() == [1500.0, -2.25]


def test_event_props_stats_vs_duckdb(ray_session, sf_dir):
    _oracle_check("event_props_stats", sf_dir, ("events",))


def test_value_mad_vs_duckdb(ray_session, sf_dir):
    _oracle_check("value_mad", sf_dir, ("events",))


def test_transition_counts_crafted(ray_session, monkeypatch):
    from data_linter_ray.functions.window import transition_counts

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:00:01", "2024-01-01 00:00:02",
         "2024-01-01 00:00:00", "2024-01-01 00:00:01", None]
    )
    t = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 2], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "i": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "e": pa.array(["a", "b", "a", "a", "b", "c"], pa.string()),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "4")
    out = transition_counts(
        ray.data.from_arrow(t).repartition(3), "u", "ts", "e", tie="i",
    ).to_pandas()
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    # user1: a→b, b→a; user2: a→b (null-ts row dropped, no pair to 'c');
    # no cross-user pair
    assert got == {("a", "b"): 2, ("b", "a"): 1}


def test_event_transitions_vs_duckdb(ray_session, sf_dir):
    _oracle_check("event_transitions", sf_dir, ("events",))


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------


def test_set_ops_crafted_with_nulls(ray_session):
    from data_linter_ray.functions.setops import except_distinct, intersect_distinct

    a = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 1, 2, 3, None], pa.int64())})
    ).repartition(2)
    b = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 2, 4, None], pa.int64())})
    ).repartition(2)
    inter = sorted(
        intersect_distinct(a, b, ["k"]).to_pandas()["k"].tolist(),
        key=lambda x: (x is None or x != x, x if x == x and x is not None else 0),
    )
    # SQL INTERSECT matches NULL with NULL (IS NOT DISTINCT FROM)
    vals = [v for v in inter if v == v]
    assert sorted(int(v) for v in vals) == [2]
    assert len(inter) == 2  # 2 and the null row
    exc = except_distinct(a, b, ["k"]).to_pandas()["k"].dropna().tolist()
    assert sorted(int(v) for v in exc) == [1, 3]


def test_users_both_halves_vs_duckdb(ray_session, sf_dir):
    _oracle_check("users_both_halves", sf_dir, ("events",))


def test_users_first_half_only_vs_duckdb(ray_session, sf_dir):
    _oracle_check("users_first_half_only", sf_dir, ("events",))


def test_group_centroids_crafted(ray_session):
    from data_linter_ray.functions.similarity import group_centroids

    t = pa.table(
        {
            "label": pa.array([0, 0, 1, None], pa.int64()),
            "embedding": [[1.0, 3.0], [3.0, 5.0], [10.0, 20.0], [9.0, 9.0]],
        }
    )
    out = group_centroids(
        ray.data.from_arrow(t).repartition(2), "label", round_to=9
    )
    got = {(r.group, r.dim): r.centroid for r in out.itertuples()}
    assert got == {
        (0, 1): 2.0, (0, 2): 4.0,       # means of [1,3] and [3,5]
        (1, 1): 10.0, (1, 2): 20.0,
    }


def test_label_centroids_vs_duckdb(ray_session, sf_dir):
    _oracle_check("label_centroids", sf_dir, ("embeddings",))


def test_gopher_flags_crafted(ray_session):
    from data_linter_ray.functions.text import gopher_flags

    long_ok = " ".join(f"tok{i}word" for i in range(100))  # all distinct, len 8-10
    repet = " ".join(["the"] * 100)                             # top-token 100%
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([long_ok, repet, "short doc"], pa.string()),
        }
    )
    out = (
        gopher_flags(ray.data.from_arrow(t), min_tokens=50)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert bool(out.loc[0, "keep"]) is True
    # doc 2: token count passes, top-token and dup-trigram fail
    assert bool(out.loc[1, "r_tokens"]) and not out.loc[1, "r_top_token"]
    assert not out.loc[1, "r_dup_tri"] and not out.loc[1, "keep"]
    # doc 3: too short
    assert not out.loc[2, "r_tokens"] and not out.loc[2, "keep"]


def test_gopher_filter_vs_duckdb(ray_session, sf_dir):
    got = _oracle_check("gopher_filter", sf_dir, ("documents",))
    assert 0 < got["keep"].mean() < 1  # the rule set discriminates


def test_candidate_keys_crafted(ray_session, monkeypatch):
    from data_linter_ray.functions.stats import candidate_keys

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),        # unique key
            "k": pa.array([1, 1, 2, 2], pa.int64()),          # not unique
            "n": pa.array([1, 2, 3, None], pa.int64()),       # null → not a key
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out = candidate_keys(
        ray.data.from_arrow(t).repartition(2), ["id", "k", "n"],
    ).set_index("column")
    assert bool(out.loc["id", "is_unique"])
    assert out.loc["k", "n_distinct"] == 2 and not out.loc["k", "is_unique"]
    assert out.loc["n", "n_non_null"] == 3 and not out.loc["n", "is_unique"]
    assert (out["n_rows"] == 4).all()


def test_daily_active_users_vs_duckdb(ray_session, sf_dir):
    _oracle_check("daily_active_users", sf_dir, ("events",))


def test_events_candidate_keys_vs_duckdb(ray_session, sf_dir):
    _oracle_check("events_candidate_keys", sf_dir, ("events",))


def test_retention_matrix_string_users(ray_session, monkeypatch):
    from data_linter_ray.functions.cohort import retention_matrix

    week = 604800 * 1_000_000
    ts = np.array([0, week, 0], dtype="datetime64[us]")
    t = pa.table(
        {
            "u": pa.array(["alice", "alice", "bob"], pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    out = retention_matrix(ray.data.from_arrow(t), "u", "ts")
    cells = {(r.cohort_period, r.period): r.n_users for r in out.itertuples()}
    assert cells == {(0, 0): 2, (0, 1): 1}


def test_rolling_anomalies_vs_duckdb(ray_session, sf_dir):
    got = _oracle_check("rolling_anomalies", sf_dir, ("events",))
    assert len(got) > 0


def test_source_quality_vs_duckdb(ray_session, sf_dir):
    got = _oracle_check("source_quality", sf_dir, ("documents",))
    assert (got["n_kept"] <= got["n_docs"]).all()


def test_melt_null_semantics(ray_session):
    from data_linter_ray.functions.olap import melt

    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "a": pa.array([1.0, None]),
            "b": pa.array([None, 4.0]),
        }
    )
    out = (
        melt(ray.data.from_arrow(t), ["id"], ["a", "b"])
        .to_pandas()
        .sort_values(["id", "variable"])
        .reset_index(drop=True)
    )
    # SQL UNPIVOT drops null cells
    assert list(zip(out["id"], out["variable"], out["value"])) == [
        (1, "a", 1.0), (2, "b", 4.0)
    ]
    full = melt(
        ray.data.from_arrow(t), ["id"], ["a", "b"], include_nulls=True
    ).to_pandas()
    assert len(full) == 4


def test_lineitem_unpivot_vs_duckdb(ray_session, sf_dir):
    _oracle_check("lineitem_unpivot", sf_dir, ("lineitem",))


def test_lineitem_cube_vs_duckdb(ray_session, sf_dir):
    got = _oracle_check("lineitem_cube", sf_dir, ("lineitem",))
    # all four grouping sets present
    import pandas as pd
    k1n = got["l_returnflag"].isna()
    k2n = got["l_linestatus"].isna()
    assert (~k1n & ~k2n).any() and (k1n & ~k2n).any()
    assert (~k1n & k2n).any() and (k1n & k2n).sum() == 1


def test_group_mode_exact_with_ties(ray_session, monkeypatch):
    """Per-group mode == pandas argmax with smallest-value tie-break;
    null groups/values excluded; exact across partitionings."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.stats import group_mode

    rng = np.random.RandomState(3)
    g = rng.randint(0, 40, 5_000)
    v = rng.randint(0, 6, 5_000)
    t = pa.table(
        {
            "g": pa.array(np.append(g, [None, 7]), pa.int64()),
            "v": pa.array(np.append(v, [3, None]), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)
    got = group_mode(ds, "g", "v")

    df = pd.DataFrame({"g": g, "v": v})
    cnt = df.groupby(["g", "v"], as_index=False).size().rename(columns={"size": "n"})
    cnt = cnt.sort_values(["g", "n", "v"], ascending=[True, False, True])
    exp = (
        cnt.groupby("g", as_index=False).head(1)
        .rename(columns={"v": "mode"})[["g", "mode", "n"]]
        .sort_values("g").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # two exchange widths -> identical answer (determinism contract)
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    got2 = group_mode(ds, "g", "v")
    pd.testing.assert_frame_equal(got, got2, check_dtype=False)


def test_group_entropy_exact(ray_session):
    """Entropy matches the closed form; single-value group yields
    exactly +0.0 (no -0.0 leaking into hash compares); uniform 4-way
    group yields ln(4)."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.stats import group_entropy

    rows = (
        [("a", "x")] * 10                       # single value -> 0.0
        + [("b", v) for v in "pqrs" * 25]       # uniform 4-way -> ln 4
        + [("c", "m")] * 3 + [("c", "n")] * 1   # 3/4, 1/4 mix
        + [(None, "x"), ("d", None)]            # nulls excluded
    )
    t = pa.table(
        {
            "g": pa.array([r[0] for r in rows], pa.string()),
            "v": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    got = group_entropy(ray.data.from_arrow(t).repartition(3), "g", "v")
    assert got["g"].tolist() == ["a", "b", "c"]
    assert got["n"].tolist() == [10, 100, 4]
    assert got["n_distinct"].tolist() == [1, 4, 2]
    assert got.loc[0, "entropy"] == 0.0
    assert math.copysign(1.0, got.loc[0, "entropy"]) == 1.0  # +0.0, not -0.0
    assert got.loc[1, "entropy"] == round(math.log(4), 9)
    exp_c = round(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)), 9)
    assert got.loc[2, "entropy"] == exp_c
    # 'd' group had only a null value -> excluded entirely
    assert "d" not in set(got["g"])


def test_source_vocab_overlap_exact(ray_session):
    """Intersection/union counts match a set-based reference; disjoint
    pairs are absent; jaccard is the exact ratio."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.stats import source_vocab_overlap

    docs = [
        ("s1", "alpha beta gamma"),
        ("s1", "beta delta"),
        ("s2", "beta gamma epsilon"),
        ("s3", "zeta eta"),          # disjoint from s1/s2
        ("s2", "gamma gamma GAMMA"),  # case-folds, repeats dedupe
        (None, "alpha"),              # null source excluded
    ]
    t = pa.table(
        {
            "source": pa.array([d[0] for d in docs], pa.string()),
            "text": pa.array([d[1] for d in docs], pa.string()),
        }
    )
    got = source_vocab_overlap(ray.data.from_arrow(t).repartition(3))

    vocab = {}
    for s, tx in docs:
        if s is None:
            continue
        vocab.setdefault(s, set()).update(tx.lower().split())
    exp_rows = []
    ks = sorted(vocab)
    for i, a in enumerate(ks):
        for b in ks[i + 1:]:
            inter = len(vocab[a] & vocab[b])
            if inter:
                union = len(vocab[a] | vocab[b])
                exp_rows.append((a, b, inter, union, inter / union))
    exp = pd.DataFrame(
        exp_rows,
        columns=["source_a", "source_b", "n_inter", "n_union", "jaccard"],
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert ("s3" not in set(got["source_a"]) and "s3" not in set(got["source_b"]))


def test_group_count_distinct_approx_tolerance(ray_session):
    """HLL grouped distinct lands within the p=12 error envelope of the
    exact operator on every group, and is invariant to partitioning
    (register max is order-free)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray
    from data_linter_ray.functions.stats import (
        group_count_distinct,
        group_count_distinct_approx,
    )

    rng = np.random.RandomState(9)
    n = 60_000
    groups = np.array(["g1", "g2", "g3"], object)[rng.randint(0, 3, n)]
    # distinct domains of very different size per group
    vals = np.where(
        groups == "g1", rng.randint(0, 50, n),
        np.where(groups == "g2", rng.randint(0, 2_000, n),
                 rng.randint(0, 20_000, n)),
    ).astype(np.int64)
    t = pa.table({"g": pa.array(groups, pa.string()), "v": pa.array(vals)})

    exact = group_count_distinct(
        ray.data.from_arrow(t).repartition(6), "g", "v"
    ).set_index("g")["n_distinct"]
    approx = group_count_distinct_approx(
        ray.data.from_arrow(t).repartition(6), "g", "v"
    ).set_index("g")["n_distinct_approx"]

    for g in ["g1", "g2", "g3"]:
        rel = abs(approx[g] - exact[g]) / max(exact[g], 1)
        assert rel < 0.05, (g, approx[g], exact[g])  # 3x the 1.6% sigma

    approx2 = group_count_distinct_approx(
        ray.data.from_arrow(t).repartition(17), "g", "v"
    ).set_index("g")["n_distinct_approx"]
    pd.testing.assert_series_equal(approx, approx2, check_names=False)


def test_grouped_quantiles_approx_tolerance(ray_session, sf_dir):
    """The t-digest scale path must land within a rank-error envelope
    of the exact per-group quantiles: for each (group, q), the
    approximate value's true rank within the group must be within eps·n
    of q·n (eps = 0.02)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from data_linter_ray.functions.quantiles import grouped_quantiles_approx

    qs = [0.1, 0.5, 0.9]
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    approx = grouped_quantiles_approx(ds, "event_type", "value", qs)

    raw = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).to_pandas().dropna()
    eps = 0.02
    checked = 0
    for (g, q), row in approx.set_index(["event_type", "q"]).iterrows():
        vals = np.sort(raw[raw["event_type"] == g]["value"].to_numpy())
        n = len(vals)
        rank = np.searchsorted(vals, row["value"], side="right")
        assert abs(rank - q * n) <= max(eps * n, 2.0), (g, q, rank, q * n)
        checked += 1
    assert checked == approx.shape[0] > 0

    # groups match the exact operator's group set
    assert set(approx["event_type"]) == set(raw["event_type"].unique())


def test_group_topk_approx_matches_exact_on_skew(ray_session):
    """The zero-shuffle MG-per-group scale path reproduces the exact
    per-group top-k on Zipf-skewed data (top-k all clear the 1/(m+1)
    share — the documented regime), with exact recounted counts."""
    import numpy as np
    import pandas as pd
    import ray

    from data_linter_ray.functions.sampling import group_topk_approx

    rng = np.random.RandomState(5)
    frames = []
    for g in ["a", "b", "c"]:
        vals = rng.zipf(1.5, 5000) % 1000
        frames.append(pd.DataFrame({"g": g, "v": vals.astype(str)}))
    df = pd.concat(frames, ignore_index=True)
    got = group_topk_approx(
        ray.data.from_pandas(df).repartition(6), "g", "v", k=5, m=64
    )
    truth = (
        df.groupby(["g", "v"]).size().rename("n").reset_index()
        .sort_values(["g", "n", "v"], ascending=[True, False, True])
    )
    truth["rank"] = truth.groupby("g").cumcount() + 1
    truth = truth[truth["rank"] <= 5].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, truth[["g", "v", "n", "rank"]], check_dtype=False
    )


def test_weekly_active_users_oracle(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as e

    got = e.queries()["weekly_active_users"](sf_dir)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    exp = con.execute(e.oracle_sql()["weekly_active_users"]).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp, check_dtype=False, check_exact=True
    )


def test_windowed_active_counts_crafted(ray_session, monkeypatch):
    """Interval-union semantics: one user active on days 0 and 10 with
    a 7-day window covers window-ends 0..6 and 10..16 (two runs, no
    bridge); a second user on day 3 overlaps; gap days count 1."""
    import numpy as np
    import pandas as pd
    import ray

    from data_linter_ray.functions.cohort import windowed_active_counts

    df = pd.DataFrame(
        {
            "u": [1, 1, 2],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-11", "2024-01-04"]),
        }
    )
    monkeypatch.setenv(exchange.ENV_VAR, "2")
    out = windowed_active_counts(ray.data.from_pandas(df), "u", "ts", window_days=7)
    by_day = dict(zip(pd.to_datetime(out["day"]).dt.day, out["n_active"]))
    assert by_day[1] == 1           # only user 1's first run
    assert by_day[4] == 2           # both users cover day 4
    assert by_day[7] == 2           # user 1 run ends day 7; user 2 covers
    assert by_day[8] == 1           # user 2 only (covers 4..10)
    assert by_day[10] == 1          # user 2's last covered window-end
    assert by_day[11] == 1          # user 1's second run (11..17)
    assert by_day[17] == 1          # last covered window-end
    assert 18 not in by_day


RANK_FAMILY = [
    ("value_distribution_ks", "events"),
    ("value_mannwhitney", "events"),
    ("segment_drift_ks", "events"),
    ("weekly_drift_ks", "events"),
    ("value_user_kendall", "events"),
    ("price_quantity_spearman", "lineitem"),
    ("price_quantity_heatmap", "lineitem"),
]


@pytest.fixture(scope="module")
def nan_sf_dir(tmp_path_factory, sf_dir):
    """events and lineitem with a non-null NaN in every 7th value of the
    rank family's float columns (on top of their nulls)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out = tmp_path_factory.mktemp("nan_sf")
    for table, cols in [("events", ["value"]), ("lineitem", ["l_quantity", "l_extendedprice"])]:
        t = pq.read_table(f"{sf_dir}/{table}.parquet")
        every7 = pa.array(np.arange(t.num_rows) % 7 == 3)
        for c in cols:
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, pc.if_else(every7, float("nan"), t[c]))
        pq.write_table(t, f"{out}/{table}.parquet")
    return str(out)


@pytest.mark.parametrize("name,table", RANK_FAMILY)
def test_rank_family_oracle_excludes_nan(ray_session, nan_sf_dir, name, table):
    """The rank family (Spearman, Kendall, KS, Mann-Whitney, the joint
    histogram) drops a NaN value like a null, and its DuckDB oracle
    states the same policy (``NOT isnan``), so both agree on NaN-bearing
    data instead of DuckDB ranking NaN above every number."""
    _oracle_check(name, nan_sf_dir, [table])
