"""Direct tests for the deterministic manual exchange
(exchange.keyed_scatter_gather / exchange_map_groups) — the primitive
every engine exchange now routes through — for its one partition hash
(exchange.partition_of), and for the driver fold
(exchange.fold_batches) and range splitters (exchange.range_bounds)
every operator's partials-as-data passes use."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from data_linter_ray import exchange
from data_linter_ray.exchange import (
    exchange_map_groups,
    fold_batches,
    keyed_scatter_gather,
    partition_of,
    range_bounds,
)


def _mk(parts, rows_per_part, n_blocks=4):
    n = parts * rows_per_part
    t = pa.table(
        {
            "v": pa.array(np.arange(n, dtype=np.int64)),
            "_part": pa.array(np.arange(n, dtype=np.int64) % parts),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks).materialize()


def test_partition_isolation_and_coverage(ray_session):
    mat = _mk(parts=5, rows_per_part=100)

    def reduce_fn(i, t):
        pv = t["_part"].to_numpy(zero_copy_only=False)
        assert (pv == i).all()  # partition i holds ONLY key i
        return pa.table(
            {"part": pa.array([i], pa.int64()), "n": pa.array([t.num_rows], pa.int64())}
        )

    out = (
        keyed_scatter_gather(mat, "_part", 5, reduce_fn)
        .to_pandas()
        .sort_values("part")
    )
    assert out["part"].tolist() == [0, 1, 2, 3, 4]
    assert out["n"].tolist() == [100] * 5


def test_skip_empty_partitions_never_reach_reduce(ray_session):
    # keys 0 and 4 only, width 5 → partitions 1-3 are empty and must be
    # skipped entirely (reduce_fn would crash on them)
    t = pa.table(
        {
            "v": pa.array([1, 2, 3, 4], pa.int64()),
            "_part": pa.array([0, 0, 4, 4], pa.int64()),
        }
    )
    mat = ray.data.from_arrow(t).repartition(2).materialize()

    def reduce_fn(i, tbl):
        assert tbl is not None and tbl.num_rows > 0
        return pa.table({"part": pa.array([i], pa.int64())})

    out = keyed_scatter_gather(mat, "_part", 5, reduce_fn).to_pandas()
    assert sorted(out["part"]) == [0, 4]


def test_width_one(ray_session):
    mat = _mk(parts=1, rows_per_part=50, n_blocks=3)
    out = keyed_scatter_gather(
        mat, "_part", 1,
        lambda i, t: pa.table({"n": pa.array([t.num_rows], pa.int64())}),
    ).to_pandas()
    assert out["n"].tolist() == [50]


def test_all_empty_returns_empty_dataset(ray_session):
    t = pa.table({"v": pa.array([], pa.int64()), "_part": pa.array([], pa.int64())})
    mat = ray.data.from_arrow(t).materialize()
    out = keyed_scatter_gather(mat, "_part", 4, lambda i, t: t)
    assert out.count() == 0


def test_exchange_map_groups_matches_sort_groupby(ray_session):
    rng = np.random.default_rng(3)
    n = 2000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n)),
            "x": pa.array(rng.integers(0, 1000, n)),
            "_part": pa.array(rng.integers(0, 40, n) * 0),  # filled below
        }
    )
    P = 8
    part = (t["k"].to_numpy() % P).astype(np.int64)
    t = t.drop_columns(["_part"]).append_column("_part", pa.array(part))
    ds = ray.data.from_arrow(t).repartition(5)

    def per_key_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["x"].sum()

    got = (
        exchange_map_groups(ds, "_part", per_key_sum, num_partitions=P)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        t.to_pandas()
        .groupby("k", as_index=False)["x"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "x"]], exp)


def test_exchange_map_groups_pyarrow_mode(ray_session):
    t = pa.table(
        {
            "v": pa.array([1, 2, 3, 4], pa.int64()),
            "_part": pa.array([0, 1, 0, 1], pa.int64()),
        }
    )
    out = exchange_map_groups(
        ray.data.from_arrow(t),
        "_part",
        lambda tb: pa.table(
            {"s": pa.array([int(pa.compute.sum(tb["v"]).as_py())], pa.int64())}
        ),
        num_partitions=2,
        batch_format="pyarrow",
    ).to_pandas()
    assert sorted(out["s"]) == [4, 6]  # {1,3} and {2,4}


def test_partition_of_ignores_physical_type():
    """Equal values land in one partition whatever their Arrow type: an
    int32 side and an int64 side, string and large_string, a dictionary
    column and its plain values (hash_array alone hashes a dictionary
    array apart from its values)."""
    P = 7
    ints = [-3, 0, 1, 2**20, None]
    strs = ["a", "", "é😀", None, "a"]
    cases = [
        (pa.array(ints, pa.int32()), pa.array(ints, pa.int64())),
        (pa.array([-3, 0, 1, 100, None], pa.int8()), pa.array([-3, 0, 1, 100, None], pa.int16())),
        (pa.array([1.5, None], pa.float32()), pa.array([1.5, None], pa.float64())),
        (pa.array(strs, pa.string()), pa.array(strs, pa.large_string())),
        (pa.array(strs).dictionary_encode(), pa.array(strs)),
        (pa.array(ints, pa.int32()).dictionary_encode(), pa.array(ints, pa.int64())),
    ]
    for a, b in cases:
        pa_ = partition_of(pa.table({"k": a}), ["k"], P)
        pb = partition_of(pa.table({"k": b}), ["k"], P)
        assert pa_.tolist() == pb.tolist(), (a.type, b.type)
        assert pa_.dtype == np.int64 and ((pa_ >= 0) & (pa_ < P)).all()
    # a dictionary column split over chunks with different dictionaries
    chunked = pa.chunked_array(
        [pa.array(["x", "y"]).dictionary_encode(), pa.array(["y", "x"]).dictionary_encode()]
    )
    got = partition_of(pa.table({"k": chunked}), ["k"], P)
    assert got[0] == got[3] and got[1] == got[2]


def test_partition_of_nulls_and_multi_column_keys():
    P = 16
    # every null hashes alike, whatever the column type
    nulls = [
        partition_of(pa.table({"k": pa.nulls(3, t)}), ["k"], P).tolist()
        for t in (pa.int64(), pa.string(), pa.null(), pa.float64())
    ]
    assert all(n == [nulls[0][0]] * 3 for n in nulls)
    t = pa.table(
        {
            "a": pa.array([1, 1, 2, 1, None, None], pa.int64()),
            "b": pa.array(["x", "x", "x", "y", None, None]),
        }
    )
    p = partition_of(t, ["a", "b"], P)
    assert p[0] == p[1] and p[4] == p[5]
    # one column keeps hash_array's own placement
    from data_linter_ray.state.sketches import hash_array

    one = partition_of(t, ["a"], P)
    assert one.tolist() == (hash_array(t["a"]) % np.uint64(P)).astype(np.int64).tolist()
    # the columns combine in order: (a, b) and (b, a) place rows apart
    many = pa.table({"a": np.arange(64), "b": np.arange(64)[::-1].copy()})
    assert partition_of(many, ["a", "b"], P).tolist() != partition_of(
        many, ["b", "a"], P
    ).tolist()


def _groups_by_key(out: pd.DataFrame) -> dict:
    """{key: the set of fn calls that saw it}."""
    seen: dict = {}
    for call, keys in zip(out["call"], out["keys"]):
        for k in keys.split("|"):
            seen.setdefault(k, set()).add(call)
    return seen


def test_exchange_map_groups_hashes_named_keys(ray_session, monkeypatch):
    """The hashing form: every row of one key — nulls included, from any
    block — reaches one ``fn`` call, which sees the input columns and no
    partition column; with the env var set, it scatters at that width."""
    rng = np.random.default_rng(11)
    n = 3000
    k1 = rng.integers(0, 50, n)
    k2 = rng.integers(0, 3, n).astype(str).astype(object)
    k2[::17] = None
    t = pa.table({"k1": pa.array(k1), "k2": pa.array(k2, pa.string()), "v": np.arange(n)})
    ds = ray.data.from_arrow(t).repartition(6)

    widths = []
    orig = exchange.keyed_scatter_gather

    def spy(mat, by, num_partitions, reduce_fn, **kw):
        widths.append(num_partitions)
        return orig(mat, by, num_partitions, reduce_fn, **kw)

    monkeypatch.setattr(exchange, "keyed_scatter_gather", spy)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        assert list(df.columns) == ["k1", "k2", "v"]
        keys = sorted(set(df["k1"].astype(str) + ":" + df["k2"].fillna("<null>")))
        return pd.DataFrame(
            {"call": [int(df["v"].min())], "keys": ["|".join(keys)], "rows": [len(df)]}
        )

    for env in (None, "3"):
        if env:
            monkeypatch.setenv(exchange.ENV_VAR, env)
        widths.clear()
        out = exchange_map_groups(ds, ["k1", "k2"], fn).to_pandas()
        assert out["rows"].sum() == n
        assert all(len(calls) == 1 for calls in _groups_by_key(out).values())
        assert widths == [int(env) if env else exchange.MIN_PARTITIONS]
        if env:
            assert len(out) <= 3
    # one key column by name, as a string
    monkeypatch.delenv(exchange.ENV_VAR)
    out = exchange_map_groups(
        ds, "k2", lambda df: pd.DataFrame({"k2": [df["k2"].isna().sum()]})
    ).to_pandas()
    assert sorted(out["k2"])[-1] == (k2 == None).sum()  # noqa: E711


def test_exchange_map_groups_empty_input_keeps_schema(ray_session):
    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string())}))
    out = exchange_map_groups(
        empty, "k", lambda df: df, empty_schema=schema
    )
    assert out.count() == 0
    assert out.schema().base_schema == schema


def _col_sum():
    # built per test: a module-level function would pickle by reference
    # to this test module, which Ray workers cannot import
    return lambda t: np.array(
        [pa.compute.sum(t["v"]).as_py() or 0, t.num_rows], np.int64
    )


def test_fold_batches_over_empty_blocks(ray_session):
    empty = pa.table({"v": pa.array([], pa.int64())})
    blocks = [pa.table({"v": [1, 2]}), empty, pa.table({"v": [3]}), empty]
    tot = fold_batches(
        ray.data.from_arrow(blocks), _col_sum(), np.add, np.zeros(2, np.int64)
    )
    assert tot.tolist() == [6, 3]

    only_empty = ray.data.from_arrow([empty, empty])
    init = np.zeros(2, np.int64)
    assert fold_batches(only_empty, _col_sum(), np.add, init) is init
    no_rows = ray.data.range(8).filter(lambda r: False)
    init = {}
    assert fold_batches(no_rows, lambda t: {"x": 1}, dict.__or__, init) is init


def test_fold_batches_shape_mismatch_raises(ray_session):
    ds = ray.data.from_arrow(pa.table({"v": [1, 2, 3]}))
    for init in (np.zeros(3, np.int64), np.zeros((2, 2), np.int64)):
        # (2,) would broadcast into (2, 2) with np.add: it must raise
        with pytest.raises(ValueError, match="shape"):
            fold_batches(ds, _col_sum(), np.add, init)


def test_range_bounds_width_one_executes_nothing(ray_session, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("range_bounds executed the Dataset")

    monkeypatch.setattr(exchange, "fold_batches", boom)
    ds = ray.data.range(10).map_batches(boom)
    for P in (0, 1):
        out = range_bounds(ds, ["id", "x"], P)
        assert [b.tolist() for b in out] == [[], []]
        assert all(b.dtype == np.float64 for b in out)


def _skewed(n_blocks=6):
    rng = np.random.default_rng(5)
    n = 6000
    x = rng.normal(size=n)
    x[::3] = 1.0  # a third of the mass on one value
    x[1::50] = np.nan
    x[2::97] = np.inf
    y = rng.integers(0, 40, n).astype(np.float64)
    return (
        ray.data.from_arrow(pa.table({"x": x, "y": y, "z": np.full(n, 7.0)}))
        .repartition(n_blocks)
        .materialize()
    )


def test_range_bounds_columns_share_one_pass(ray_session, monkeypatch):
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx.execution_options, "preserve_order", True)
    ds = _skewed()
    passes = []
    fold = exchange.fold_batches
    monkeypatch.setattr(
        exchange, "fold_batches", lambda *a: passes.append(1) or fold(*a)
    )
    both = range_bounds(ds, ["x", "y"], 16)
    assert len(passes) == 1
    single = range_bounds(ds, ["x"], 16) + range_bounds(ds, ["y"], 16)
    assert [b.tolist() for b in both] == [b.tolist() for b in single]


def test_range_bounds_sorted_unique_finite(ray_session):
    for P in (2, 7, 64):
        bounds = range_bounds(_skewed(), ["x", "y", "z"], P)
        assert len(bounds) == 3
        for b in bounds:
            assert b.dtype == np.float64
            assert np.isfinite(b).all()
            assert (np.diff(b) > 0).all()
            assert len(b) <= P - 1
        assert bounds[2].tolist() in ([], [7.0])  # a constant column
