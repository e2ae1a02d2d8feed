"""Exercise the large-dimension SHUFFLE referential path (broadcast is
the default; the shuffle anti-join only engages past the row threshold)
and property-based checks with hypothesis."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray


def _orders_and_dim(cast=lambda v: v):
    rng = np.random.RandomState(0)
    fk = rng.randint(0, 2000, 5000)
    pk = np.arange(0, 1500)  # fk values >= 1500 dangle
    orders = ray.data.from_arrow(pa.table({"k": cast(fk)}))
    dim = ray.data.from_arrow(pa.table({"id": cast(pk)}))
    return fk, orders, dim


def _shuffle_dims(monkeypatch, on: bool = True):
    """Send every dimension of more than 10 rows through the shuffled
    referential check (``on``), or back to the broadcast one."""
    import data_linter_ray.stages.referential as R

    monkeypatch.setattr(R, "BROADCAST_ROW_THRESHOLD", 10 if on else 10_000_000)


def _ref_check(ds, dim, fk_type, **kw):
    """``validate_dataset`` of ``k`` referencing ``dim.id``: the result
    and its ``referential_test`` violation rows."""
    from data_linter_ray import checks
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset

    schema = TableSchema(
        name="o", columns=[ColumnSpec(name="k", type=fk_type, references="dim.id")]
    )
    res = validate_dataset(ds, schema, ref_tables={"dim.id": dim}, **kw)
    rows = res.violations.to_pandas()
    return res, rows[rows["test"] == checks.REFERENTIAL_TEST]


def test_shuffle_referential_matches_broadcast(ray_session, monkeypatch):
    """Both paths report one row per dangling FK row, and render its
    value alike (``_stringify``: a float key 1500.0 is "1500") for int,
    float and string keys."""
    cases = [
        ("int64", lambda v: v, str),
        ("float64", lambda v: v.astype(np.float64), str),
        ("string", lambda v: pa.array([f"c{x}" for x in v]), lambda x: f"c{x}"),
    ]
    for fk_type, cast, render in cases:
        fk, orders, dim = _orders_and_dim(cast)
        out = {}
        for shuffle in (True, False):
            _shuffle_dims(monkeypatch, shuffle)
            res, rows = _ref_check(orders, dim, fk_type, log_verbosity=0)
            verdict = res.response.get_result()["k"]["referential_test"]
            samples = sorted(verdict.pop("unexpected_values_sample"))
            verdict.pop("unexpected_index_sample")
            out[shuffle] = (res.counts, verdict, samples, sorted(rows["value"]))
        assert out[True] == out[False], fk_type
        expected = sorted(render(v) for v in fk[fk >= 1500])
        assert out[True][3] == expected and out[True][2] == expected


def test_validate_dataset_uses_shuffle_for_big_dims(ray_session, monkeypatch):
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset

    _shuffle_dims(monkeypatch)

    schema = TableSchema(
        name="o", columns=[ColumnSpec(name="k", type="int64", references="dim.id")]
    )
    orders = ray.data.from_arrow(pa.table({"k": [1, 2, 99, 99, 99, 100]}))
    dim = ray.data.from_arrow(pa.table({"id": list(range(50))}))  # > threshold

    def verdict():
        res = validate_dataset(
            orders, schema, ref_tables={"dim.id": dim}, log_verbosity=0
        )
        assert not res.valid
        col = res.response.get_result()["k"]["referential_test"]
        return (
            res.counts.get(("k", "referential_test")),
            col["percentage_of_column_is_error"],
            sorted(col["unexpected_values_sample"]),
        )

    shuffled = verdict()
    # the shuffle path counts dangling ROWS, like the broadcast path:
    # 99 three times and 100 once
    assert shuffled == (4, 4 / 6 * 100, ["100", "99", "99", "99"])
    _shuffle_dims(monkeypatch, False)
    assert verdict() == shuffled


def test_random_row_limit_checks_one_sample(ray_session, monkeypatch):
    """An unseeded random ``row_limit`` draws its rows once: the shuffled
    referential check sees the rows every other check sees. Every row
    fails ``maximum`` and dangles, so both tests' values are the sampled
    keys."""
    from data_linter_ray import checks
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset

    _shuffle_dims(monkeypatch)
    ds = ray.data.from_arrow(pa.table({"k": np.arange(1000, 3000)}))
    dim = ray.data.from_arrow(pa.table({"id": np.arange(50)}))
    schema = TableSchema(
        name="o",
        columns=[ColumnSpec(name="k", type="int64", maximum=-1, references="dim.id")],
    )
    res = validate_dataset(
        ds, schema, ref_tables={"dim.id": dim}, row_limit=10,
        row_sample="random", sample_seed=None, log_verbosity=0,
    )
    col = res.response.get_result()["k"]
    maximum = col["min_max_test"]["unexpected_values_sample"]
    # the Bernoulli sample may fall short of row_limit
    assert 0 < res.row_count <= 10 and len(maximum) == res.row_count
    assert sorted(col[checks.REFERENTIAL_TEST]["unexpected_values_sample"]) == sorted(maximum)


# ---------------- hypothesis property tests ------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=50),
    st.integers(-100, 100),
    st.integers(-100, 100),
)
def test_min_max_mask_matches_pandas(values, lo, hi):
    import pandas as pd

    from data_linter_ray import checks

    if lo > hi:
        lo, hi = hi, lo
    col = pa.array(values, type=pa.int64())
    got = checks.min_max_mask(col, lo, hi).to_pylist()
    s = pd.Series(values, dtype="Int64")
    exp = ((s < lo) | (s > hi)).fillna(False).tolist()
    assert got == exp


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=8)), max_size=40))
def test_enum_mask_matches_pandas(values):
    import pandas as pd

    from data_linter_ray import checks

    enum = ["a", "b", "xyz"]
    col = pa.array(values, type=pa.string())
    s = pd.Series(values, dtype="string")
    got_nullable = checks.enum_mask(col, enum, True).to_pylist()
    exp_nullable = (~s.fillna(enum[0]).isin(enum)).tolist()
    assert got_nullable == exp_nullable
    got_strict = checks.enum_mask(col, enum, False).to_pylist()
    exp_strict = (~s.isin(enum)).fillna(True).astype(bool).tolist()
    assert got_strict == exp_strict


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=10, max_size=500), st.integers(2, 6))
def test_tdigest_merge_associative(values, n_parts):
    from data_linter_ray.state.sketches import TDigest

    arr = np.array(values)
    parts = np.array_split(arr, n_parts)
    acc = TDigest()
    for p in parts:
        t = TDigest()
        t.add(p)
        acc.merge(t)
    lo, hi = arr.min(), arr.max()
    for q in (0.1, 0.5, 0.9):
        v = acc.quantile(q)
        assert lo - 1e-9 <= v <= hi + 1e-9
    assert acc.count == pytest.approx(len(arr))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=300))
def test_hll_never_wildly_wrong(keys):
    from data_linter_ray.state.sketches import HyperLogLog, hash_array

    true = len(set(keys))
    h = HyperLogLog()
    h.add_hashes(hash_array(np.array(keys, dtype=object)))
    est = h.estimate()
    assert 0.5 * true <= est <= 1.5 * true + 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.datetimes(
            min_value=__import__("datetime").datetime(1, 1, 1),
            max_value=__import__("datetime").datetime(9999, 12, 28),
        ),
        max_size=20,
    ),
    st.sampled_from(["%Y-%m-%d", "%d/%m/%Y", "%Y-%m-%d %H:%M:%S", "%m-%Y"]),
    st.sampled_from(["%Y-%m-%d", "%d/%m/%Y", "%Y-%m-%d %H:%M:%S"]),
)
def test_date_format_mask_matches_strptime(dts, render_fmt, check_fmt):
    """date_format_mask == per-value strptime loop (the reference
    implementation) for arbitrary dates rendered in arbitrary formats."""
    from datetime import datetime

    from data_linter_ray import checks

    values = [d.strftime(render_fmt) for d in dts]
    col = pa.array(values, type=pa.string())

    def ref_ok(x):
        if x == "":
            return True
        try:
            dt = datetime.strptime(x, check_fmt)
            return dt.hour == 0 and dt.minute == 0 and dt.second == 0 and dt.microsecond == 0
        except ValueError:
            return False

    exp = [not ref_ok(v) for v in values]
    got = checks.date_format_mask(col, check_fmt).to_pylist()
    assert got == exp


def test_uniqueness_exchange_survives_extreme_skew(ray_session):
    """One key owning 50% of all rows (the north-rule hot doc_id range):
    per-batch pre-aggregation in the fused pass collapses the hot key to
    one kind-2 row per batch BEFORE the exchange, so no partition ever
    receives the raw hot rows. Counts must still be exact."""
    import numpy as np
    import pyarrow as pa

    import ray.data
    from data_linter_ray import checks
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset

    n = 200_000
    def gen(batch):
        ids = np.asarray(batch["id"])
        # half the rows share key 0; the rest are unique
        keys = np.where(ids % 2 == 0, 0, ids)
        return pa.table({"k": keys})

    ds = ray.data.range(n, override_num_blocks=16).map_batches(gen, batch_format="numpy")
    schema = TableSchema(name="t", columns=[ColumnSpec(name="k", type="int64", unique=True)])
    res = validate_dataset(ds, schema)
    dup = res.violations.to_pandas()
    dup = dup[dup["test"] == checks.UNIQUE_TEST]
    assert len(dup) == 1 and res.counts == {("k", checks.UNIQUE_TEST): 1}
    assert dup.iloc[0]["row_ref"] == "0" and int(dup.iloc[0]["value"]) == n // 2


def test_range_join_hot_key_bounded(ray_session):
    """VERDICT r02 #1: one key holding 1e5 left x 1e3 right rows must
    complete without materializing the 1e8-row per-key cross product —
    the partition switches to the time-bucketed merge (cross_limit
    forced low) and the aggregate matches a searchsorted reference."""
    import pandas as pd

    import ray.data
    from data_linter_ray.functions.timeseries import range_join

    rng = np.random.RandomState(7)
    n_l, n_r = 100_000, 1_000
    lt = np.sort(rng.randint(0, 10_000_000, n_l))
    left = pd.DataFrame({"k": 0, "ts": lt})
    rs = np.sort(rng.randint(0, 10_000_000, n_r))
    right = pd.DataFrame({"k": 0, "s": rs, "e": rs + 3_600})

    def count_per_interval(df):
        out = df.groupby(["k", "s"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    got = (
        range_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            left_time="ts",
            right_start="s",
            right_end="e",
            by="k",
            post=count_per_interval,
            cross_limit=1_000_000,  # force the bucketed path (est = 1e8)
        )
        .to_pandas()
        .sort_values("s")
        .reset_index(drop=True)
    )
    # reference counts via searchsorted (no cross product)
    lo = np.searchsorted(lt, rs, side="left")
    hi = np.searchsorted(lt, rs + 3_600, side="right")
    exp_n = hi - lo
    nz = exp_n > 0
    assert (got["s"].to_numpy() == rs[nz]).all()
    assert (got["n"].to_numpy() == exp_n[nz]).all()


def test_exchange_width_env_override_invariant(ray_session, monkeypatch, sf_dir):
    """VERDICT r02 #9: the exchange width is a setting, not a semantic.
    The env var reaches validate's uniqueness buckets, the exchanges of
    fd_violations and of validate's shuffled referential check (each at
    exactly that width), and their verdicts are identical at width 4 and
    width 64."""
    import data_linter_ray.pipelines.validate as V
    from data_linter_ray import checks, exchange
    from data_linter_ray.metadata import ColumnSpec, TableSchema
    from data_linter_ray.pipelines import validate_dataset
    from data_linter_ray.stages.fd import fd_violations

    widths = []
    orig = exchange.keyed_scatter_gather

    def spy(mat, by, num_partitions, reduce_fn, **kw):
        widths.append(num_partitions)
        return orig(mat, by, num_partitions, reduce_fn, **kw)

    monkeypatch.setattr(exchange, "keyed_scatter_gather", spy)
    buckets = []
    fold = V._fold_count_partials

    def bucket_spy(*args, **kw):
        out = fold(*args, **kw)
        buckets.append(len(out[2]))
        return out

    monkeypatch.setattr(V, "_fold_count_partials", bucket_spy)
    _shuffle_dims(monkeypatch)

    def sorted_pandas(ds, by):
        return ds.to_pandas().sort_values(by).reset_index(drop=True)

    def rows(res, test):
        df = res.violations.to_pandas()
        df = df[df["test"] == test]
        return df.sort_values(["value", "row_ref"]).reset_index(drop=True)

    events = f"{sf_dir}/events.parquet"
    unique = TableSchema(
        name="e", columns=[ColumnSpec(name="user_id", type="int64", unique=True)]
    )
    outs = {}
    for width in (4, 64):
        monkeypatch.setenv(exchange.ENV_VAR, str(width))
        assert exchange.exchange_width() == width
        widths.clear()
        buckets.clear()
        ds = ray.data.read_parquet(events, columns=["user_id"])
        dups = validate_dataset(ds, unique)
        assert buckets == [width]
        ds = ray.data.read_parquet(events, columns=["user_id", "event_type"])
        fd = sorted_pandas(fd_violations(ds, "user_id", "event_type"), "user_id")
        _, orders, dim = _orders_and_dim()
        ref, _ = _ref_check(orders, dim, "int64")
        assert widths == [width] * 2
        outs[width] = (
            rows(dups, checks.UNIQUE_TEST), fd, rows(ref, checks.REFERENTIAL_TEST)
        )
        outs[width, "counts"] = (dups.counts, ref.counts)
    monkeypatch.delenv(exchange.ENV_VAR)
    assert outs[4, "counts"] == outs[64, "counts"]
    for a, b in zip(outs[4], outs[64]):
        assert len(a) > 0
        assert a.equals(b)


def test_exchange_width_derives_from_input_bytes(tmp_path, ray_session, monkeypatch):
    """Width grows with file-backed input size and floors at
    MIN_PARTITIONS for small/derived inputs."""
    import pyarrow.parquet as pq

    from data_linter_ray import exchange

    t = pa.table({"x": np.arange(1000, dtype=np.int64)})
    pq.write_table(t, tmp_path / "small.parquet")
    ds = ray.data.read_parquet(str(tmp_path / "small.parquet"))
    assert exchange.exchange_width(ds) == exchange.MIN_PARTITIONS
    # derived datasets have no provenance -> floor
    assert exchange.exchange_width(ds.map_batches(lambda b: b)) == exchange.MIN_PARTITIONS
    # pretend the target is tiny so the file-size derivation is visible
    old = exchange.TARGET_PARTITION_BYTES
    try:
        exchange.TARGET_PARTITION_BYTES = 64
        assert exchange.exchange_width(ds) > exchange.MIN_PARTITIONS
        monkeypatch.setenv(exchange.ENV_VAR, "7")
        assert exchange.exchange_width(ds) == 7
    finally:
        exchange.TARGET_PARTITION_BYTES = old


def test_join_width_caps_at_cluster_cpus(ray_session, monkeypatch):
    """Hash-join width = exchange width capped at cluster CPUs (one
    aggregator ACTOR per partition — beyond the CPU count the pool can
    never schedule and the executor deadlocks), env var included."""
    from data_linter_ray import exchange

    ds = ray.data.range(100).materialize()
    cpus = int(ray.cluster_resources().get("CPU", 8))
    w = exchange.join_width(ds)
    assert 2 <= w <= cpus
    assert w <= exchange.exchange_width(ds)
    monkeypatch.setenv(exchange.ENV_VAR, "3")
    assert exchange.join_width(ds) == min(3, cpus)
    monkeypatch.setenv(exchange.ENV_VAR, "64")
    assert exchange.join_width(ds) == cpus


def test_bloom_filter_properties():
    """No false negatives ever; empirical FPR near the target; OR-merge
    of partials equals the single-shot filter; byte roundtrip exact."""
    from data_linter_ray.state.bloom import BloomFilter

    rng = np.random.RandomState(0)
    members = rng.randint(0, 2**63, 50_000, dtype=np.int64).astype(np.uint64)
    probes = rng.randint(0, 2**63, 50_000, dtype=np.int64).astype(np.uint64)
    probes = np.setdiff1d(probes, members)

    bf = BloomFilter.from_capacity(len(members), fpr=0.01)
    bf.add_hashes(members)
    assert bf.contains_hashes(members).all()  # zero false negatives
    fpr = bf.contains_hashes(probes).mean()
    assert fpr < 0.025  # within ~2.5x of the design point

    parts = [BloomFilter(bf.m, bf.k) for _ in range(4)]
    for i, p in enumerate(parts):
        p.add_hashes(members[i::4])
    acc = parts[0]
    for p in parts[1:]:
        acc.merge(p)
    assert (acc.bits == bf.bits).all()

    rt = BloomFilter.from_bytes(bf.to_bytes())
    assert rt.m == bf.m and rt.k == bf.k and (rt.bits == bf.bits).all()


def test_distinct_key_set_folds_blocks_on_driver(ray_session):
    """Per-block uniques folded on the driver: a duplicate spanning blocks
    counts once, a null is kept once, the column type is preserved, and
    the pa.Array passthrough is untouched."""
    from data_linter_ray.stages.referential import distinct_key_set

    blocks = [
        pa.table({"id": pa.array(v, pa.string())})
        for v in (["a"], ["b", None, "a"], ["b", None, "c"], [])
    ]
    got = distinct_key_set(ray.data.from_arrow(blocks), "id")
    assert isinstance(got, pa.Array) and got.type == pa.string()
    assert len(got) == 4
    assert set(got.to_pylist()) == {"a", "b", "c", None}
    arr = pa.array([1, 2, 2])
    assert distinct_key_set(arr, "id") is arr
    empty = ray.data.from_arrow(pa.table({"id": pa.array([], pa.int32())}))
    assert distinct_key_set(empty, "id").type == pa.int32()
