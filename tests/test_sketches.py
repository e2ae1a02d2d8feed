"""Sketch correctness: accuracy bounds + merge associativity (the property
that makes the Ray partial→merge pipeline retry-safe), plus the drift
stage end-to-end on real testdata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_linter_ray.state.sketches import HyperLogLog, TDigest, hash_array


def test_tdigest_quantile_accuracy():
    rng = np.random.RandomState(42)
    x = rng.normal(100, 15, 200_000)
    td = TDigest()
    for chunk in np.array_split(x, 37):
        td.add(chunk)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        exact = np.quantile(x, q)
        assert td.quantile(q) == pytest.approx(exact, abs=0.5), q
    assert td.count == pytest.approx(len(x))


def test_tdigest_merge_equals_bulk():
    rng = np.random.RandomState(7)
    x = rng.exponential(10, 100_000)
    parts = np.array_split(x, 13)
    digests = []
    for p in parts:
        td = TDigest()
        td.add(p)
        digests.append(TDigest.from_bytes(td.to_bytes()))  # round-trip too
    acc = digests[0]
    for d in digests[1:]:
        acc.merge(d)
    bulk = TDigest()
    bulk.add(x)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert acc.quantile(q) == pytest.approx(bulk.quantile(q), rel=0.05), q
        assert acc.quantile(q) == pytest.approx(np.quantile(x, q), rel=0.05), q


def test_tdigest_merge_order_invariance():
    rng = np.random.RandomState(3)
    parts = [rng.uniform(0, 1, 5000) for _ in range(6)]

    def fold(order):
        acc = TDigest()
        for i in order:
            td = TDigest()
            td.add(parts[i])
            acc.merge(td)
        return acc.quantile(0.5)

    a = fold([0, 1, 2, 3, 4, 5])
    b = fold([5, 3, 1, 0, 2, 4])
    assert a == pytest.approx(b, rel=0.02)


def test_tdigest_bounded_size():
    td = TDigest(delta=100)
    td.add(np.arange(1_000_000, dtype=np.float64))
    td._compress()
    # centroids grow as (7/8)·δ·ln(2n) at most; ~970 here
    assert td.means.size < 1000


class _LoopTDigest(TDigest):
    """The per-value greedy compress the vectorized one replaced: a
    centroid grows while its weight stays within 4·n·q(1−q)/δ at its
    mid-rank quantile q. Kept as the accuracy reference."""

    def _compress(self) -> None:
        if not self._buf_means and self.means.size <= 2 * self.delta:
            return
        means = np.concatenate([self.means] + self._buf_means)
        weights = np.concatenate([self.weights] + self._buf_weights)
        self._buf_means, self._buf_weights, self._buffered = [], [], 0
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        out_m, out_w = [], []
        acc_mean, acc_w, seen = 0.0, 0.0, 0.0
        for m, w in zip(means, weights):
            q = (seen + acc_w + w / 2) / total
            limit = max(1.0, 4.0 * total * q * (1.0 - q) / self.delta)
            if acc_w + w <= limit or acc_w == 0.0:
                acc_mean += m * w
                acc_w += w
            else:
                out_m.append(acc_mean / acc_w)
                out_w.append(acc_w)
                seen += acc_w
                acc_mean, acc_w = m * w, w
        out_m.append(acc_mean / acc_w)
        out_w.append(acc_w)
        self.means, self.weights = np.asarray(out_m), np.asarray(out_w)


class _StableSortTDigest(TDigest):
    """The compress without the unit-weight fast path: every compress
    takes the centroids in stable argsort order. Kept as the byte
    reference."""

    def _compress(self) -> None:
        if not self._buf_means and self.means.size <= 2 * self.delta:
            return
        means = np.concatenate([self.means] + self._buf_means)
        weights = np.concatenate([self.weights] + self._buf_weights)
        self._buf_means, self._buf_weights, self._buffered = [], [], 0
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        cum = np.cumsum(weights)
        q = (cum - weights / 2) / cum[-1]
        k = np.floor(self.K_UNIT * self.delta * np.log(q / (1.0 - q)))
        start = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        self.weights = np.add.reduceat(weights, start)
        self.means = np.add.reduceat(means * weights, start) / self.weights


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-1e6, 1e6)), max_size=400
    ),
    st.lists(st.integers(0, 400), max_size=3),
    st.sampled_from([1, 3, 100]),
)
def test_tdigest_unit_weight_compress_is_byte_identical(values, cuts, delta):
    """±0.0 runs, ±inf, NaN, heavy ties, empty and single-value inputs,
    added in up to four chunks (so later compresses merge centroids), one
    digest merged into another, and through a serialization round trip:
    ``to_bytes`` equals the stable-argsort compress's."""
    x = np.array(values, dtype=np.float64)
    chunks = np.split(x, sorted(c % (x.size + 1) for c in cuts))

    def build(cls):
        td = cls(delta)
        for c in chunks:
            td.add(c)
        one = td.to_bytes()
        acc = cls(delta)
        acc.add(x[: x.size // 2])
        acc.merge(cls.from_bytes(one))
        return one, acc.to_bytes()

    assert build(TDigest) == build(_StableSortTDigest)


def _rank_errors(td: TDigest, x: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """|rank − q| of the digest's estimate at each q, where the rank of
    an estimate v is the interval [F(v−), F(v)] of the exact data (so a
    tie-heavy column is not charged for its steps)."""
    xs = np.sort(x)
    v = td.quantiles(qs)
    lo = np.searchsorted(xs, v, "left") / xs.size
    hi = np.searchsorted(xs, v, "right") / xs.size
    return np.maximum(0.0, np.maximum(lo - qs, qs - hi))


@pytest.mark.parametrize("kind", ["normal", "exponential", "distinct50"])
@pytest.mark.parametrize("parts", [1, 13])
def test_tdigest_vectorized_compress_against_loop(kind, parts):
    """The sort + k-scale + reduceat compress, one shot and merged 13
    ways (through to_bytes/from_bytes): mean rank error over 999
    quantiles at or below the per-value loop's on the same input, the
    worst within 0.02, and the centroid count within the docstring's
    (7/8)·δ·ln(2n) + 1 bound and below 1000."""
    rng = np.random.RandomState(19)
    x = {
        "normal": lambda: rng.normal(100, 15, 100_000),
        "exponential": lambda: rng.exponential(10, 100_000),
        "distinct50": lambda: rng.randint(0, 50, 100_000).astype(np.float64),
    }[kind]()

    def build(cls):
        acc = cls()
        for p in np.array_split(x, parts):
            td = cls()
            td.add(p)
            acc.merge(cls.from_bytes(td.to_bytes()))
        acc._compress()
        return acc

    qs = np.linspace(0.001, 0.999, 999)
    new, loop = build(TDigest), build(_LoopTDigest)
    err, loop_err = _rank_errors(new, x, qs), _rank_errors(loop, x, qs)
    assert err.mean() <= loop_err.mean()
    assert err.max() <= 0.02
    assert new.count == x.size
    assert new.means.size <= 7 / 8 * new.delta * np.log(2 * x.size) + 1
    assert new.means.size < 1000
    assert np.all(np.diff(new.means) >= 0)


def test_tdigest_weighted_add_drops_nan_weights():
    """A NaN value is dropped together with its weight: the weights
    that stay line up with the values that stay."""
    td = TDigest()
    td.add(np.array([1.0, np.nan, 2.0]), np.array([1.0, 5.0, 1.0]))
    assert td.count == 2.0
    td._compress()
    assert td.means.tolist() == [1.0, 2.0]
    assert td.weights.tolist() == [1.0, 1.0]
    ref = TDigest()
    ref.add(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert td.to_bytes() == ref.to_bytes()


def test_hll_accuracy_and_merge():
    true_n = 50_000
    vals = np.array([f"key-{i}" for i in range(true_n)], dtype=object)
    h = hash_array(vals)
    parts = np.array_split(h, 9)
    hlls = []
    for p in parts:
        s = HyperLogLog()
        s.add_hashes(p)
        hlls.append(HyperLogLog.from_bytes(s.to_bytes()))
    acc = hlls[0]
    for s in hlls[1:]:
        acc.merge(s)
    assert acc.estimate() == pytest.approx(true_n, rel=0.05)
    # duplicates must not change the estimate (idempotent merge)
    again = HyperLogLog()
    again.add_hashes(h)
    acc.merge(again)
    assert acc.estimate() == pytest.approx(true_n, rel=0.05)


def test_hll_small_range():
    s = HyperLogLog()
    s.add_hashes(hash_array(np.array([f"v{i}" for i in range(100)], dtype=object)))
    assert s.estimate() == pytest.approx(100, rel=0.15)


def test_hash_array_stability():
    a = hash_array(np.array(["x", "y"], dtype=object))
    b = hash_array(np.array(["x", "y"], dtype=object))
    assert (a == b).all()


def test_drift_stage_end_to_end(ray_session, sf_dir):
    import ray
    from data_linter_ray.stages.sketch_stage import (
        cardinality_drift,
        compute_sketches,
        drift_check,
        quantile_drift,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    base = compute_sketches(ds, ["value"], ["user_id", "event_type"])
    assert "tdigest" in base["value"] and "hll" in base["user_id"]
    # cardinality estimates close to truth
    import duckdb

    truth = duckdb.sql(
        f"SELECT count(DISTINCT user_id), count(DISTINCT event_type) "
        f"FROM read_parquet('{sf_dir}/events.parquet')"
    ).fetchone()
    assert base["user_id"]["hll"].estimate() == pytest.approx(truth[0], rel=0.1)
    assert base["event_type"]["hll"].estimate() == pytest.approx(truth[1], rel=0.1)

    # same data vs itself → no drift
    results = drift_check(ds, base, threshold=0.05)
    assert all(r.valid for r in results), [(r.column, r.distance) for r in results]

    # shifted data → quantile drift fires
    import pyarrow.compute as pc

    shifted = ds.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("value"),
            "value",
            pc.add(t["value"], 50.0),
        ),
        batch_format="pyarrow",
    )
    results = drift_check(shifted, {"value": base["value"]}, threshold=0.05)
    assert any(not r.valid for r in results)


def test_compute_sketches_driver_fold_matches_one_pass(ray_session):
    """The driver folds one partial per (batch, column) across blocks,
    an empty block included: HLL registers equal a one-pass HLL over
    every key, and the merged t-digest carries every row's weight."""
    import pyarrow as pa
    import ray.data

    from data_linter_ray.stages.sketch_stage import compute_sketches

    rng = np.random.RandomState(5)
    parts = [
        pa.table({"v": rng.normal(0, 1, n), "k": rng.randint(0, 5_000, n)})
        for n in (3_000, 0, 4_500)
    ]
    ds = ray.data.from_arrow(parts)
    assert ds.num_blocks() == 3

    sk = compute_sketches(ds, ["v"], ["k"])
    one_pass = HyperLogLog(12)
    one_pass.add_hashes(hash_array(pa.concat_tables(parts)["k"]))
    assert (sk["k"]["hll"].registers == one_pass.registers).all()
    assert sk["v"]["tdigest"].count == 7_500
    assert set(sk["v"]) == {"tdigest"} and set(sk["k"]) == {"hll"}


def test_compute_sketches_tdigest_baseline_drift(ray_session, tmp_path):
    import pyarrow.compute as pc
    import ray.data

    from data_linter_ray.stages.sketch_stage import (
        compute_sketches,
        drift_check,
        load_baselines,
        save_baselines,
    )

    def gen(batch):
        ids = np.asarray(batch["id"], dtype=np.int64)
        return {"value": ((ids * 2654435761) % 100_000) / 1000.0, "user_id": ids % 997}

    ds = ray.data.range(100_000, override_num_blocks=8).map_batches(
        gen, batch_format="numpy"
    )
    sk = compute_sketches(ds, ["value"], ["user_id"])
    assert set(sk["value"]) == {"tdigest"} and set(sk["user_id"]) == {"hll"}
    assert sk["value"]["tdigest"].quantile(0.5) == pytest.approx(50.0, abs=0.5)

    # the saved baseline round-trips and drives drift_check: self-drift
    # passes, shifted data trips the threshold
    base = load_baselines(save_baselines(sk, str(tmp_path / "base.json")))
    assert set(base["value"]) == {"tdigest"}
    self_drift = drift_check(ds, {"value": base["value"]}, threshold=0.1)
    assert self_drift and all(r.valid for r in self_drift)

    shifted = ds.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("value"),
            "value",
            pc.add(t["value"], 1000.0),
        ),
        batch_format="pyarrow",
    )
    drifted = drift_check(shifted, {"value": base["value"]}, threshold=0.1)
    assert any(not r.valid for r in drifted)


def test_count_min_never_undercounts_and_merges():
    """CM estimates are one-sided (never below the true count), close
    for heavy keys, and partials merged == single-shot sketch."""
    import numpy as np

    from data_linter_ray.state.sketches import CountMin, hash_array

    rng = np.random.RandomState(2)
    # zipf-ish stream: few heavy keys, long tail
    keys = rng.zipf(1.3, 200_000) % 10_000
    h = hash_array(keys.astype(np.int64))
    true = np.bincount(keys, minlength=10_000)

    cm = CountMin(width=4096, depth=5)
    cm.add_hashes(h)
    uniq = np.unique(keys)
    est = cm.estimate_hashes(hash_array(uniq.astype(np.int64)))
    assert (est >= true[uniq]).all()  # one-sided error
    # heavy hitters estimated within the eps*N bound
    heavy = uniq[true[uniq] > 1000]
    eps_n = np.e / 4096 * len(keys)
    assert (est[np.isin(uniq, heavy)] - true[heavy] <= eps_n).all()

    parts = [CountMin(4096, 5) for _ in range(4)]
    for i, p in enumerate(parts):
        p.add_hashes(h[i::4])
    acc = parts[0]
    for p in parts[1:]:
        acc.merge(p)
    assert (acc.table == cm.table).all() and acc.n == cm.n

    rt = CountMin.from_bytes(cm.to_bytes())
    assert (rt.table == cm.table).all() and rt.n == cm.n


def test_misra_gries_guarantee_and_merge():
    """Every value with frequency > n/(m+1) survives arbitrary batch
    splits and merges; summary size stays <= m; undercount <= n/(m+1)."""
    import numpy as np
    import pandas as pd

    from data_linter_ray.state.sketches import MisraGries

    rng = np.random.RandomState(5)
    stream = rng.zipf(1.5, 50_000) % 2_000  # heavy skew + long tail
    true = pd.Series(stream).value_counts()
    m = 63
    n = len(stream)
    heavy = set(true[true > n / (m + 1)].index)
    assert heavy  # the test data must actually contain heavy hitters

    # single-shot, batched, and merged summaries all keep the guarantee
    one = MisraGries(m)
    vc = pd.Series(stream).value_counts()
    one.add_counts(vc.index.to_numpy(), vc.to_numpy())
    assert len(one.counts) <= m and heavy <= set(one.candidates())

    parts = [MisraGries(m) for _ in range(7)]
    for i, p in enumerate(parts):
        chunk = pd.Series(stream[i::7]).value_counts()
        p.add_counts(chunk.index.to_numpy(), chunk.to_numpy())
    acc = parts[0]
    for p in parts[1:]:
        acc.merge(p)
    assert acc.n == n
    assert len(acc.counts) <= m
    assert heavy <= set(acc.candidates())
    # undercount bound: kept counter >= true - n/(m+1)
    for v in acc.candidates():
        assert acc.counts[v] >= true[v] - n / (m + 1)


def test_misra_gries_rejects_bad_merge():
    import pytest

    from data_linter_ray.state.sketches import MisraGries

    with pytest.raises(ValueError):
        MisraGries(8).merge(MisraGries(16))
    with pytest.raises(ValueError):
        MisraGries(0)


def test_misra_gries_duplicate_labels_in_one_ingest():
    """Regression: ingesting a partial with REPEATED labels (Ray blocks
    concatenate several per-batch partials) must behave as if the
    duplicates were pre-summed — a heavy hitter split across duplicate
    rows may not be truncated away."""
    import numpy as np
    import pandas as pd

    from data_linter_ray.state.sketches import MisraGries

    m = 7
    # 20 distinct fillers force truncation; the heavy value 'H' arrives
    # as 5 duplicate rows of 300 each (1500 total, far above n/(m+1))
    vals = ["H"] * 5 + [f"f{i}" for i in range(20)]
    cnts = [300] * 5 + [60] * 20
    mg = MisraGries(m)
    mg.add_counts(np.array(vals, object), np.array(cnts))
    n = sum(cnts)
    assert mg.n == n
    assert 1500 > n / (m + 1)
    assert "H" in mg.candidates()
    assert len(mg.counts) <= m
    assert mg.counts["H"] <= 1500  # never overcounts

    # and equivalently when split across two merged summaries
    a, b = MisraGries(m), MisraGries(m)
    a.add_counts(np.array(vals[:3] + vals[5:15], object),
                 np.array(cnts[:3] + cnts[5:15]))
    b.add_counts(np.array(vals[3:5] + vals[15:], object),
                 np.array(cnts[3:5] + cnts[15:]))
    a.merge(b)
    assert "H" in a.candidates() and a.n == n


def test_bloom_filter_properties():
    """No false negatives ever; FP rate near the analytic bound at the
    design load; OR-merge equals bulk insert; byte roundtrip exact;
    geometry-mismatch merge raises. (Exercises state/bloom.py — the
    filter the referential pre-filter and Bloom decontam share.)"""
    import numpy as np
    import pytest as _pytest

    from data_linter_ray.state.bloom import BloomFilter

    rng = np.random.RandomState(7)
    added = rng.randint(0, 2**63, 50_000, dtype=np.int64).astype(np.uint64)
    other = rng.randint(0, 2**63, 50_000, dtype=np.int64).astype(np.uint64)
    other = other[~np.isin(other, added)]

    bf = BloomFilter(1 << 20, 7)  # ~0.6% FP at 50k keys / 1M bits
    bf.add_hashes(added)
    assert bf.contains_hashes(added).all()          # no false negatives
    fp = bf.contains_hashes(other).mean()
    assert fp < 0.02, fp

    a, b = BloomFilter(1 << 20, 7), BloomFilter(1 << 20, 7)
    a.add_hashes(added[:25_000])
    b.add_hashes(added[25_000:])
    a.merge(b)
    assert (a.bits == bf.bits).all()

    rt = BloomFilter.from_bytes(bf.to_bytes())
    assert (rt.bits == bf.bits).all() and rt.k == bf.k and rt.m == bf.m

    sized = BloomFilter.from_capacity(50_000, fpr=0.01)
    sized.add_hashes(added)
    assert sized.contains_hashes(added).all()
    assert sized.contains_hashes(other).mean() < 0.03

    with _pytest.raises(ValueError):
        a.merge(BloomFilter(1 << 21, 7))


def test_approx_value_counts_one_sided(ray_session, sf_dir):
    """Count-Min probe estimates never undercount the exact counts and
    stay within the eps*N overcount bound for every probed user id."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from data_linter_ray.functions.profile import approx_value_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    raw = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )["user_id"].to_pandas()
    probes = raw.value_counts().head(20).index.tolist() + [999_999_999]
    got = approx_value_counts(ds, "user_id", probes)
    exact = raw.value_counts()
    N = len(raw)
    eps_bound = np.e / (1 << 14) * N * 3  # slack over the w.h.p. bound
    for v, est in zip(got["value"], got["n_est"]):
        true = int(exact.get(v, 0))
        assert est >= true, (v, est, true)
        assert est - true <= max(eps_bound, 1), (v, est, true)
