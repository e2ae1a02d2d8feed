"""Hypothesis property tests for the round-4 kernels — pure-kernel
properties run hundreds of random cases; Ray-backed ops run a reduced
example budget (a Dataset round-trip per example is expensive)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_linter_ray import exchange


def _levenshtein(a: str, b: str) -> int:
    """Reference DP implementation (oracle for the vectorized check)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


short_text = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\x00"),
    min_size=0,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(short_text, short_text), min_size=1, max_size=8))
def test_dist_le1_matches_levenshtein(pairs):
    from data_linter_ray.functions.fuzzy import _dist_le1

    a = pa.array([p[0] for p in pairs])
    b = pa.array([p[1] for p in pairs])
    got = _dist_le1(a, b)
    for i, (x, y) in enumerate(pairs):
        d = _levenshtein(x, y)
        if d <= 1:
            assert got[i] == d, (x, y, got[i], d)
        else:
            assert got[i] == -1, (x, y, got[i], d)


@settings(max_examples=300, deadline=None)
@given(st.lists(short_text, min_size=1, max_size=10))
def test_entry_keys_block_all_dist1_pairs(strs):
    """Blocking completeness: any two strings within Levenshtein
    distance 1 MUST share a deletion-neighborhood entry key."""
    from data_linter_ray.functions.fuzzy import _entry_keys, _pad_matrix

    mat, lens = _pad_matrix(pa.array(strs))
    keys, ridx = _entry_keys(mat, lens)
    by_row = {}
    for k, r in zip(keys.tolist(), ridx.tolist()):
        by_row.setdefault(r, set()).add(k)
    for i in range(len(strs)):
        for j in range(i + 1, len(strs)):
            if _levenshtein(strs[i], strs[j]) <= 1:
                assert by_row.get(i, set()) & by_row.get(j, set()), (
                    strs[i], strs[j],
                )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=400,
    ),
    st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=4),
)
def test_quantile_rank_rule_matches_numpy(values, fracs):
    """The kth-smallest rule (k = max(ceil(n·q),1)) against a plain
    sort — driver-side check of the same selection the distributed
    scans implement."""
    import math

    arr = np.array(values, dtype=np.float64)
    srt = np.sort(arr)
    n = len(arr)
    for q in fracs:
        k = max(math.ceil(n * q), 1)
        expect = srt[k - 1]
        got = np.partition(arr, k - 1)[k - 1]
        assert got == expect


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.floats(
            allow_nan=False, allow_infinity=False,
            min_value=-1e6, max_value=1e6,
        ),
        min_size=1,
        max_size=300,
    )
)
def test_exact_quantiles_distributed_matches_sort(ray_session, values):
    import math

    import ray

    from data_linter_ray.functions.quantiles import exact_quantiles

    qs = [0.1, 0.5, 0.9, 1.0]
    ds = ray.data.from_items([{"v": float(v)} for v in values]).repartition(3)
    got = exact_quantiles(ds, "v", qs, max_collect=8, max_rounds=4)
    srt = np.sort(np.array(values, dtype=np.float64))
    n = len(values)
    for q, val in zip(got["q"], got["value"]):
        k = max(math.ceil(n * q), 1)
        assert val == srt[k - 1], (q, val, srt[k - 1])


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=400,
    ),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
)
def test_percentile_cont_matches_numpy_property(ray_session, values, fracs):
    """percentile_cont == numpy 'linear' quantile (== SQL quantile_cont)
    under random values and fractions, with refinement forced."""
    import ray

    from data_linter_ray.functions.quantiles import percentile_cont

    ds = ray.data.from_arrow(pa.table({"v": pa.array(values)})).repartition(3)
    out = percentile_cont(ds, "v", fracs, n_buckets=8, max_collect=16)
    exp = np.quantile(np.asarray(values), fracs)
    assert np.allclose(out["value"].to_numpy(), exp, rtol=0, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=60),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=60),
)
def test_set_ops_match_python_sets(ray_session, xs, ys):
    import ray

    from data_linter_ray.functions.setops import except_distinct, intersect_distinct

    a = ray.data.from_arrow(pa.table({"k": pa.array(xs, pa.int64())})).repartition(2)
    b = ray.data.from_arrow(pa.table({"k": pa.array(ys, pa.int64())})).repartition(2)

    def vals(ds):
        # Ray's to_pandas() drops columns when every block is empty —
        # an all-empty result set reads as a zero-column frame
        df = ds.to_pandas()
        return set(df["k"].tolist()) if "k" in df.columns else set()

    assert vals(intersect_distinct(a, b, ["k"])) == (set(xs) & set(ys))
    assert vals(except_distinct(a, b, ["k"])) == (set(xs) - set(ys))


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),    # key
            st.integers(min_value=0, max_value=50),   # order
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
        unique_by=lambda r: (r[0], r[1]),
    )
)
def test_keyed_rolling_matches_bruteforce(ray_session, rows):
    """rolling sums/counts equal a brute-force per-key trailing-window
    recomputation for random keyed streams."""
    import ray

    from data_linter_ray.functions.window import keyed_rolling

    ks = [r[0] for r in rows]
    os_ = [r[1] for r in rows]
    vs = [r[2] for r in rows]
    ts = np.array(os_, dtype="datetime64[s]").astype("datetime64[us]")
    t = pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "i": pa.array(os_, pa.int64()),
            "v": pa.array(vs, pa.float64()),
        }
    )
    w = 4
    out = (
        keyed_rolling(ray.data.from_arrow(t).repartition(3), "k", "ts", "i", "v", window=w)
        .to_pandas()
        .sort_values(["k", "i"])
        .reset_index(drop=True)
    )
    # brute force
    import collections

    series = collections.defaultdict(list)
    for k, o, v in sorted(rows):
        series[k].append((o, v))
    exp = {}
    for k, items in series.items():
        for idx in range(len(items)):
            lo = max(0, idx - w + 1)
            window = [c for _, c in items[lo : idx + 1]]
            cents = [int(np.rint(c * 100)) for c in window]
            exp[(k, items[idx][0])] = (sum(cents), len(cents), max(window))
    for r in out.itertuples():
        s, n, mx = exp[(r.k, r.i)]
        assert r.roll_sum_cents == s and r.roll_n == n and r.roll_max == mx


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=400),
    st.integers(1, 12),
    st.integers(1, 6),
)
def test_misra_gries_superset_property(stream, m, n_chunks):
    """For ANY stream, any capacity, any chunking: the merged summary
    contains every value with frequency > n/(m+1), stays <= m counters,
    and never overcounts."""
    import pandas as pd

    from data_linter_ray.state.sketches import MisraGries

    s = pd.Series(stream)
    true = s.value_counts()
    n = len(stream)

    parts = [MisraGries(m) for _ in range(n_chunks)]
    for i, p in enumerate(parts):
        chunk = s[i::n_chunks]
        if len(chunk):
            vc = chunk.value_counts()
            p.add_counts(vc.index.to_numpy(), vc.to_numpy())
    acc = parts[0]
    for p in parts[1:]:
        acc.merge(p)

    assert acc.n == n
    assert len(acc.counts) <= m
    heavy = set(true[true * (m + 1) > n].index)
    assert heavy <= set(acc.candidates())
    for v in acc.candidates():
        assert 0 < acc.counts[v] <= true[v]  # never overcounts


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**40), st.integers(0, 10_000)),
        min_size=1,
        max_size=50,
        unique_by=lambda t: t[0],
    ),
    st.integers(1, 20),
)
def test_weighted_fraction_decision_is_row_local(rows, k):
    """The md5-mode inclusion decision for each row depends only on
    (id, weight, W, k) via the documented IEEE expression — recomputing
    it row-by-row in pure Python reproduces the kernel's mask."""
    import hashlib

    import pandas as pd

    ids = np.array([r[0] for r in rows], np.int64)
    w = np.array([r[1] for r in rows], np.int64)
    W = float(w.sum())
    if W == 0.0:
        return  # all-zero weights: nothing can be sampled

    # kernel-side mask (same code path as functions/sampling.keep)
    u = np.fromiter(
        (np.frombuffer(hashlib.md5(str(v).encode()).digest(), "<u8")[1]
         for v in ids),
        dtype=np.uint64, count=len(ids),
    )
    p = np.minimum(1.0, (k * w).astype(np.float64) / W)
    mask = u.astype(np.float64) < p * 18446744073709551616.0

    for i in range(len(rows)):
        ui = float(
            np.frombuffer(
                hashlib.md5(str(int(ids[i])).encode()).digest(), "<u8"
            )[1]
        )
        pi = min(1.0, float(np.float64(int(k) * int(w[i]))) / W)
        assert bool(mask[i]) == (ui < pi * 18446744073709551616.0)
        if w[i] == 0:
            assert not mask[i]
        if k * w[i] >= W:
            assert mask[i]  # p caps at 1.0 -> u64-as-double < 2^64 always


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),     # key
            st.integers(min_value=0, max_value=100),   # seconds offset
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_time_rolling_matches_bruteforce(ray_session, rows):
    """RANGE-frame rolling sums/counts equal a brute-force per-key
    [t-w, t] recount for random keyed streams — including duplicate
    timestamps (peers), where every peer's frame holds ALL peers."""
    import ray

    from data_linter_ray.functions.window import time_rolling

    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], dtype="datetime64[s]").astype(
                    "datetime64[us]"
                ),
                pa.timestamp("us"),
            ),
            "i": pa.array(list(range(len(rows))), pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    W_US = 10_000_000  # 10 s
    # a function-scoped monkeypatch fixture cannot serve @given examples
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(exchange.ENV_VAR, "3")
        out = (
            time_rolling(
                ray.data.from_arrow(t).repartition(3), "k", "ts", "i", "v",
                window_us=W_US,
            )
            .to_pandas()
            .sort_values("i")
            .reset_index(drop=True)
        )
    for idx, (k, sec, _v) in enumerate(rows):
        frame = [
            int(np.rint(v2 * 100))
            for (k2, s2, v2) in rows
            if k2 == k and sec - 10 <= s2 <= sec
        ]
        row = out[out["i"] == idx].iloc[0]
        assert row["roll_n"] == len(frame)
        assert row["roll_sum_cents"] == sum(frame)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),     # key
            st.integers(min_value=0, max_value=40),    # seconds offset
            st.floats(min_value=0, max_value=9, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_resample_ffill_matches_bruteforce(ray_session, rows):
    """Grid forward-fill equals a brute-force last-observation-at-or-
    before lookup with max-tie collapse at duplicate (key, ts)."""
    import ray

    from data_linter_ray.functions.timeseries import resample_ffill

    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], dtype="datetime64[s]").astype(
                    "datetime64[us]"
                ),
                pa.timestamp("us"),
            ),
            "i": pa.array(list(range(len(rows))), pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    STEP = 7_000_000  # 7 s grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(exchange.ENV_VAR, "2")
        out = resample_ffill(
            ray.data.from_arrow(t).repartition(2), key="k", time_col="ts",
            tie="i", value="v", start="1970-01-01T00:00:00",
            stop="1970-01-01T00:00:42", step_us=STEP,
        ).to_pandas()
    grid = list(range(0, 43, 7))
    keys = sorted({r[0] for r in rows})
    assert len(out) == len(grid) * len(keys)
    for k in keys:
        for gsec in grid:
            # last obs (by ts, then tie i) at or before the grid point
            cand = [
                (s, i, v)
                for i, (k2, s, v) in enumerate(rows)
                if k2 == k and s <= gsec
            ]
            want = max(cand)[2] if cand else None
            got_rows = out[
                (out["k"] == k)
                & (out["ts"] == np.datetime64(gsec, "s").astype("datetime64[us]"))
            ]
            got = got_rows["v"].iloc[0]
            if want is None:
                assert pd.isna(got)
            else:
                assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=120))
def test_strict_inversions_matches_bruteforce(ys):
    """The O(n log² n) level-decomposition counter equals the O(n²)
    definition for arbitrary tie-heavy sequences."""
    from data_linter_ray.functions.stats import _strict_inversions

    y = np.array(ys, dtype=np.float64)
    got = _strict_inversions(y)
    want = sum(
        1
        for i in range(len(ys))
        for j in range(i + 1, len(ys))
        if ys[i] > ys[j]
    )
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=100))
def test_tie_pair_sums_matches_counter(vals):
    from collections import Counter

    from data_linter_ray.functions.stats import _tie_pair_sums

    v = np.sort(np.array(vals, dtype=np.float64))
    got = _tie_pair_sums(v)
    want = sum(m * (m - 1) // 2 for m in Counter(vals).values())
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.text(
                alphabet="ab .!?\"x", min_size=0, max_size=12
            ).filter(lambda s: "\n" not in s),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_clean_lines_matches_naive(docs_lines):
    """clean_lines' RE2 keep rules equal the obvious per-line Python
    reference on arbitrary line soup (punct / word-count / blocklist /
    doc-drop semantics)."""
    import re

    import ray
    import ray.data as rd
    from data_linter_ray.functions.text import clean_lines

    rows = [
        {"doc_id": str(i), "text": "\n".join(lines)}
        for i, lines in enumerate(docs_lines)
    ]
    got = clean_lines(rd.from_items(rows), min_words=2, blocklist=("xx",)).to_pandas()
    if len(got) == 0:  # Ray to_pandas drops columns on all-empty output
        got = pd.DataFrame(columns=["doc_id", "text_clean", "n_kept", "n_dropped"])
    got = got.sort_values("doc_id").reset_index(drop=True)

    def keep(l):
        return (
            re.search(r'[.!?"]$', l) is not None
            and len(re.findall(r"\S+", l)) >= 2
            and re.search("xx", l.lower()) is None
        )

    want = []
    for i, lines in enumerate(docs_lines):
        kept = [l for l in lines if keep(l)]
        if kept:
            want.append(
                {
                    "doc_id": str(i),
                    "text_clean": "\n".join(kept),
                    "n_kept": len(kept),
                    "n_dropped": len(lines) - len(kept),
                }
            )
    want.sort(key=lambda r: r["doc_id"])
    assert got.to_dict("records") == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.lists(
                st.tuples(
                    st.sampled_from(["text", "image", "audio", None]),
                    st.one_of(st.none(), st.text(alphabet="ab", max_size=4)),
                    st.integers(min_value=-3, max_value=50),
                ),
                max_size=5,
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_span_stats_matches_naive(rows_spec):
    """span_stats row aggregates equal the per-row Python reference on
    arbitrary span lists (null lists, null kinds, null texts)."""
    import ray
    import ray.data as rd
    from data_linter_ray.functions.interleaved import span_stats

    rows = []
    for i, spans in enumerate(rows_spec):
        rows.append(
            {
                "doc_id": f"d{i}",
                "spans": None
                if spans is None
                else [
                    {
                        "kind": k,
                        "text": t if k == "text" else None,
                        "media_ref": None if k == "text" else "m",
                        "offset": o,
                    }
                    for (k, t, o) in spans
                ],
            }
        )
    got = (
        span_stats(rd.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for i, spans in enumerate(rows_spec):
        r = got[got["doc_id"] == f"d{i}"].iloc[0]
        sp = spans or []
        assert r["n_spans"] == len(sp)
        assert r["n_text"] == sum(1 for (k, _, _) in sp if k == "text")
        assert r["n_audio"] == sum(1 for (k, _, _) in sp if k == "audio")
        assert r["text_chars"] == sum(
            len(t) for (k, t, _) in sp if k == "text" and t is not None
        )
        if sp:
            assert r["max_offset"] == max(o for (_, _, o) in sp)
        else:
            assert pd.isna(r["max_offset"])
