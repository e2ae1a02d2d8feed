"""Keyed window functions and funnel analysis.

The reference engine validates per-file tables and has no ordered
analytics; these are the windowed operators a training-data /
product-analytics pipeline layers on the same events stream
(sessionization's sibling ops — see ``functions/timeseries.py`` for the
shared exchange shape).

Scale shape (both ops): ONE coarse key-hash exchange
(``exchange_map_groups(ds, key, fn)``; its width is bytes-derived, see
``exchange.py``)
puts every row of a key into exactly one partition; all window
arithmetic inside the partition is vectorized pandas/numpy over the
partition-locally sorted frame. Nothing materializes on the driver; the
output streams. Per-key state never spans partitions, so a 256-node
run shards cleanly by key hash.

Determinism: callers pass a total order (``order`` + ``tie``); rows
where key / order / tie are null are excluded (documented — the SQL
oracle mirrors the filter), so output values are reproducible
bit-for-bit and hash-exact against the SQL window-function oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups

#: int64 headroom cap for the key-banded time axis (tests shrink it
#: to force the multi-block path on small inputs)
_BAND_CAP = 1 << 62


def keyed_window(
    ds: Dataset,
    key: str,
    order: str,
    tie: str,
    max_col: str | None = None,
) -> Dataset:
    """Per-key ordered window functions in one pass:

    - ``seq``      1-based row number per key, ordered by (order, tie)
    - ``gap_us``   microseconds since the key's previous row (null on
                   each key's first row) — ``order`` must be a
                   timestamp column
    - ``run_max``  running maximum of ``max_col`` (null-skipping, SQL
                   ``max(...) OVER (... ROWS UNBOUNDED PRECEDING)``
                   semantics), when ``max_col`` is given

    Running max is a SELECTION (never arithmetic), so float columns
    stay bit-exact against the SQL oracle. Rows with null key / order /
    tie are dropped (mirrored by the oracle's WHERE clause).
    """
    cols = [key, order, tie] + ([max_col] if max_col else [])
    types = {c: ds.schema().base_schema.field(c).type for c in cols}

    def win(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, order, tie])
        g = g.sort_values([key, order, tie], kind="mergesort").reset_index(drop=True)
        n = len(g)
        k = g[key].to_numpy()
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        # per-key 1-based rank: global index minus the key's start index
        seq = np.arange(n, dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, n))
        ) + 1 if n else np.empty(0, dtype=np.int64)
        ts = g[order].to_numpy().astype("datetime64[us]").astype(np.int64)
        gap = np.empty(n, dtype=np.int64)
        if n:
            gap[1:] = ts[1:] - ts[:-1]
            gap[0] = 0
        out = {
            key: g[key],
            order: g[order],
            tie: g[tie],
            "seq": pd.Series(seq),
            "gap_us": pd.Series(gap).astype("Int64").mask(pd.Series(new)),
        }
        if max_col is not None:
            # SQL running max carries the prior max ACROSS null rows;
            # pandas cummax leaves NaN at null positions — forward-fill
            # the cummax inside each key to match
            run = g.groupby(k, sort=False)[max_col].cummax()
            out["run_max"] = run.groupby(k, sort=False).ffill()
        res = pd.DataFrame(out)
        # a partition whose block carried nulls float-promoted integer
        # sources; after the dropna the cast back is lossless — one
        # schema across all partitions
        for c in (key, tie):
            if pa.types.is_integer(types[c]):
                res[c] = res[c].astype(np.int64)
        return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

    return exchange_map_groups(ds.select_columns(cols), key, win)


def funnel(
    ds: Dataset,
    key: str,
    order: str,
    type_col: str,
    stages: list[str],
) -> Dataset:
    """Ordered funnel: for each key, the first time it completes each
    stage STRICTLY AFTER completing the previous one (the classic
    product-analytics view→click→purchase chain).

    Output: one row per key holding ≥1 event — ``t1..tN`` (first
    qualifying timestamp per stage, null once the chain breaks) and
    ``reached`` (number of stages completed, 0..N).

    Per-partition chain: stage i's candidate rows merge against stage
    i-1's per-key threshold, keep rows with ``order`` strictly greater,
    then a C-speed groupby-min — no Python row loops. Rows with null
    key / order are excluded (oracle mirrors)."""
    cols = [key, order, type_col]
    key_type = ds.schema().base_schema.field(key).type

    def fun(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, order])
        out = (
            g[[key]].drop_duplicates().sort_values(key).set_index(key)
        )
        cur: pd.Series | None = None
        for i, s in enumerate(stages):
            rows = g[g[type_col] == s][[key, order]]
            if cur is not None:
                rows = rows.merge(
                    cur.rename("_thr"), left_on=key, right_index=True
                ).rename_axis(None)
                rows = rows[rows[order] > rows["_thr"]]
            cur = rows.groupby(key)[order].min()
            out[f"t{i + 1}"] = cur
        out["reached"] = (
            out[[f"t{i + 1}" for i in range(len(stages))]].notna().sum(axis=1).astype(np.int64)
        )
        res = out.reset_index()
        if pa.types.is_integer(key_type):
            res[key] = res[key].astype(np.int64)
        for i in range(len(stages)):
            # empty partitions / all-null stages must still carry the
            # timestamp dtype — one schema across partitions
            res[f"t{i + 1}"] = res[f"t{i + 1}"].astype("datetime64[us]")
        return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

    return exchange_map_groups(ds.select_columns(cols), key, fun)


def keyed_rolling(
    ds: Dataset,
    key: str,
    order: str,
    tie: str,
    value: str,
    *,
    window: int = 5,
    scale: int = 100,
) -> Dataset:
    """Per-key ROWS-frame rolling aggregates (the feature-engineering
    staple): for every row, over the ``window`` rows ending at it
    (ordered by ``(order, tie)`` within ``key``):

    - ``roll_sum_cents``  sum of ``round(value·scale)`` as int64 —
      integer on purpose: DuckDB computes windowed float sums with a
      segment tree whose combine order is unspecified, so float-exact
      parity is impossible; integer sums are associative and exact on
      BOTH sides. Null when the frame holds no non-null value.
    - ``roll_sum_sq_cents``  sum of squared cents (the second moment —
      rolling variance / anomaly flags derive from it with pure
      integer cross-multiplications; see ``q_rolling_anomalies``)
    - ``roll_n``          count of non-null values in the frame
    - ``roll_max``        max value in the frame (exact selection)

    Rows with a null key or null order are dropped (they have no frame
    position); null VALUES keep their row in the frame but contribute
    nothing — SQL window-aggregate semantics. One key-hash exchange,
    pandas C rolling kernels per partition."""
    cols = [key, order, tie, value]
    sch = ds.schema().base_schema
    key_t, tie_t = sch.field(key).type, sch.field(tie).type

    def roll(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, order]).sort_values(
            [key, order, tie], kind="mergesort"
        ).reset_index(drop=True)
        v = g[value].to_numpy(np.float64)
        cents = pd.Series(np.rint(v * scale), index=g.index)
        grp_c = cents.groupby(g[key], sort=False)
        # g is key-sorted, so groupby.rolling output (grouped order)
        # equals row order after dropping the group level
        rs = grp_c.rolling(window, min_periods=1).sum().reset_index(drop=True)
        rss = (
            (cents * cents)
            .groupby(g[key], sort=False)
            .rolling(window, min_periods=1)
            .sum()
            .reset_index(drop=True)
        )
        rn = grp_c.rolling(window, min_periods=1).count().reset_index(drop=True)
        rmax = (
            g.groupby(g[key], sort=False)[value]
            .rolling(window, min_periods=1)
            .max()
            .reset_index(drop=True)
        )
        return pa.table(
            {
                key: pa.Array.from_pandas(g[key], type=key_t),
                tie: pa.Array.from_pandas(g[tie], type=tie_t),
                order: pa.Array.from_pandas(g[order]),
                "roll_sum_cents": pa.Array.from_pandas(rs, type=pa.int64()),
                "roll_sum_sq_cents": pa.Array.from_pandas(rss, type=pa.int64()),
                "roll_n": pa.Array.from_pandas(rn, type=pa.int64()),
                "roll_max": pa.Array.from_pandas(rmax, type=pa.float64()),
            }
        )

    return exchange_map_groups(ds.select_columns(cols), key, roll)


def time_rolling(
    ds: Dataset,
    key: str,
    ts: str,
    tie: str,
    value: str,
    *,
    window_us: int = 3_600_000_000,
    scale: int = 100,
) -> Dataset:
    """Per-key TIME-based (RANGE-frame) rolling aggregates: for every
    row, over all of the key's rows with ``ts`` in
    ``[ts_i - window, ts_i]`` (inclusive both ends — SQL ``RANGE
    BETWEEN INTERVAL w PRECEDING AND CURRENT ROW``, which includes
    every PEER sharing the current timestamp, before or after it in
    tie order):

    - ``roll_sum_cents``  sum of ``round(value·scale)`` as int64
      (associative integer sums — exact vs SQL; see
      :func:`keyed_rolling` for why float windowed sums can't be
      matched). NULL when the frame holds no non-null value (SQL SUM).
    - ``roll_n``          count of non-null values in the frame.

    This is the event-RATE window (`requests in the trailing hour`)
    that ROWS-frame rolling cannot express when arrival gaps vary.

    ``ts`` may be a timestamp column (compared at ns precision) or a
    plain numeric column, which is treated as µs-epoch: ``window_us``
    is compared against it in the SAME unit, never rescaled.

    Scale shape: one key-hash exchange; per partition one mergesort by
    ``(key, ts, tie)``, then frame bounds for ALL rows at once via two
    ``np.searchsorted`` calls on a key-banded int64 time axis — each
    key's timestamps are rebased to its own start and shifted into a
    disjoint band of width ``K = max_rel + window + 2`` so one sorted
    array serves every key and a frame can never cross a key boundary
    (band gap > window). Bands are processed in key-blocks of
    ``≤ 2^62 / K`` keys so the shifted axis cannot overflow int64 even
    with millions of keys per partition. Frame sums are O(1) prefix-sum
    differences. Rows with null key / ts are dropped (no frame
    position); null values keep their row but contribute nothing.
    """
    cols = [key, ts, tie, value]
    from data_linter_ray.functions.timeseries import _schema_types

    sch = _schema_types(ds)
    key_t, tie_t = sch[key], sch[tie]

    def roll(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, ts]).sort_values(
            [key, ts, tie], kind="mergesort"
        ).reset_index(drop=True)
        n = len(g)
        k = g[key].to_numpy()
        t_raw = g[ts].to_numpy()
        # datetime axes fold at ns precision, so the µs window widens
        # ×1000; a plain NUMERIC order column is compared in its own
        # units (µs-epoch by convention) — scaling it too would make
        # the window 1000× too wide (sequence_order_violations has the
        # same numeric-column contract)
        if t_raw.dtype.kind == "M":
            ti = t_raw.astype("datetime64[ns]").astype(np.int64)
            w = np.int64(window_us) * 1000  # ns
        else:
            ti = t_raw.astype(np.int64)
            w = np.int64(window_us)  # same unit as the column
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        key_idx = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
        rel = ti - np.repeat(ti[starts], counts)  # per-key, ≥ 0
        v = g[value].to_numpy(np.float64)
        nnull = ~np.isnan(v)
        cents = np.where(nnull, np.rint(np.where(nnull, v, 0.0) * scale), 0.0)
        csum = np.concatenate(([0], np.cumsum(cents.astype(np.int64))))
        ncum = np.concatenate(([0], np.cumsum(nnull.astype(np.int64))))
        K = (int(rel.max()) if n else 0) + int(w) + 2
        block = max(1, _BAND_CAP // K)  # keys per overflow-safe block
        roll_sum = np.zeros(n, np.int64)
        roll_n = np.zeros(n, np.int64)
        for b0 in range(0, len(starts), block):
            b1 = min(b0 + block, len(starts))
            lo = starts[b0]
            hi = starts[b1] if b1 < len(starts) else n
            shifted = rel[lo:hi] + (key_idx[lo:hi] - b0) * np.int64(K)
            lb = np.searchsorted(shifted, shifted - w, side="left") + lo
            rb = np.searchsorted(shifted, shifted, side="right") + lo
            roll_sum[lo:hi] = csum[rb] - csum[lb]
            roll_n[lo:hi] = ncum[rb] - ncum[lb]
        out_sum = pd.Series(roll_sum).astype("Int64").mask(roll_n == 0)
        return pa.table(
            {
                key: pa.Array.from_pandas(g[key], type=key_t),
                tie: pa.Array.from_pandas(g[tie], type=tie_t),
                ts: pa.Array.from_pandas(g[ts]),
                "roll_sum_cents": pa.Array.from_pandas(out_sum, type=pa.int64()),
                "roll_n": pa.array(roll_n),
            }
        )

    return exchange_map_groups(ds.select_columns(cols), key, roll)


def transition_counts(
    ds: Dataset,
    key: str,
    order: str,
    type_col: str,
    tie: str | None = None,
) -> Dataset:
    """Markov transition matrix over per-key ordered event streams:
    (from_type, to_type, n) counts of consecutive event-type pairs
    within each key, ordered by ``(order, tie)`` — the product-analytics
    "what happens next" table and the input to Markov-chain attribution.

    One key-hash exchange co-locates each key's rows; inside a
    partition one mergesort + a shift produces every adjacent pair
    (C speed, no Python row loops), pairs crossing key boundaries are
    masked out, and per-partition pair counts (small: |types|² per
    partition) are summed by one tiny global groupby. Rows with null
    key/order/type are excluded. Integer counts — exact vs SQL lag().
    """
    from ray.data.aggregate import Sum

    cols = [c for c in [key, order, tie, type_col] if c is not None]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.dropna(subset=[key, order, type_col]).sort_values(
            [key, order] + ([tie] if tie else []), kind="mergesort"
        )
        k = g[key].to_numpy()
        ty = g[type_col].to_numpy()
        same = k[1:] == k[:-1]
        out = pd.DataFrame(
            {"from_type": ty[:-1][same], "to_type": ty[1:][same]}
        )
        agg = out.groupby(["from_type", "to_type"], as_index=False).size()
        return agg.rename(columns={"size": "n"})

    parts = exchange_map_groups(ds.select_columns(cols), key, pairs)
    return parts.groupby(["from_type", "to_type"]).aggregate(Sum("n", alias_name="n"))


def sequence_order_violations(
    ds: Dataset,
    key: str,
    seq: str,
    ts: str,
) -> Dataset:
    """Rows whose ``ts`` REGRESSES below the per-key running maximum
    when ordered by ``seq`` — the out-of-order-arrival / clock-skew
    validation a streaming ingest runs per entity ("this event carries
    a later sequence number but an earlier timestamp than something we
    already saw from this user").

    → (key, seq, ts, prev_max_ts) rows, one per violation. Comparison
    and prev_max are SELECTIONS (never arithmetic) so timestamps stay
    bit-exact vs the SQL oracle: ``ts < max(ts) OVER (PARTITION BY key
    ORDER BY seq ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    Scale shape: the module's standard ONE coarse key-hash exchange;
    inside each partition one mergesort by (key, seq) + a vectorized
    grouped running max (``np.maximum.accumulate`` segmented by key
    starts). Null key/seq/ts rows are excluded (documented, mirrored by
    the oracle's WHERE). ``seq`` must be unique per key for a total
    order (ties would make "previous" ambiguous in both engines);
    ``ts`` must be a tz-naive timestamp or a plain numeric column
    (tz-aware columns reach pandas as object arrays — normalize to
    UTC-naive upstream)."""
    cols = [key, seq, ts]
    types = {c: ds.schema().base_schema.field(c).type for c in cols}

    def find(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=cols)
        g = g.sort_values([key, seq], kind="mergesort").reset_index(drop=True)
        n = len(g)
        out_schema = pa.schema(
            [(key, types[key]), (seq, types[seq]), (ts, types[ts]),
             ("prev_max_ts", types[ts])]
        )
        if not n:
            return out_schema.empty_table()
        k = g[key].to_numpy()
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        t = g[ts].to_numpy()
        # int64 view of the timestamp lane (order-isomorphic, so the
        # running max stays a pure selection — no float round-trip).
        # NANOSECOND precision: a coarser view would silently erase
        # sub-unit regressions for finer-grained source columns
        is_dt = t.dtype.kind == "M"
        ti = t.astype("datetime64[ns]").astype(np.int64) if is_dt \
            else t.astype(np.int64)
        # per-key running max of the PREFIX (excluding the current row):
        # grouped cummax shifted by one; each key's first row can never
        # violate and is masked by ~new
        seg_id = np.cumsum(new) - 1
        cummax = pd.Series(ti).groupby(seg_id).cummax().to_numpy()
        prev_max = np.empty(n, dtype=np.int64)
        prev_max[0] = np.iinfo(np.int64).min
        prev_max[1:] = cummax[:-1]
        viol = (~new) & (ti < prev_max)
        sel = g[viol]
        pm = prev_max[viol]
        if is_dt:
            # ns ints -> ns timestamps -> CAST to the source's exact
            # unit/tz (a bare pa.array(pm, type) would reinterpret the
            # raw integers in the target unit)
            pm_arr = pa.array(pm.astype("datetime64[ns]")).cast(types[ts])
        else:
            pm_arr = pa.array(pm, types[ts])
        return pa.table(
            {
                key: pa.array(sel[key].to_numpy(), types[key]),
                seq: pa.array(sel[seq].to_numpy(), types[seq]),
                ts: pa.Array.from_pandas(sel[ts], type=types[ts]),
                "prev_max_ts": pm_arr,
            }
        )

    return exchange_map_groups(ds.select_columns(cols), key, find)


def collapse_repeats(
    ds: Dataset,
    key: str,
    seq: str,
    value_cols: list[str],
) -> Dataset:
    """Drop rows whose ``value_cols`` ALL equal the previous row's
    (same key, ``seq`` order) — run-length compaction of repeated
    states: retried event sends, unchanged CDC snapshots, duplicate
    sensor readings. Each key's first row always survives.

    Equality is null-safe (null == null collapses), mirroring SQL's
    ``IS NOT DISTINCT FROM``; the oracle shape is ``rn = 1 OR (v IS
    DISTINCT FROM lag(v) OVER (...))`` per value column. Output columns
    = (key, seq, *value_cols); selection-only, so every dtype stays
    hash-exact.

    Scale shape: the module's ONE coarse key-hash exchange; inside each
    partition a mergesort by (key, seq) + vectorized shifted compare —
    no per-row Python, no driver materialization."""
    cols = [key, seq] + list(value_cols)
    types = {c: ds.schema().base_schema.field(c).type for c in cols}

    def compact(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, seq])
        g = g.sort_values([key, seq], kind="mergesort").reset_index(drop=True)
        n = len(g)
        out_schema = pa.schema([(c, types[c]) for c in cols])
        if not n:
            return out_schema.empty_table()
        k = g[key].to_numpy()
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        changed = new.copy()
        for c in value_cols:
            v = g[c]
            prev = v.shift(1)
            same = (v == prev) | (v.isna() & prev.isna())
            changed |= ~same.to_numpy()
        sel = g[changed]
        return pa.table(
            {c: pa.Array.from_pandas(sel[c], type=types[c]) for c in cols}
        )

    return exchange_map_groups(ds.select_columns(cols), key, compact)


def lag_correlation(
    ds: Dataset,
    key: str,
    order: str,
    tie: str,
    value: str,
    *,
    lag: int = 1,
    round_to: int | None = None,
) -> "pd.DataFrame":
    """Pooled lag-k autocorrelation of a per-key ordered series — the
    "is this signal sticky?" monitor (event values per user, scores
    per shard over time). Pairs are ``(v_t, v_{t+lag})`` within one
    key in ``(order, tie)`` order; Pearson correlation over all pairs.

    Null-value rows KEEP their position in the ordering (SQL ``lag()``
    counts them as rows) — only pairs with a null operand are
    excluded, exactly the SQL ``WHERE a IS NOT NULL AND b IS NOT
    NULL``. Rows with null key/order/tie are dropped (no position).

    Scale shape: one key-hash exchange; per partition one mergesort +
    a shift produces every lag pair (pairs crossing key boundaries
    masked), then the six sufficient-statistic lanes fold on the
    driver (KB partials). The closed form matches the oracle's
    expression over SQL SUMs; ``round_to`` (6 in the oracle) absorbs
    the fold-order ulps — the :func:`~data_linter_ray.functions.stats.
    corr_matrix` trade.

    → 1-row DataFrame(n_pairs, corr).
    """
    cols = [key, order, tie, value]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.dropna(subset=[key, order, tie]).sort_values(
            [key, order, tie], kind="mergesort"
        )
        k = g[key].to_numpy()
        v = g[value].to_numpy(np.float64)
        if len(g) <= lag:
            return pd.DataFrame({"_s": ["0 0 0 0 0 0"]})
        a, b = v[:-lag], v[lag:]
        same = k[:-lag] == k[lag:]
        m = same & ~np.isnan(a) & ~np.isnan(b)
        a, b = a[m], b[m]
        vals = [
            len(a), a.sum(), b.sum(), (a * a).sum(), (b * b).sum(),
            (a * b).sum(),
        ]
        return pd.DataFrame(
            {"_s": [" ".join(repr(float(x)) for x in vals)]}
        )

    parts = exchange_map_groups(ds.select_columns(cols), key, pairs).to_pandas()
    tot = np.zeros(6, np.float64)
    for s in parts["_s"]:
        vals = [float(x) for x in s.split()]
        tot += np.array(vals, np.float64)
    n, sa, sb, saa, sbb, sab = tot
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (n * sab - sa * sb) / (
            np.sqrt(n * saa - sa * sa) * np.sqrt(n * sbb - sb * sb)
        )
    if round_to is not None:
        corr = np.round(corr, round_to)
    return pd.DataFrame({"n_pairs": [int(n)], "corr": [float(corr)]})


def cusum_alarms(
    ds: Dataset,
    key: str,
    order: str,
    tie: str,
    value: str,
    *,
    ref_cents: int,
    slack_cents: int = 0,
    threshold_cents: int,
    scale: int = 100,
) -> Dataset:
    """Per-key one-sided CUSUM drift alarms — the classic sequential
    changepoint detector ("this user's / shard's values have run above
    the reference level long enough to matter"). For each row, the
    CUSUM statistic over the key's ``(order, tie)``-ordered cents
    series is

        S_i = max(0, S_{i-1} + cents_i − (ref + slack))

    and rows with ``S_i > threshold`` are emitted as alarms. The
    clamped recursion is NOT a prefix sum, but it has the exact
    closed form ``S_i = C_i − min(0, min_{j≤i} C_j)`` with
    ``C = cumsum(cents − (ref+slack))`` — one cumsum + one
    ``np.minimum.accumulate`` per key segment, fully vectorized and
    INTEGER-exact (hash-exact vs the SQL nested-window oracle).

    Null key/order/tie rows are dropped; null values contribute zero
    deviation (they neither advance nor reset the statistic —
    documented; the oracle COALESCEs identically).

    → Dataset(key, tie, order, cusum_cents) — alarm rows only.
    """
    cols = [key, order, tie, value]
    from data_linter_ray.functions.timeseries import _schema_types

    sch = _schema_types(ds)
    key_t, tie_t = sch[key], sch[tie]
    drift = np.int64(ref_cents + slack_cents)

    def alarms(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, order, tie]).sort_values(
            [key, order, tie], kind="mergesort"
        ).reset_index(drop=True)
        n = len(g)
        k = g[key].to_numpy()
        v = g[value].to_numpy(np.float64)
        cents = np.where(
            np.isnan(v), 0, np.rint(np.where(np.isnan(v), 0.0, v) * scale)
        ).astype(np.int64) - np.where(np.isnan(v), 0, drift)
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        # per-key cumsum: global cumsum minus the value just before the
        # key's first row
        C = np.cumsum(cents)
        base = np.repeat(np.concatenate(([0], C[starts[1:] - 1])) if n else
                         np.empty(0, np.int64), counts)
        C = C - base
        # per-key running min of C (clamped at 0): segmented
        # minimum.accumulate via DESCENDING per-key bands — later keys
        # sit strictly BELOW earlier ones, so the carried minimum can
        # never leak across a key boundary (the time_rolling banding
        # idea, inverted for minima)
        BIG = np.int64((np.abs(C).max() if n else 0))
        band = np.repeat(
            -np.arange(len(starts), dtype=np.int64) * (2 * BIG + 1),
            counts,
        )
        m = np.minimum.accumulate(C + band) - band
        # S_i = C_i - min(0, min_{j<=i within key} C_j)
        S = C - np.minimum(0, m)
        viol = S > np.int64(threshold_cents)
        sel = g[viol]
        return pa.table(
            {
                key: pa.Array.from_pandas(sel[key], type=key_t),
                tie: pa.Array.from_pandas(sel[tie], type=tie_t),
                order: pa.Array.from_pandas(sel[order]),
                "cusum_cents": pa.array(S[viol], pa.int64()),
            }
        )

    return exchange_map_groups(ds.select_columns(cols), key, alarms)
