"""Time-series operators: as-of join and range (interval) join.

The as-of join is the brief's canonical "operator Ray Data lacks":
for each left row, attach the latest right row with the same key whose
time is ≤ (backward) / ≥ (forward) the left time. Expressed
Ray-Data-first as a composition (no raw actors):

    pad both sides to a shared schema (typed nulls) → union
    → coarse hash-partition on the key (``exchange_map_groups(ds, key,
    fn)`` — the repo's standard bounded exchange, one partition per
    hash bucket, NOT one per key)
    → inside each partition: ``pandas.merge_asof(..., by=key)`` —
    a single vectorized merge per partition covering all its keys.

Partitioning assumption (documented per the brief): all rows of one
key land in one partition — guaranteed by the hash on the key column;
per-partition memory is bounded by the key-hash fan-out, with skew
limited to the largest single key's history.

Semantics match ``pandas.merge_asof`` (inclusive bound; ties on the
right time resolve to the LAST right row) — DuckDB's ASOF JOIN agrees
when right times are unique per key, which the oracle query ensures.
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


def asof_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str,
    by: str,
    direction: str = "backward",
    right_suffix: str = "_r",
    allow_exact_matches: bool = True,
    right_dedupe_agg: dict | None = None,
) -> Dataset:
    """As-of join ``left`` to ``right`` on time column ``on`` within key
    ``by``. Returns left rows + the matched right row's payload columns
    (suffixed); unmatched left rows keep nulls (left-outer semantics).

    ``right_dedupe_agg`` (e.g. ``{"price": "max"}``, keys are OUTPUT
    right column names) dedupes the right side per (by, on) INSIDE the
    partition merge — all rows of a (by, on) pair co-locate under the
    key hash, so this is exact and saves the caller a whole
    groupby-exchange.

    ``exchange.exchange_width`` sizes the key-hash exchange from the
    padded union's bytes (≈ bytes / 1 GiB, floored at 32). These
    operators carry FULL rows through the exchange, so per-partition
    memory ≈ (|left|+|right|) / P."""
    def _arrow_types(schema) -> dict:
        base = schema.base_schema
        if isinstance(base, pa.Schema):
            return {n: base.field(n).type for n in base.names}
        out = {}
        for n, t in zip(base.names, base.types):  # PandasBlockSchema
            try:
                out[n] = pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                out[n] = pa.string()
        return out

    l_types_all = _arrow_types(left.schema())
    r_types_all = _arrow_types(right.schema())
    l_payload = [c for c in l_types_all if c not in (on, by)]
    r_payload = [c for c in r_types_all if c not in (on, by)]
    r_out = {c: c + right_suffix if c in l_types_all else c for c in r_payload}
    l_types = {c: l_types_all[c] for c in l_payload}
    r_types = {c: r_types_all[c] for c in r_payload}

    def pad(side: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                on: t[on],
                by: t[by],
                "_side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in l_payload:
                cols[c] = t[c] if side == 0 else pa.nulls(n, l_types[c])
            for c in r_payload:
                cols[r_out[c]] = t[c] if side == 1 else pa.nulls(n, r_types[c])
            return pa.table(cols)

        return f

    unioned = left.map_batches(pad(0), batch_format="pyarrow").union(
        right.map_batches(pad(1), batch_format="pyarrow")
    )

    out_r_cols = [r_out[c] for c in r_payload]

    def join_part(g: "pd.DataFrame") -> "pd.DataFrame":
        lg = (
            g[g["_side"] == 0][[on, by] + l_payload]
            .sort_values(on, kind="stable")
        )
        rg = g[g["_side"] == 1][[on, by] + out_r_cols]
        if right_dedupe_agg:
            rg = rg.groupby([by, on], as_index=False).agg(right_dedupe_agg)
            rg = rg[[on, by] + list(right_dedupe_agg)]
        rg = rg.sort_values(on, kind="stable")
        out = pd.merge_asof(
            lg,
            rg,
            on=on,
            by=by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
        )
        # the null-padded union NaN-promotes integer left payloads to
        # float64; restore via pandas' NULLABLE Int64 so every partition
        # emits the same Arrow type (int64) whether or not its slice of
        # the source column happens to contain nulls — a per-partition
        # data-dependent cast would mix block schemas
        for c in l_payload:
            if pa.types.is_integer(l_types[c]):
                out[c] = out[c].astype("Int64")
        # right payloads are nullable under left-outer semantics: pin
        # integer sources to float64 so every partition (including ones
        # with empty sides) emits the SAME schema — mixed block schemas
        # are a silent hazard downstream
        for c in r_payload:
            oc = r_out[c]
            if oc in out.columns and pa.types.is_integer(r_types[c]):
                out[oc] = out[oc].astype("float64")
        # emit Arrow (Int64 → int64): every partition then carries ONE
        # plain-arrow schema, and to_pandas round-trips to numpy dtypes
        # (metadata stripped — it would resurrect the pandas Int64 dtype)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange_map_groups(unioned, by, join_part)


#: per-partition intermediate-row budget for the plain merge fast path;
#: above it the time-bucketed merge bounds the per-key cross product
RANGE_JOIN_CROSS_LIMIT = 1 << 22


def _time_view(a: np.ndarray) -> np.ndarray:
    """datetime64 → int64 ns (exact); numeric stays as-is — the bucket
    arithmetic domain."""
    if np.issubdtype(a.dtype, np.datetime64):
        return a.astype("datetime64[ns]").astype(np.int64)
    return a


def _bucketed_interval_merge(
    lg: "pd.DataFrame",
    rg: "pd.DataFrame",
    by: str,
    left_time: str,
    start_c: str,
    end_c: str,
) -> "pd.DataFrame":
    """Hot-key-safe candidate merge: salt both sides by TIME BUCKET of
    width W = the partition's max interval duration, so each right
    interval replicates into ≤ 2 buckets and each left row joins only
    its own bucket's intervals. Per-bucket intermediate size is
    |L_bucket|·|R_bucket| — bounded by time spread instead of the full
    |L_k|·|R_k| per-key cross product. Candidates still pass the exact
    interval filter downstream; a pair can meet only in the left row's
    single bucket, so no duplicates are introduced."""
    lt = _time_view(lg[left_time].to_numpy())
    rs = _time_view(rg[start_c].to_numpy())
    re_ = _time_view(rg[end_c].to_numpy())
    w = (re_ - rs).max()
    W = w if w > 0 else 1
    if np.issubdtype(lt.dtype, np.integer):
        lb = np.floor_divide(lt, W)
        rb1, rb2 = np.floor_divide(rs, W), np.floor_divide(re_, W)
    else:
        lb = np.floor(lt / W)
        rb1, rb2 = np.floor(rs / W), np.floor(re_ / W)
    lg2 = lg.assign(_tb=lb)
    spill = rb2 != rb1
    rg2 = pd.concat(
        [rg.assign(_tb=rb1), rg[spill].assign(_tb=rb2[spill])], ignore_index=True
    )
    return lg2.merge(rg2, on=[by, "_tb"]).drop(columns="_tb")


def range_join(
    left: Dataset,
    right: Dataset,
    *,
    left_time: str,
    right_start: str,
    right_end: str,
    by: str,
    right_suffix: str = "_r",
    post=None,
    cross_limit: int = RANGE_JOIN_CROSS_LIMIT,
) -> Dataset:
    """Interval (range) join: pair each left row with every right row of
    the same key whose [start, end] interval contains the left time
    (inclusive bounds — mirror a SQL BETWEEN join).

    Same composition as :func:`asof_join`: pad → union → coarse key-hash
    exchange → per-partition vectorized pandas merge + interval filter.
    Partitioning assumption: all rows of one key share a partition. The
    per-key Σ|L_k|·|R_k| cross-product hazard is bounded: each partition
    estimates its blowup from the two sides' key histograms and, above
    ``cross_limit`` intermediate rows, switches to a time-bucketed merge
    (bucket width = max interval duration, right intervals replicated
    into ≤2 buckets) so a hot key costs |L_b|·|R_b| per time bucket, not
    |L_k|·|R_k|. Degenerate case: if a hot key's intervals all overlap
    one bucket the output itself is that large — inherent to the query.

    ``post`` (optional ``DataFrame -> DataFrame``) runs on each
    partition's joined frame before emission — use it for per-key
    aggregations (every key's matches are complete within the
    partition), avoiding a second global shuffle."""
    l_types_all = {
        n: t for n, t in _schema_types(left).items()
    }
    r_types_all = {
        n: t for n, t in _schema_types(right).items()
    }
    l_payload = [c for c in l_types_all if c != by]
    r_payload = [c for c in r_types_all if c != by]
    r_out = {c: c + right_suffix if c in l_types_all else c for c in r_payload}

    def pad(side: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                by: t[by],
                "_side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in l_payload:
                cols[c] = t[c] if side == 0 else pa.nulls(n, l_types_all[c])
            for c in r_payload:
                cols[r_out[c]] = t[c] if side == 1 else pa.nulls(n, r_types_all[c])
            return pa.table(cols)

        return f

    unioned = left.map_batches(pad(0), batch_format="pyarrow").union(
        right.map_batches(pad(1), batch_format="pyarrow")
    )
    out_r = [r_out[c] for c in r_payload]
    start_c, end_c = r_out[right_start], r_out[right_end]

    def join_part(g: "pd.DataFrame") -> "pd.DataFrame":
        lg = g[g["_side"] == 0][[by] + l_payload]
        rg = g[g["_side"] == 1][[by] + out_r]
        if len(lg) and len(rg):
            # estimate the per-key cross product from the key histograms;
            # fast-path the plain merge when it is small
            est = int((lg[by].value_counts() * rg[by].value_counts()).sum())
        else:
            est = 0
        if est <= cross_limit:
            out = lg.merge(rg, on=by)
        else:
            out = _bucketed_interval_merge(lg, rg, by, left_time, start_c, end_c)
        out = out[
            (out[start_c] <= out[left_time]) & (out[left_time] <= out[end_c])
        ]
        # the interval join is inner (the filter above), so no nulls are
        # introduced — but the padded union still NaN-promoted int
        # payloads; nullable Int64 restores int64 Arrow blocks with ONE
        # schema across partitions regardless of source nulls
        for c in l_payload:
            if pa.types.is_integer(l_types_all[c]):
                out[c] = out[c].astype("Int64")
        for c in r_payload:
            if pa.types.is_integer(r_types_all[c]):
                out[r_out[c]] = out[r_out[c]].astype("Int64")
        out = out.reset_index(drop=True)
        res = post(out) if post is not None else out
        # as in asof_join: plain-arrow blocks, one schema per run
        return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

    return exchange_map_groups(unioned, by, join_part)


def _schema_types(ds: Dataset) -> dict:
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return {n: base.field(n).type for n in base.names}
    out = {}
    for n, t in zip(base.names, base.types):  # PandasBlockSchema
        try:
            out[n] = pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            out[n] = pa.string()
    return out


def sessionize(
    ds: Dataset,
    *,
    time_col: str,
    by: str,
    gap,
    agg: dict | None = None,
) -> Dataset:
    """Session windows (gap-based): consecutive same-key rows whose time
    gap exceeds ``gap`` start a new session — the classic
    gaps-and-islands computation, distributed by the usual coarse
    key-hash exchange with all per-key work vectorized inside the
    partition (sort + diff + cumsum; no Python per row).

    Returns one row per session: (by, session_start, session_end,
    n_rows) plus any extra pandas-style ``agg`` outputs
    ({out_col: (src_col, fn)}).
    """

    def islands(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([by, time_col], kind="stable")
        new_key = g[by].ne(g[by].shift())
        gap_break = g[time_col].diff() > gap
        sid = (new_key | gap_break).cumsum()
        spec = {
            "session_start": (time_col, "min"),
            "session_end": (time_col, "max"),
            "n_rows": (time_col, "size"),
            **(agg or {}),
        }
        out = g.groupby([g[by], sid]).agg(**spec).reset_index(level=0)
        return out.reset_index(drop=True)

    return exchange_map_groups(ds, by, islands)


def resample_ffill(
    ds: Dataset,
    *,
    key: str,
    time_col: str,
    tie: str,
    value: str,
    start,
    stop,
    step_us: int,
) -> Dataset:
    """Regularize an irregular per-key series onto a shared time grid
    with forward fill (the gap-fill / feature-snapshot operator):
    for every key present in the input and every grid instant
    ``start, start+step, …, ≤ stop``, emit the key's last observed
    ``value`` at or before that instant (as-of semantics), NULL before
    the key's first observation.

    Observations sharing one ``(key, time)`` collapse to the row with
    the greatest ``tie`` first (SQL ``max_by(value, tie)``), making the
    fill deterministic — DuckDB's ASOF JOIN over the collapsed series
    computes the identical table. Filled values are pure SELECTIONS
    (never arithmetic), so floats stay bit-exact.

    Scale shape: one key-hash exchange co-locates each key's rows; per
    partition one mergesort + per-(key,time) last-tie collapse, then
    ALL keys' grid lookups resolve in ONE ``np.searchsorted`` over a
    key-banded time axis (observations rebased per key into disjoint
    int64 bands of width ``K = max_rel + 2``; the tiled grid gets the
    same shift, so no per-key Python loop). Key-blocks of ``≤ 2^62/K``
    keys keep the banded axis overflow-safe. Output is (keys × grid)
    rows — each partition emits only its own keys' slab, so the
    materialized grid never concentrates on one node.
    """
    sch = _schema_types(ds)
    key_t = sch[key]
    start64 = np.datetime64(start, "ns").astype(np.int64)
    stop64 = np.datetime64(stop, "ns").astype(np.int64)
    step = np.int64(step_us) * 1000
    grid = np.arange(start64, stop64 + 1, step, dtype=np.int64)
    G = len(grid)

    def fill(g: pd.DataFrame) -> pa.Table:
        g = g.dropna(subset=[key, time_col]).sort_values(
            [key, time_col, tie], kind="mergesort"
        )
        # per-(key, time) last-tie collapse — keep='last' on the sorted
        # frame IS max_by(value, tie)
        g = g.drop_duplicates([key, time_col], keep="last").reset_index(drop=True)
        n = len(g)
        k = g[key].to_numpy()
        ti = g[time_col].to_numpy().astype("datetime64[ns]").astype(np.int64)
        v = g[value].to_numpy(np.float64)
        new = np.empty(n, dtype=bool)
        if n:
            new[0] = True
            new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        nk = len(starts)
        # rebase every key AND the grid to the key's own origin so band
        # offsets stay small; grid points before the origin clamp to -1
        # (no observation can precede the key's first row)
        base = np.minimum(ti[starts], start64)
        rel_obs = ti - np.repeat(base, counts)
        max_rel = max(int(rel_obs.max()) if n else 0,
                      int((stop64 - base.min())) if nk else 0)
        K = max_rel + 2
        block = max(1, _BAND_CAP // K)
        out_k, out_t, out_v = [], [], []
        for b0 in range(0, nk, block):
            b1 = min(b0 + block, nk)
            lo = starts[b0]
            hi = starts[b1] if b1 < nk else n
            nb = b1 - b0
            band = (np.arange(nb, dtype=np.int64)) * np.int64(K)
            shifted_obs = rel_obs[lo:hi] + np.repeat(band, counts[b0:b1])
            grid_rel = (np.tile(grid, nb).reshape(nb, G)
                        - base[b0:b1, None] + band[:, None]).ravel()
            idx = np.searchsorted(shifted_obs, grid_rel, side="right") - 1 + lo
            seg_lo = np.repeat(starts[b0:b1], G)
            valid = idx >= seg_lo
            vals = np.where(valid, v[np.clip(idx, 0, max(n - 1, 0))], np.nan)
            out_k.append(np.repeat(k[starts[b0:b1]], G))
            out_t.append(np.tile(grid, nb))
            out_v.append(vals)
        if not out_k:
            return pa.table(
                {key: pa.array([], key_t),
                 time_col: pa.array([], pa.timestamp("us")),
                 value: pa.array([], pa.float64())}
            )
        return pa.table(
            {
                key: pa.array(np.concatenate(out_k), key_t),
                time_col: pa.array(
                    np.concatenate(out_t).astype("datetime64[ns]")
                ).cast(pa.timestamp("us")),
                # from_pandas=True: NaN (pre-first-observation, or a
                # null observed value) becomes Arrow NULL — SQL parity
                value: pa.array(
                    np.concatenate(out_v), pa.float64(), from_pandas=True
                ),
            }
        )

    return exchange_map_groups(
        ds.select_columns([key, time_col, tie, value]), key, fill
    )
