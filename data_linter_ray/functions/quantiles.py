"""Exact distributed quantiles — sort-free multi-round histogram
refinement.

``ds.sort`` on a 10^12-row column is a full all-to-all shuffle just to
read a handful of order statistics. Exact quantiles only need the kth
smallest value for k = max(ceil(n·q), 1) (DuckDB ``quantile_disc``'s
rank rule, verified empirically) — and kth-smallest is findable with a
few *scans* instead of a sort:

  pass 0: count + min/max aggregate over the pruned column.
  round r: one scan computes, for every still-active target interval,
      a K-bucket fixed-width histogram (one ``np.bincount`` partial per
      batch, driver-summed by ``exchange.fold_batches`` — the same
      partials-as-data pattern as ``functions.ranking``). The driver
      walks the cumulative counts to find each target's bucket,
      accumulates the rank offset of everything below it, and narrows
      the interval by a factor of K.
  final: when a target's interval holds ≤ ``max_collect`` values, one
      filtered scan collects just those values (bounded driver
      materialization, documented) and ``np.partition`` picks the
      answer.

Interval membership is defined by the CHAIN of bucket predicates
(`clip(floor((v - lo)/w), 0, K-1) == b` per round) rather than value
range compares, so float boundary rounding can never double- or
zero-count a value: the same formula assigns buckets in every pass.
n shrinks by K× per round — 10^12 rows reach ``max_collect`` in 2
rounds at K=1024 — so total cost is ~3-4 column-pruned streaming scans
and no shuffle at all. Heavy duplicate skew collapses the interval onto
one value; after ``max_rounds`` the interval is narrower than float64
resolution, so any member IS the answer (collected with ``limit(1)``).

Scale note: every pass streams; nothing but K·(#intervals) int64
counters and ≤ ``max_collect`` final candidates ever reach the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from data_linter_ray.exchange import fold_batches


def _bucket_idx(v: np.ndarray, lo: float, w: float, K: int) -> np.ndarray:
    # clip in FLOAT domain before the int cast: with subnormal widths
    # (v - lo)/w overflows to inf, and floor(inf).astype(int64) is
    # C-undefined — clipping first maps ±inf to the end buckets
    # deterministically on every platform.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.clip(np.floor((v - lo) / w), 0, K - 1).astype(np.int64)


def _chain_mask(v: np.ndarray, chain: list[tuple[float, float, int]], K: int) -> np.ndarray:
    mask = np.ones(len(v), dtype=bool)
    for lo, w, b in chain:
        mask &= _bucket_idx(v, lo, w, K) == b
    return mask


def _hist_init(J: int, K: int) -> tuple:
    """Zero counts and an empty (min, max) member range per interval."""
    return np.zeros((J, K), np.int64), np.full(J, np.inf), np.full(J, -np.inf)


def _merge_hist(acc: tuple, part: tuple) -> tuple:
    """Fold one batch's (counts, vmin, vmax) histogram partial."""
    return acc[0] + part[0], np.minimum(acc[1], part[1]), np.maximum(acc[2], part[2])


def exact_quantiles(
    ds: Dataset,
    value_col: str,
    qs: list[float],
    *,
    n_buckets: int = 1024,
    max_collect: int = 1_048_576,
    max_rounds: int = 8,
):
    """→ pandas DataFrame (q, value): the exact ``quantile_disc`` of
    ``value_col`` at each q in ``qs`` (kth smallest, k = max(ceil(n·q), 1);
    nulls excluded). Thin wrapper over :func:`exact_quantiles_cols`
    (the shared multi-column engine), so the full single-column test
    battery exercises the shared code paths."""
    return exact_quantiles_cols(
        ds,
        {value_col: qs},
        n_buckets=n_buckets,
        max_collect=max_collect,
        max_rounds=max_rounds,
    )[value_col]


def exact_quantiles_cols(
    ds: Dataset,
    specs: dict[str, list[float]],
    *,
    n_buckets: int = 1024,
    # member-collect cap: ≤ 8 MB of float64 per target reaches the
    # driver, and the target count here is Σ len(qs) (small), unlike
    # the grouped engine whose targets = groups × qs (it keeps 65536).
    # Inputs under the cap resolve in TWO executions (stats + collect).
    max_collect: int = 1_048_576,
    max_rounds: int = 8,
):
    """Multi-column ``quantile_disc``: resolve every column's targets
    with SHARED scans — ONE fused count/min/max aggregate, ONE fused
    histogram pass per refinement round (intervals from all columns in
    the same J×K partial), ONE fused member collect. A 2D equi-depth
    histogram (two boundary sets over the same rows) thus costs one
    scan family instead of two. → {col: DataFrame(q, value)}."""
    import pandas as pd

    K = n_buckets
    cols = list(specs)
    pruned = ds.select_columns(cols)
    aggs = []
    for c in cols:
        aggs += [
            ray.data.aggregate.Count(c, ignore_nulls=True),
            ray.data.aggregate.Min(c),
            ray.data.aggregate.Max(c),
        ]
    agg = pruned.aggregate(*aggs)

    # one state per target: remaining rank within the chain-defined
    # interval, the chain itself, and the interval's (lo, width/K)
    targets: list[dict] = []
    n_of: dict[str, int] = {}
    for c in cols:
        n = int(agg[f"count({c})"])
        n_of[c] = n
        if n == 0:
            continue
        lo0, hi0 = float(agg[f"min({c})"]), float(agg[f"max({c})"])
        for q in specs[c]:
            r = max(math.ceil(n * float(q)), 1)
            targets.append(
                {"col": c, "q": float(q), "rank": r, "chain": [], "lo": lo0,
                 "w": (hi0 - lo0) / K or 1.0, "count": n,
                 "value": lo0 if hi0 == lo0 else None}
            )

    if any(t["value"] is None and t["count"] > max_collect for t in targets):
        # refinement will re-scan this projection ≥2 more times (≥1
        # histogram round + the member collect) — materialize once so
        # those rounds read object-store blocks (spillable) instead of
        # re-executing the upstream plan; at fleet scale that's several
        # repeated source scans saved per call. Below the cap a single
        # member-collect scan remains, so materializing would only add
        # an execution.
        pruned = pruned.materialize()

    for _ in range(max_rounds):
        active = [t for t in targets if t["value"] is None and t["count"] > max_collect]
        if not active:
            break
        # distinct (col, interval)s this round (targets often share)
        intervals: list[tuple] = []
        key_of = {}
        for t in active:
            key = (t["col"], t["lo"], t["w"], tuple(t["chain"]))
            if key not in key_of:
                key_of[key] = len(intervals)
                intervals.append((t["col"], t["lo"], t["w"], list(t["chain"])))
        J = len(intervals)

        def hist(tb: pa.Table, intervals=intervals, J=J) -> tuple:
            vs: dict[str, np.ndarray] = {}
            out = np.zeros((J, K), dtype=np.int64)
            vmin = np.full(J, np.inf)
            vmax = np.full(J, -np.inf)
            for j, (c, lo, w, chain) in enumerate(intervals):
                if c not in vs:
                    vs[c] = (
                        tb[c].drop_null()
                        .to_numpy(zero_copy_only=False)
                        .astype(np.float64)
                    )
                v = vs[c]
                mv = v[_chain_mask(v, chain, K)]
                out[j] = np.bincount(_bucket_idx(mv, lo, w, K), minlength=K)
                if len(mv):
                    vmin[j] = mv.min()
                    vmax[j] = mv.max()
            return out, vmin, vmax

        total, gmin, gmax = fold_batches(pruned, hist, _merge_hist, _hist_init(J, K))

        for t in active:
            j = key_of[(t["col"], t["lo"], t["w"], tuple(t["chain"]))]
            cum = np.cumsum(total[j])
            b = int(np.searchsorted(cum, t["rank"], side="left"))
            below = int(cum[b - 1]) if b else 0
            t["chain"] = t["chain"] + [(t["lo"], t["w"], b)]
            t["rank"] -= below
            no_progress = int(total[j][b]) == t["count"]
            t["count"] = int(total[j][b])
            if no_progress:
                # fixed-width narrowing stalled: every member fell in one
                # bucket. The interval's TRUE member range [gmin, gmax]
                # (measured this pass) re-anchors the grid — vital for
                # extreme dynamic range (e.g. subnormals vs 1.0, where
                # floor((v-lo)/w) cannot separate values until w shrinks
                # by ~1e45). gmin==gmax ⇒ every member equal ⇒ done.
                if gmin[j] == gmax[j]:
                    t["value"] = gmin[j]
                else:
                    t["lo"] = gmin[j]
                    t["w"] = (gmax[j] - gmin[j]) / K or 1.0
            else:
                t["lo"] = t["lo"] + b * t["w"]
                t["w"] = t["w"] / K

    # final collect: ONE scan gathers every open target's interval
    # members as (tgt, value) rows — 8 targets is 8× fewer passes than
    # a scan per target. Targets still over max_collect after
    # max_rounds (adversarial duplicate/dynamic-range mixes) collect
    # their full member set — correct, with the memory note documented.
    open_targets = [t for t in targets if t["value"] is None]
    if open_targets:
        # collect once per DISTINCT (col, interval), not per target:
        # multiple quantiles routinely share a chain (all of them, when
        # no refinement ran), and a per-target collect would ship one
        # copy of the interval's members per quantile to the driver.
        plan_of: dict = {}
        for t in open_targets:
            plan_of.setdefault((t["col"], tuple(t["chain"])), len(plan_of))
        plans = [(j, c, list(chain)) for (c, chain), j in plan_of.items()]

        def members(tb: pa.Table, plans=plans) -> pa.Table:
            vs: dict[str, np.ndarray] = {}
            tgt_out, val_out = [], []
            for j, c, chain in plans:
                if c not in vs:
                    vs[c] = (
                        tb[c].drop_null()
                        .to_numpy(zero_copy_only=False)
                        .astype(np.float64)
                    )
                mv = vs[c][_chain_mask(vs[c], chain, K)]
                tgt_out.append(np.full(len(mv), j, dtype=np.int64))
                val_out.append(mv)
            return pa.table(
                {
                    "tgt": np.concatenate(tgt_out or [np.empty(0, np.int64)]),
                    "value": np.concatenate(val_out or [np.empty(0)]),
                }
            )

        tgt_parts, val_parts = [], []
        for b in pruned.map_batches(members, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            tgt_parts.append(b["tgt"].to_numpy(zero_copy_only=False))
            val_parts.append(b["value"].to_numpy(zero_copy_only=False))
        all_tgt = np.concatenate(tgt_parts or [np.empty(0, np.int64)])
        all_val = np.concatenate(val_parts or [np.empty(0)])
        for t in open_targets:
            vals = all_val[all_tgt == plan_of[(t["col"], tuple(t["chain"]))]]
            t["value"] = np.partition(vals, t["rank"] - 1)[t["rank"] - 1]

    out: dict = {}
    for c in cols:
        if n_of[c] == 0:
            out[c] = pd.DataFrame(
                {"q": pd.Series(specs[c], dtype=np.float64), "value": np.nan}
            )
        else:
            ts = [t for t in targets if t["col"] == c]
            out[c] = pd.DataFrame(
                {
                    "q": pd.Series([t["q"] for t in ts], dtype=np.float64),
                    "value": [t["value"] for t in ts],
                }
            )
    return out


def _grouped_ranks(
    ds: Dataset,
    value_col: str,
    group_col: str,
    ranks_for,
    *,
    n_buckets: int = 1024,
    max_collect: int = 65536,
    max_rounds: int = 8,
):
    """Shared engine for the grouped quantile family: resolve, for each
    group g with n_g non-null values, the ``ranks_for(n_g)`` 1-indexed
    order statistics — multi-round histogram refinement, no sort, no
    per-group shuffle. Returns (acc {g: (n, lo, hi)},
    {(g, rank): value}). See :func:`grouped_quantiles` for the scale
    assumption (enumerable group domain)."""
    import pandas as pd

    K = n_buckets
    pruned = ds.select_columns([group_col, value_col])
    # the per-batch histogram partial is J×K int64 (J = open intervals ≤
    # groups × fractions); cap it at ~32 MB by shrinking K for wide
    # group domains — more refinement rounds, same exactness, bounded
    # partial size. (J is known only after pass 0; the cap below uses
    # the worst case len(groups)×len(qs).)
    _MAX_PARTIAL_CELLS = 1 << 22

    def stats_partial(t: pa.Table) -> pa.Table:
        t = t.filter(t[group_col].is_valid())
        g = t.group_by([group_col]).aggregate(
            [(value_col, "count"), (value_col, "min"), (value_col, "max")]
        )
        return pa.table(
            {
                "g": g[group_col],
                "n": g[f"{value_col}_count"].cast(pa.int64()),
                "lo": g[f"{value_col}_min"].cast(pa.float64()),
                "hi": g[f"{value_col}_max"].cast(pa.float64()),
            }
        )

    acc: dict = {}
    for b in pruned.map_batches(stats_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for g, n, lo, hi in zip(
            b["g"].to_pylist(), b["n"].to_pylist(),
            b["lo"].to_pylist(), b["hi"].to_pylist(),
        ):
            e = acc.setdefault(g, [0, math.inf, -math.inf])
            e[0] += n
            if lo is not None:
                e[1] = min(e[1], lo)
                e[2] = max(e[2], hi)

    ranks_by_g = {g: sorted(set(ranks_for(acc[g][0]))) for g in acc}
    worst_j = max(1, sum(len(r) for r in ranks_by_g.values()))
    if worst_j * K > _MAX_PARTIAL_CELLS:
        K = max(16, _MAX_PARTIAL_CELLS // worst_j)

    targets = []
    for g in sorted(acc):
        n, lo0, hi0 = acc[g]
        for k in ranks_by_g[g]:
            if n == 0:
                targets.append({"g": g, "k": k, "value": None, "count": 0,
                                "rank": 0, "chain": [], "lo": 0.0, "w": 1.0})
                continue
            t = {"g": g, "k": k, "rank": k,
                 "chain": [], "lo": lo0, "w": (hi0 - lo0) / K or 1.0,
                 "count": n, "value": None}
            if hi0 == lo0:
                t["value"] = lo0
            targets.append(t)

    if any(t["value"] is None and t["count"] > max_collect for t in targets):
        # refinement will re-scan the projection ≥2 more times (≥1
        # histogram round + the member collect) — materialize once so
        # those rounds read object-store blocks instead of re-executing
        # the upstream plan (see exact_quantiles for the trade).
        pruned = pruned.materialize()

    for _ in range(max_rounds):
        active = [t for t in targets if t["value"] is None and t["count"] > max_collect]
        if not active:
            break
        intervals: list[tuple] = []
        key_of = {}
        for t in active:
            key = (t["g"], t["lo"], t["w"], tuple(t["chain"]))
            if key not in key_of:
                key_of[key] = len(intervals)
                intervals.append((t["g"], t["lo"], t["w"], list(t["chain"])))
        J = len(intervals)

        def hist(tb: pa.Table, intervals=intervals, J=J) -> tuple:
            tb = tb.filter(
                pc.and_(tb[group_col].is_valid(), tb[value_col].is_valid())
            )
            gcol = tb[group_col].to_numpy(zero_copy_only=False)
            v = tb[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            out = np.zeros((J, K), dtype=np.int64)
            vmin = np.full(J, np.inf)
            vmax = np.full(J, -np.inf)
            for j, (g, lo, w, chain) in enumerate(intervals):
                gm = gcol == g
                vm = v[gm]
                m = _chain_mask(vm, chain, K)
                mv = vm[m]
                out[j] = np.bincount(_bucket_idx(mv, lo, w, K), minlength=K)
                if len(mv):
                    vmin[j] = mv.min()
                    vmax[j] = mv.max()
            return out, vmin, vmax

        total, gmin, gmax = fold_batches(pruned, hist, _merge_hist, _hist_init(J, K))

        for t in active:
            j = key_of[(t["g"], t["lo"], t["w"], tuple(t["chain"]))]
            cum = np.cumsum(total[j])
            b = int(np.searchsorted(cum, t["rank"], side="left"))
            below = int(cum[b - 1]) if b else 0
            t["chain"] = t["chain"] + [(t["lo"], t["w"], b)]
            t["rank"] -= below
            no_progress = int(total[j][b]) == t["count"]
            t["count"] = int(total[j][b])
            if no_progress:
                # same stall handling as exact_quantiles: re-anchor the
                # grid on the interval's true member range, or finish
                # outright when every member is equal
                if gmin[j] == gmax[j]:
                    t["value"] = gmin[j]
                else:
                    t["lo"] = gmin[j]
                    t["w"] = (gmax[j] - gmin[j]) / K or 1.0
            else:
                t["lo"] = t["lo"] + b * t["w"]
                t["w"] = t["w"] / K

    open_targets = [
        (i, t) for i, t in enumerate(targets)
        if t["value"] is None and t["count"] > 0
    ]
    if open_targets:
        # one collect per DISTINCT (group, chain) interval — a group's
        # quantiles usually share their chain, and a per-target collect
        # would ship one copy of the interval's members per quantile
        plan_of: dict = {}
        for i, t in open_targets:
            plan_of.setdefault((t["g"], tuple(t["chain"])), len(plan_of))
        plans = [(j, g, list(chain)) for (g, chain), j in plan_of.items()]

        def members(tb: pa.Table, plans=plans) -> pa.Table:
            tb = tb.filter(
                pc.and_(tb[group_col].is_valid(), tb[value_col].is_valid())
            )
            gcol = tb[group_col].to_numpy(zero_copy_only=False)
            v = tb[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            tgt_out, val_out = [], []
            for j, g, chain in plans:
                vm = v[gcol == g]
                mv = vm[_chain_mask(vm, chain, K)]
                tgt_out.append(np.full(len(mv), j, dtype=np.int64))
                val_out.append(mv)
            return pa.table(
                {
                    "tgt": np.concatenate(tgt_out or [np.empty(0, np.int64)]),
                    "value": np.concatenate(val_out or [np.empty(0)]),
                }
            )

        tgt_parts, val_parts = [], []
        for b in pruned.map_batches(members, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            tgt_parts.append(b["tgt"].to_numpy(zero_copy_only=False))
            val_parts.append(b["value"].to_numpy(zero_copy_only=False))
        all_tgt = np.concatenate(tgt_parts or [np.empty(0, np.int64)])
        all_val = np.concatenate(val_parts or [np.empty(0)])
        for i, t in open_targets:
            vals = all_val[all_tgt == plan_of[(t["g"], tuple(t["chain"]))]]
            t["value"] = np.partition(vals, t["rank"] - 1)[t["rank"] - 1]

    return acc, {(t["g"], t["k"]): t["value"] for t in targets}


def grouped_quantiles(
    ds: Dataset,
    value_col: str,
    group_col: str,
    qs: list[float],
    *,
    n_buckets: int = 1024,
    max_collect: int = 65536,
    max_rounds: int = 8,
):
    """Exact per-group ``quantile_disc`` WITHOUT a sort or a per-group
    shuffle: the same multi-round histogram refinement as
    :func:`exact_quantiles`, with one (group, interval) histogram lane
    per still-open target. Rows with a null group are excluded (the SQL
    oracle mirrors); null values are ignored as usual.

    Scale assumption (documented): the GROUP domain is enumerable —
    pass 0 folds per-batch (group, n, min, max) partials on the driver,
    so thousands of groups are fine, millions are not (use a key-hash
    exchange + in-partition sort for high-cardinality grouping).

    → pandas DataFrame (group, q, value)."""
    import pandas as pd

    def ranks_for(n: int) -> list[int]:
        return [max(math.ceil(n * float(q)), 1) for q in qs] if n else []

    acc, by_rank = _grouped_ranks(
        ds, value_col, group_col, ranks_for,
        n_buckets=n_buckets, max_collect=max_collect, max_rounds=max_rounds,
    )
    rows = []
    for g in sorted(acc):
        n = acc[g][0]
        for q in qs:
            v = by_rank.get((g, max(math.ceil(n * float(q)), 1))) if n else None
            rows.append((g, float(q), v))
    return pd.DataFrame(
        {
            "group": [r[0] for r in rows],
            "q": pd.Series([r[1] for r in rows], dtype=np.float64),
            "value": pd.Series([r[2] for r in rows], dtype=np.float64),
        }
    )


def grouped_percentile_cont(
    ds: Dataset,
    value_col: str,
    group_col: str,
    qs: list[float],
    *,
    n_buckets: int = 1024,
    max_collect: int = 65536,
    max_rounds: int = 8,
):
    """Per-group SQL ``quantile_cont`` (linear interpolation), exact and
    sort-free: each (group, q) touches the order statistics at ranks
    floor(RN)+1 / ceil(RN)+1 with RN = (n_g−1)·q — all resolved in the
    same shared multi-round refinement scans — then DuckDB's two-sided
    weighted interpolation expression (bit-identical floats).

    → pandas DataFrame (group, q, value)."""
    import pandas as pd

    def ranks_for(n: int) -> list[int]:
        ks = set()
        for q in qs:
            rn = (n - 1) * float(q)
            ks.update((math.floor(rn) + 1, math.ceil(rn) + 1))
        return sorted(ks) if n else []

    acc, by_rank = _grouped_ranks(
        ds, value_col, group_col, ranks_for,
        n_buckets=n_buckets, max_collect=max_collect, max_rounds=max_rounds,
    )
    rows = []
    for g in sorted(acc):
        n = acc[g][0]
        for q in qs:
            if n == 0:
                rows.append((g, float(q), None))
                continue
            rn = (n - 1) * float(q)
            frn, crn = math.floor(rn), math.ceil(rn)
            lo, hi = by_rank[(g, frn + 1)], by_rank[(g, crn + 1)]
            v = lo if crn == frn else (crn - rn) * lo + (rn - frn) * hi
            rows.append((g, float(q), v))
    return pd.DataFrame(
        {
            "group": [r[0] for r in rows],
            "q": pd.Series([r[1] for r in rows], dtype=np.float64),
            "value": pd.Series([r[2] for r in rows], dtype=np.float64),
        }
    )


def percentile_cont(
    ds: Dataset,
    value_col: str,
    qs: list[float],
    *,
    n_buckets: int = 1024,
    max_collect: int = 65536,
    max_rounds: int = 8,
):
    """→ pandas DataFrame (q, value): SQL ``quantile_cont`` — the
    LINEARLY INTERPOLATED percentile — still without any sort shuffle.

    Composition over :func:`exact_quantiles`: the interpolated
    percentile at q touches at most two order statistics, ranks
    floor(RN)+1 and ceil(RN)+1 where RN = (n−1)·q. Both are fetched in
    ONE exact_quantiles call (it batches all targets per scan) by
    encoding rank k as the fraction (k−0.5)/n — ceil(n·(k−0.5)/n) = k
    with a 0.5-row safety margin against float roundoff. The
    interpolation uses the weighted two-sided form
    (CRN−RN)·v_lo + (RN−FRN)·v_hi — the exact expression DuckDB's
    quantile_cont evaluates, so results are bit-identical to SQL when
    the order statistics are (they are: exact data values).
    """
    import pandas as pd

    pruned = ds.select_columns([value_col])
    n = int(
        pruned.aggregate(
            ray.data.aggregate.Count(value_col, ignore_nulls=True)
        )[f"count({value_col})"]
    )
    if n == 0:
        return pd.DataFrame(
            {"q": pd.Series(qs, dtype=np.float64), "value": np.nan}
        )

    plans = []  # (q, RN, FRN, CRN) with 0-indexed ranks
    ranks: set[int] = set()
    for q in qs:
        rn = (n - 1) * float(q)
        frn, crn = math.floor(rn), math.ceil(rn)
        plans.append((float(q), rn, frn, crn))
        ranks.update((frn + 1, crn + 1))
    by_rank = dict(
        zip(
            sorted(ranks),
            exact_quantiles(
                ds,
                value_col,
                [(k - 0.5) / n for k in sorted(ranks)],
                n_buckets=n_buckets,
                max_collect=max_collect,
                max_rounds=max_rounds,
            )["value"],
        )
    )
    vals = []
    for q, rn, frn, crn in plans:
        lo, hi = by_rank[frn + 1], by_rank[crn + 1]
        vals.append(lo if crn == frn else (crn - rn) * lo + (rn - frn) * hi)
    return pd.DataFrame({"q": pd.Series(qs, dtype=np.float64), "value": vals})


def winsorize(
    ds: Dataset,
    value_col: str,
    *,
    lo_q: float = 0.01,
    hi_q: float = 0.99,
    out_col: str | None = None,
    **quantile_kwargs,
):
    """Winsorization (quantile capping): clamp ``value_col`` into its
    [lo_q, hi_q] exact ``quantile_disc`` interval — the standard
    heavy-tail mitigation before training on telemetry/reward columns.

    Composition: one :func:`exact_quantiles` resolution (both fences in
    the same scans) + one streaming clamp pass; no shuffle. The fences
    are exact data values, so the clamped column matches the SQL CASE
    expression bit-for-bit. Nulls stay null."""
    import pyarrow.compute as pc

    fences = exact_quantiles(ds, value_col, [lo_q, hi_q], **quantile_kwargs)
    lo, hi = float(fences["value"][0]), float(fences["value"][1])
    out = out_col or f"{value_col}_capped"

    def clamp(t: pa.Table) -> pa.Table:
        v = t[value_col]
        c = pc.if_else(pc.less(v, lo), pa.scalar(lo, pa.float64()), v)
        c = pc.if_else(pc.greater(c, hi), pa.scalar(hi, pa.float64()), c)
        return t.append_column(out, pc.cast(c, pa.float64()))

    return ds.map_batches(clamp, batch_format="pyarrow")


def quantile_bucketize(
    ds: Dataset,
    value_col: str,
    qs: tuple = (0.25, 0.5, 0.75),
    keep_cols: list[str] | None = None,
    out_col: str = "bucket",
) -> Dataset:
    """Equi-depth binning: append the 1-based quantile bucket of
    ``value_col`` (len(qs)+1 buckets split at the exact
    ``quantile_disc`` boundaries) — the length-quartile stratification
    a curation pipeline samples against.

    Two stages: the sort-free :func:`exact_quantiles` scan resolves the
    boundaries (a handful of scalars — broadcast by closure), then one
    stateless vectorized projection assigns
    ``bucket = 1 + Σ (value > boundary_i)`` — integer comparisons, so
    the SQL mirror (scalar quantile subquery + summed casts) is
    hash-exact. Null values / null ``keep_cols[0]`` ids are excluded.
    Streams at any scale; no shuffle beyond the quantile scan's
    aggregates."""
    bounds = exact_quantiles(ds, value_col, list(qs))["value"].tolist()
    cols = sorted(set([value_col] + (keep_cols or [])))

    def assign(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        for c in cols:
            t = t.filter(t[c].is_valid())
        if not t.num_rows:
            return t.append_column(out_col, pa.array([], pa.int64()))
        v = t[value_col].to_numpy(zero_copy_only=False)
        b = np.ones(len(v), dtype=np.int64)
        for q in bounds:
            b += (v > q).astype(np.int64)
        return t.append_column(out_col, pa.array(b))

    return ds.select_columns(cols).map_batches(assign, batch_format="pyarrow")


def grouped_quantiles_approx(ds, group_col: str, value_col: str, qs: list[float]):
    """ZERO-shuffle approximate per-group quantiles — the scale path of
    :func:`grouped_quantiles`, exactly as ``group_count_distinct_approx``
    is to ``group_count_distinct``: per batch, one t-digest per group
    present in the batch, serialized as data (retry-safe); the driver
    merge (:func:`~data_linter_ray.exchange.fold_batches`) is
    groups-bounded (one KB-sized digest per group), never
    value-bounded — where the exact operator's refinement scans re-read
    the column, this reads it ONCE. The digest's rank error is largest
    mid-distribution and shrinks toward the tails (Dunning & Ertl,
    arXiv:1902.04023). The driver folds digests in block-arrival order,
    which can vary across runs, so byte-identical reruns are not
    promised.

    Deliberately NOT a driver-contract query (approximate by design —
    the oracle table stays fully exact); tolerance-tested against the
    exact operator in pytest.

    → DataFrame(group, q, value), sorted by (group, q).
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from data_linter_ray.exchange import fold_batches
    from data_linter_ray.state.sketches import TDigest

    def partial(t: pa.Table) -> dict:
        out = {}
        df = t.select([group_col, value_col]).drop_null().to_pandas()
        for gval, vals in df.groupby(group_col, sort=False)[value_col]:
            td = TDigest()
            td.add(vals.to_numpy(np.float64))
            out[gval] = td.to_bytes()
        return out

    def merge(acc: dict, part: dict) -> dict:
        for gval, blob in part.items():
            acc.setdefault(gval, TDigest()).merge(TDigest.from_bytes(blob))
        return acc

    acc = fold_batches(ds.select_columns([group_col, value_col]), partial, merge, {})
    rows = []
    for gval in sorted(acc):
        vals = acc[gval].quantiles(qs)
        for q, v in zip(qs, vals):
            rows.append((gval, q, float(v)))
    return pd.DataFrame(rows, columns=[group_col, "q", "value"])


def grouped_mad(
    ds,
    value_col: str,
    group_col: str,
    **kwargs,
):
    """Exact per-group median absolute deviation — the robust
    dispersion report (`mad()` per segment): two grouped exact-median
    scans composed with one broadcast. Pass 1 resolves each group's
    exact median (the sort-free per-group refinement); the medians map
    (groups-bounded) ships once via the closure; pass 2 runs the same
    machinery over the derived ``|value − median_g|`` column. Both
    outputs are selections — hash-exact vs SQL
    ``median``/``mad`` (quantile_disc semantics: lower-of-two for
    even groups, matching ``quantile_disc(x, 0.5)``).

    → DataFrame(group, median, mad), sorted by group.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    med = grouped_quantiles(ds, value_col, group_col, [0.5], **kwargs)
    med = med.to_pandas() if hasattr(med, "to_pandas") else med
    med_map = dict(zip(med["group"], med["value"]))

    def absdev(t: pa.Table) -> pa.Table:
        df = t.select([group_col, value_col]).drop_null().to_pandas()
        m = df[group_col].map(med_map).to_numpy(np.float64)
        return pa.table(
            {
                group_col: pa.Array.from_pandas(df[group_col]),
                "_absdev": pa.array(
                    np.abs(df[value_col].to_numpy(np.float64) - m)
                ),
            }
        )

    mad = grouped_quantiles(
        ds.map_batches(absdev, batch_format="pyarrow"),
        "_absdev", group_col, [0.5], **kwargs,
    )
    mad = mad.to_pandas() if hasattr(mad, "to_pandas") else mad
    out = med.rename(columns={"value": "median"})[["group", "median"]].merge(
        mad.rename(columns={"value": "mad"})[["group", "mad"]], on="group"
    )
    return out.sort_values("group").reset_index(drop=True)
