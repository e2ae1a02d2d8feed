"""Deterministic sampling operators for training-data curation.

``sample_per_key`` caps rows per key (e.g. ≤ N documents per domain /
language / user) with exact, order-deterministic semantics: the kept
rows are the n smallest ``order_col`` values within each key — the
same rows every run, every partitioning, every cluster size. The scale
shape is the two-level pattern used across this engine: a per-batch
combiner (local top-n per key, so at most n rows per key per batch
enter the shuffle) → key-hash partitioned exchange → final top-n per
key inside each partition. The full table never lands on one worker;
no driver materialization.

``deterministic_fraction`` keeps a stable pseudo-random fraction of
rows keyed on an integer column (``id % den < num``) — trivially
reproducible across engines (and SQL-expressible, unlike seeded RNG
sampling).

``assign_split`` extends the same id-mod determinism to named
train/val/test assignment — the canonical reproducible dataset split:
every engine, partitioning, and cluster size assigns each row the same
split, and the split column is a plain projection (zero shuffle, zero
state), so it composes with any downstream filter or partitioned write.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from data_linter_ray.exchange import exchange_map_groups


def sample_per_key(
    ds: Dataset,
    key_col: str,
    n: int,
    order_col: str,
    columns: list[str] | None = None,
) -> Dataset:
    """Keep the ``n`` rows with smallest ``order_col`` per ``key_col``.

    Exact and deterministic (ties broken by ``order_col`` itself must be
    unique per key for full determinism — document ids are). Null keys
    are dropped (a null key is not a stratum). Two-level: local
    per-batch top-n combiner, then one key-hash exchange with a final
    per-key top-n."""
    cols = sorted(set([key_col, order_col] + (columns or [])))

    def local_topn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key_col]))
        df = t.select(cols).to_pandas()
        df = df.sort_values([key_col, order_col], kind="stable").groupby(
            key_col, sort=False
        ).head(n)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable").groupby(
            key_col, sort=False
        ).head(n)
        return g[cols]

    return exchange_map_groups(
        ds.select_columns(cols).map_batches(local_topn, batch_format="pyarrow"),
        key_col,
        final_topn,
    )


def group_topk(
    ds: Dataset,
    key_col: str,
    value_col: str,
    k: int,
    tie_col: str | None = None,
    columns: list[str] | None = None,
) -> Dataset:
    """Keep the ``k`` rows with LARGEST ``value_col`` per ``key_col``
    ("best examples per category"), ties broken by ascending
    ``tie_col`` (defaults to ``value_col`` — pass a unique id for full
    determinism when values repeat). Null keys are dropped. Same
    two-level shape as :func:`sample_per_key`: local per-batch top-k
    combiner → key-hash exchange → final per-key top-k."""
    tie = tie_col or value_col
    cols = sorted(set([key_col, value_col, tie] + (columns or [])))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values([key_col, value_col, tie], ascending=[True, False, True],
                           kind="stable")
            .groupby(key_col, sort=False)
            .head(k)
        )

    def local(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key_col]))
        df = topk(t.select(cols).to_pandas())
        return pa.Table.from_pandas(df, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return topk(g)[cols]

    return exchange_map_groups(
        ds.select_columns(cols).map_batches(local, batch_format="pyarrow"),
        key_col,
        final,
    )


def deterministic_fraction(
    ds: Dataset, id_col: str, num: int, den: int, columns: list[str] | None = None
) -> Dataset:
    """Keep rows where ``id % den < num`` — a stable num/den fraction,
    reproducible across runs, partitionings, and engines (unlike seeded
    RNG sampling, which depends on batch boundaries)."""
    cols = sorted(set([id_col] + (columns or []))) if columns else None
    out = ds if cols is None else ds.select_columns(cols)
    return out.map_batches(
        lambda t: t.filter(
            pc.less(pc.cast(pc.bit_wise_and(t[id_col], den - 1), pa.int64()), num)
            if (den & (den - 1)) == 0
            else pc.less(
                pc.subtract(
                    t[id_col], pc.multiply(pc.divide(t[id_col], den), den)
                ),
                num,
            )
        ),
        batch_format="pyarrow",
    )


def assign_split(
    ds: Dataset,
    id_col: str,
    splits: list[tuple[str, int]] | None = None,
    out_col: str = "split",
) -> Dataset:
    """Append ``out_col`` naming each row's deterministic split.

    ``splits`` is an ordered list of ``(name, weight)``; row ``r`` gets
    the split whose cumulative weight range contains
    ``r[id_col] % sum(weights)``. Default 80/10/10 train/val/test.
    Doc-local and stateless — the id decides, nothing else — so the
    assignment is identical at any scale or partitioning (the property
    seeded RNG splits lack). Null-id rows are dropped (a row without
    identity cannot be reproducibly split); assign ids first if needed.
    """
    splits = splits or [("train", 80), ("val", 10), ("test", 10)]
    total = sum(w for _, w in splits)
    names = np.array([n for n, _ in splits], object)
    bounds = np.cumsum([w for _, w in splits])

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[id_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(bounds, ids % total, side="right")
        return t.append_column(out_col, pa.array(names[idx], pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def weighted_fraction(
    ds: Dataset,
    id_col: str,
    weight_col: str,
    k: int,
    total_weight: int | None = None,
    hash: str = "md5",
    columns: list[str] | None = None,
) -> Dataset:
    """Deterministic weighted Bernoulli (Poisson) sampling: row i
    survives iff its hash-uniform u_i < k·w_i/W, i.e. inclusion
    probability exactly min(1, k·w_i/W) — expected sample size ≈ k with
    probability proportional to weight (the importance-sampling
    primitive of training-data curation: oversample long/high-quality
    documents without a shuffle or a seeded RNG).

    Two passes: an exact integer sum for W (one streaming aggregate,
    skipped when the caller passes ``total_weight``), then a stateless
    vectorized filter — zero shuffle, streams at any scale.

    ``hash="md5"`` derives u_i from DuckDB's ``md5_number_lower`` of the
    decimal id string (per-value C call — kept for bit-exact SQL oracle
    parity, same dual-mode contract as the fingerprint operators);
    ``hash="fast"`` uses the vectorized
    :func:`~data_linter_ray.state.sketches.hash_array` production path.
    Both compare in float64 with one shared IEEE expression —
    ``double(u64) < min(1, double(k·w)/double(W)) · 2^64`` — so the SQL
    side reproduces the EXACT row set in md5 mode. Null ids / weights
    are excluded from the sample (W still sums all non-null weights)."""
    import hashlib

    from data_linter_ray.state.sketches import hash_array

    cols = sorted(set([id_col, weight_col] + (columns or [])))
    out = ds.select_columns(cols)
    W = float(
        total_weight
        if total_weight is not None
        else out.select_columns([weight_col]).sum(weight_col)
    )
    kk = int(k)

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(t[id_col].is_valid(), t[weight_col].is_valid())
        )
        if not t.num_rows:
            return t
        ids = t[id_col]
        if hash == "md5":
            u = np.fromiter(
                (
                    np.frombuffer(
                        hashlib.md5(str(v).encode()).digest(), "<u8"
                    )[1]
                    for v in ids.to_pylist()
                ),
                dtype=np.uint64,
                count=t.num_rows,
            )
        else:
            u = hash_array(ids)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        p = np.minimum(1.0, (kk * w).astype(np.float64) / W)
        mask = u.astype(np.float64) < p * 18446744073709551616.0
        return t.filter(pa.array(mask))

    return out.map_batches(keep, batch_format="pyarrow")


def stratified_fraction(
    ds: Dataset,
    stratum_col: str,
    id_col: str,
    fractions: dict[str, tuple[int, int]],
    default: tuple[int, int] = (0, 1),
) -> Dataset:
    """Per-stratum deterministic downsampling — the domain-mixing
    primitive of a training-data pipeline ("keep 1/2 of en, 1/10 of the
    crawl tail"): a row of stratum s survives iff
    ``id % den_s < num_s``. Strata absent from ``fractions`` use
    ``default`` ((0, 1) = drop). Null strata/ids are dropped.

    Same reproducibility contract as :func:`deterministic_fraction`
    (stable across runs, partitionings, engines — no seeded RNG), and
    mirrors into SQL as one CASE expression, so mixtures are
    oracle-checkable. Stateless projection: zero shuffle, streams."""
    items = sorted(fractions.items())

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(t[stratum_col].is_valid(), t[id_col].is_valid())
        )
        ids = t[id_col]
        strat = t[stratum_col]
        mask = None
        dn, dd = default
        rem_cache: dict[int, pa.Array] = {}

        def rem(den: int):
            if den not in rem_cache:
                rem_cache[den] = pc.subtract(
                    ids, pc.multiply(pc.divide(ids, den), den)
                )
            return rem_cache[den]

        mask = pc.less(rem(dd), dn) if dd > 0 else pa.array(
            np.zeros(t.num_rows, dtype=bool)
        )
        for s, (num, den) in items:
            # rows of stratum s follow their own rule, overriding default
            mask = pc.if_else(pc.equal(strat, s), pc.less(rem(den), num), mask)
        return t.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def group_topk_approx(
    ds,
    group_col: str,
    value_col: str,
    *,
    k: int = 5,
    m: int = 255,
):
    """ZERO-shuffle per-group top-k frequent values — the scale path of
    :func:`group_topk` (as heavy_hitters is to top_values): per batch,
    one Misra-Gries summary per group (exact value counts folded
    through ≤ m counters — the MG mass argument makes the keys a
    SUPERSET of every value with in-group share > 1/(m+1)); driver
    merge is groups-bounded; the ≤ m candidates per group are then
    broadcast and EXACTLY recounted in one filtered pass, so reported
    counts are exact and the ranking is exact whenever the true top-k
    all clear the 1/(m+1) share (k ≪ m — the intended regime;
    heavier-tailed groups need a larger m).

    Deliberately NOT a driver-contract query (approximate by design);
    tolerance-tested against the exact operator in pytest.

    → DataFrame(group, value, n, rank), rank 1..k per group by
    (n desc, value asc).
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from data_linter_ray.functions.timeseries import _schema_types
    from data_linter_ray.state.sketches import MisraGries

    sch = _schema_types(ds)
    g_type, v_type = sch[group_col], sch[value_col]

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([group_col, value_col]).drop_null().to_pandas()
        gs, vals, cnts = [], [], []
        for gval, sub in df.groupby(group_col, sort=False)[value_col]:
            vc = sub.value_counts()
            mg = MisraGries(m)
            mg.add_counts(vc.index.to_numpy(object), vc.to_numpy(np.int64))
            for v, c in mg.counts.items():
                gs.append(gval)
                vals.append(v)
                cnts.append(int(c))
            gs.append(gval)
            vals.append(None)  # mass row
            cnts.append(int(mg.n))
        return pa.table(
            {
                "g": pa.array(gs, g_type),
                "v": pa.array(vals, v_type),
                "c": pa.array(cnts, pa.int64()),
            }
        )

    acc: dict = {}
    for b in (
        ds.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pandas")
    ):
        for gval, sub in b.groupby("g", sort=False):
            mg = acc.setdefault(gval, MisraGries(m))
            mass = sub[sub["v"].isna()]["c"].sum()
            counters = sub.dropna(subset=["v"])
            other = MisraGries(m)
            other.add_counts(
                counters["v"].to_numpy(object),
                counters["c"].to_numpy(np.int64),
            )
            other.n = int(mass)
            mg.merge(other)

    candidates = {
        g: list(mg.candidates()) for g, mg in acc.items()
    }
    if not candidates:
        return pd.DataFrame(columns=[group_col, value_col, "n", "rank"])
    cand_ref = ray.put(candidates)

    def recount(t: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref) if isinstance(cand_ref, ray.ObjectRef) else cand_ref
        df = t.select([group_col, value_col]).drop_null().to_pandas()
        out_g, out_v, out_n = [], [], []
        for gval, sub in df.groupby(group_col, sort=False)[value_col]:
            want = cand.get(gval)
            if not want:
                continue
            vc = sub[sub.isin(want)].value_counts()
            out_g.extend([gval] * len(vc))
            out_v.extend(vc.index.tolist())
            out_n.extend(int(x) for x in vc.to_numpy())
        return pa.table(
            {
                "g": pa.array(out_g, g_type),
                "v": pa.array(out_v, v_type),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    exact: dict = {}
    for b in (
        ds.select_columns([group_col, value_col])
        .map_batches(recount, batch_format="pyarrow")
        .iter_batches(batch_format="pandas")
    ):
        for g, v, n in b.itertuples(index=False):
            exact[(g, v)] = exact.get((g, v), 0) + int(n)

    rows = pd.DataFrame(
        [(g, v, n) for (g, v), n in exact.items()],
        columns=[group_col, value_col, "n"],
    )
    rows = rows.sort_values(
        [group_col, "n", value_col], ascending=[True, False, True]
    )
    rows["rank"] = rows.groupby(group_col).cumcount() + 1
    return rows[rows["rank"] <= k].reset_index(drop=True)
