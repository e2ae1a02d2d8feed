"""Column statistics across rows: Pearson correlation / covariance.

Profiling operator for numeric feature sets (reward columns, telemetry,
embedding-derived scalars): the full pairwise correlation matrix of C
columns in ONE streaming scan. Per-batch partials are the classic
sufficient statistics per ordered pair — (n, Σx, Σy, Σx², Σy², Σxy)
over rows where BOTH columns are non-null (SQL ``corr`` pairwise
deletion) — C² float64 lanes per batch, folded on the driver (KB
scale, same partials-as-data pattern as profile/quantiles/outliers).
No shuffle; the scan is column-pruned to exactly the requested set.

Float parity note: partial sums fold in a different order than a
sequential SQL SUM, so raw corr values differ from an oracle in the
last few ulps. ``round_to`` (used by the oracle query at 6 dp) makes
both sides land on the identical double except when a value sits
within ~1e-12 of a rounding boundary — the documented trade, same
rationale as the engine's other float-emitting oracles.

Reference provenance: the reference has no cross-column statistics
(per-column checks only, reference pandas_validator.py); this extends
the profiling surface the way SURVEY.md §2.8 extends scalar functions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.exchange import fold_batches, range_bounds


def corr_matrix(
    ds: Dataset,
    cols: list[str],
    *,
    round_to: int | None = None,
) -> pd.DataFrame:
    """→ DataFrame(col_x, col_y, n, corr) for every unordered pair
    (col_x < col_y lexicographically), Pearson correlation with SQL
    pairwise-null deletion. Pairs with zero variance on either side
    (or n == 0) emit NaN, matching SQL ``corr``.

    NaN policy: a non-null NaN payload is deleted pairwise exactly like
    a null (the partial masks on ``isnan`` after nulls decode to NaN),
    so it neither counts in ``n`` nor reaches the sums. SQL ``corr``
    differs here: a NaN input makes its pair's result NaN."""
    cols = sorted(cols)
    C = len(cols)
    pairs = [(i, j) for i in range(C) for j in range(i + 1, C)]
    LANES = 6  # n, sx, sy, sxx, syy, sxy

    def partial(t: pa.Table) -> np.ndarray:
        vs = [
            t[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in cols
        ]
        valid = [~np.isnan(v) for v in vs]
        out = np.zeros((len(pairs), LANES), np.float64)
        for p, (i, j) in enumerate(pairs):
            m = valid[i] & valid[j]
            x, y = vs[i][m], vs[j][m]
            out[p] = (len(x), x.sum(), y.sum(), (x * x).sum(), (y * y).sum(), (x * y).sum())
        return out

    total = fold_batches(
        ds.select_columns(cols), partial, np.add, np.zeros((len(pairs), LANES))
    )

    n, sx, sy, sxx, syy, sxy = (total[:, k] for k in range(LANES))
    with np.errstate(invalid="ignore", divide="ignore"):
        # the explicit textbook expression — the oracle SQL computes the
        # SAME expression over SUM aggregates, so only sum fold order
        # differs (handled by round_to)
        corr = (n * sxy - sx * sy) / (
            np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        )
    if round_to is not None:
        corr = np.round(corr, round_to)
    return pd.DataFrame(
        {
            "col_x": [cols[i] for i, _ in pairs],
            "col_y": [cols[j] for _, j in pairs],
            "n": n.astype(np.int64),
            "corr": corr,
        }
    )


def group_count_distinct(
    ds: Dataset,
    group_col: str,
    value_col: str,
) -> pd.DataFrame:
    """Exact ``count(DISTINCT value) GROUP BY group`` — the reach /
    cardinality report. Scale shape (same as cohort retention): per
    batch, DISTINCT (group, value) pairs (a combiner — a hot value
    costs one row per batch, never one per occurrence); one
    :func:`~data_linter_ray.exchange.exchange_map_groups` exchange keyed
    on the value co-locates equal values so the
    per-partition pair dedupe is globally exact; per-partition
    per-group counts are KB partials summed on the driver. Null groups
    and null values are excluded (SQL semantics).

    → DataFrame(group, n_distinct), sorted by group."""
    import pyarrow.compute as pc
    import ray  # noqa: F401  (exchange machinery)

    from data_linter_ray.exchange import exchange_map_groups

    def pair_partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col]).drop_null()
        return t.group_by([group_col, value_col]).aggregate([])

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([group_col, value_col])
        return (
            d.groupby(group_col, as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n_distinct"})
        )

    parts = exchange_map_groups(
        ds.select_columns([group_col, value_col]).map_batches(
            pair_partial, batch_format="pyarrow"
        ),
        value_col,
        count_part,
    ).to_pandas()
    return (
        parts.groupby(group_col, as_index=False)["n_distinct"]
        .sum()
        .sort_values(group_col)
        .reset_index(drop=True)
    )


def _group_value_count_partial(group_col: str, value_col: str):
    """Shared per-batch (group, value) exact-count combiner — the front
    half of group_mode / group_entropy, whose exchange is keyed on the
    group (one row per distinct pair per batch enters it)."""

    def count_partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col]).drop_null()
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return pa.table(
            {
                group_col: g[group_col],
                value_col: g[value_col],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    return count_partial


def group_mode(
    ds: Dataset,
    group_col: str,
    value_col: str,
) -> pd.DataFrame:
    """Exact per-group mode (most frequent value, deterministic
    smallest-value tie-break) — the dominant-category report a curation
    pipeline runs per shard ("dominant language per source", "top event
    per user"). Scale shape: per-batch (group, value) count combiner (a
    hot pair costs one row per batch, never one per occurrence) → one
    deterministic :func:`~data_linter_ray.exchange.exchange_map_groups`
    exchange keyed on the group, co-locating each group → per-partition
    exact count sum + argmax.
    Only one row per group leaves the exchange; the full (group, value)
    domain never lands on the driver. Null groups / values are excluded
    (SQL semantics).

    → DataFrame(group, mode, n), sorted by group; ``n`` is the mode's
    exact count. SQL parity: ``row_number() OVER (PARTITION BY group
    ORDER BY count(*) DESC, value) = 1``."""
    import pyarrow.compute as pc  # noqa: F401
    import ray  # noqa: F401  (exchange machinery)

    from data_linter_ray.exchange import exchange_map_groups

    count_partial = _group_value_count_partial(group_col, value_col)

    def part_mode(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby([group_col, value_col], as_index=False, sort=False)[
            "n"
        ].sum()
        agg = agg.sort_values(
            [group_col, "n", value_col], ascending=[True, False, True],
            kind="mergesort",
        )
        top = agg.groupby(group_col, as_index=False, sort=False).head(1)
        return top.rename(columns={value_col: "mode"})[
            [group_col, "mode", "n"]
        ]

    parts = exchange_map_groups(
        ds.select_columns([group_col, value_col]).map_batches(
            count_partial, batch_format="pyarrow"
        ),
        group_col,
        part_mode,
    ).to_pandas()
    if group_col not in parts.columns:  # all rows null -> empty exchange
        return pd.DataFrame(columns=[group_col, "mode", "n"])
    return parts.sort_values(group_col).reset_index(drop=True)


def group_entropy(
    ds: Dataset,
    group_col: str,
    value_col: str,
    *,
    round_to: int = 9,
) -> pd.DataFrame:
    """Shannon entropy (nats) of the ``value_col`` distribution within
    each group — the mixture-diversity report of a curation pipeline
    ("how language-diverse is each source?"): 0 for a single-value
    group, ln(k) for a uniform k-way mix.

    Scale shape: the :func:`group_mode` combiner — per-batch (group,
    value) counts, one group-hash exchange, per-partition exact count
    sum — then the entropy fold Σ -p·ln(p) over each group's (small)
    value set. Float contract: p = n/n_tot is one IEEE division, ln is
    glibc (bit-identical to DuckDB's), and BOTH sides round the final
    sum to ``round_to`` decimals because SQL SUM order is unspecified —
    the documented round-both-sides trick (see the bench notes); terms
    differ by at most a few ulps, so 9 decimals is conservative.

    → DataFrame(group, n, n_distinct, entropy) sorted by group; ``n``
    is the group's row count. Null groups / values are excluded."""
    import ray  # noqa: F401  (exchange machinery)

    from data_linter_ray.exchange import exchange_map_groups

    count_partial = _group_value_count_partial(group_col, value_col)

    def part_entropy(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby([group_col, value_col], as_index=False, sort=False)[
            "n"
        ].sum()
        # deterministic fold order (by value) — rounding makes any
        # order agree, this just keeps reruns bit-identical
        agg = agg.sort_values([group_col, value_col], kind="mergesort")
        out = []
        for gval, sub in agg.groupby(group_col, sort=False):
            n = sub["n"].to_numpy(np.int64)
            tot = int(n.sum())
            p = n / float(tot)
            ent = float(np.add.reduce(-p * np.log(p)))
            # + 0.0 normalizes the single-value group's -0.0 (p=1 term
            # is (-1)·ln(1) = -0.0) — mirrored by the oracle's "+ 0"
            out.append((gval, tot, len(n), round(ent, round_to) + 0.0))
        return pd.DataFrame(
            out, columns=[group_col, "n", "n_distinct", "entropy"]
        )

    parts = exchange_map_groups(
        ds.select_columns([group_col, value_col]).map_batches(
            count_partial, batch_format="pyarrow"
        ),
        group_col,
        part_entropy,
    ).to_pandas()
    if group_col not in parts.columns:  # all rows null -> empty exchange
        return pd.DataFrame(
            columns=[group_col, "n", "n_distinct", "entropy"]
        )
    return parts.sort_values(group_col).reset_index(drop=True)


def candidate_keys(
    ds: Dataset,
    cols: list[str],
) -> pd.DataFrame:
    """Key discovery: for each candidate column, its distinct count vs
    the table's row count and whether it is a unique key
    (n_distinct == n_non_null == n_rows). One pruned scan per batch
    emits per-column distinct-value partials (the count-distinct
    combiner, one lane per column) into a single value-hash exchange —
    all columns resolved together, not one scan per column.

    Distinctness is resolved on a 128-bit hash PAIR (two independently
    seeded 64-bit hashes), not the raw values: the birthday bound for a
    spurious collision — which would undercount n_distinct and could
    flip ``is_unique`` false for a truly unique key — is ~n²/2¹²⁹,
    i.e. < 10⁻²⁰ even at 10¹² keys. (``group_count_distinct`` dedupes
    real values when byte-exactness is required.)

    → DataFrame(column, n_rows, n_non_null, n_distinct, is_unique)."""
    import pyarrow.compute as pc

    from data_linter_ray.exchange import exchange_map_groups
    from data_linter_ray.state.sketches import hash_array

    def partials(t: pa.Table) -> pa.Table:
        outs = {"col": [], "h": [], "h2": []}
        n = t.num_rows
        nn = []
        for ci, c in enumerate(cols):
            col = t[c].combine_chunks()
            valid = col.drop_null()
            nn.append(len(valid))
            u = valid.unique()
            h = hash_array(u)
            h2 = hash_array(u, seed=0x5EED_1337)  # second 64 bits
            outs["col"].append(np.full(len(u), ci, np.int64))
            outs["h"].append(h.astype(np.int64))
            outs["h2"].append(h2.astype(np.int64))
        # the row-count and non-null sentinel rows land in any partition:
        # each partition sums its own and the driver sums the partitions
        meta = pa.table(
            {
                "col": pa.array([-1], pa.int64()),
                "h": pa.array([n], pa.int64()),
                "h2": pa.array([0], pa.int64()),
            }
        )
        # per-column non-null sentinel code = -2 - ci (never collides
        # with the n_rows sentinel -1, for any column count)
        nn_rows = pa.table(
            {
                "col": pa.array(-2 - np.arange(len(cols)), pa.int64()),
                "h": pa.array(np.array(nn, np.int64)),
                "h2": pa.array(np.zeros(len(cols), np.int64)),
            }
        )
        data = pa.table({k: pa.array(np.concatenate(v)) for k, v in outs.items()})
        return pa.concat_tables([data, meta, nn_rows])

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        meta = df[df["col"] < 0]
        data = df[df["col"] >= 0].drop_duplicates(["col", "h", "h2"])
        agg = data.groupby("col", as_index=False).size().rename(
            columns={"size": "n"}
        )
        agg["kind"] = "distinct"
        m = meta.groupby("col", as_index=False)["h"].sum().rename(
            columns={"h": "n"}
        )
        m["kind"] = "meta"
        return pd.concat([agg[["col", "n", "kind"]], m[["col", "n", "kind"]]])

    parts = exchange_map_groups(
        ds.select_columns(cols).map_batches(partials, batch_format="pyarrow"),
        ["col", "h"],
        count_part,
    ).to_pandas()
    dist = (
        parts[parts["kind"] == "distinct"].groupby("col")["n"].sum().to_dict()
    )
    meta = parts[parts["kind"] == "meta"].groupby("col")["n"].sum().to_dict()
    n_rows = int(meta.get(-1, 0))
    out = []
    for ci, c in enumerate(cols):
        nd = int(dist.get(ci, 0))
        nn = int(meta.get(-2 - ci, 0))
        out.append((c, n_rows, nn, nd, nd == nn == n_rows))
    return pd.DataFrame(
        out, columns=["column", "n_rows", "n_non_null", "n_distinct", "is_unique"]
    )


def source_vocab_overlap(
    ds,
    group_col: str = "source",
    text_col: str = "text",
) -> pd.DataFrame:
    """Pairwise vocabulary Jaccard between groups (corpus-provenance
    similarity: which sources speak the same language?): for every
    group pair with a non-empty intersection, the exact distinct-token
    intersection / union counts and their Jaccard ratio.

    Scale shape: per-batch DISTINCT (group, token) combiner → one
    token-hash :func:`~data_linter_ray.exchange.exchange_map_groups`
    exchange (tokens co-located, so the global dedupe and the
    per-token group sets are exact) → per-partition vectorized
    self-merge on token (a < b) → (pair, partial intersection) and
    (group, partial distinct) rows, summed in a tiny driver fold.
    Partials are GROUPS²-bounded per partition — the documented
    assumption is a modest provenance domain (hundreds of sources),
    never a bound on tokens or rows. Jaccard is ONE double division of
    exact integers, so it is bit-identical to the SQL mirror with no
    rounding. Null groups excluded; tokenization is the engine
    standard (lowercase, ``\\W+``, empties dropped, distinct per
    doc irrelevant here — distinct per GROUP is what the exchange
    computes)."""
    import pyarrow.compute as pc
    import ray  # noqa: F401

    from data_linter_ray.exchange import exchange_map_groups

    def pair_partial(t: pa.Table) -> pa.Table:
        from data_linter_ray.functions.text import flat_tokens

        t = t.select([group_col, text_col]).drop_null()
        flat, parents = flat_tokens(t[text_col])
        df = pd.DataFrame(
            {
                "g": t[group_col].to_pandas().to_numpy()[parents],
                "tok": flat.to_pandas(),
            }
        ).drop_duplicates()
        # explicit types: an all-null/no-token batch must not emit
        # null-typed g/tok lanes (mixed-block-schema hazard)
        return pa.table(
            {
                "g": pa.array(df["g"], pa.string()),
                "tok": pa.array(df["tok"], pa.string()),
            }
        )

    def reduce_overlap(g: pd.DataFrame) -> pa.Table:
        st = g[["g", "tok"]].drop_duplicates()
        cnt = st.groupby("g", as_index=False).size()
        m = st.merge(st, on="tok", suffixes=("_a", "_b"))
        m = m[m["g_a"] < m["g_b"]]
        inter = m.groupby(["g_a", "g_b"], as_index=False).size()
        # explicit Arrow types: an all-None 'b' lane (no intersecting
        # pair in this partition) must stay string, not null
        return pa.table(
            {
                "a": pa.array(
                    list(inter["g_a"]) + list(cnt["g"]), pa.string()
                ),
                "b": pa.array(
                    list(inter["g_b"]) + [None] * len(cnt), pa.string()
                ),
                "n": pa.array(
                    np.concatenate(
                        [inter["size"].to_numpy(np.int64),
                         cnt["size"].to_numpy(np.int64)]
                    )
                ),
            }
        )

    parts = exchange_map_groups(
        ds.select_columns([group_col, text_col]).map_batches(
            pair_partial, batch_format="pyarrow"
        ),
        "tok",
        reduce_overlap,
    ).to_pandas()
    if "b" not in parts.columns:  # no qualifying rows -> empty exchange
        return pd.DataFrame(
            columns=["source_a", "source_b", "n_inter", "n_union", "jaccard"]
        )
    singles = parts[parts["b"].isna()].groupby("a", as_index=False)["n"].sum()
    n_g = dict(zip(singles["a"], singles["n"]))
    pairs = (
        parts[parts["b"].notna()]
        .groupby(["a", "b"], as_index=False)["n"]
        .sum()
        .rename(columns={"a": "source_a", "b": "source_b", "n": "n_inter"})
    )
    na = pairs["source_a"].map(n_g).to_numpy(np.int64)
    nb_ = pairs["source_b"].map(n_g).to_numpy(np.int64)
    ni = pairs["n_inter"].to_numpy(np.int64)
    nu = na + nb_ - ni
    pairs["n_union"] = nu
    pairs["jaccard"] = ni.astype(np.float64) / nu.astype(np.float64)
    return (
        pairs.sort_values(["source_a", "source_b"])
        .reset_index(drop=True)[
            ["source_a", "source_b", "n_inter", "n_union", "jaccard"]
        ]
    )


def group_count_distinct_approx(
    ds: Dataset,
    group_col: str,
    value_col: str,
) -> pd.DataFrame:
    """Approximate ``count(DISTINCT value) GROUP BY group`` via
    per-group HyperLogLog — the ZERO-shuffle scale path of
    :func:`group_count_distinct` (exactly as ``heavy_hitters`` is to
    ``top_values``): when the value domain itself is too large to
    exchange, ship 4 KB register partials (HLL p = 12) instead of
    distinct values.

    Scale shape: per batch, one HLL register block per group present in
    the batch, emitted AS DATA (binary lane — retry-safe, the sketch
    stage's partials-as-data pattern) → driver fold does register-wise
    max per group (groups × 4 KB; the documented bound is a modest
    group domain, never the value domain). Error ≈ 1.04/√4096 (±1.6%).
    Null groups / values excluded.

    → DataFrame(group, n_distinct_approx[int64 rounded estimate]),
    sorted by group. No SQL oracle (approximate by design); pytest
    asserts tolerance vs the exact operator."""
    import ray  # noqa: F401

    from data_linter_ray.state.sketches import HyperLogLog, hash_array

    # the group lane keeps its NATIVE Arrow type (string groups stay
    # string, int groups stay int64) so output joins/sorts line up with
    # the exact operator this is the drop-in scale path for
    g_type = ds.schema().base_schema.field(group_col).type

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col]).drop_null()
        if not t.num_rows:
            return pa.table(
                {"g": pa.array([], g_type),
                 "regs": pa.array([], pa.binary())}
            )
        gv = t[group_col].to_pandas()
        h = hash_array(t[value_col])
        gs, regs = [], []
        for gval, idx in pd.Series(np.arange(len(gv))).groupby(
            gv.to_numpy(), sort=False
        ):
            hll = HyperLogLog()
            hll.add_hashes(h[idx.to_numpy()])
            gs.append(gval)
            regs.append(hll.to_bytes())
        return pa.table(
            {"g": pa.array(gs, g_type), "regs": pa.array(regs, pa.binary())}
        )

    acc: dict = {}
    for b in (
        ds.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        for gval, blob in zip(b["g"].to_pylist(), b["regs"].to_pylist()):
            hll = HyperLogLog.from_bytes(blob)
            if gval in acc:
                acc[gval].merge(hll)
            else:
                acc[gval] = hll
    rows = sorted(
        (g, int(round(h.estimate()))) for g, h in acc.items()
    )
    return pd.DataFrame(rows, columns=[group_col, "n_distinct_approx"])


def group_regression(
    ds: Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    round_to: int | None = None,
) -> pd.DataFrame:
    """Per-group simple linear regression (y on x) — the trend report
    (e.g. price sensitivity per segment, score drift per source):
    slope, intercept and R² per group via the textbook closed form over
    sufficient statistics.

    Scale shape: per batch, a C-level groupby-sum collapses rows to ONE
    partial row per group per batch — (n, Σx, Σy, Σx², Σy², Σxy), the
    six associative lanes; one
    :func:`~data_linter_ray.exchange.exchange_map_groups` exchange keyed
    on the group co-locates each group's partials and the per-partition
    fold applies the closed form. Only partial rows cross the wire (KB
    per batch, never the raw pairs). Rows with a null group / x / y are excluded
    (SQL ``regr_*`` pairwise deletion).

    NaN policy (the one :func:`corr_matrix` keeps): a non-null NaN x or
    y is deleted pairwise exactly like a null, so its row neither
    counts in ``n`` nor reaches the sums. SQL ``regr_*`` differs here:
    a NaN input makes its group's result NaN.

    Float parity: the oracle evaluates the SAME closed-form expression
    over SQL SUM aggregates, so only sum fold order differs —
    ``round_to`` (6 dp in the oracle query) lands both sides on the
    identical double (same trade as :func:`corr_matrix`). Groups with
    zero x-variance emit NaN slope/intercept/r2 on both sides.

    → DataFrame(group, n, slope, intercept, r2), sorted by group.
    """
    from data_linter_ray.exchange import exchange_map_groups

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([group_col, x_col, y_col]).drop_null().to_pandas()
        x = df[x_col].to_numpy(np.float64)
        y = df[y_col].to_numpy(np.float64)
        keep = ~(np.isnan(x) | np.isnan(y))
        df, x, y = df[keep], x[keep], y[keep]
        df = pd.DataFrame(
            {
                "g": df[group_col],
                "n": np.int64(1),
                "sx": x,
                "sy": y,
                "sxx": x * x,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        agg = df.groupby("g", as_index=False, sort=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("g", as_index=False, sort=False)[
            ["n", "sx", "sy", "sxx", "syy", "sxy"]
        ].sum()
        n = s["n"].to_numpy(np.float64)
        sx, sy = s["sx"].to_numpy(), s["sy"].to_numpy()
        sxx, syy, sxy = s["sxx"].to_numpy(), s["syy"].to_numpy(), s["sxy"].to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            cov_n = n * sxy - sx * sy  # n² · cov
            varx_n = n * sxx - sx * sx  # n² · var(x)
            slope = cov_n / varx_n
            intercept = (sy - slope * sx) / n
            r2 = (cov_n * cov_n) / (varx_n * (n * syy - sy * sy))
        out = pd.DataFrame(
            {
                group_col: s["g"],
                "n": s["n"].astype(np.int64),
                "slope": slope,
                "intercept": intercept,
                "r2": r2,
            }
        )
        if round_to is not None:
            for c in ("slope", "intercept", "r2"):
                out[c] = out[c].round(round_to)
        return out

    parts = exchange_map_groups(
        ds.select_columns([group_col, x_col, y_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "g",
        fold,
    ).to_pandas()
    if group_col not in parts.columns:  # all rows null -> empty exchange
        return pd.DataFrame(
            columns=[group_col, "n", "slope", "intercept", "r2"]
        )
    return parts.sort_values(group_col).reset_index(drop=True)


def benford_profile(ds: Dataset, value_col: str) -> pd.DataFrame:
    """First-significant-digit distribution of a numeric column vs
    Benford's law — the classic fabricated-/synthetic-data smell test
    for financial and telemetry amounts (a data-quality check in the
    linter tradition: no reference analog, extends SURVEY.md §2.8).

    Digit extraction is STRING-based on purpose: the first ``[1-9]``
    of the value's shortest-roundtrip decimal rendering. A numeric
    ``10^floor(log10(|v|))`` scheme misclassifies values like 1000
    (``log10 → 2.9999…96``) and 0.3 (``0.3/0.1 → 2.9999…96``);
    the shortest-roundtrip digit string is unique per double, so the
    Arrow ``cast(string)`` here and DuckDB's ``CAST(… AS VARCHAR)``
    agree on every input, fixed or scientific notation alike.

    Scale shape: one column-pruned streaming scan; per batch a
    vectorized cast → regex-extract → 9-lane bincount partial; driver
    fold of ≤9-long int vectors (partials-as-data, no shuffle).
    Nulls, zeros and non-finite values are excluded (they have no
    first significant digit; the oracle's WHERE mirrors this).

    → DataFrame(digit 1-9, n, p_obs, p_exp) — counts exact int64;
    p_obs = n/total (an IEEE-exact division of exact ints, identical
    on both sides); p_exp = round(log10(1+1/d), 6) (rounded because
    numpy's and DuckDB's log10 may differ in the last ulp).
    """
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> np.ndarray:
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        v = v.cast(pa.float64())
        finite = pc.and_(pc.is_finite(v), pc.not_equal(v, 0.0))
        s = pc.cast(pc.abs(v.filter(finite)), pa.string())
        first = pc.extract_regex(s, r"(?P<d>[1-9])")
        d = pc.struct_field(first.drop_null(), "d").cast(pa.int8())
        return np.bincount(d.to_numpy(zero_copy_only=False), minlength=10)[1:10]

    total = fold_batches(
        ds.select_columns([value_col]), partial, np.add, np.zeros(9, np.int64)
    )

    digits = np.arange(1, 10, dtype=np.int64)
    n_all = int(total.sum())
    return pd.DataFrame(
        {
            "digit": digits,
            "n": total,
            "p_obs": total / np.float64(n_all) if n_all else np.nan,
            "p_exp": np.round(np.log10(1.0 + 1.0 / digits), 6),
        }
    )


def _two_group_value_parts(
    ds: Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
    P: int,
):
    """Shared front half of the rank/CDF statistics (KS, Mann–Whitney):
    filter to the two groups, t-digest approximate equi-depth range
    boundaries (balance only — correctness never depends on them),
    per-batch (value, n_a, n_b) count combiner keyed by range bucket,
    per-bucket totals folded into prefix OFFSETS on the driver.

    Float NaN payloads (non-null NaN, distinct from SQL NULL) are
    EXCLUDED like nulls — explicitly, in this pick stage (the same
    policy :func:`gini` applies). Leaving them in would be worse than
    a semantic choice: pandas ``groupby`` silently drops NaN keys, so
    NaN rows would vanish from the combiner while still inflating the
    t-digest — an accidental, internally inconsistent exclusion.

    → (materialized parts with columns v/a/b/_part, offs[P,2], n_a,
    n_b). Equal values always share a bucket (searchsorted is a pure
    function of the value), so per-bucket sorted scans are globally
    exact."""
    import pyarrow.compute as pc

    def pick(t: pa.Table) -> pa.Table:
        g = t[group_col]
        keep = pc.and_(
            pc.is_valid(t[value_col]),
            pc.or_(pc.equal(g, group_a), pc.equal(g, group_b)),
        )
        t = t.filter(keep)
        v = t[value_col].cast(pa.float64())
        out = pa.table(
            {
                "v": v,
                "is_a": pc.equal(t[group_col], group_a),
            }
        )
        return out.filter(pc.invert(pc.is_nan(out["v"])))

    picked = ds.select_columns([value_col, group_col]).map_batches(
        pick, batch_format="pyarrow"
    ).materialize()

    (bounds,) = range_bounds(picked, ["v"], P)

    def partial(t: pa.Table) -> pa.Table:
        df = pa.table(
            {"v": t["v"], "a": t["is_a"].cast(pa.int64())}
        ).to_pandas()
        df["b"] = 1 - df["a"]
        agg = df.groupby("v", as_index=False, sort=False)[["a", "b"]].sum()
        agg["_part"] = np.searchsorted(
            bounds, agg["v"].to_numpy(), side="left"
        ).astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = picked.map_batches(partial, batch_format="pyarrow").materialize()

    def tot_partial(t: pa.Table) -> np.ndarray:
        p = t["_part"].to_numpy(zero_copy_only=False)
        out = np.zeros((P, 2), np.int64)
        np.add.at(out[:, 0], p, t["a"].to_numpy(zero_copy_only=False))
        np.add.at(out[:, 1], p, t["b"].to_numpy(zero_copy_only=False))
        return out

    tot = fold_batches(parts, tot_partial, np.add, np.zeros((P, 2), np.int64))
    n_a, n_b = int(tot[:, 0].sum()), int(tot[:, 1].sum())
    offs = np.zeros((P, 2), np.int64)
    offs[1:] = np.cumsum(tot, axis=0)[:-1]
    return parts, offs, n_a, n_b


def mannwhitney_u(
    ds: Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
) -> pd.DataFrame:
    """EXACT Mann–Whitney U statistic (Wilcoxon rank-sum) between two
    groups' value distributions — the nonparametric "is one group
    stochastically larger?" test that complements the KS sup-distance.
    Tied values receive AVERAGE ranks (the standard convention; SQL
    reproduces it as ``rank() + (count_per_value − 1)/2``).

    Exactness: DOUBLED rank sums are integers — a run of m tied values
    starting after o predecessors has 2·avg_rank = 2o + m + 1 — and
    per-bucket partials fold as arbitrary-precision Python ints
    (HUGEINT on the SQL side). The final ``U_a = (R2_a − n_a(n_a+1))/2``
    is one exact-int→double cast and a divide-by-2 (a power of two —
    exact) — bit-exact at any n, no rounding.

    Scale shape: the shared two-group range machinery
    (:func:`_two_group_value_parts`); each bucket needs only its own
    sorted distinct values plus its two scalar count offsets.

    Null values, float NaN payloads (excluded like nulls — see
    :func:`_two_group_value_parts`) and rows in neither group are
    excluded.

    → 1-row DataFrame(n_a, n_b, u_a, u_b); u_a + u_b = n_a·n_b.
    """
    from data_linter_ray.exchange import exchange_map_groups, exchange_width

    P = exchange_width(ds)
    parts, offs, n_a, n_b = _two_group_value_parts(
        ds, value_col, group_col, group_a, group_b, P
    )

    def ranksum(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df["_part"].iloc[0])
        agg = df.groupby("v", as_index=True, sort=True)[["a", "b"]].sum()
        a = agg["a"].to_numpy(np.int64)
        m = a + agg["b"].to_numpy(np.int64)
        o = offs[bucket].sum() + np.concatenate(([0], np.cumsum(m)[:-1]))
        # doubled average rank per run: 2o + m + 1; fold in Python ints
        r2 = (
            a.astype(object) * (2 * o.astype(object) + m.astype(object) + 1)
        ).sum()
        return pd.DataFrame({"_r2a": [str(int(r2))]})

    if n_a == 0 or n_b == 0:
        return pd.DataFrame(
            {"n_a": [n_a], "n_b": [n_b], "u_a": [np.nan], "u_b": [np.nan]}
        )
    sums = exchange_map_groups(parts, "_part", ranksum, num_partitions=P).to_pandas()
    r2a = sum(int(x) for x in sums["_r2a"])
    u_a = float(r2a - n_a * (n_a + 1)) / 2.0
    u_b = float(n_a) * float(n_b) - u_a
    return pd.DataFrame(
        {"n_a": [n_a], "n_b": [n_b], "u_a": [u_a], "u_b": [u_b]}
    )


def ks_two_sample(
    ds: Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
) -> pd.DataFrame:
    """EXACT two-sample Kolmogorov–Smirnov statistic between the value
    distributions of two groups — the distribution-drift test
    ("did click values shift vs view values?", "does this shard's
    score distribution match the fleet's?"). D = sup over distinct
    values of |F_a(v) − F_b(v)| with CDFs evaluated AT each value
    (ties counted fully on both sides, the step-function convention
    SQL's ``sum() OVER (ORDER BY value)`` implements).

    Exactness: per distinct value both engines compute the SAME two
    int→double divisions and one subtraction (IEEE-determined), and
    the sup is a pure selection — the statistic is bit-exact vs SQL
    with NO rounding.

    Scale shape (a CDF needs global ORDER, not hashing — this is the
    one operator family where range partitioning is load-bearing):

    1. approximate equi-depth range boundaries from ONE t-digest pass
       (boundaries only balance buckets — correctness never depends on
       them, so paying the exact multi-round quantile refinement here
       would re-scan the column for nothing at scale),
    2. per-batch (value, n_a, n_b) count combiner, bucket =
       ``searchsorted(bounds, value)`` — equal values always share a
       bucket,
    3. per-bucket totals (P scalars) folded on the driver into prefix
       OFFSETS — the cross-bucket cumulative counts,
    4. one :func:`~data_linter_ray.exchange.keyed_scatter_gather`
       exchange; each bucket sorts ITS OWN distinct values, adds its
       offsets to local cumsums, and emits one local-sup row.

    Null values, float NaN payloads (excluded like nulls — see
    :func:`_two_group_value_parts`) and rows in neither group are
    excluded.

    → 1-row DataFrame(n_a, n_b, ks).
    """
    from data_linter_ray.exchange import exchange_map_groups, exchange_width

    P = exchange_width(ds)
    parts, offs, n_a, n_b = _two_group_value_parts(
        ds, value_col, group_col, group_a, group_b, P
    )

    def sup(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df["_part"].iloc[0])
        agg = df.groupby("v", as_index=False, sort=True)[["a", "b"]].sum()
        c1 = offs[bucket, 0] + np.cumsum(agg["a"].to_numpy(np.int64))
        c2 = offs[bucket, 1] + np.cumsum(agg["b"].to_numpy(np.int64))
        d = np.abs(c1 / np.float64(n_a) - c2 / np.float64(n_b))
        return pd.DataFrame({"_sup": [float(d.max()) if len(d) else 0.0]})

    if n_a == 0 or n_b == 0:
        return pd.DataFrame({"n_a": [n_a], "n_b": [n_b], "ks": [np.nan]})
    sups = exchange_map_groups(parts, "_part", sup, num_partitions=P).to_pandas()
    return pd.DataFrame(
        {"n_a": [n_a], "n_b": [n_b], "ks": [float(sups["_sup"].max())]}
    )


def contingency_table(ds: Dataset, a_col: str, b_col: str) -> pd.DataFrame:
    """Chi-square contingency table between two categorical columns —
    the association test behind "is event_type independent of user
    segment?" / "does language depend on source?". One pass; per-cell
    outputs are BIT-exact (every float derives from the same exact
    integers by the same IEEE expression on both sides):

    - ``n``         observed cell count (exact int)
    - ``expected``  row_total·col_total/N (int·int → double division)
    - ``chi2_term`` (n − expected)²/expected

    The TOTAL χ² is a sum whose SQL order is unspecified, so the
    operator returns the per-cell table (callers sum + round as
    needed) — the same per-row-exactness stance as benford_profile.

    Scale shape: per-batch (a, b) count combiner (domain-bounded: one
    row per distinct pair per batch), driver fold of the tiny
    |A|·|B| table. Null in either column excludes the row (SQL GROUP
    BY over an inner WHERE). → DataFrame(a, b, n, expected,
    chi2_term), sorted by (a, b).
    """
    cells, row_tot, col_tot, N = _pair_count_cells(ds, a_col, b_col)
    if cells is None:
        return pd.DataFrame(
            columns=[a_col, b_col, "n", "expected", "chi2_term"]
        )
    exp = (row_tot * col_tot) / np.float64(N)
    obs = cells["n"].to_numpy(np.float64)
    cells["expected"] = exp
    cells["chi2_term"] = (obs - exp) * (obs - exp) / exp
    return cells.sort_values([a_col, b_col]).reset_index(drop=True)


def _pair_count_cells(ds: Dataset, a_col: str, b_col: str):
    """Shared front half of the categorical-association operators
    (χ² / mutual information): per-batch (a, b) count combiner,
    driver fold of the |A|·|B| cell table. → (cells DataFrame with
    column n, row totals, col totals, N) or (None, …) when empty."""
    def partial(t: pa.Table) -> pa.Table:
        t = t.select([a_col, b_col]).drop_null()
        g = t.group_by([a_col, b_col]).aggregate([([], "count_all")])
        return pa.table(
            {
                "a": g[a_col],
                "b": g[b_col],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    acc: dict = {}
    for blk in (
        ds.select_columns([a_col, b_col])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pandas")
    ):
        for a, b, n in blk.itertuples(index=False):
            acc[(a, b)] = acc.get((a, b), 0) + int(n)

    if not acc:
        return None, None, None, None
    cells = pd.DataFrame(
        [(a, b, n) for (a, b), n in acc.items()], columns=[a_col, b_col, "n"]
    )
    row_tot = cells.groupby(a_col)["n"].transform("sum").to_numpy(np.int64)
    col_tot = cells.groupby(b_col)["n"].transform("sum").to_numpy(np.int64)
    N = np.int64(cells["n"].sum())
    return cells, row_tot, col_tot, N


def mutual_information(
    ds: Dataset,
    a_col: str,
    b_col: str,
    *,
    round_to: int | None = None,
) -> pd.DataFrame:
    """Mutual information between two categorical columns, reported
    per cell (the information-theoretic sibling of
    :func:`contingency_table` — "how many bits does knowing the
    segment give about the event type?"). ``mi_term =
    (n_ab/N)·ln(n_ab·N/(n_a·n_b))`` — all operands exact ints, one
    IEEE ln per cell; the oracle passes ``round_to=9`` (numpy vs
    DuckDB ln last-ulp, the :func:`group_entropy` trade). The total
    MI is the cell sum (callers sum + round — SQL SUM order is
    unspecified).

    → DataFrame(a, b, n, mi_term), sorted by (a, b).
    """
    cells, row_tot, col_tot, N = _pair_count_cells(ds, a_col, b_col)
    if cells is None:
        return pd.DataFrame(columns=[a_col, b_col, "n", "mi_term"])
    obs = cells["n"].to_numpy(np.float64)
    term = (obs / np.float64(N)) * np.log(
        obs * np.float64(N) / (row_tot.astype(np.float64) * col_tot)
    )
    if round_to is not None:
        term = np.round(term, round_to)
    cells["mi_term"] = term
    return cells.sort_values([a_col, b_col]).reset_index(drop=True)


def psi_bins(
    ds_ref: Dataset,
    ds_cur: Dataset,
    value_col: str,
    *,
    n_bins: int = 10,
    round_to: int | None = None,
) -> pd.DataFrame:
    """Population Stability Index bins — the standard "has this score /
    value distribution shifted since the reference window?" monitor.
    Bin boundaries are the REFERENCE distribution's exact equi-depth
    ``quantile_disc`` cut points (via the proven
    :func:`~data_linter_ray.functions.quantiles.exact_quantiles`
    multi-round scan — exact here because the ORACLE must reproduce the
    same boundaries, unlike the KS buckets where balance is all that
    matters); both datasets are then counted into those bins in one
    pruned pass each.

    Bin membership convention: ``bin = #{boundaries ≤ v}`` (0..n_bins−1
    for in-range values; the SQL side is
    ``len(list_filter(bounds, q -> v >= q))``). Nulls excluded.

    Counts are exact ints and p_ref/p_cur are IEEE-exact int→double
    divisions; ``psi_term = (p_cur − p_ref)·ln(p_cur/p_ref)`` can
    differ from SQL in the LAST ULP (numpy vs DuckDB ``ln``), so the
    oracle query passes ``round_to=9`` — the same trade as
    :func:`group_entropy`. NULL when either side's bin is empty
    (ln(0) has no finite value; the caller decides the epsilon
    policy). → DataFrame(bin, n_ref, n_cur, p_ref, p_cur, psi_term),
    one row per bin 0..n_bins−1.
    """
    from data_linter_ray.functions.quantiles import exact_quantiles

    # no outer materialize: exact_quantiles pins its own pruned
    # projection when refinement will re-scan it, and counts() is a
    # single pass per side — pinning here would just double the
    # object-store footprint of the value column
    ds_ref = ds_ref.select_columns([value_col])
    ds_cur = ds_cur.select_columns([value_col])
    qs = [i / n_bins for i in range(1, n_bins)]
    bounds = np.sort(
        exact_quantiles(ds_ref, value_col, qs)["value"].to_numpy(np.float64)
    )

    def counts(ds: Dataset) -> np.ndarray:
        def partial(t: pa.Table) -> np.ndarray:
            v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            # searchsorted(side="right") == #{bounds ≤ v}: equal-to-
            # boundary values go UP a bin, matching the SQL v >= q count
            return np.bincount(
                np.searchsorted(bounds, v, side="right"), minlength=n_bins
            )

        return fold_batches(ds, partial, np.add, np.zeros(n_bins, np.int64))

    n_ref, n_cur = counts(ds_ref), counts(ds_cur)
    return _psi_table(n_ref, n_cur, n_bins, round_to)


def _psi_table(n_ref, n_cur, n_bins: int, round_to: int | None) -> pd.DataFrame:
    N_ref, N_cur = np.float64(n_ref.sum()), np.float64(n_cur.sum())
    p_ref = n_ref / N_ref if N_ref else np.full(n_bins, np.nan)
    p_cur = n_cur / N_cur if N_cur else np.full(n_bins, np.nan)
    ok = (n_ref > 0) & (n_cur > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        term = np.where(ok, (p_cur - p_ref) * np.log(p_cur / p_ref), np.nan)
    if round_to is not None:
        term = np.round(term, round_to)
    return pd.DataFrame(
        {
            "bin": np.arange(n_bins, dtype=np.int64),
            "n_ref": n_ref,
            "n_cur": n_cur,
            "p_ref": p_ref,
            "p_cur": p_cur,
            "psi_term": pd.Series(term).where(pd.Series(ok)),
        }
    )


def psi_bins_tagged(
    ds: Dataset,
    value_col: str,
    ref_col: str,
    *,
    n_bins: int = 10,
    round_to: int | None = None,
) -> pd.DataFrame:
    """:func:`psi_bins` over ONE input carrying a boolean ref/cur tag
    column — the fused form for the common "first half vs second half
    of the same table" monitor. One source read + ONE materialization
    (vs two in the two-dataset form), boundaries from the ref side via
    the same exact ``quantile_disc`` refinement, then ONE fused
    binned-count pass emitting both sides' ``(2, n_bins)`` partials
    (:func:`~data_linter_ray.exchange.fold_batches`). A NULL tag counts
    as CURRENT (``fill_null(False)``): the untagged rows are the ones being
    monitored against the established reference. Identical output to
    :func:`psi_bins` on the equivalent split inputs (nulls routed to
    the cur side)."""
    from data_linter_ray.functions.quantiles import exact_quantiles

    tagged = ds.select_columns([value_col, ref_col]).materialize()

    def only_ref(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.fill_null(t[ref_col], False)).select([value_col])

    ref_view = tagged.map_batches(only_ref, batch_format="pyarrow")
    qs = [i / n_bins for i in range(1, n_bins)]
    bounds = np.sort(
        exact_quantiles(ref_view, value_col, qs)["value"].to_numpy(np.float64)
    )

    def both_counts(t: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc

        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        is_ref = pc.fill_null(t[ref_col], False).to_numpy(zero_copy_only=False)
        valid = ~np.isnan(v)
        out = np.zeros((2, n_bins), np.int64)
        for side, m in ((0, valid & is_ref), (1, valid & ~is_ref)):
            b = np.searchsorted(bounds, v[m], side="right")
            out[side] = np.bincount(b, minlength=n_bins)[:n_bins] if len(b) else 0
        return out

    tot = fold_batches(tagged, both_counts, np.add, np.zeros((2, n_bins), np.int64))
    return _psi_table(tot[0], tot[1], n_bins, round_to)


def gini(
    ds: Dataset,
    value_col: str,
    *,
    scale: int = 100,
) -> pd.DataFrame:
    """EXACT Gini coefficient of a value column — the concentration /
    inequality monitor ("is 1% of users generating 90% of the value?",
    "how skewed is this source's contribution?"). Computed on integer
    ``cents = round(value·scale)`` via the rank-sum identity
    ``G = (2·Σ i·x_(i) − (n+1)·Σx) / (n·Σx)`` with i the 1-based rank
    in sorted order (ties contribute the same total for any tie order,
    so the statistic is well-defined and matches SQL ``row_number``).

    Exactness: all three folds (n, Σx, Σ i·x) are ARBITRARY-PRECISION
    integers — per-bucket int64-safe partial products are folded into
    Python ints on the driver, the oracle casts to HUGEINT — and the
    final expression is two exact-int→double casts and one division,
    identical on both sides. Bit-exact, no rounding, at any n.

    Scale shape: the KS machinery — one t-digest pass for approximate
    equi-depth boundaries (balance only), per-batch (cents, count)
    combiner, per-bucket totals → driver prefix offsets, one range
    exchange; each bucket's rank-sum needs only its own sorted
    distinct values plus its scalar count offset:
    ``Σ i·x over a run of m copies of x at offset o =
    x·(m·o + m(m+1)/2)``. Null values are excluded.

    → 1-row DataFrame(n, gini).
    """
    from data_linter_ray.exchange import (
        exchange_map_groups,
        exchange_width,
    )

    P = exchange_width(ds)

    def to_cents(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        return pa.table({"c": pa.array(np.rint(v * scale).astype(np.int64))})

    cents = ds.select_columns([value_col]).map_batches(
        to_cents, batch_format="pyarrow"
    ).materialize()

    (bounds,) = range_bounds(cents, ["c"], P)

    def partial(t: pa.Table) -> pa.Table:
        df = pa.table({"c": t["c"]}).to_pandas()
        agg = df.groupby("c", as_index=False, sort=False).size()
        agg.columns = ["c", "m"]
        agg["_part"] = np.searchsorted(
            bounds, agg["c"].to_numpy(np.float64), side="left"
        ).astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = cents.map_batches(partial, batch_format="pyarrow").materialize()

    def tot_partial(t: pa.Table) -> np.ndarray:
        out = np.zeros(P, np.int64)
        np.add.at(
            out,
            t["_part"].to_numpy(zero_copy_only=False),
            t["m"].to_numpy(zero_copy_only=False),
        )
        return out

    tot = fold_batches(parts, tot_partial, np.add, np.zeros(P, np.int64))
    n = int(tot.sum())
    offs = np.zeros(P, np.int64)
    offs[1:] = np.cumsum(tot)[:-1]

    def ranksum(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df["_part"].iloc[0])
        agg = df.groupby("c", as_index=True, sort=True)["m"].sum()
        c = agg.index.to_numpy(np.int64)
        m = agg.to_numpy(np.int64)
        o = offs[bucket] + np.concatenate(([0], np.cumsum(m)[:-1]))
        # fold in EXACT Python ints: per-run Σi·x = x·(m·o + m(m+1)/2);
        # int64 products can overflow at fleet-scale n, object dtype
        # keeps every term exact
        co, mo, oo = c.astype(object), m.astype(object), o.astype(object)
        s1 = int((co * (mo * oo + mo * (mo + 1) // 2)).sum())
        s0 = int((co * mo).sum())
        return pd.DataFrame({"_s0": [str(s0)], "_s1": [str(s1)]})

    if n == 0:
        return pd.DataFrame({"n": [0], "gini": [np.nan]})
    sums = exchange_map_groups(parts, "_part", ranksum, num_partitions=P).to_pandas()
    s0 = sum(int(x) for x in sums["_s0"])
    s1 = sum(int(x) for x in sums["_s1"])
    denom = n * s0
    g = float(2 * s1 - (n + 1) * s0) / float(denom) if denom else np.nan
    return pd.DataFrame({"n": [n], "gini": [g]})


def _attach_rank(rows_ds, col: str, out_col: str, P: int, *, part_col, offs):
    """Attach the DOUBLED average rank of ``col`` to every row via one
    range exchange — the join-free form of :func:`_value_rank_map`:
    rows are range-partitioned by the column (t-digest-balanced), so a
    bucket holds ALL rows of each of its values; per-bucket tie-run
    lengths are the exact global tie counts and the cross-bucket offset
    is the prefix of bucket row counts.

    The caller (spearman's fused two-column pass) has already
    partitioned the rows: ``part_col`` is the dense-int partition
    column (consumed and dropped) and ``offs`` the precomputed prefix
    offsets, so no digest/part/fold stages run here.

    → Dataset(rows + <out_col> int64)."""
    from data_linter_ray.exchange import exchange_map_groups

    parts = rows_ds
    pcol = part_col

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df[pcol].iloc[0])
        df = df.sort_values(col, kind="mergesort").reset_index(drop=True)
        v = df[col].to_numpy(np.float64)
        nloc = len(v)
        new = np.empty(nloc, dtype=bool)
        if nloc:
            new[0] = True
            new[1:] = v[1:] != v[:-1]
        starts = np.flatnonzero(new)
        m = np.diff(np.append(starts, nloc))
        o = offs[bucket] + starts.astype(np.int64)
        r2 = 2 * o + m + 1
        df[out_col] = np.repeat(r2, m)
        return df.drop(columns=[pcol])

    out = exchange_map_groups(parts, pcol, attach, num_partitions=P)
    return out


def spearman_corr(
    ds: Dataset,
    x_col: str,
    y_col: str,
) -> pd.DataFrame:
    """EXACT Spearman rank correlation (Pearson over average ranks,
    the standard tie convention) — the monotonic-association monitor
    that Pearson misses on nonlinear-but-ordered relationships.

    BIT-exact with NO rounding: doubled average ranks are integers
    (``2o + m + 1`` per tie run), all six sufficient statistics fold
    as arbitrary-precision Python ints (HUGEINT on the SQL side), and
    the closed form is exact-int→double casts, two correctly-rounded
    square roots and one division — the identical IEEE expression both
    engines evaluate. (scipy computes the same statistic through float
    rank averages; this pipeline never leaves integers until the last
    four flops.)

    Scale shape: pairwise-deleted rows are materialized once; each
    column's value→doubled-rank map is built by the shared range
    machinery (:func:`_value_rank_map` — a DATASET, one row per
    distinct value, never driver-collected); two hash equi-joins
    attach ranks to rows; one streaming sufficient-statistic fold.
    Per-batch products use int64 while ``4n² < 2^62`` (n < 1.5·10⁹)
    and arbitrary-precision object arrays beyond.

    Pairwise deletion: a row is dropped when either value is null or a
    float NaN payload (NaN is excluded like null).

    → 1-row DataFrame(n, rho).
    """
    import pyarrow.compute as pc

    from data_linter_ray.exchange import exchange_width

    P = exchange_width(ds)

    def pick(t: pa.Table) -> pa.Table:
        t = t.select([x_col, y_col]).drop_null()
        out = pa.table(
            {
                "x": t[x_col].cast(pa.float64()),
                "y": t[y_col].cast(pa.float64()),
            }
        )
        # pairwise deletion extends to float NaN payloads (non-null
        # NaN): excluded like nulls, EXPLICITLY — downstream pandas
        # groupby folds silently drop NaN keys and tie detection
        # splits NaN runs (NaN != NaN), so keeping NaN rows would be
        # an accidental, internally inconsistent semantics. Same
        # policy as gini / _two_group_value_parts.
        return out.filter(
            pc.invert(pc.or_(pc.is_nan(out["x"]), pc.is_nan(out["y"])))
        )

    rows = ds.select_columns([x_col, y_col]).map_batches(
        pick, batch_format="pyarrow"
    ).materialize()
    n = rows.count()
    if n == 0:
        return pd.DataFrame({"n": [0], "rho": [np.nan]})

    # attach each column's doubled average rank IN the range exchange
    # itself (no join at all): rows range-partition by the column, so a
    # bucket holds EVERY row of its values — per-bucket run lengths ARE
    # the global tie counts, and the cross-bucket offset is the prefix
    # of bucket row counts. Two deterministic keyed_scatter_gather
    # exchanges, full rows through each (same bytes a hash join would
    # move, none of a join operator's actor-pool reservations). Both
    # columns' balance boundaries come from ONE fused digest pass.
    bx, by = range_bounds(rows, ["x", "y"], P)
    # ONE pass attaches both columns' partition ids, ONE materialization
    # feeds both exchanges, and ONE bincount-partial fold yields both
    # prefix-offset vectors (2·P ints to the driver)
    def part2(t: pa.Table) -> pa.Table:
        px = np.searchsorted(
            bx, t["x"].to_numpy(zero_copy_only=False), side="left"
        ).astype(np.int64)
        py = np.searchsorted(
            by, t["y"].to_numpy(zero_copy_only=False), side="left"
        ).astype(np.int64)
        return t.append_column("_px", pa.array(px)).append_column(
            "_py", pa.array(py)
        )

    parts = rows.map_batches(part2, batch_format="pyarrow").materialize()

    def both_counts(t: pa.Table) -> np.ndarray:
        out = np.zeros((2, P), np.int64)
        out[0] = np.bincount(
            t["_px"].to_numpy(zero_copy_only=False), minlength=P
        )
        out[1] = np.bincount(
            t["_py"].to_numpy(zero_copy_only=False), minlength=P
        )
        return out

    cnt = fold_batches(parts, both_counts, np.add, np.zeros((2, P), np.int64))
    offs_x = np.zeros(P, np.int64)
    offs_x[1:] = np.cumsum(cnt[0])[:-1]
    offs_y = np.zeros(P, np.int64)
    offs_y[1:] = np.cumsum(cnt[1])[:-1]
    j1 = _attach_rank(parts, "x", "r2x", P, part_col="_px", offs=offs_x)
    joined = _attach_rank(j1, "y", "r2y", P, part_col="_py", offs=offs_y)

    def stats_partial(t: pa.Table) -> list[int]:
        rx = t["r2x"].to_numpy(zero_copy_only=False).astype(np.int64)
        ry = t["r2y"].to_numpy(zero_copy_only=False).astype(np.int64)
        # overflow guard must bound the per-BATCH sum, not the
        # per-element product: doubled ranks are ≤ 2n, so a batch of B
        # rows accumulates up to B·4n² in (rx*rx).sum() — switch to
        # arbitrary-precision ints before that can reach 2^63
        if len(rx) and 4 * n * n * len(rx) >= (1 << 63):
            rx, ry = rx.astype(object), ry.astype(object)
        return [
            len(rx), int(rx.sum()), int(ry.sum()),
            int((rx * rx).sum()), int((ry * ry).sum()), int((rx * ry).sum()),
        ]

    cnt, sx, sy, sxx, syy, sxy = fold_batches(
        joined, stats_partial, lambda a, v: [x + y for x, y in zip(a, v)], [0] * 6
    )
    num = cnt * sxy - sx * sy
    d1 = cnt * sxx - sx * sx
    d2 = cnt * syy - sy * sy
    if d1 == 0 or d2 == 0:
        rho = np.nan
    else:
        import math

        rho = float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
    return pd.DataFrame({"n": [cnt], "rho": [rho]})


def _strict_inversions(y: np.ndarray) -> int:
    """#{(i, j): i < j and y_i > y_j} — O(n log² n), fully vectorized.
    Binary pair decomposition: each (i, j) crosses the L/R boundary of
    exactly one block at exactly one level, so summing per-level
    cross-block counts covers every pair once. Per level, ONE lexsort
    (block asc, value asc, L-before-R on ties) lets a prefix count of
    L elements give #{L ≤ r} at every R position; ties are excluded by
    construction (L sorts first on equal values)."""
    n = len(y)
    if n < 2:
        return 0
    idx = np.arange(n, dtype=np.int64)
    total = 0
    w = 1
    while w < n:
        block = idx // (2 * w)
        side = (idx // w) & 1
        order = np.lexsort((side, y, block))
        sb = block[order]
        isL = (side[order] == 0).astype(np.int64)
        cumL_excl = np.concatenate(([0], np.cumsum(isL)[:-1]))
        nb = int(sb[-1]) + 1
        Ltot = np.bincount(sb, weights=isL, minlength=nb).astype(np.int64)
        first = np.zeros(nb, np.int64)
        bstarts = np.flatnonzero(np.diff(np.concatenate(([-1], sb))))
        first[sb[bstarts]] = bstarts
        L_le = cumL_excl - cumL_excl[first[sb]]
        total += int(((Ltot[sb] - L_le) * (1 - isL)).sum())
        w *= 2
    return total


def _tie_pair_sums(v: np.ndarray) -> int:
    """Σ m(m−1)/2 over the runs of a SORTED array — exact Python int."""
    if not len(v):
        return 0
    new = np.empty(len(v), dtype=bool)
    new[0] = True
    new[1:] = v[1:] != v[:-1]
    m = np.diff(np.append(np.flatnonzero(new), len(v)))
    mo = m.astype(object)
    return int((mo * (mo - 1) // 2).sum())


def kendall_tau(
    ds: Dataset,
    x_col: str,
    y_col: str,
) -> pd.DataFrame:
    """EXACT Kendall τ-b — concordant/discordant pair counts with the
    standard tie corrections, computed WITHOUT enumerating the O(n²)
    pairs. BIT-exact: c, d and the tie-pair sums are exact integers
    (arbitrary-precision folds), and τ-b is exact-int→double casts,
    two IEEE sqrts and one division — identical to the SQL pairwise
    self-join oracle.

    Distributed decomposition (each unordered pair counted exactly
    once; equal values always co-locate under range bucketing):

    1. x-range exchange — pairs in the SAME x-bucket: sort the bucket
       by (x, y); strict y-inversions = its discordant pairs (equal-x
       pairs are y-ascending → contribute 0). Tie sums for x and for
       (x, y) fold here too (all equal x live in one bucket).
    2. y-range exchange (rows carry their x-bucket index) — pairs in
       DIFFERENT x-buckets but the SAME y-bucket: sort by (bx, y);
       strict y-inversions = their discordant pairs (same-bx pairs
       contribute 0 — already counted in pass 1). y tie sums fold
       here.
    3. driver — pairs in different x- AND y-buckets: their relation is
       fully determined by bucket ORDER, so the exact discordant count
       is a prefix-sum expression over the P×Q joint bucket-count
       matrix (Python-int arithmetic over ≤ P·Q cells).

    Then ``c = (n0 − n1 − n2 + n3) − d`` and
    ``τ_b = (c − d)/(√(n0−n1)·√(n0−n2))``.

    Per-bucket inversion counting is the O(n log² n) vectorized
    :func:`_strict_inversions`; no Python row loops anywhere.
    ``c``/``d`` are emitted as int64 (exact while pair counts stay
    below 2^63, i.e. n ≲ 4·10⁹ — beyond that widen the output lanes).

    Pairwise deletion: a row is dropped when either value is null or a
    float NaN payload (NaN is excluded like null).

    → 1-row DataFrame(n, c, d, tau_b).
    """
    import pyarrow.compute as pc

    from data_linter_ray.exchange import exchange_map_groups, exchange_width

    P = exchange_width(ds)

    def pick(t: pa.Table) -> pa.Table:
        t = t.select([x_col, y_col]).drop_null()
        out = pa.table(
            {
                "x": t[x_col].cast(pa.float64()),
                "y": t[y_col].cast(pa.float64()),
            }
        )
        # pairwise deletion extends to float NaN payloads (non-null
        # NaN): excluded like nulls, EXPLICITLY — downstream pandas
        # groupby folds silently drop NaN keys and tie detection
        # splits NaN runs (NaN != NaN), so keeping NaN rows would be
        # an accidental, internally inconsistent semantics. Same
        # policy as gini / _two_group_value_parts.
        return out.filter(
            pc.invert(pc.or_(pc.is_nan(out["x"]), pc.is_nan(out["y"])))
        )

    rows = ds.select_columns([x_col, y_col]).map_batches(
        pick, batch_format="pyarrow"
    ).materialize()
    n = rows.count()
    if n < 2:
        return pd.DataFrame(
            {"n": [n], "c": [0], "d": [0], "tau_b": [np.nan]}
        )

    bx_bounds, by_bounds = range_bounds(rows, ["x", "y"], P)
    Q = len(by_bounds) + 1

    def part_x(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "x": t["x"],
                "y": t["y"],
                "by": pa.array(
                    np.searchsorted(by_bounds, y, side="left").astype(np.int64)
                ),
                "_part": pa.array(
                    np.searchsorted(bx_bounds, x, side="left").astype(np.int64)
                ),
            }
        )

    def reduce_x(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df["_part"].iloc[0])
        df = df.sort_values(["x", "y"], kind="mergesort")
        x = df["x"].to_numpy(np.float64)
        y = df["y"].to_numpy(np.float64)
        d_local = _strict_inversions(y)
        n1_part = _tie_pair_sums(x)
        # n3: runs of equal (x, y) — consecutive in the (x, y) sort
        both_new = np.empty(len(x), dtype=bool)
        both_new[0] = True
        both_new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        m = np.diff(np.append(np.flatnonzero(both_new), len(x)))
        mo = m.astype(object)
        n3_part = int((mo * (mo - 1) // 2).sum())
        mrow = np.bincount(
            df["by"].to_numpy(np.int64), minlength=Q
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "_bx": [bucket],
                "_d": [str(d_local)],
                "_n1": [str(n1_part)],
                "_n3": [str(n3_part)],
                "_m": [" ".join(str(int(v)) for v in mrow)],
            }
        )

    xres = exchange_map_groups(
        rows.map_batches(part_x, batch_format="pyarrow"),
        "_part",
        reduce_x,
        num_partitions=P,
    ).to_pandas()

    def part_y(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "y": t["y"],
                "bx": pa.array(
                    np.searchsorted(bx_bounds, x, side="left").astype(np.int64)
                ),
                "_part": pa.array(
                    np.searchsorted(by_bounds, y, side="left").astype(np.int64)
                ),
            }
        )

    def reduce_y(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["bx", "y"], kind="mergesort")
        y = df["y"].to_numpy(np.float64)
        d_cross = _strict_inversions(y)
        n2_part = _tie_pair_sums(np.sort(y, kind="mergesort"))
        return pd.DataFrame({"_d": [str(d_cross)], "_n2": [str(n2_part)]})

    yres = exchange_map_groups(
        rows.map_batches(part_y, batch_format="pyarrow"),
        "_part",
        reduce_y,
        num_partitions=P,
    ).to_pandas()

    # driver: the cross-bucket matrix term over M[bx, by] (Python ints).
    # BOUND: xres has ≤ P rows (one per non-empty x-bucket), each
    # carrying exactly Q counts — the driver fold holds ≤ P·Q ints
    # REGARDLESS of n (tests/test_analytics_ops.py guard test).
    M = [[0] * Q for _ in range(P)]
    for _, r in xres.iterrows():
        vals = [int(v) for v in r["_m"].split()]
        M[int(r["_bx"])] = vals
    d_matrix = 0
    # prefix over bx of the per-by counts: S[by] = Σ_{bx' < bx} M[bx'][by]
    S = [0] * Q
    for bx in range(P):
        # for each row in this bx, pairs with earlier bx and LARGER by
        # wait — discordant means x_a < x_b and y_a > y_b: a is the
        # EARLIER x-bucket with the LARGER y-bucket. For current (later)
        # bucket bx with y-bucket by, partners are earlier-bx rows with
        # by' > by: suffix sums of S beyond by.
        suffix = 0
        for by in range(Q - 1, -1, -1):
            d_matrix += M[bx][by] * suffix
            suffix += S[by]
        # fold this bucket into the prefix AFTER using it
        for by in range(Q):
            S[by] += M[bx][by]
    d = (
        sum(int(v) for v in xres["_d"])
        + sum(int(v) for v in yres["_d"])
        + d_matrix
    )
    n1 = sum(int(v) for v in xres["_n1"])
    n3 = sum(int(v) for v in xres["_n3"])
    n2 = sum(int(v) for v in yres["_n2"])
    n0 = n * (n - 1) // 2
    c = (n0 - n1 - n2 + n3) - d
    denom1, denom2 = n0 - n1, n0 - n2
    if denom1 == 0 or denom2 == 0:
        tau = np.nan
    else:
        import math

        tau = float(c - d) / (
            math.sqrt(float(denom1)) * math.sqrt(float(denom2))
        )
    return pd.DataFrame(
        {"n": [n], "c": [c], "d": [d], "tau_b": [tau]}
    )


def joint_histogram(
    ds: Dataset,
    x_col: str,
    y_col: str,
    *,
    n_bins_x: int = 8,
    n_bins_y: int = 8,
) -> pd.DataFrame:
    """Exact joint (2D) equi-depth histogram — the dependence heatmap
    behind "where does the mass sit?" profiling. Bin boundaries are
    each column's exact ``quantile_disc`` cut points over the
    PAIRWISE-DELETED rows (both columns non-null and not NaN — the
    same rows the counts run on, so the oracle reproduces the
    boundaries);
    membership is ``bin = #{boundaries ≤ v}`` (the PSI convention).
    Counts are exact int64; only non-empty cells are emitted (SQL
    GROUP BY parity).

    Scale shape: ONE fused exact-quantile scan family resolves both
    columns' boundaries (:func:`exact_quantiles_cols` — shared stats
    aggregate, shared refinement rounds, shared member collect; the
    engine pins its own pruned projection when refinement will
    re-scan); ONE counting pass with a vectorized searchsorted × 2 +
    flat bincount partial (n_bins_x·n_bins_y int lanes per batch),
    driver fold. No shuffle.

    → DataFrame(bin_x, bin_y, n), sorted by (bin_x, bin_y).
    """
    import pyarrow.compute as pc

    from data_linter_ray.functions.quantiles import exact_quantiles_cols

    def pick(t: pa.Table) -> pa.Table:
        t = t.select([x_col, y_col]).drop_null()
        out = pa.table(
            {
                "x": t[x_col].cast(pa.float64()),
                "y": t[y_col].cast(pa.float64()),
            }
        )
        # pairwise deletion extends to float NaN payloads (non-null
        # NaN): excluded like nulls, EXPLICITLY — downstream pandas
        # groupby folds silently drop NaN keys and tie detection
        # splits NaN runs (NaN != NaN), so keeping NaN rows would be
        # an accidental, internally inconsistent semantics. Same
        # policy as gini / _two_group_value_parts.
        return out.filter(
            pc.invert(pc.or_(pc.is_nan(out["x"]), pc.is_nan(out["y"])))
        )

    rows = ds.select_columns([x_col, y_col]).map_batches(
        pick, batch_format="pyarrow"
    )

    bounds = exact_quantiles_cols(
        rows,
        {
            "x": [i / n_bins_x for i in range(1, n_bins_x)],
            "y": [i / n_bins_y for i in range(1, n_bins_y)],
        },
    )
    bx = np.sort(bounds["x"]["value"].to_numpy(np.float64))
    by = np.sort(bounds["y"]["value"].to_numpy(np.float64))

    def partial(t: pa.Table) -> np.ndarray:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        ix = np.searchsorted(bx, x, side="right")
        iy = np.searchsorted(by, y, side="right")
        return np.bincount(
            ix * n_bins_y + iy, minlength=n_bins_x * n_bins_y
        ).reshape(n_bins_x, n_bins_y)

    grid = fold_batches(
        rows, partial, np.add, np.zeros((n_bins_x, n_bins_y), np.int64)
    )
    nz = np.argwhere(grid > 0)
    return pd.DataFrame(
        {
            "bin_x": nz[:, 0].astype(np.int64),
            "bin_y": nz[:, 1].astype(np.int64),
            "n": grid[nz[:, 0], nz[:, 1]].astype(np.int64),
        }
    ).sort_values(["bin_x", "bin_y"]).reset_index(drop=True)


def ks_per_group(
    ds: Dataset,
    value_col: str,
    group_col: str,
    *,
    max_groups: int = 64,
) -> pd.DataFrame:
    """Per-group drift table: for EVERY group, the exact KS sup
    distance between the group's value distribution and the POOLED
    (all-groups) distribution — "which source / segment / shard
    drifted from the corpus?" in one operator, the per-group sibling
    of :func:`ks_two_sample`.

    Exact and bit-exact (the KS argument): per distinct value both
    sides evaluate ``|c_g/n_g − C/N|`` from the same integers; sups
    are selections. Groups are discovered first and must number
    ≤ ``max_groups`` (each bucket's reduce builds a values×groups
    cumulative matrix — a deliberate bound, raised loudly, because an
    unbounded group domain belongs in :func:`ks_two_sample` one pair
    at a time).

    Scale shape: one t-digest pass for value-range boundaries, a
    (value, group, n) count combiner, per-(bucket, group) totals →
    driver prefix offsets (P·G ints), one range exchange emitting G
    local sups per bucket.

    Null values and float NaN payloads are excluded (NaN like null),
    as are rows whose group is null.

    → DataFrame(group, n, ks), sorted by group.
    """
    import pyarrow.compute as pc

    from data_linter_ray.exchange import exchange_map_groups, exchange_width

    P = exchange_width(ds)

    def pick(t: pa.Table) -> pa.Table:
        t = t.select([value_col, group_col]).drop_null()
        out = pa.table(
            {
                "v": t[value_col].cast(pa.float64()),
                "g": t[group_col],
            }
        )
        # float NaN payloads excluded like nulls, explicitly (the
        # groupby combiner would silently drop NaN keys anyway while
        # the digest counted them — see _two_group_value_parts)
        return out.filter(pc.invert(pc.is_nan(out["v"])))

    rows = ds.select_columns([value_col, group_col]).map_batches(
        pick, batch_format="pyarrow"
    ).materialize()

    groups = sorted(
        r["g"] for r in rows.groupby("g").count().take_all()
    )
    if len(groups) > max_groups:
        raise ValueError(
            f"{len(groups)} groups exceed max_groups={max_groups}; "
            "use ks_two_sample per pair for unbounded group domains"
        )
    G = len(groups)
    gidx = {g: i for i, g in enumerate(groups)}
    if G == 0:
        return pd.DataFrame(columns=[group_col, "n", "ks"])

    (bounds,) = range_bounds(rows, ["v"], P)

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["gi"] = df["g"].map(gidx).astype(np.int64)
        agg = df.groupby(["v", "gi"], as_index=False, sort=False).size()
        agg.columns = ["v", "gi", "n"]
        agg["_part"] = np.searchsorted(
            bounds, agg["v"].to_numpy(), side="left"
        ).astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = rows.map_batches(partial, batch_format="pyarrow").materialize()

    def tot_partial(t: pa.Table) -> np.ndarray:
        out = np.zeros((P, G), np.int64)
        np.add.at(
            out,
            (
                t["_part"].to_numpy(zero_copy_only=False),
                t["gi"].to_numpy(zero_copy_only=False),
            ),
            t["n"].to_numpy(zero_copy_only=False),
        )
        return out

    tot = fold_batches(parts, tot_partial, np.add, np.zeros((P, G), np.int64))
    n_g = tot.sum(axis=0)
    N = int(n_g.sum())
    offs = np.zeros((P, G), np.int64)
    offs[1:] = np.cumsum(tot, axis=0)[:-1]

    def sup(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df["_part"].iloc[0])
        mat = (
            df.groupby(["v", "gi"])["n"].sum().unstack(fill_value=0)
            .reindex(columns=range(G), fill_value=0)
            .sort_index()
        )
        cum = mat.to_numpy(np.int64).cumsum(axis=0) + offs[bucket]
        C = cum.sum(axis=1, keepdims=True)  # pooled cumulative
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.abs(
                cum / n_g.astype(np.float64) - C / np.float64(N)
            )
        local = d.max(axis=0) if len(d) else np.zeros(G)
        return pd.DataFrame(
            {"gi": np.arange(G, dtype=np.int64), "_sup": local}
        )

    sups = exchange_map_groups(parts, "_part", sup, num_partitions=P).to_pandas()
    best = sups.groupby("gi")["_sup"].max()
    return pd.DataFrame(
        {
            group_col: groups,
            "n": n_g,
            "ks": [float(best.get(i, 0.0)) for i in range(G)],
        }
    )


def cooccurrence_lift(
    ds: Dataset,
    basket_col: str,
    item_col: str,
) -> pd.DataFrame:
    """Market-basket co-occurrence with LIFT — "which items appear in
    the same basket more often than independence predicts?" (event
    types per user, tags per document, tools per session). A pair's
    lift is ``(n_ab·n_baskets)/(n_a·n_b)`` over DISTINCT
    (basket, item) presence.

    All counts are exact integers; lift is one exact-int→double
    expression — identical doubles both sides, no rounding.

    Scale shape: per-batch DISTINCT (basket, item) combiner → one
    basket-hash :func:`~data_linter_ray.exchange.exchange_map_groups`
    exchange (all of a basket's items co-locate, partitions hold
    DISJOINT basket sets) → per-partition globally-exact dedupe,
    vectorized per-basket pair generation (self-merge bounded by the
    item domain per basket, never the basket count) → item²-sized
    partials: (item, None, n) singles, (a, b, n) pairs, and one
    (None, None, basket_count) row per partition, folded on the
    driver. Null baskets / items are excluded.

    → DataFrame(item_a, item_b, n_ab, n_a, n_b, n_baskets, lift) for
    every co-occurring unordered pair (item_a < item_b), sorted.
    Items must be STRINGS (the partial's pinned exchange schema —
    cast other types upstream).
    """
    from data_linter_ray.exchange import exchange_map_groups

    def pair_partial(t: pa.Table) -> pa.Table:
        t = t.select([basket_col, item_col]).drop_null()
        return t.group_by([basket_col, item_col]).aggregate([])

    def reduce_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([basket_col, item_col]).sort_values(
            [basket_col, item_col], kind="mergesort"
        )
        singles = (
            d.groupby(item_col, as_index=False, sort=False)
            .size().rename(columns={"size": "n"})
        )
        merged = d.merge(d, on=basket_col, suffixes=("_a", "_b"))
        merged = merged[merged[f"{item_col}_a"] < merged[f"{item_col}_b"]]
        pairs = (
            merged.groupby(
                [f"{item_col}_a", f"{item_col}_b"], as_index=False, sort=False
            ).size().rename(columns={"size": "n"})
        )
        a = pd.concat(
            [singles[item_col], pairs[f"{item_col}_a"],
             pd.Series([None])],
            ignore_index=True,
        )
        b = pd.concat(
            [pd.Series([None] * len(singles)), pairs[f"{item_col}_b"],
             pd.Series([None])],
            ignore_index=True,
        )
        n = pd.concat(
            [singles["n"], pairs["n"],
             pd.Series([d[basket_col].nunique()])],
            ignore_index=True,
        ).astype(np.int64)
        return pa.Table.from_pandas(
            pd.DataFrame(
                {"a": a.astype(object), "b": b.astype(object), "n": n}
            ),
            preserve_index=False,
        ).cast(
            pa.schema(
                [("a", pa.string()), ("b", pa.string()), ("n", pa.int64())]
            )
        )

    parts = exchange_map_groups(
        ds.select_columns([basket_col, item_col]).map_batches(
            pair_partial, batch_format="pyarrow"
        ),
        basket_col,
        reduce_pairs,
    ).to_pandas()
    if "a" not in parts.columns:
        return pd.DataFrame(
            columns=[
                "item_a", "item_b", "n_ab", "n_a", "n_b", "n_baskets", "lift",
            ]
        )
    n_baskets = int(parts[parts["a"].isna()]["n"].sum())
    singles = (
        parts[parts["a"].notna() & parts["b"].isna()]
        .groupby("a")["n"].sum()
    )
    pairs = (
        parts[parts["b"].notna()]
        .groupby(["a", "b"], as_index=False)["n"].sum()
    )
    n_a = pairs["a"].map(singles).to_numpy(np.int64)
    n_b = pairs["b"].map(singles).to_numpy(np.int64)
    n_ab = pairs["n"].to_numpy(np.int64)
    lift = (n_ab.astype(np.float64) * np.float64(n_baskets)) / (
        n_a.astype(np.float64) * n_b
    )
    return pd.DataFrame(
        {
            "item_a": pairs["a"],
            "item_b": pairs["b"],
            "n_ab": n_ab,
            "n_a": n_a,
            "n_b": n_b,
            "n_baskets": np.int64(n_baskets),
            "lift": lift,
        }
    ).sort_values(["item_a", "item_b"]).reset_index(drop=True)
