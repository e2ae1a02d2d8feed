"""Distribution-drift checks via streaming sketches (north-rule stage).

Pipeline shape (SURVEY.md §2.3, §7 step 7):

    ds ──► map_batches(SketchPartials)       # one task per block
              emits ONE partial-sketch row per (batch, column)
       ──► fold_partials on the driver        # fold KB-sized partials
       ──► per-column merged sketch ──► drift_results vs baseline

``validate_dataset`` runs no execution of its own for drift: its fused
pass calls the same :class:`SketchPartials` per batch (see
:func:`baseline_partials`) and emits the partials as rows of its
internal stream, its fold merges them (:func:`fold_partials`), and
:func:`drift_results` turns them into verdicts. :func:`drift_check` is
the standalone form: :func:`compute_sketches` + :func:`drift_results`.

The callable holds the compiled column plan; per-batch partials are
*emitted as data*, never accumulated in worker state, so Ray task
retries cannot double-count (SURVEY.md §7.4). t-digest, KLL and HLL
are mergeable summaries, so combining the partials is a plain fold —
a few KB per batch, negligible next to the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.state.sketches import KLL, HyperLogLog, TDigest, hash_array

SKETCH_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("kind", pa.string()),  # "tdigest" | "kll" | "hll"
        ("payload", pa.binary()),
    ]
)

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


class SketchPartials:
    """map_batches callable: per batch, one t-digest partial per numeric
    column and one HLL partial per key column."""

    def __init__(
        self,
        numeric_cols: list[str],
        key_cols: list[str],
        quantile_sketch: str = "tdigest",
    ):
        self.numeric_cols = numeric_cols
        self.key_cols = key_cols
        if quantile_sketch not in ("tdigest", "kll"):
            raise ValueError(f"unknown quantile sketch: {quantile_sketch}")
        self.quantile_sketch = quantile_sketch

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols, kinds, payloads = [], [], []
        for c in self.numeric_cols:
            arr = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            sk = KLL() if self.quantile_sketch == "kll" else TDigest()
            sk.add(arr)
            cols.append(c)
            kinds.append(self.quantile_sketch)
            payloads.append(sk.to_bytes())
        for c in self.key_cols:
            hll = HyperLogLog()
            hll.add_hashes(hash_array(batch[c]))
            cols.append(c)
            kinds.append("hll")
            payloads.append(hll.to_bytes())
        return pa.Table.from_arrays(
            [
                pa.array(cols, pa.string()),
                pa.array(kinds, pa.string()),
                pa.array(payloads, pa.binary()),
            ],
            schema=SKETCH_SCHEMA,
        )


_SKETCH_CLASSES = {"tdigest": TDigest, "kll": KLL, "hll": HyperLogLog}


def baseline_partials(baselines: dict[str, dict]) -> SketchPartials:
    """The per-batch builder of the sketches ``baselines`` is compared
    against: a quantile sketch for every column with a t-digest or KLL
    baseline, an HLL for every column with an HLL one. One quantile
    sketch per job: KLL if any baseline is KLL, else t-digest."""
    wants_kll = any("kll" in v for v in baselines.values())
    return SketchPartials(
        [c for c, v in baselines.items() if "tdigest" in v or "kll" in v],
        [c for c, v in baselines.items() if "hll" in v],
        quantile_sketch="kll" if wants_kll else "tdigest",
    )


def fold_partials(rows, out: dict[str, dict] | None = None) -> dict[str, dict]:
    """Merge ``(column, kind, payload)`` partial rows, in order, into
    ``out``: {column: {kind: sketch}}."""
    out = {} if out is None else out
    for col, kind, raw in rows:
        sk = _SKETCH_CLASSES[kind].from_bytes(raw)
        entry = out.setdefault(col, {})
        if kind in entry:
            entry[kind].merge(sk)
        else:
            entry[kind] = sk
    return out


def compute_sketches(
    ds: Dataset,
    numeric_cols: list[str],
    key_cols: list[str] | None = None,
    *,
    quantile_sketch: str = "tdigest",
) -> dict[str, dict]:
    """Run the sketch stage; returns {column: {"tdigest": TDigest}} /
    {"kll": KLL} / {"hll": HyperLogLog} merged results (KB-sized — safe
    on the driver). ``quantile_sketch`` selects t-digest or KLL for the
    numeric columns (both named by the north star)."""
    key_cols = key_cols or []
    needed = sorted(set(numeric_cols) | set(key_cols))
    partials = ds.select_columns(needed).map_batches(
        SketchPartials(numeric_cols, key_cols, quantile_sketch=quantile_sketch),
        batch_format="pyarrow",
    )
    # one partial row per (batch, column): fold them as they stream in
    out: dict[str, dict] = {}
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        fold_partials(
            zip(*(b[k].to_pylist() for k in ("column", "kind", "payload"))), out
        )
    return out


def save_baselines(sketches: dict[str, dict], path: str) -> str:
    """Persist merged sketches (the drift baseline) to one JSON file
    (payloads base64) — KB-sized, safe anywhere (local or s3://)."""
    import base64
    import json

    from data_linter_ray import fs

    out = {
        col: {
            kind: base64.b64encode(sk.to_bytes()).decode()
            for kind, sk in entry.items()
            if kind in _SKETCH_CLASSES
        }
        for col, entry in sketches.items()
    }
    fs.write_text(path, json.dumps(out))
    return path


def load_baselines(path: str) -> dict[str, dict]:
    import base64
    import json

    from data_linter_ray import fs

    raw = json.loads(fs.read_text(path))
    return {
        col: {
            kind: _SKETCH_CLASSES[kind].from_bytes(base64.b64decode(b64))
            for kind, b64 in e.items()
            if kind in _SKETCH_CLASSES
        }
        for col, e in raw.items()
    }


@dataclass
class DriftResult:
    column: str
    metric: str
    distance: float
    threshold: float

    @property
    def valid(self) -> bool:
        return self.distance <= self.threshold


def quantile_drift(
    current,
    baseline,
    quantiles=DEFAULT_QUANTILES,
) -> float:  # works on any sketch exposing quantile()/quantiles() (t-digest, KLL)
    """Normalized max quantile shift: max_q |Q_cur(q) − Q_base(q)| / IQR_base.

    Caveat: on small heavy-tailed columns the 1%/99% quantiles of a
    randomized KLL sketch carry sampling noise — prefer t-digest (whose
    centroids concentrate at the tails by design) for tail-sensitive
    drift, or restrict ``quantiles`` to the dense central range."""
    qc = current.quantiles(quantiles)
    qb = baseline.quantiles(quantiles)
    iqr = baseline.quantile(0.75) - baseline.quantile(0.25)
    scale = iqr if iqr > 0 else (abs(baseline.quantile(0.5)) or 1.0)
    return float(np.max(np.abs(qc - qb)) / scale)


def cardinality_drift(current: HyperLogLog, baseline: HyperLogLog) -> float:
    """Relative distinct-count change."""
    b = baseline.estimate() or 1.0
    return abs(current.estimate() - b) / b


def drift_results(
    current: dict[str, dict],
    baselines: dict[str, dict],
    thresholds: dict[str, float],
) -> list[DriftResult]:
    """The drift verdicts of merged sketches ``current`` against
    ``baselines``, column by column at that column's threshold: one
    ``quantile_shift`` per quantile sketch both sides hold, one
    ``cardinality_shift`` when both hold an HLL. A column the data gave
    no sketch for (no batch reached the sketcher) gets no verdict."""
    results: list[DriftResult] = []
    for col, base in baselines.items():
        cur = current.get(col, {})
        for qkind in ("tdigest", "kll"):
            if qkind in base and qkind in cur:
                results.append(
                    DriftResult(
                        col,
                        "quantile_shift",
                        quantile_drift(cur[qkind], base[qkind]),
                        thresholds[col],
                    )
                )
        if "hll" in base and "hll" in cur:
            results.append(
                DriftResult(
                    col,
                    "cardinality_shift",
                    cardinality_drift(cur["hll"], base["hll"]),
                    thresholds[col],
                )
            )
    return results


def drift_check(
    ds: Dataset,
    baselines: dict[str, dict],
    *,
    threshold: float = 0.1,
) -> list[DriftResult]:
    """Compare the dataset's sketches to stored baseline sketches, over
    every column the baselines name, in a Ray Data execution of its own
    (``validate_dataset`` folds the same sketches into its one pass)."""
    sp = baseline_partials(baselines)
    current = compute_sketches(
        ds, sp.numeric_cols, sp.key_cols, quantile_sketch=sp.quantile_sketch
    )
    return drift_results(current, baselines, dict.fromkeys(baselines, threshold))
