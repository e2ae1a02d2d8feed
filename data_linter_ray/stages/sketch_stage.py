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
retries cannot double-count (SURVEY.md §7.4). t-digest (the one
quantile sketch) and HLL are mergeable summaries, so combining the
partials is a plain fold — a few KB per batch, negligible next to the
scan. Both sketches have one size, their constructor default; a saved
baseline of any other kind is rejected on load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from data_linter_ray.state.sketches import HyperLogLog, TDigest, hash_array

SKETCH_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("kind", pa.string()),  # "tdigest" | "hll"
        ("payload", pa.binary()),
    ]
)

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


class SketchPartials:
    """map_batches callable: per batch, one t-digest partial per numeric
    column and one HLL partial per key column. A null key is not a
    distinct key, as in SQL ``COUNT(DISTINCT)`` and the profile's HLL."""

    def __init__(self, numeric_cols: list[str], key_cols: list[str]):
        self.numeric_cols = numeric_cols
        self.key_cols = key_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols, kinds, payloads = [], [], []
        for c in self.numeric_cols:
            arr = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            td = TDigest()
            td.add(arr)
            cols.append(c)
            kinds.append("tdigest")
            payloads.append(td.to_bytes())
        for c in self.key_cols:
            hll = HyperLogLog()
            hll.add_hashes(hash_array(batch[c].drop_null()))
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


_SKETCH_CLASSES = {"tdigest": TDigest, "hll": HyperLogLog}


def baseline_partials(baselines: dict[str, dict]) -> SketchPartials:
    """The per-batch builder of the sketches ``baselines`` is compared
    against: a t-digest for every column with a t-digest baseline, an
    HLL for every column with an HLL one."""
    return SketchPartials(
        [c for c, v in baselines.items() if "tdigest" in v],
        [c for c, v in baselines.items() if "hll" in v],
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
) -> dict[str, dict]:
    """Run the sketch stage; returns {column: {"tdigest": TDigest}} /
    {"hll": HyperLogLog} merged results (KB-sized — safe on the
    driver)."""
    key_cols = key_cols or []
    needed = sorted(set(numeric_cols) | set(key_cols))
    partials = ds.select_columns(needed).map_batches(
        SketchPartials(numeric_cols, key_cols),
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
        col: {kind: base64.b64encode(sk.to_bytes()).decode() for kind, sk in entry.items()}
        for col, entry in sketches.items()
    }
    fs.write_text(path, json.dumps(out))
    return path


def load_baselines(path: str) -> dict[str, dict]:
    """Read a :func:`save_baselines` file. A sketch kind other than
    t-digest or HLL raises ``ValueError``: skipping it would silently
    drop that column's drift verdict."""
    import base64
    import json

    from data_linter_ray import fs

    raw = json.loads(fs.read_text(path))
    for col, e in raw.items():
        for kind in e:
            if kind not in _SKETCH_CLASSES:
                raise ValueError(
                    f"{path}: column {col!r} has a {kind!r} baseline, but "
                    "baselines hold only 'tdigest' and 'hll' sketches (the "
                    "'kll' quantile sketch is retired); rebuild the baseline "
                    "with compute_sketches and save_baselines"
                )
    return {
        col: {
            kind: _SKETCH_CLASSES[kind].from_bytes(base64.b64decode(b64))
            for kind, b64 in e.items()
        }
        for col, e in raw.items()
    }


@dataclass
class DriftResult:
    column: str
    metric: str
    distance: float | None  # None: no distance exists (an empty t-digest)
    threshold: float

    @property
    def valid(self) -> bool:
        return self.distance is not None and self.distance <= self.threshold


def quantile_drift(
    current: TDigest,
    baseline: TDigest,
    quantiles=DEFAULT_QUANTILES,
) -> float | None:
    """Normalized max quantile shift: max_q |Q_cur(q) − Q_base(q)| / IQR_base,
    or None when either t-digest holds no value (an all-null or all-NaN
    column), so the distance stays a JSON value and the verdict fails."""
    if not (current.count and baseline.count):
        return None
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
    ``quantile_shift`` when both hold a t-digest, one
    ``cardinality_shift`` when both hold an HLL. A column the data gave
    no sketch for (no batch reached the sketcher) gets no verdict."""
    results: list[DriftResult] = []
    for col, base in baselines.items():
        cur = current.get(col, {})
        if "tdigest" in base and "tdigest" in cur:
            results.append(
                DriftResult(
                    col,
                    "quantile_shift",
                    quantile_drift(cur["tdigest"], base["tdigest"]),
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
    current = compute_sketches(ds, sp.numeric_cols, sp.key_cols)
    return drift_results(current, baselines, dict.fromkeys(baselines, threshold))
