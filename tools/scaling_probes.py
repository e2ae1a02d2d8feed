"""Null-job isolation probes for the scaling campaigns.

When the pre-registered `bench.py --scaling` campaign lands below the
0.8 efficiency bar, these two probes attribute the shortfall: they run
the SAME 2->8-cpu interleaved fresh-process protocol on jobs that share
either no disk (compute-only) or no repo code (scan+decode) with the
headline pipeline. If both null jobs show the same ceiling, the
shortfall is box-structural (shared memory system past ~2 busy cores),
not a pipeline stage.

  python tools/scaling_probes.py compute   # in-memory synth -> validate
  python tools/scaling_probes.py scan      # bare read_parquet -> pyarrow
                                           # decode -> sum, ZERO repo code
  python tools/scaling_probes.py --child compute 8 16000000   # internal

Protocol (identical to bench.py scaling_run): per rep, one fresh
subprocess at the low level then one at the high level; efficiency =
(hi/lo throughput) / (hi/lo cpus); report the per-rep ratios and the
plain median. Used for the BASELINE.md round-4/5 attribution ledgers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

# direct execution puts tools/ (not the repo root) on sys.path[0]
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

PAIR = tuple(int(x) for x in os.environ.get("GRAFT_SCALING_PAIR", "2,8").split(","))
REPS = int(os.environ.get("GRAFT_PROBE_REPS", "3"))
COMPUTE_DOCS = int(os.environ.get("GRAFT_PROBE_COMPUTE_DOCS", "16000000"))
SCAN_DOCS = int(os.environ.get("GRAFT_PROBE_SCAN_DOCS", "64000000"))


def _child_compute(cpus: int, n_docs: int) -> None:
    """In-memory synth -> full north-rule validate. No parquet, no disk
    in the timed loop: isolates pipeline compute from the I/O path."""
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False)
    import pyarrow as pa

    from data_linter_ray import synth
    from data_linter_ray.pipelines import validate_dataset

    catalog = pa.array(
        [synth.media_ref_for(i) for i in range(synth.MEDIA_CATALOG_SIZE)]
    )
    blocks = max(4, n_docs // 50_000)
    t0 = time.monotonic()
    res = validate_dataset(
        synth.documents_dataset(n_docs, override_num_blocks=blocks),
        synth.documents_schema(),
        id_column="doc_id",
        ref_tables={"media_catalog.media_ref": catalog},
    )
    dt = time.monotonic() - t0
    print(json.dumps({"docs_per_sec": n_docs / dt, "seconds": dt,
                      "n_violations": res.n_violations}))
    ray.shutdown()


def _child_scan(cpus: int, n_docs: int) -> None:
    """ZERO repo code: bare ray.data.read_parquet of the campaign input
    -> forced pyarrow column decode -> sum. Bare count() is
    metadata-only (~2s flat at both levels), so the decode-forcing
    variant is the meaningful scan probe."""
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False)
    import pyarrow as pa
    import pyarrow.compute as pc

    path = f"/tmp/dlr_bench/interleaved_{n_docs}"
    if not os.path.exists(os.path.join(path, "_DONE")):
        raise SystemExit(f"campaign input missing: {path} (run bench --scaling first)")

    def decode(t: pa.Table) -> pa.Table:
        n = pc.sum(pc.utf8_length(t["doc_id"])).as_py() or 0
        for name in t.column_names:
            col = t[name]
            if pa.types.is_list(col.type):
                n += pc.sum(pc.list_value_length(col)).as_py() or 0
        return pa.table({"n": pa.array([n], pa.int64())})

    t0 = time.monotonic()
    total = (
        ray.data.read_parquet(path)
        .map_batches(decode, batch_format="pyarrow")
        .sum("n")
    )
    dt = time.monotonic() - t0
    print(json.dumps({"docs_per_sec": n_docs / dt, "seconds": dt, "checksum": total}))
    ray.shutdown()


PROBES = {"compute": _child_compute, "scan": _child_scan}
USAGE = "usage: scaling_probes.py {compute,scan} | --child {compute,scan} CPUS N_DOCS"


def _run_once(kind: str, cpus: int, n_docs: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", kind,
         str(cpus), str(n_docs)],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["docs_per_sec"]


def main() -> None:
    child = len(sys.argv) >= 2 and sys.argv[1] == "--child"
    args = sys.argv[2:] if child else sys.argv[1:]
    kind = args[0] if args else "compute"
    if kind not in PROBES or (child and len(args) != 3):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    if child:
        PROBES[kind](int(args[1]), int(args[2]))
        return
    n_docs = COMPUTE_DOCS if kind == "compute" else SCAN_DOCS
    lo, hi = PAIR
    if kind == "compute":
        # warm the synth code path once so rep 1 isn't import-cold
        _run_once(kind, lo, max(100_000, n_docs // 100))
    ratios, runs = [], {lo: [], hi: []}
    for _ in range(REPS):
        r_lo = _run_once(kind, lo, n_docs)
        r_hi = _run_once(kind, hi, n_docs)
        runs[lo].append(round(r_lo, 1))
        runs[hi].append(round(r_hi, 1))
        ratios.append(round((r_hi / r_lo) / (hi / lo), 3))
    s = sorted(ratios)
    med = s[len(s) // 2] if len(s) % 2 else round((s[len(s) // 2 - 1] + s[len(s) // 2]) / 2, 3)
    print(json.dumps({
        "probe": kind, "pair": f"{lo},{hi}", "n_docs": n_docs,
        "ratios": ratios, "median": med,
        f"runs_{lo}cpu": runs[lo], f"runs_{hi}cpu": runs[hi],
    }))


if __name__ == "__main__":
    main()
