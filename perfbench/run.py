"""Layered validation benchmark for data_linter_ray.

    python3 perfbench/run.py --workload interleaved_docs --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload is a closed loop with one
client: a job starts when the previous one has finished, on Ray local
with ``num_cpus`` as ``nproc`` counts CPUs. Set-up generates the input
from ``--seed`` into ``.bench_work/``, computes the DuckDB oracle and
runs one warm-up job; every job's output is checked against the oracle,
and a job that raises or disagrees counts as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
``setup_s`` (Ray start + median of SETUP_REPS generate-and-oracle runs +
the warm-up job), ``job_cpu_s_p50`` (median time of one job),
``rows_per_cpu_s`` (input rows of one job over that median) and
``driver_rss_mb`` (after ``gc.collect()`` at the end). These times are
CPU seconds summed over the driver and every Ray process, not wall
seconds: on a shared host wall time follows the CPU time the hypervisor
gives to other guests (the ``host steal_share`` line), and spread
between runs about twice as much. Wall times of set-up, of jobs and of
land_run's (table, file) units, from its run manifests, are printed on
``setup`` and ``tail`` lines.
``--trace 1`` prints its per-layer metrics: half the time runs untraced
jobs, half runs jobs under the layer tracer (tracer.py), and the
difference of their medians is the tracing overhead; then the kernel
and scan microbenches run. Spans are written to ``.bench_work/``.

Every metric is printed on its own short line; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"
SETUP_REPS = 3  # input generation + oracle runs; setup_s takes their median


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def _procs() -> dict[int, tuple[int, str, int]]:
    """pid -> (parent pid, state, CPU ticks of the process and of the
    children it has reaped) for every process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        out[int(d)] = (int(fields[1]), fields[0], sum(int(x) for x in fields[11:15]))
    return out


def _descendants(procs=None, zombies: bool = False) -> set[int]:
    """Descendant pids of this process, zombies only if asked."""
    children: dict[int, list[int]] = {}
    for pid, (ppid, state, _) in (_procs() if procs is None else procs).items():
        if zombies or state != "Z":
            children.setdefault(ppid, []).append(pid)
    out, todo = set(), [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            out.add(c)
            todo.append(c)
    return out


def _tree_cpu_s() -> float:
    """CPU seconds used so far by this process and all its descendants,
    the Ray workers included. A zombie's time is not yet in its parent's,
    so zombies count too."""
    procs = _procs()
    pids = _descendants(procs, zombies=True) | {os.getpid()}
    return sum(procs[p][2] for p in pids if p in procs) / os.sysconf("SC_CLK_TCK")


def _become_subreaper() -> None:
    """Adopt every orphaned descendant. Ray's workers are children of the
    raylet; when ``ray.shutdown()`` ends the raylet first, they would
    otherwise be reparented to init, drop out of ``_descendants()`` and
    could outlive this process."""
    import ctypes

    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _reap() -> None:
    """Collect every ended child, adopted ones included."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass


def _stop_all() -> None:
    """Shut Ray down if it runs, then wait until every process this one
    started, directly or not, has ended and been reaped."""
    if "ray" in sys.modules:
        import ray

        with contextlib.suppress(Exception):
            ray.shutdown()
    deadline = time.monotonic() + 30
    while True:
        _reap()
        left = _descendants()
        if not left:
            _reap()  # orphans that ended since the last pass
            return
        if time.monotonic() >= deadline:
            for pid in left:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.1)


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS / OMP_THREAD_LIMIT
    when set, else the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    with contextlib.suppress(ValueError):
        n = int(os.environ.get("OMP_NUM_THREADS", "").split(",")[0])
    with contextlib.suppress(ValueError):
        n = min(n, int(os.environ.get("OMP_THREAD_LIMIT", "")))
    return max(1, n)


def _start_ray(nproc: int) -> None:
    import ray

    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)  # earlier runs' logs
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local",
        num_cpus=nproc,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=600 * 1024 * 1024,
        # Ray's AF_UNIX sockets live under the temp dir and must stay
        # below 108 bytes; /proc/self/cwd keeps the path short whatever
        # the checkout's location (every Ray process shares this cwd)
        _temp_dir=f"/proc/self/cwd/{WORK}/ray",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _tail(values: list[float]) -> str:
    """Median and the highest of p99/p95/p90/p75 with >= 10 samples
    beyond it, with the sample count."""
    n = len(values)
    out = f"n={n} p50={statistics.median(values):.6g}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return out + f" p{p}={q:.6g}"
    return out + " (no tail percentile has 10 samples beyond it)"


class Loop:
    """Closed loop of jobs for a fixed time, checking each output."""

    def __init__(self, wl, want: dict):
        self.wl, self.want = wl, want
        self.attempted = self.failed = 0

    def job(self, tracer=None, job_id: int = 0) -> tuple[float, float, list[float]]:
        """One checked job -> (seconds, CPU seconds, unit seconds). The
        result is not returned, so its blocks are freed before the next
        job starts."""
        if hasattr(self.wl, "restore"):
            self.wl.restore()
        self.attempted += 1
        # the previous job's garbage is collected here, outside the timed
        # region; left to the collector it lands in whichever later job
        # crosses the threshold (single jobs up to 30% slower when it did)
        gc.collect()
        cpu0 = _tree_cpu_s()
        t0 = time.perf_counter()
        try:
            with tracer.job(job_id) if tracer else contextlib.nullcontext():
                res = self.wl.job()
            dt = time.perf_counter() - t0
            cpu = _tree_cpu_s() - cpu0
            errs = self.wl.check(res, self.want)
            units = self.wl.units(res) or [dt]
        except Exception as e:  # noqa: BLE001 - a raising job is a failed job
            dt, errs = time.perf_counter() - t0, [repr(e)[:160]]
            cpu, units = _tree_cpu_s() - cpu0, [dt]
        print(f"job {self.attempted - 1} {dt:.4f} s cpu {cpu:.2f} s", flush=True)
        if errs:
            self.failed += 1
            for e in errs[:20]:
                print(f"mismatch {e}", flush=True)
        return dt, cpu, units

    def run(self, seconds: float, tracer=None):
        """Jobs until the next one would end past ``seconds`` (at least
        three) -> (job seconds, job CPU seconds, unit seconds)."""
        jobs, cpus, units = [], [], []
        stop = time.monotonic() + seconds
        while len(jobs) < 3 or time.monotonic() + statistics.median(jobs) <= stop:
            dt, cpu, job_units = self.job(tracer, len(jobs))
            jobs.append(dt)
            cpus.append(cpu)
            units += job_units
        return jobs, cpus, units


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the benchmark's own test uses a tiny one)")
    args = ap.parse_args(argv)

    # The benchmark runs in a forked child; this process only waits for it
    # and then ends whatever is left. A fatal check in Ray's C++ core ends
    # the child without running any ``finally``, and its Ray processes
    # are then adopted and stopped here.
    _become_subreaper()
    signal.signal(signal.SIGTERM, _raise_exit)
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _become_subreaper()
            code = _bench(args, ap)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except BaseException:  # noqa: BLE001 - report, then exit non-zero
            traceback.print_exc()
        finally:
            with contextlib.suppress(BaseException):
                _stop_all()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    status = None
    try:
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        _stop_all()
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


def _bench(args, ap) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    import data_linter_ray  # noqa: F401 - fail fast outside a full checkout
    import duckdb
    import pyarrow
    import ray

    from kernels import kernel_metrics, scan_metrics
    from tracer import Tracer, layer_metrics, self_time_by_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    nproc = _nproc()
    print(f"env cpu_count={os.cpu_count()} nproc={nproc} ray={ray.__version__} "
          f"pyarrow={pyarrow.__version__} duckdb={duckdb.__version__}", flush=True)
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[args.workload](os.path.abspath(work), args.seed, args.scale)
    # set-up time is CPU seconds, like job time (see the module docstring)
    t0, cpu0 = time.perf_counter(), _tree_cpu_s()
    try:
        _start_ray(nproc)
        ray_init_s, ray_init_cpu = time.perf_counter() - t0, _tree_cpu_s() - cpu0
        prep, prep_cpu = [], []
        for _ in range(SETUP_REPS):
            t0, cpu0 = time.perf_counter(), _tree_cpu_s()
            wl.generate()
            want = wl.oracle()
            prep.append(time.perf_counter() - t0)
            prep_cpu.append(_tree_cpu_s() - cpu0)
        loop = Loop(wl, want)
        warm_s, warm_cpu, _ = loop.job()
        setup_s = ray_init_cpu + statistics.median(prep_cpu) + warm_cpu
        print(f"setup ray_init_s={ray_init_s:.4f} generate_oracle_s={statistics.median(prep):.4f} "
              f"warmup_s={warm_s:.4f} (wall)", flush=True)
        print(f"setup ray_init_s={ray_init_cpu:.4f} generate_oracle_s="
              f"{statistics.median(prep_cpu):.4f} warmup_s={warm_cpu:.4f} (cpu)", flush=True)

        if args.trace == 0:
            steal0, total0 = _cpu_ticks()
            jobs, cpus, units = loop.run(args.seconds)
            steal1, total1 = _cpu_ticks()
            # share of all CPUs' time the hypervisor gave to other guests
            # while the jobs ran: slow runs on a shared host show up here
            steal = (steal1 - steal0) / max(1, total1 - total0)
            print(f"host steal_share={steal:.4f}", flush=True)
            gc.collect()
            metrics = {
                "setup_s": setup_s,
                "rows_per_cpu_s": want["rows"] / statistics.median(cpus),
                "job_cpu_s_p50": statistics.median(cpus),
                "driver_rss_mb": _rss_mb(),
            }
            print(f"tail job_cpu_s {_tail(cpus)}", flush=True)
            print(f"tail job_s {_tail(jobs)}", flush=True)
            print(f"tail unit_s {_tail(units)}", flush=True)
            wanted = spec["end_to_end"]
        else:
            plain, _, _ = loop.run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, _ = loop.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            per_job = [layer_metrics([s for s in tracer.spans if s.job == j])
                       for j in range(len(traced))]
            metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            selfs = [self_time_by_layer([s for s in tracer.spans if s.job == j])
                     for j in range(len(traced))]
            for name in sorted(selfs[0]):
                print(f"self {name} {statistics.median(s.get(name, 0.0) for s in selfs):.4f} s")
            print(f"trace untraced_job_s={statistics.median(plain):.4f} "
                  f"traced_job_s={statistics.median(traced):.4f}", flush=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
            tracer.write(spans_path)
            print(f"spans {spans_path}", flush=True)
            metrics.update(kernel_metrics(wl.kernel_inputs()))
            metrics.update(scan_metrics(wl.scan_inputs()))
            wanted = spec["per_layer"]
    finally:
        _stop_all()

    out = {}
    for m in wanted:
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"metric {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"error_rate {loop.failed}/{loop.attempted}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
