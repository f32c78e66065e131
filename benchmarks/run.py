"""boolham benchmark: seeded workloads through the CLI and the library.

    python3 benchmarks/run.py --workload sat-count --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One simulated user sends jobs in a closed loop (the next job starts when the
previous one ends) from this single process, with BLAS/OpenMP pinned to one
thread.  Each job is ``boolham.cli.main(argv)`` with stdout captured, or the
library calls the README documents, and every output is checked against a
reference that does not come from the compiler (see workloads.py).

A run sets up (import, generate and write the first rounds' inputs, warm
up), then runs whole rounds until at least ``--seconds`` have passed and the
workload's fixed rounds are done.  Exact output counts and per-layer times
cover the fixed rounds only, so they do not depend on machine speed.

Times are reported at a reference machine speed: before each round (and
after each set-up) a fixed pure-Python loop is timed, and the round's times
are scaled by CAL_REF_S / that time.  On a shared 2-vCPU VM the speed of all
CPU work moves together by up to 1.5x for tens of seconds at a time; the
scaled times hold still (CV about 3% against 18% unscaled, same windows).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every job twice, once with spans and once without, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 2  # extra set-ups in fresh processes; setup_s is the median with this run's own
BLOCKS = 5  # jobs_per_s is the median rate over this many consecutive blocks of rounds
CAL_LOOP = 50_000  # iterations of the calibration loop
CAL_REF_S = 0.007  # its time at the reference speed (a fast phase of the VM the baseline ran on)
WORKLOAD_NAMES = ("sat-count", "maxsat-emit", "maxsat-spectrum", "verify-corpus")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------


def speed_factor() -> float:
    """CAL_REF_S over the median of three timings of a fixed dict loop
    (no boolham code); multiply a measured time by it for reference speed."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(CAL_LOOP):
            key = i * 7 % 1000
            table[key] = table.get(key, 0) + i
        timings.append(time.perf_counter() - start)
    return CAL_REF_S / statistics.median(timings)


def setup(name: str, seed: int, workdir: Path):
    """Import boolham, write the fixed rounds' inputs, warm up; returns
    (seconds at reference speed, workload, rounds, warm-up outcomes)."""
    start = time.perf_counter()
    import numpy as np

    import workloads
    from tracing import NullTracer

    wl = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = [wl.make_round(np.random.default_rng([seed, r]), workdir, r) for r in range(wl.min_rounds)]
    # warm-up: the first job of each kind from a round of unrelated inputs,
    # outside every metric but the failure count
    first_of_kind = {}
    for job in wl.make_round(np.random.default_rng([seed, 2**31]), workdir, -1):
        if job.warm:
            first_of_kind.setdefault(job.kind, job)
    warm = [attempt(job, NullTracer()) for job in first_of_kind.values()]
    seconds = time.perf_counter() - start
    return seconds * speed_factor(), wl, rounds, warm


def setup_in_fresh_process(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


# -- jobs ---------------------------------------------------------------------


def attempt(job, tracer) -> tuple[float, dict | None, Exception | None]:
    """Run one job (timed) and check its output (untimed)."""
    start = time.perf_counter()
    try:
        output = tracer.call("job", job.run, tracer)
    except Exception as exc:  # a failing job is counted, not fatal
        return time.perf_counter() - start, None, exc
    latency = time.perf_counter() - start
    try:
        return latency, job.check(output), None
    except Exception as exc:
        return latency, None, exc


class Tally:
    """Outcomes of the measured jobs."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.round_busy: list[float] = []  # job time per round, at reference speed
        self.round_ok: list[int] = []  # successful jobs per round
        self.round_factor: list[float] = []  # speed_factor() before each round
        self.attempted = 0
        self.failed = 0
        self.nonzero_exit = 0
        self.counts: dict[str, float] = {}
        self.digest = hashlib.sha256()

    def add(self, latency, counts, exc, r: int, fixed: bool, job) -> None:
        from workloads import CliExit

        self.attempted += 1
        latency *= self.round_factor[r]
        if r == len(self.round_busy):
            self.round_busy.append(0.0)
            self.round_ok.append(0)
        self.round_busy[r] += latency
        if exc is not None:
            self.failed += 1
            self.nonzero_exit += isinstance(exc, CliExit)
            if self.failed <= 3:
                print(f"job {job.kind} failed:", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
            return
        self.latencies.append(latency)
        self.round_ok[r] += 1
        if fixed:
            self.digest.update(job.spec.encode())
            for key, value in counts.items():
                combine = max if key.endswith("_max") else (lambda a, b: a + b)
                self.counts[key] = combine(self.counts.get(key, 0), value)


def traced_attempt(job, tracer, job_id) -> tuple[float, dict | None, Exception | None]:
    """attempt() with spans around the job's calls, then its probes."""
    from tracing import traced_cli

    tracer.job = job_id
    with traced_cli(tracer):
        latency, counts, exc = attempt(job, tracer)
    try:
        for name, fn, args, kwargs in job.probes(tracer.last):
            tracer.probe(name, fn, *args, **kwargs)
    except Exception as probe_exc:  # an inner call failed on the job's own input
        counts, exc = None, exc or probe_exc
    tracer.last.clear()
    return latency, counts, exc


def measure(wl, rounds, seed: int, seconds: float, workdir: Path, tracer):
    """Whole rounds until `seconds` have passed and the fixed rounds are done."""
    import numpy as np

    from tracing import NullTracer

    tally = Tally()
    untraced = NullTracer()
    traced_busy = untraced_busy = 0.0
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < seconds:
        jobs = rounds[r] if r < len(rounds) else wl.make_round(np.random.default_rng([seed, r]), workdir, r)
        tally.round_factor.append(speed_factor())
        for job in jobs:
            if tracer is None:
                tally.add(*attempt(job, untraced), r, r < wl.min_rounds, job)
                continue
            # the same job with and without spans, alternating which goes first
            order = (True, False) if tally.attempted % 2 == 0 else (False, True)
            runs = {
                traced: traced_attempt(job, tracer, (r, tally.attempted)) if traced else attempt(job, untraced)
                for traced in order
            }
            traced_busy += runs[True][0]
            untraced_busy += runs[False][0]
            latency, counts, exc = runs[True]
            tally.add(latency, counts, exc or runs[False][2], r, r < wl.min_rounds, job)
        r += 1
    overhead = traced_busy / untraced_busy - 1.0 if tracer is not None else None
    return tally, r, overhead


# -- metrics ---------------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def block_rate(ok: list[int], busy: list[float]) -> float:
    """Median over BLOCKS consecutive blocks of rounds of jobs per second of job time."""
    k = min(BLOCKS, len(busy))
    edges = [round(i * len(busy) / k) for i in range(k + 1)]
    return statistics.median(sum(ok[a:b]) / sum(busy[a:b]) for a, b in zip(edges, edges[1:]))


def end_to_end(tally: Tally, setup_s: float, wl) -> tuple[dict, str]:
    lat = sorted(tally.latencies)
    beyond = len(lat) - math.ceil(wl.tail_pct / 100.0 * len(lat))
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": block_rate(tally.round_ok, tally.round_busy),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * nearest_rank(lat, wl.tail_pct),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_terms": tally.counts.get("out_terms", 0),
        "out_cnots": tally.counts.get("out_cnots", 0),
        "out_rz": tally.counts.get("out_rz", 0),
    }
    note = (f"p50 and p{wl.tail_pct} of {len(lat)} job latencies, {beyond} beyond p{wl.tail_pct}; "
            f"times at reference speed, median speed factor {statistics.median(tally.round_factor):.3f}")
    return metrics, note


def per_layer(tally: Tally, tracer, min_rounds: int, overhead: float) -> tuple[dict, set]:
    from tracing import layer_times

    # jobs of the fixed rounds, each with its round's speed factor
    scale = {s.job: tally.round_factor[s.job[0]] for s in tracer.spans if s.job[0] < min_rounds}
    busy, calls, probed = layer_times(tracer.spans, scale)
    metrics: dict[str, float] = {}
    for name in busy:
        metrics[f"{name}.busy_s"] = busy[name]
        metrics[f"{name}.calls"] = calls[name]
    # the root span's self time is the benchmark's own glue; report the whole job instead
    metrics["job.busy_s"] = sum(scale[s.job] * (s.end - s.start) for s in tracer.spans if s.name == "job" and s.job in scale)
    metrics["cli.main.nonzero_exit"] = tally.nonzero_exit
    metrics["compiler.out_terms"] = tally.counts.get("out_terms", 0)
    metrics["circuits.cx_count"] = tally.counts.get("out_cnots", 0)
    metrics["circuits.rz_count"] = tally.counts.get("out_rz", 0)
    for key in ("compiler.out_degree_max", "oracle.spectrum.states", "verify.checks", "verify.failures"):
        metrics[key] = tally.counts.get(key, 0)
    metrics["trace.overhead_frac"] = overhead
    return metrics, probed


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, (40, 16, 9, 30))).rstrip())


def write_spans(tracer, path: Path) -> None:
    fields = ("id", "name", "start", "end", "parent", "job", "probe")
    path.write_text(json.dumps({"fields": fields, "spans": [list(s) for s in tracer.spans]}))


# -- main ----------------------------------------------------------------------------


def run_one(args, spec: dict) -> dict:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        own_setup, wl, rounds, warm = setup(args.workload, args.seed, workdir)
        setup_s = statistics.median(
            [own_setup] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        )
        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        tally, n_rounds, overhead = measure(wl, rounds, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    warm_failed = sum(exc is not None for _, _, exc in warm)
    tally.attempted += len(warm)
    tally.failed += warm_failed

    print(f"workload {args.workload}  seed {args.seed}  rounds {n_rounds} (first {wl.min_rounds} fixed)  "
          f"jobs {tally.attempted} (warm-up {len(warm)})  failed {tally.failed}")
    print(f"inputs_sha256 {tally.digest.hexdigest()}")
    if args.trace:
        metrics, probed = per_layer(tally, tracer, wl.min_rounds, overhead)
        total = metrics["job.busy_s"]
        rows = [("metric", "value", "unit", "share of job time")]
        for m in spec["per_layer"]:
            value = metrics.get(m["name"], 0)
            share = ""
            if m["name"].endswith(".busy_s") and total:
                share = f"{100 * value / total:.1f}%" + (" (probe)" if m["name"][:-7] in probed else "")
            rows.append((m["name"], _fmt(value), m["unit"], share))
        print_table("per-layer (fixed rounds; probes re-time an inner call on the same input)", rows)
        OUT.mkdir(exist_ok=True)
        write_spans(tracer, OUT / f"spans-{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        metrics, note = end_to_end(tally, setup_s, wl)
        rows = [("metric", "value", "unit")]
        rows += [(m["name"], _fmt(metrics[m["name"]]), m["unit"]) for m in spec["end_to_end"]]
        rows.append(("failed_frac", _fmt(metrics["failed_frac"]), "fraction"))
        print_table(f"end-to-end ({note})", rows)
        wanted = spec["end_to_end"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }


def run_all(args, spec: dict) -> None:
    """Each workload in its own fresh process, traced and untraced; one row each."""
    summary = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(done.stderr)
            print("\n".join(done.stdout.splitlines()[:-1]))
            result = json.loads(done.stdout.splitlines()[-1])
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                result["shares"] = {k: v / values["job.busy_s"] for k, v in values.items() if k.endswith(".busy_s")}
            summary.setdefault(name, {})[f"trace{trace}"] = result
    names = [m["name"] for m in spec["end_to_end"]]
    print("end-to-end by workload (units as in BENCHMARK.json)")
    print("  " + "workload".ljust(16) + "".join(n.rjust(13) for n in (*names, "failed_frac")))
    for name, result in summary.items():
        r = result["trace0"]
        cells = [f"{r['metrics'][m]['value']:.6g}" for m in names] + [f"{r['failed'] / r['attempted']:.3g}"]
        print("  " + name.ljust(16) + "".join(c.rjust(13) for c in cells))
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boolham" / "__init__.py").is_file():
        print(f"run.py: no boolham sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        workdir = OUT / f"setup-{os.getpid()}"
        try:
            print(setup(args.workload, args.seed, workdir)[0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        run_all(args, spec)
        return 0
    print(json.dumps(run_one(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
