"""Benchmark of genlogic: query, stream and digits workloads.

One run:
    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

generates the workload's inputs from the seed in a child process, times the
set-up several times, runs one untimed warm-up op, then runs ops on fresh
inputs until --seconds have passed, checks every output against the
benchmark's own reference, and prints one JSON line last: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

Repeat mode, to show how steady the figures are:
    python3 perfbench/run.py --repeat 10 [--workload query ...] [--sets 2]

runs each workload in fresh processes and prints each metric's median,
quartiles and spread against its bound in BENCHMARK.json.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
RUN_TIMEOUT_S = 180


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "genlogic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "digits_data": ("synthetic seven-segment digits from genlogic.synthdata, "
                        "not MNIST scans") if args.workload == "digits" else None,
    }


def run_once(args) -> tuple[dict, dict]:
    import workloads
    import genlogic
    if not Path(genlogic.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported genlogic from {genlogic.__file__}, not from {SRC}")
    from tracing import Tracer, summarize
    import layers

    W = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "generate.py"), args.workload,
                        str(args.seed), str(work)], check=True, timeout=RUN_TIMEOUT_S)
        raw = W.inputs(args.seed, args.seconds)
        bench = W(work, args.seed)
        tracer = Tracer() if args.trace else None
        if tracer:
            layers.install(tracer)

        setup_s, setup_ops = [], []
        for rep in range(W.setup_reps):
            gc.collect()
            op_id = -100 - rep
            setup_ops.append(op_id)
            t0 = time.perf_counter()
            if tracer:
                tracer.op = op_id
                tracer.span("bench.setup", bench.setup)
            else:
                bench.setup()
            setup_s.append(time.perf_counter() - t0)

        prepared = [bench.prepare(x) for x in raw]
        outputs, errors = [], []

        def call(i):
            try:
                out = bench.op(prepared[i])
            except Exception as exc:  # an op that raises counts as failed
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                out = None
            outputs.append(out)

        if tracer:
            tracer.op = -1
        call(0)  # warm-up, untimed
        gc.collect()
        latencies, op_counts = [], []
        t_start = time.perf_counter()
        while len(outputs) < len(prepared):
            i = len(outputs)
            if tracer:
                tracer.op = i - 1
                before = Counter(tracer.counts)
            t0 = time.perf_counter()
            call(i)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if tracer and len(op_counts) < layers.COUNT_OPS:
                op_counts.append(tracer.counts - before)
            if t1 - t_start >= args.seconds:
                break
        window_s = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.unwrap()

        n = len(latencies)
        checked = [i for i, out in enumerate(outputs) if out is not None]
        ok = dict(zip(checked, bench.check([raw[i] for i in checked],
                                           [outputs[i] for i in checked])))
        correct = all(ok.values())
        failed = sum(1 for i in range(1, n + 1) if not ok.get(i, False))
        if tracer:
            metrics = layers.per_layer_metrics(summarize(tracer), setup_ops, n, op_counts)
            RESULTS.mkdir(exist_ok=True)
            tracer.save(RESULTS / f"trace-{args.workload}.npz")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "ops_per_s": {"value": n / window_s, "unit": "1/s"},
                "p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        detail = {
            "setup_runs_s": setup_s,
            "window_s": window_s, "ops": n, "ops_per_s": n / window_s,
            "p50_ms": statistics.median(latencies) * 1e3,
            "latencies_ms": [x * 1e3 for x in latencies],
            "inputs_exhausted": n == len(prepared) - 1, "errors": errors,
            "p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3
                       if n >= 100 else None),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}, detail


def single(args) -> None:
    if not (SRC / "genlogic" / "__init__.py").is_file():
        fail(f"no genlogic sources under {SRC}")
    sys.path.insert(0, str(BENCH))
    result, detail = run_once(args)
    record = {"provenance": provenance(args), "detail": detail, **result}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for err in detail["errors"]:
        print(err, file=sys.stderr)
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps(result))


def spread_table(results: list[dict], bounds: dict) -> dict:
    """Median, quartiles and relative interquartile spread of each metric."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "bound": bounds.get(name), "values": values}
    return out


def repeat(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sets: list[dict] = []
    for s in range(args.sets):
        runs: dict[str, list] = {w: [] for w in names}
        walls: dict[str, list] = {w: [] for w in names}
        for i in range(args.repeat):
            for w in names:
                seed = 1000 * s + i + 1
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S, cwd=ROOT)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    fail(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs[w].append(result)
                walls[w].append(wall)
                print(f"set {s + 1} {w} seed {seed} ({wall:.1f} s): {json.dumps(result)}",
                      flush=True)
        sets.append({w: {"failed_share": [r["failed"] / r["attempted"] for r in rs],
                         "correct": all(r["correct"] for r in rs),
                         "run_wall_s": walls[w],
                         "metrics": spread_table(rs, bounds)}
                     for w, rs in runs.items()})
    for w in names:
        print(f"\n{w}: {args.repeat} runs per set, {seconds} s each")
        print(f"  {'metric':<40} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6} {'vs set 1':>9}")
        for name in sets[0][w]["metrics"]:
            first = sets[0][w]["metrics"][name]
            for k, st in enumerate(sets):
                m = st[w]["metrics"][name]
                shift = (m["median"] - first["median"]) / first["median"] if k else 0.0
                bound = "" if m["bound"] is None else f"{m['bound']:.2f}"
                print(f"  {name:<40} {k + 1:>3} {m['median']:>12.5g} {m['q1']:>12.5g}"
                      f" {m['q3']:>12.5g} {m['spread']:>8.4f} {bound:>6} {shift:>+9.4f}")
        for k, st in enumerate(sets):
            print(f"  set {k + 1}: correct={st[w]['correct']}"
                  f" failed shares={sorted(set(st[w]['failed_share']))}"
                  f" median run wall time={statistics.median(st[w]['run_wall_s']):.1f} s")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "sets": sets},
                               indent=1) + "\n")
    print(f"\nsummary written to {path.relative_to(ROOT)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=("query", "stream", "digits"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of --repeat runs")
    args = ap.parse_args()
    if args.repeat:
        repeat(args)
        return
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        ap.error("a single run needs one --workload and --seconds")
    args.workload = args.workload[0]
    single(args)


if __name__ == "__main__":
    main()
