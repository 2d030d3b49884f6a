"""Benchmark of the motzkin library: four seeded workloads, timed from outside.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run compiles `src/motzkin`, then
repeats passes of the workload's job list, each in a fresh interpreter
(`worker.py`), until the passes' timed job time reaches --seconds.  The
first pass also checks every output.  End-to-end metrics are medians
over untraced passes; job_s.p50 and job_s.p90 are percentiles of each
job's median latency over those passes.  Every time is in reference
seconds, scaled by the speed of a fixed loop timed between jobs (see
worker.py); the raw medians are printed beside them.  With --trace 1
the passes alternate traced and untraced; the traced ones give the
per-layer metrics and the untraced ones the tracing overhead.  The last
line of stdout is one JSON object; a run record (and, when traced, the
spans) goes to perfbench/results/.

Workloads, metrics and bounds are declared in BENCHMARK.json.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "motzkin"
RESULTS = HERE / "results"

MIN_PASSES = 1
SETUP_PROBES = 8
# Stop starting passes once another could end past this; a run must end
# within 180 s.
MAX_RUN_S = 120
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker(*args):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, size):
    passes = []
    measured = elapsed = last = 0.0
    # Stop when another pass would overshoot --seconds by more than it
    # would fall short without it.  A traced run also needs one untraced
    # pass.
    while (len(passes) < MIN_PASSES + args.trace
           or measured + last / 2 < args.seconds):
        traced = args.trace and len(passes) % 2 == 0
        flags = ["--workload", args.workload, "--seed", str(args.seed),
                 "--size", size]
        flags += ["--trace"] if traced else []
        flags += ["--check"] if not passes else []
        start = perf_counter()
        p = worker(*flags)
        p["traced"] = traced
        p["pass_s"] = perf_counter() - start
        passes.append(p)
        last = p["raw_wall_s"]
        measured += last
        elapsed += p["pass_s"]
        if (elapsed + p["pass_s"] > MAX_RUN_S
                and len(passes) >= MIN_PASSES + args.trace):
            break
    return passes


def commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted(PACKAGE.glob("*.py")))


def self_times(spans):
    """Self time per span name: duration minus the time its children cover."""
    child = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, _, _, name, start, end, _ in spans:
        out[name] += end - start - child[sid]
    return dict(out)


def layer_metrics(passes, units):
    traced = [p for p in passes if p["traced"]]
    first = traced[0]
    stats = Counter(first["stats"])
    metrics = {}
    for metric in units:
        if metric.endswith("_s"):  # busy time in the spans named metric[:-2]
            metrics[metric] = statistics.median(
                sum(((e - s) * p["scales"][job]
                     for _, _, job, name, s, e, _ in p["spans"]
                     if name == metric[:-2]), 0.0)
                for p in traced)
    classes = stats["strategies.classes"]
    metrics.update({
        "strategies.classes": classes,
        "strategies.empty_rules": stats["strategies.empty_rules"],
        "strategies.useful_frac": (
            (classes - stats["strategies.empty_rules"]) / classes
            if classes else 0.0),
        "counting.table_cells": stats["counting.table_cells"],
        "counting.max_count_bits": stats["counting.max_count_bits"],
        "counting.samples": stats["counting.samples"],
        "genfun.solved_frac": (stats["genfun.solved"] / stats["genfun.solves"]
                               if stats["genfun.solves"] else 0.0),
        "algebra.result_coeff_bits": stats["algebra.result_coeff_bits"],
        "paths.paths_scanned": stats["paths.paths_scanned"],
    })
    for layer in ("strategies", "counting", "genfun", "paths"):
        metrics[f"{layer}.failed"] = first["layer_failures"].get(layer, 0)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def tally(passes):
    """Failed operations, failure types and the output-check verdict.

    A job fails when it raises or when the first pass's checks reject
    its outputs; a later pass fails when its outputs differ from the
    first pass's.  Probes are tallied apart.
    """
    first = passes[0]
    errors = Counter(o.split(":", 1)[1] for p in passes for o in p["outcomes"]
                     if o.startswith("error:"))
    failed = sum(errors.values())
    rejected = [j for j in first["check_failures"] if j.isdigit()
                and not first["outcomes"][int(j)].startswith("error:")]
    mismatched = sum(p["digest"] != first["digest"] for p in passes[1:])
    failed += len(rejected) + mismatched
    if first["check_failures"]:
        errors["check"] += len(first["check_failures"])
    if mismatched:
        errors["pass_output_differs"] += mismatched
    return failed, errors, not first["check_failures"] and not mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job lists, for the smoke test")
    args = ap.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: src/motzkin does not compile", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    try:
        passes = run_passes(args, size)
        setup = passes + [worker("--setup-only")
                          for _ in range(SETUP_PROBES if not args.smoke else 1)]
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    first = passes[0]
    jobs = len(first["outcomes"])
    attempted = jobs * len(passes)
    failed, errors, correct = tally(passes)
    probe_errors = Counter(p["outcome"].split(":", 1)[1] for p in first["probes"]
                           if p["outcome"].startswith("error:"))
    probe_bad = [k for k in first["check_failures"] if k.startswith("probe")]
    failed_frac = ((failed + sum(probe_errors.values()) + len(probe_bad))
                   / (attempted + len(first["probes"])))

    untraced = [p for p in passes if not p["traced"]]
    # each job's latency is its median over the untraced passes
    job_s = [statistics.median(t)
             for t in zip(*(p["latencies"] for p in untraced))]
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": statistics.quantiles(job_s, n=10)[-1],
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
             f"  jobs {jobs} per pass  ({first['sizes']})",
             "  times in reference seconds (see worker.py); raw wall_s"
             f" {statistics.median(p['raw_wall_s'] for p in untraced):.4f},"
             " raw setup_s"
             f" {statistics.median(p['raw_setup_s'] for p in setup):.4f}"]
    if args.trace:
        metrics = layer_metrics(passes, units)
        traced = [p for p in passes if p["traced"]]
        selfs = self_times(traced[0]["spans"])
        job_total = sum(e - s for _, parent, _, name, s, e, _
                        in traced[0]["spans"] if name == "job")
        coverage = 1 - selfs.get("job", 0.0) / job_total
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / end_to_end["wall_s"] - 1)
        lines.append(f"  trace: layer spans cover {coverage:.1%} of job time;"
                     f" overhead {overhead:+.2%} (traced vs untraced wall_s)")
        lines.append("  self time per span, first traced pass:")
        for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<22} {t:10.4f} s")
    else:
        metrics = {k: {"value": end_to_end[k], "unit": units[k]} for k in units}
    for name, m in metrics.items():
        lines.append(f"  {name:<26} {m['value']:<22} {m['unit']}")
    lines.append(f"  {'failed_frac':<26} {failed_frac:<22} 1"
                 f"  (probes included; errors {dict(errors)},"
                 f" probe errors {dict(probe_errors)})")
    for p in first["probes"]:
        lines.append(f"  probe {p['id']}: sample -n {p['n']} --avoid"
                     f" {','.join(p['avoid'])} -> {p['outcome']}")
    lines.append(f"  checks {'PASS' if correct else 'FAIL'}")
    for job_id, msgs in first["check_failures"].items():
        lines.append(f"    job {job_id}: {'; '.join(msgs)}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "python": platform.python_version(),
        "commit": commit(), "src_motzkin_lines": source_lines(),
        "nproc": os.cpu_count(), "jobs": first["sizes"],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "raw_wall_s", "p50",
                                      "p90", "rss_mb", "setup_s",
                                      "raw_setup_s", "pass_s", "digest",
                                      "latencies", "scales", "refs")}
                   for p in passes],
        "setup_samples": [{k: p[k] for k in ("setup_s", "raw_setup_s")}
                          for p in setup],
        "end_to_end": end_to_end, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failed_frac": failed_frac,
        "errors": dict(errors), "probes": first["probes"],
        "check_failures": first["check_failures"], "stats": first["stats"],
    }
    if args.trace:
        spans = traced[0]["spans"]
        t0 = spans[0][4] if spans else 0.0
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps([
            {"id": sid, "parent": parent, "job": job, "name": name,
             "start": s - t0, "end": e - t0, "error": err}
            for sid, parent, job, name, s, e, err in spans]))
        record.update(coverage=coverage, overhead=overhead, self_times=selfs)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
