"""One pass of a workload in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload count --seed 1 [--trace] [--check]
    python3 perfbench/worker.py --setup-only

A pass times `import motzkin` (set-up), then runs the workload's job
list once, one job after another, with the library's caches shared
between jobs as in one `verify --all-up-to` session.  Probes, exact
counts and output checks run outside the timed region.

Times are reported in reference seconds.  A shared host's speed drifts
from second to second, and CPU time drifts with wall time, so a
fixed loop (`reference`) that touches no library code runs before the
first job and after every job.  Each job's time is scaled by REF_S
over the median time of the REF_WINDOW runs on each side of it: the
seconds the job would take on a host where the loop takes REF_S.  (One
scale per pass left the same job's time varying twice as much from
pass to pass.)  Raw times are kept in the output too.
"""

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

REF_ITERS = 10000
REF_S = 0.002  # the loop's time at the nominal host speed
REF_WINDOW = 2  # reference runs on each side of a job that scale it
SETUP_REFS = 3  # reference runs on each side of `import motzkin`


def reference():
    """Time one run of a fixed integer loop.

    It allocates no tracked objects, so it neither triggers nor depends
    on the library's garbage.
    """
    start = perf_counter()
    x = s = 1
    for _ in range(REF_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        s += x >> 7
    return perf_counter() - start


def scales(refs):
    """Per job, REF_S over the median of the reference runs around it.

    Job i ran between reference runs i and i+1.
    """
    return [REF_S / statistics.median(
        refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
        for i in range(len(refs) - 1)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    reference()  # warm-up
    refs = [reference() for _ in range(SETUP_REFS)]
    t0 = perf_counter()
    import motzkin
    raw_setup_s = perf_counter() - t0
    refs += [reference() for _ in range(SETUP_REFS)]
    setup_s = raw_setup_s * REF_S / statistics.median(refs)
    if not Path(motzkin.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"motzkin imported from {motzkin.__file__}, not {SRC}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    import workloads as W

    jobs, probes = W.make_jobs(args.workload, args.seed, args.size)
    L = W.Layers(args.trace)
    latencies, outcomes, kept = [], [], []
    stats = Counter()
    refs = [reference()]
    for job in jobs:
        L.open_job(job["id"])
        error = raw = None
        start = perf_counter()
        try:
            raw = W.run_job(L, job, args.size)
        except Exception as exc:  # counted as a failed operation
            error = type(exc).__name__
        latencies.append(perf_counter() - start)
        L.close_job(error)
        refs.append(reference())
        if raw is None:
            outcomes.append(f"error:{error}")
            kept.append(None)
            continue
        outcome, job_stats, keep = W.summarize(job, raw)
        del raw
        outcomes.append(outcome)
        kept.append(keep)
        for key, value in job_stats.items():
            stats[key] = (max(stats[key], value) if key.endswith("_bits")
                          else stats[key] + value)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probe_L = W.Layers(False)
    probe_out = []
    for job in probes:
        try:
            outcome, _, keep = W.summarize(job, W.run_job(probe_L, job, args.size))
        except Exception as exc:  # the defect the probe exists to show
            outcome, keep = f"error:{type(exc).__name__}", None
        probe_out.append((job, outcome, keep))

    scale = scales(refs)
    raw_latencies = latencies
    latencies = [t * f for t, f in zip(raw_latencies, scale)]

    check_failures = {}
    if args.check:
        anchor = W.anchor_reference(jobs)
        if anchor:
            check_failures["reference"] = anchor
        for job, outcome, keep in list(zip(jobs, outcomes, kept)) + probe_out:
            if keep is not None:
                bad = W.check_job(job, outcome, keep)
                if bad:
                    check_failures[str(job["id"])] = bad

    layer_failures = L.failures + probe_L.failures
    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw_latencies),
        "latencies": latencies,
        "scales": scale,
        "refs": refs,
        "p50": statistics.median(latencies),
        "p90": (statistics.quantiles(latencies, n=10)[-1]
                if len(latencies) > 1 else latencies[0]),
        "rss_mb": rss_mb,
        "outcomes": outcomes,
        "probes": [{"id": j["id"], "avoid": j["avoid"], "n": j["n"],
                    "outcome": o} for j, o, _ in probe_out],
        "stats": stats,
        "layer_failures": layer_failures,
        "digest": W.digest(kept),
        "check_failures": check_failures,
        "sizes": W.job_sizes(jobs),
        "spans": L.spans,
    }))


if __name__ == "__main__":
    main()
