"""Regenerate perfbench/pools.json, the candidate inputs the workloads draw from.

    python3 perfbench/make_pools.py [POOL ...]

With pool names, only those pools are measured again; the others are
kept as they are in the file.

Each pool lists job inputs of one shape whose measured cost lies in a
fixed quantile band of all candidates of that shape, in ascending order
of cost.  A run draws one job from each of equal slices of a pool by
seed, so two seeds give different inputs but comparable amounts of
work: an unbanded draw of 100 count jobs varies by about 13 % in total
cost from seed to seed (2-vCPU x86 machine, Python 3.11), which would
hide any change smaller than that.  The count pool is then put in
ascending order of `count_work`, the size of the counting table, which
is exact where a timing on a shared host is not: ordered by timing, the
table size of a 100-job draw varied by 4 % (interquartile range over
200 seeds), ordered by `count_work` by 0.2 %.  The candidates
themselves come from a fixed generator seed, so the pools are
reproducible up to timing noise.
The file in the repository was measured once and is data, not a
per-run step: regenerating it changes the workloads.
"""

import itertools
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from motzkin import (SpecCounter, build_specification, full_class,  # noqa: E402
                     normalize, oracle_count, solve_closed_form)
from motzkin.algebra import minpoly_str, series, sqrt_form_str  # noqa: E402
from worker import REF_S, reference  # noqa: E402

COUNT_N = 120
SPEC_N = 15
VERIFY_N = 12
TIMEOUT_S = 3
REPS = 3


def words(*lengths):
    return ["".join(p) for k in lengths for p in itertools.product("UHD", repeat=k)]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def timed(fn):
    """Reference seconds fn takes (see worker.py), the least of REPS runs,
    or None when a run exceeds TIMEOUT_S."""
    best = None
    for _ in range(REPS):
        before = reference()
        signal.alarm(TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            fn()
        except _Timeout:
            return None
        finally:
            signal.alarm(0)
        t = (time.perf_counter() - t0) * 2 * REF_S / (before + reference())
        best = t if best is None else min(best, t)
    return best


def make_spec(c):
    return build_specification(normalize(full_class(
        avoid=tuple(c["avoid"]), contain=tuple(map(tuple, c["contain"])))))


def count_cost(c):
    def job():
        counter = SpecCounter(make_spec(c))
        if counter.sequence(COUNT_N)[-1] == 0:
            raise ValueError("empty at COUNT_N")
        rng = random.Random(0)
        for _ in range(5):
            counter.sample(COUNT_N, rng=rng)
    try:
        cost = timed(job)
    except ValueError:
        return None
    # the output check solves the class once per run; keep it cheap
    spec = make_spec(c)
    solve = timed(lambda: solve_closed_form(spec))
    return None if solve is None or solve > 0.15 else cost


def count_work(c):
    """Multiply-adds and memo cells of `SpecCounter.sequence(COUNT_N)`.

    A UD product rule costs n - 1 products at length n, a union one
    addition per child; every class fills one memo cell per length.
    """
    work = 0
    for rule in make_spec(c).rules.values():
        if rule.atom == "UD":
            work += COUNT_N * (COUNT_N - 1) // 2
        elif rule.kind == "union":
            work += len(rule.children) * (COUNT_N + 1)
        work += COUNT_N + 1
    return work


def spec_cost(c):
    return timed(lambda: SpecCounter(make_spec(c)).sequence(SPEC_N))


def verify_cost(c):
    avoid = tuple(c["avoid"])

    def job():
        SpecCounter(make_spec(c)).sequence(VERIFY_N)
        for n in range(VERIFY_N + 1):
            oracle_count(n, avoid=avoid)
    return timed(job)


def solver_cost(c):
    def job():
        spec = make_spec(c)
        u = solve_closed_form(spec)[spec.root]
        sqrt_form_str(u), minpoly_str(u), series(u, 20)
    try:
        return timed(job)
    except TypeError:  # NonClosedForm is not subscriptable
        return None


def band(cands, cost_fn, lo, hi, order=None):
    costs = []
    for c in cands:
        cost = cost_fn(c)
        if cost is not None:
            costs.append((cost, c))
    costs.sort(key=lambda t: t[0])
    kept = costs[int(lo * len(costs)):int(hi * len(costs))]
    print(f"  {len(cands)} candidates, {len(costs)} measured, kept {len(kept)}:"
          f" {kept[0][0]:.4f}-{kept[-1][0]:.4f} s", file=sys.stderr)
    kept = [c for _, c in kept]
    return sorted(kept, key=order) if order else kept


def main():
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(20210806)
    w1, w2, w3, w23, w4, w5 = (words(1), words(2), words(3), words(2, 3),
                               words(4), words(5))

    count = [{"avoid": [a], "contain": []} for a in w23]
    count += [{"avoid": list(p), "contain": []}
              for p in itertools.combinations(w23, 2)]
    for _ in range(240):
        avoid = rng.sample(w23, rng.choice((1, 2)))
        clause = rng.sample([w for w in w1 + w2 if w not in avoid], rng.choice((1, 2)))
        count.append({"avoid": avoid, "contain": [clause]})

    spec = []
    for shape in range(3):
        for _ in range(300):
            if shape == 0:
                c = {"avoid": rng.sample(w4, 3), "contain": []}
            elif shape == 1:
                c = {"avoid": [rng.choice(w4), rng.choice(w5)], "contain": []}
            else:
                c = {"avoid": rng.sample(w4, 2), "contain": [rng.sample(w3, 2)]}
            spec.append(c)

    pairs = [list(p) for p in itertools.combinations(w3 + w4, 2)]
    rng.shuffle(pairs)
    solver = [{"avoid": p, "contain": []} for p in pairs[:500]]
    verify = [{"avoid": list(p), "contain": []}
              for p in itertools.combinations(words(1, 2, 3), 2)]
    for n in range(VERIFY_N + 1):  # the oracle's path lists, shared by all
        oracle_count(n, avoid=("U",))

    plan = {
        "count": (count, count_cost, 0.3, 0.7, count_work),
        "genfun_pairs": (solver, solver_cost, 0.1, 0.5),
        "verify_pairs": (verify, verify_cost, 0.0, 1.0),
    }
    for shape in range(3):
        plan[f"spec_{shape}"] = (spec[shape * 300:(shape + 1) * 300],
                                 spec_cost, 0.05, 0.35)
    path = HERE / "pools.json"
    names = sys.argv[1:] or list(plan)
    pools = json.loads(path.read_text()) if sys.argv[1:] else {}
    for name in names:
        print(name, file=sys.stderr)
        pools[name] = band(*plan[name])
    path.write_text(json.dumps(pools, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
