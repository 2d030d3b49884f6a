"""Seeded job lists, the library calls each job makes, and output checks.

A job makes the same library calls as one invocation of the matching
`motzkin` subcommand, without argument parsing and printing.  Every call
into a layer goes through `Layers.call`, which records a span when the
pass is traced and attributes exceptions to the layer that raised them.
"""

import hashlib
import itertools
import json
import random
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from motzkin import (EmptyAtLengthError, NonClosedForm, SpecCounter,
                     build_specification, delta, full_class, normalize,
                     oracle_count, solve_closed_form)
from motzkin.algebra import k_str, minpoly_str, series, sqrt_form_str
from motzkin.classes import matches
from motzkin.paths import is_motzkin_path

POOLS = json.loads((Path(__file__).resolve().parent / "pools.json").read_text())

# Job-list sizes.  "smoke" is the tiny variant the smoke test runs.
SIZES = {
    "full": {
        "count_jobs": 100, "count_n": (100, 140), "samples": 5,
        "enumerate_every": 10, "enumerate_n": (8, 12),
        "probe_n": (380, 420),
        "genfun_max_len": 4, "genfun_pairs": 60, "series_n": 20,
        "spec_jobs": 100, "spec_n": 15,
        "verify_pairs": 61, "verify_max_len": 12,
    },
    "smoke": {
        "count_jobs": 6, "count_n": (20, 30), "samples": 2,
        "enumerate_every": 3, "enumerate_n": (4, 6),
        "probe_n": (380, 420),
        "genfun_max_len": 2, "genfun_pairs": 2, "series_n": 12,
        "spec_jobs": 3, "spec_n": 8,
        "verify_pairs": 3, "verify_max_len": 7,
    },
}

# Length-5 patterns whose delta costs 1-3 s once the length-4 prefixes
# are cached.  Fixed on every seed: a random length-5 draw can cost 0.1 s
# or 53 s, and seeds would then not be comparable.
GENFUN_LEN5 = ("HHHHD", "DHHDU")
CHECK_N = 12


def words(max_len, min_len=1):
    return ["".join(p) for k in range(min_len, max_len + 1)
            for p in itertools.product("UHD", repeat=k)]


def motzkin_numbers(n_max):
    m = [1, 1]
    for n in range(2, n_max + 1):
        m.append(((2 * n + 1) * m[-1] + (3 * n - 3) * m[-2]) // (n + 2))
    return m[:n_max + 1]


# ---------------------------------------------------------------- job lists

def stratified(rng, pool, k):
    """k items of a pool listed in ascending order of cost, one drawn from
    each of k equal slices, cheapest slice first.

    Every seed then gets different inputs but about the same costs.
    """
    return [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k])
            for i in range(k)]


def make_jobs(workload, seed, size="full"):
    """The timed job list (and probes) for one workload and seed."""
    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    jobs, probes = [], []
    if workload == "count":
        # The pool is in ascending order of counting-table size (see
        # make_pools.count_work), so every seed draws about the same
        # work.  The i-th cheapest class is counted to the i-th smallest
        # length, so the costliest jobs, which set job_s.p90, differ
        # little between seeds.
        k = z["count_jobs"]
        lo, hi = z["count_n"]
        for i, c in enumerate(stratified(rng, POOLS["count"], k)):
            jobs.append({"kind": "count", **c,
                         "n": lo + (hi - lo) * i // max(k - 1, 1),
                         "samples": z["samples"],
                         "sample_seed": rng.randrange(2 ** 32)})
        rng.shuffle(jobs)
        # each enumerate length equally often: the cost triples per step
        every = z["enumerate_every"]
        e_lo, e_hi = z["enumerate_n"]
        for i, job in enumerate(jobs):
            job["enumerate"] = (e_lo + i // every % (e_hi - e_lo + 1)
                                if i % every == every - 1 else None)
        # Cold samples on fresh counters at lengths past the recursion
        # depth of the memoised counter: untimed, counted apart.
        for c in ({"avoid": ["HH"], "contain": []}, jobs[0]):
            probes.append({"kind": "probe", "avoid": c["avoid"],
                           "contain": c["contain"],
                           "n": rng.randint(*z["probe_n"]),
                           "sample_seed": rng.randrange(2 ** 32)})
    elif workload == "genfun":
        # Patterns in the order of `verify --all-up-to`: the first
        # pattern with a given prefix pays for that prefix's gamma, so a
        # seeded order would move that cost between jobs and with it
        # job_s.p90.  The seed places the solver jobs, which share no
        # cache with these.
        qs = words(z["genfun_max_len"])
        if size == "full":
            qs += GENFUN_LEN5
        jobs = [{"kind": "delta", "pattern": q} for q in qs]
        for c in stratified(rng, POOLS["genfun_pairs"], z["genfun_pairs"]):
            jobs.insert(rng.randint(0, len(jobs)), {"kind": "solve", **c})
    elif workload == "spec":
        for shape in range(3):
            k = len(range(shape, z["spec_jobs"], 3))
            jobs += [{"kind": "spec", **c, "n": z["spec_n"]}
                     for c in stratified(rng, POOLS[f"spec_{shape}"], k)]
        rng.shuffle(jobs)
    elif workload == "verify":
        # the single patterns in the order of `verify --all-up-to 3`,
        # then pairs drawn by seed, one from each cost slice
        singles = [{"avoid": [q], "contain": []} for q in words(3)]
        if size == "smoke":
            singles = singles[:3]
        pairs = stratified(rng, POOLS["verify_pairs"], z["verify_pairs"])
        rng.shuffle(pairs)
        jobs = [{"kind": "verify", **c, "n": z["verify_max_len"]}
                for c in singles + pairs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = i
    for i, job in enumerate(probes):
        job["id"] = f"probe{i}"
    return jobs, probes


def job_sizes(jobs):
    """Short description of a job list for the run record."""
    kinds = Counter(j["kind"] for j in jobs)
    ns = [j["n"] for j in jobs if "n" in j]
    out = {"jobs": len(jobs), "kinds": dict(kinds)}
    if ns:
        out["n_min"], out["n_max"], out["n_sum"] = min(ns), max(ns), sum(ns)
    pats = [len(w) for j in jobs for w in j.get("avoid", [j.get("pattern", "")])]
    out["pattern_len_max"] = max(pats)
    return out


# ---------------------------------------------------------------- layer calls

class Layers:
    """Calls into the library, with optional spans and per-layer failures.

    A span is (id, parent, job, name, start, end, error).  Layer spans
    are children of the span of the job that made the call.
    """

    def __init__(self, trace):
        self.trace = trace
        self.spans = []
        self.failures = Counter()
        self.parent = None
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter() if self.trace else 0.0
        error = None
        try:
            return fn(*args, **kwargs)
        except EmptyAtLengthError:
            raise  # a correct answer: the class has no path of that length
        except Exception as exc:
            error = type(exc).__name__
            self.failures[name.split(".")[0]] += 1
            raise
        finally:
            if self.trace:
                self.spans.append((len(self.spans), self.parent, self.job,
                                   name, start, perf_counter(), error))

    def open_job(self, job_id):
        self.job = job_id
        self.parent = len(self.spans)
        if self.trace:
            self.spans.append([self.parent, None, job_id, "job",
                               perf_counter(), None, None])

    def close_job(self, error):
        if self.trace:
            span = self.spans[self.parent]
            span[5], span[6] = perf_counter(), error
            self.spans[self.parent] = tuple(span)
        self.parent = self.job = None


def _spec(L, job):
    avoid = tuple(job["avoid"])
    clauses = tuple(tuple(c) for c in job["contain"])
    return L.call("strategies.build",
                  lambda: build_specification(
                      normalize(full_class(avoid=avoid, contain=clauses))))


def _forms(L, u, series_n):
    return {"C": L.call("algebra.k_str", k_str, u),
            "sqrt": L.call("algebra.sqrt_form", sqrt_form_str, u),
            "minpoly": L.call("algebra.minpoly", minpoly_str, u),
            "series": L.call("algebra.series", series, u, series_n)}


def run_job(L, job, size):
    """Make the job's library calls; returns the raw results."""
    kind = job["kind"]
    if kind in ("count", "probe"):
        spec = _spec(L, job)
        counter = SpecCounter(spec)
        n = job["n"]
        out = {"spec": spec}
        if kind == "count":
            out["seq"] = L.call("counting.sequence", counter.sequence, n)
        rng = random.Random(job["sample_seed"])
        draws = job.get("samples", 1)
        try:
            out["paths"] = L.call(
                "counting.sample",
                lambda: [counter.sample(n, rng=rng) for _ in range(draws)])
        except EmptyAtLengthError:
            out["paths"] = None
        if job.get("enumerate") is not None:
            out["generated"] = L.call("counting.generate",
                                      counter.generate_all, job["enumerate"])
        return out
    series_n = SIZES[size]["series_n"]
    if kind == "delta":
        u = L.call("genfun.delta", delta, job["pattern"])
        return {"u": u, "forms": _forms(L, u, series_n)}
    if kind == "solve":
        spec = _spec(L, job)
        solved = L.call("genfun.solve", solve_closed_form, spec)
        if isinstance(solved, NonClosedForm):
            return {"spec": spec, "u": None}
        u = solved[spec.root]
        return {"spec": spec, "u": u, "forms": _forms(L, u, series_n)}
    if kind == "spec":
        spec = _spec(L, job)
        return {"spec": spec,
                "seq": L.call("counting.sequence", SpecCounter(spec).sequence,
                              job["n"])}
    if kind == "verify":
        # the three routes of `motzkin verify`
        avoid = tuple(job["avoid"])
        n_max = job["n"]
        spec = _spec(L, job)
        seq = L.call("counting.sequence", SpecCounter(spec).sequence, n_max)
        oracle = [L.call("paths.oracle", oracle_count, n, avoid=avoid)
                  for n in range(n_max + 1)]
        out = {"spec": spec, "seq": seq, "oracle": oracle}
        if len(avoid) == 1:
            out["u"] = L.call("genfun.delta", delta, avoid[0])
            out["delta"] = L.call("algebra.series", series, out["u"], n_max)
        return out
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------- summaries

def coeff_bits(u):
    """Largest bit length of a numerator or denominator coefficient of u."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for part in (u.a, u.b) for poly in (part.num, part.den)
                for c in poly), default=0)


def summarize(job, raw):
    """Exact counts and the small outputs the checks need, from raw results.

    Runs outside the timed region; the raw objects are dropped after it,
    as they are when a command-line process exits.
    """
    stats = Counter()
    keep = {}
    spec = raw.get("spec")
    if spec is not None:
        kinds = Counter(rule.kind for rule in spec.rules.values())
        stats["strategies.builds"] += 1
        stats["strategies.classes"] += len(spec.rules)
        stats["strategies.empty_rules"] += kinds["empty"]
    if "seq" in raw:
        seq = raw["seq"]
        stats["counting.table_cells"] += len(spec.rules) * len(seq)
        stats["counting.max_count_bits"] = max(v.bit_length() for v in seq)
        keep["seq"] = seq
    if raw.get("paths") is not None:
        stats["counting.samples"] += len(raw["paths"])
    for key in ("paths", "generated", "oracle", "delta"):
        if key in raw:
            keep[key] = raw[key]
    if job["kind"] == "solve":
        stats["genfun.solves"] += 1
        stats["genfun.solved"] += raw["u"] is not None
    if raw.get("u") is not None:
        stats["algebra.result_coeff_bits"] = coeff_bits(raw["u"])
    if "forms" in raw:
        keep["forms"] = {k: (list(map(str, v)) if k == "series" else v)
                         for k, v in raw["forms"].items()}
    if job["kind"] == "verify":
        stats["paths.paths_scanned"] += sum(motzkin_numbers(job["n"]))
    outcome = "ok"
    if job["kind"] in ("count", "probe") and raw["paths"] is None:
        outcome = "empty"
    elif job["kind"] == "solve" and raw["u"] is None:
        outcome = "no_closed_form"
    return outcome, stats, keep


def digest(kept):
    """Fingerprint of every job's kept outputs, to compare passes."""
    h = hashlib.sha256()
    for item in kept:
        h.update(repr(item).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- checks

def reference_counts(avoid, clauses, n_max):
    """Counts of Motzkin paths of length 0..n_max that avoid every word in
    `avoid` and contain a member of each clause.

    Dynamic programming over (height, greedy-match progress of each
    word), the automaton form of the brute-force oracle's subword scan;
    it shares no code with the rule engine.  `anchor_reference` ties it to
    `oracle_count` on some classes of every run.
    """
    ws = list(avoid) + [w for cl in clauses for w in cl]
    na = len(avoid)
    spans, i = [], na
    for cl in clauses:
        spans.append(range(i, i + len(cl)))
        i += len(cl)
    states = {(0, (0,) * len(ws)): 1}
    out = []
    for n in range(n_max + 1):
        out.append(sum(c for (h, prog), c in states.items()
                       if h == 0 and all(any(prog[j] == len(ws[j]) for j in s)
                                         for s in spans)))
        nxt = defaultdict(int)
        for (h, prog), c in states.items():
            for step, dh in (("U", 1), ("H", 0), ("D", -1)):
                nh = h + dh
                if nh < 0 or nh > n_max - n - 1:
                    continue
                np = tuple(p + (p < len(w) and w[p] == step)
                           for p, w in zip(prog, ws))
                if any(np[j] == len(ws[j]) for j in range(na)):
                    continue
                nxt[(nh, np)] += c
        states = nxt
    return out


def _class(job):
    if job["kind"] == "delta":
        return (job["pattern"],), ()
    return tuple(job["avoid"]), tuple(tuple(c) for c in job["contain"])


def check_job(job, outcome, keep):
    """Messages for every output check the job fails (empty when it passes)."""
    bad = []
    avoid, clauses = _class(job)
    kind = job["kind"]
    if "seq" in keep:
        n_ref = job["n"] if kind == "spec" else min(job["n"], CHECK_N)
        if keep["seq"][:n_ref + 1] != reference_counts(avoid, clauses, n_ref):
            bad.append(f"counts to n={n_ref} differ from the oracle")
    if kind in ("count", "probe"):
        d = full_class(avoid=avoid, contain=clauses)
        n = job["n"]
        if outcome == "empty":
            if "seq" in keep and keep["seq"][n] != 0:
                bad.append(f"sampler reported no path of length {n}")
        for p in keep.get("paths") or ():
            if len(p) != n or not is_motzkin_path(p) or not matches(d, p):
                bad.append(f"sampled {p!r} is not in the class at n={n}")
                break
        if "generated" in keep:
            gen, m = keep["generated"], job["enumerate"]
            if (len(gen) != len(set(gen)) or len(gen) != keep["seq"][m]
                    or not all(len(p) == m and is_motzkin_path(p)
                               and matches(d, p) for p in gen)):
                bad.append(f"enumeration at n={m} is wrong")
        if kind == "count":
            spec = build_specification(normalize(d))
            solved = solve_closed_form(spec)
            if (not isinstance(solved, NonClosedForm)
                    and series(solved[spec.root], n) != keep["seq"]):
                bad.append("counts differ from the closed-form series")
    if kind in ("delta", "solve") and "forms" in keep:
        ref = reference_counts(avoid, clauses, CHECK_N)
        got = keep["forms"]["series"][:CHECK_N + 1]
        if got != list(map(str, ref[:len(got)])):
            bad.append("closed-form series differs from the oracle")
    if kind == "verify":
        routes = [keep["seq"], keep["oracle"]] + (
            [keep["delta"]] if "delta" in keep else [])
        if any(r != routes[0] for r in routes):
            bad.append("verify routes disagree")
    return bad


def anchor_reference(jobs):
    """Check `reference_counts` against `oracle_count` on two classes."""
    for job in jobs[:2]:
        avoid, clauses = _class(job)
        want = [oracle_count(n, avoid=avoid, contain_clauses=clauses)
                for n in range(CHECK_N + 1)]
        if reference_counts(avoid, clauses, CHECK_N) != want:
            return [f"reference counts disagree with oracle_count on {avoid}"]
    return []
