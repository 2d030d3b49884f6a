"""Command-line front end for counting, sampling, and generating functions."""

import argparse
import json
import random
import sys

from .algebra import k_str, minpoly_str, series, sqrt_form_str
from .classes import EMPTY, descriptor_to_json, full_class, normalize
from .counting import EmptyAtLengthError, SpecCounter
from .genfun import NonClosedForm, delta, extract_equations, solve_closed_form
from .paths import ResourceLimitError, check_word, oracle_count
from .strategies import EPSILON, StrategyError, build_specification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_MISMATCH = 3
EXIT_NO_CLOSED_FORM = 4

STEPS = "UHD"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _nonneg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


def _form(value: str) -> str:
    if value in ("C", "sqrt", "minpoly"):
        return value
    if value.startswith("series:"):
        n = int(value[len("series:"):])
        if n < 0:
            raise argparse.ArgumentTypeError("series length must be nonnegative")
        return value
    raise argparse.ArgumentTypeError(f"unknown form {value!r}")


def _patterns(args) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    avoid = tuple(check_word(w) for w in (args.avoid or ()))
    clauses = tuple(tuple(check_word(w) for w in flag.split(","))
                    for flag in (args.contain or ()))
    return avoid, clauses


def _make_counter(avoid, clauses):
    d = normalize(full_class(avoid=avoid, contain=clauses))
    spec = build_specification(d)
    return SpecCounter(spec), spec


def cmd_count(args) -> int:
    avoid, clauses = _patterns(args)
    counter, _ = _make_counter(avoid, clauses)
    seq = counter.sequence(args.max_length)
    print(",".join(str(v) for v in seq))
    if args.oracle:
        ok = True
        for n, got in enumerate(seq):
            want = oracle_count(n, avoid=avoid, contain_clauses=clauses)
            verdict = "MATCH" if got == want else "MISMATCH"
            ok = ok and got == want
            print(f"n={n} spec={got} oracle={want} {verdict}")
        if not ok:
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_genfun(args) -> int:
    if args.pattern is not None:
        if args.avoid or args.contain:
            print("error: --pattern excludes --avoid/--contain",
                  file=sys.stderr)
            return EXIT_USAGE
        u = delta(check_word(args.pattern))
    else:
        avoid, clauses = _patterns(args)
        if not avoid and not clauses:
            print("error: need --pattern or --avoid/--contain",
                  file=sys.stderr)
            return EXIT_USAGE
        d = normalize(full_class(avoid=avoid, contain=clauses))
        spec = build_specification(d)
        solved = solve_closed_form(spec)
        if isinstance(solved, NonClosedForm):
            print(f"no closed form: {solved.reason}", file=sys.stderr)
            print(json.dumps(solved.system, indent=2))
            return EXIT_NO_CLOSED_FORM
        u = solved[spec.root]
    form = args.form
    if form == "C":
        print(k_str(u))
    elif form == "sqrt":
        print(sqrt_form_str(u))
    elif form == "minpoly":
        print(minpoly_str(u))
    else:
        n_max = int(form[len("series:"):])
        print(",".join(str(v) for v in series(u, n_max)))
    return EXIT_OK


def _class_note(obj) -> str:
    if obj is EPSILON:
        return '"the empty path"'
    if obj is EMPTY:
        return '"no paths"'
    return json.dumps(descriptor_to_json(obj), separators=(",", ":"))


def _rule_text(cid: str, rule) -> str:
    terms = []
    for atom, factors in rule.terms:
        x = ["x" if len(atom) == 1 else f"x^{len(atom)}"] if atom else []
        terms.append(" * ".join(x + list(factors)) or "1")
    return f"{cid} = {' + '.join(terms) or '0'}"


def cmd_spec(args) -> int:
    avoid, clauses = _patterns(args)
    d = normalize(full_class(avoid=avoid, contain=clauses))
    spec = build_specification(d)
    if args.format == "text":
        print(f"root: {spec.root}")
        print("classes:")
        for cid in spec.rules:
            print(f"  {cid}  {_class_note(spec.descriptors[cid])}")
        print("rules:")
        for cid, rule in spec.rules.items():
            print(f"  {_rule_text(cid, rule)}")
    elif args.format == "json":
        doc = {
            "version": "motzkin-spec/1",
            "root": spec.root,
            "classes": {cid: _class_note_json(spec.descriptors[cid])
                        for cid in spec.rules},
            "rules": [
                {"lhs": cid, "kind": rule.kind, "atom": rule.atom,
                 "children": list(rule.children)}
                for cid, rule in spec.rules.items()
            ],
            "equations": extract_equations(spec),
        }
        print(json.dumps(doc, indent=2))
    else:
        print("digraph spec {")
        for cid, rule in spec.rules.items():
            label = rule.kind if rule.kind != "product" else rule.atom
            print(f'  "{cid}" [xlabel="{label}"];')
            for child in rule.children:
                edge_label = "" if rule.kind == "union" else rule.atom
                attr = f' [label="{edge_label}"]' if edge_label else ""
                print(f'  "{cid}" -> "{child}"{attr};')
        print("}")
    return EXIT_OK


def _class_note_json(obj):
    if obj is EPSILON:
        return "epsilon"
    if obj is EMPTY:
        return "empty"
    return descriptor_to_json(obj)


def cmd_enumerate(args) -> int:
    avoid, clauses = _patterns(args)
    counter, _ = _make_counter(avoid, clauses)
    for path in sorted(counter.generate_all(args.length)):
        print(path)
    return EXIT_OK


def cmd_sample(args) -> int:
    avoid, clauses = _patterns(args)
    counter, _ = _make_counter(avoid, clauses)
    rng = random.Random(args.seed)
    try:
        paths = [counter.sample(args.length, rng=rng)
                 for _ in range(args.count)]
    except EmptyAtLengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    for path in paths:
        print(path)
    return EXIT_OK


def _verify_one(avoid, clauses, max_len) -> tuple[str, bool, str]:
    counter, spec = _make_counter(avoid, clauses)
    seq = counter.sequence(max_len)
    oracle_seq = [oracle_count(n, avoid=avoid, contain_clauses=clauses)
                  for n in range(max_len + 1)]
    ok = seq == oracle_seq
    routes = "spec,oracle"
    if len(avoid) == 1 and not clauses:
        dser = series(delta(avoid[0]), max_len)
        ok = ok and dser == seq
        routes += ",delta"
    return spec.root, ok, routes


def cmd_verify(args) -> int:
    if args.all_up_to is not None and (args.avoid or args.contain):
        print("error: --all-up-to excludes --avoid/--contain",
              file=sys.stderr)
        return EXIT_USAGE
    tasks = []
    if args.all_up_to is not None:
        words = [""]
        for _ in range(args.all_up_to):
            words = [w + s for w in words for s in STEPS]
            tasks.extend(((w,), ()) for w in words)
    else:
        tasks.append(_patterns(args))
    all_ok = True
    for avoid, clauses in tasks:
        label, ok, routes = _verify_one(avoid, clauses, args.max_len)
        all_ok = all_ok and ok
        print(f"{label} [{routes}] {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="motzkin",
                     description="Motzkin paths avoiding subword patterns")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_patterns(p):
        p.add_argument("--avoid", action="append", default=[],
                       metavar="WORD", help="pattern to avoid; repeatable")
        p.add_argument("--contain", action="append", default=[],
                       metavar="WORDS",
                       help="comma-separated alternatives, at least one "
                            "required; repeated flags are conjunctive")

    p = sub.add_parser("count", help="print the counting sequence")
    add_patterns(p)
    p.add_argument("-N", "--max-length", type=_nonneg, default=10)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the oracle (DP over "
                        "height and greedy-scan state)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("genfun", help="print a generating function")
    p.add_argument("--pattern", metavar="WORD",
                   help="single avoided pattern (recursion route)")
    add_patterns(p)
    p.add_argument("--form", type=_form, default="C",
                   help="C | sqrt | minpoly | series:N")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("spec", help="print the combinatorial specification")
    add_patterns(p)
    p.add_argument("--format", choices=("text", "json", "dot"),
                   default="text")
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("enumerate", help="list all paths of one length")
    add_patterns(p)
    p.add_argument("-n", "--length", type=_nonneg, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="draw uniform random paths")
    add_patterns(p)
    p.add_argument("-n", "--length", type=_nonneg, required=True)
    p.add_argument("--count", type=_nonneg, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="triple cross-check of the engines")
    add_patterns(p)
    p.add_argument("--all-up-to", type=_nonneg, default=None, metavar="K",
                   help="verify every single pattern of length 1..K")
    p.add_argument("--max-len", type=_nonneg, default=10)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, StrategyError,
            ResourceLimitError) as exc:
        # OverflowError: a length too large to index a list (series:N)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
