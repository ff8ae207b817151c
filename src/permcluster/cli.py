"""Command line interface.

Subcommands: count, enumerate, prob, verify, limits, table, cache-audit.
Every run renders a row set either as RFC-style CSV (with a header row)
or as a JSON object {"meta": ..., "rows": ...}; numeric cells carry the
exact rational next to a decimal approximation, and decimals are never
used in any comparison.  Exit codes: 0 success; 1 verification
counterexample, formula disagreement or cache-audit mismatch; 2 usage or
parse error, or a --cache path that cannot be used; 3 domain error; 4
internal error (an unexpected exception, reported with its traceback on
stderr).  A command imports only what it runs: the verification suites
only for `verify`, the closed forms for `--formula` and `limits`, json for
`--format json`, traceback for exit 4 and fractions for the commands
that print a ratio.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import enumeration
from .perms import (
    EMPTY_PATTERNS,
    SEP,
    ClusterEvent,
    DomainError,
    ParseError,
    PatternSet,
    is_cluster_free,
    one_line,
    parse_permutation,
)

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_USAGE, EXIT_DOMAIN, EXIT_INTERNAL = 0, 1, 2, 3, 4

# The names of verify.SUITES, kept here so that only `verify` imports it.
_SUITE_NAMES = ("cor2", "symmetry", "thm1", "thm2", "thm3", "transform", "uniform")

_DEFAULT_CACHE = Path.home() / ".permcluster" / "counts.txt"


def parse_avoid_spec(spec: str) -> PatternSet:
    """'' = no constraint; 'sep' = {2413, 3142}; otherwise '+'-joined patterns."""
    s = spec.strip()
    if not s:
        return EMPTY_PATTERNS
    if s.lower() == "sep":
        return SEP
    return PatternSet(tuple(parse_permutation(part) for part in s.split("+")))


def parse_int_range(spec: str) -> list[int]:
    """'4' -> [4]; '2..6' -> [2, 3, 4, 5, 6]."""
    s = spec.strip()
    if ".." in s:
        lo_s, hi_s = s.split("..", 1)
        if not (lo_s.strip().isdigit() and hi_s.strip().isdigit()):
            raise ParseError(f"bad range {spec!r}")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ParseError(f"empty range {spec!r}")
        return list(range(lo, hi + 1))
    if not s.isdigit():
        raise ParseError(f"bad range {spec!r}")
    return [int(s)]


def _dec(x) -> str:
    return format(float(x), ".15g")


def _ratio_cells(name: str, value: Fraction | float | None) -> dict[str, str]:
    """The exact cell and its decimal; a float is shown as a decimal in both,
    and a missing value as two empty cells."""
    if value is None:
        return {name: "", f"{name}_dec": ""}
    from fractions import Fraction  # not at the top: it loads decimal, and a count needs neither

    exact = f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else _dec(value)
    return {name: exact, f"{name}_dec": _dec(value)}


def _emit(records: list[dict], meta: dict, args, out) -> None:
    if args.no_meta:
        meta = {k: v for k, v in meta.items() if k != "generated_at"}
    if args.format == "json":
        import json
        json.dump({"meta": meta, "rows": records}, out, indent=2)
        out.write("\n")
        return
    for key, value in meta.items():
        out.write(f"# {key}={value}\n")
    if not records:
        return
    writer = csv.DictWriter(out, fieldnames=list(records[0].keys()))
    writer.writeheader()
    writer.writerows(records)


def _cache(args) -> enumeration.CountCache:
    return enumeration.CountCache(args.cache)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> tuple[list[dict], bool]:
    ps = parse_avoid_spec(args.avoid)
    value = enumeration.count_avoiders(args.n, ps, cache=_cache(args), jobs=args.jobs)
    return [{"n": str(args.n), "avoid": ps.key(), "count": str(value)}], False


def _cmd_enumerate(args) -> tuple[list[dict], bool]:
    rows = enumeration.avoider_rows(args.n, parse_avoid_spec(args.avoid)).tolist()
    return [{"permutation": one_line(row)} for row in rows], False


def _closed_form(n: int, ps: PatternSet, event: ClusterEvent, cache) -> tuple[str, Fraction | None]:
    from . import formulas

    if ps.is_empty():
        return "uniform", formulas.uniform_probability(n, event.l, event.k)
    if len(ps) == 1 and ps.patterns[0].values in ((3, 2, 1), (1, 2, 3)):
        return "monotone3", formulas.monotone_cluster_probability(n, event.l, event.k)
    if ps == SEP:
        return "separable", formulas.separable_cluster_probability(n, event.l, cache=cache)
    if all(is_cluster_free(tau) for tau in ps):
        return "cluster-free product", formulas.cluster_free_probability(n, event.l, ps, cache=cache)
    return "none", None


def _prob_record(n: int, ps: PatternSet, event: ClusterEvent, with_formula: bool,
                 cache, jobs: int) -> dict:
    """One probability row; an event without k stands for the union over k."""
    event.validate(n)
    table = enumeration.event_count_table(n, ps, cache=cache, jobs=jobs)
    prob = table.probability(event)
    rec = {
        "n": str(n),
        "avoid": ps.key(),
        "l": str(event.l),
        "k": "" if event.k is None else str(event.k),
        "a": "" if event.a is None else str(event.a),
        "union": "yes" if event.k is None else "",
        "event_count": str(table.count(event)),
        "class_count": str(table.total),
    }
    rec.update(_ratio_cells("probability", prob))
    if with_formula:
        name, value = ("none", None) if (event.k is None or event.a is not None) \
            else _closed_form(n, ps, event, cache)
        rec["formula"] = name
        rec.update(_ratio_cells("formula_value", value))
        rec["agree"] = "" if value is None else "AGREE" if value == prob else "DISAGREE"
    return rec


def _cmd_prob(args) -> tuple[list[dict], bool]:
    ps = parse_avoid_spec(args.avoid)
    if args.union and (args.k is not None or args.a is not None):
        raise ParseError("--union excludes --k and --a")
    if not args.union and args.k is None:
        raise ParseError("give --k (or --union)")
    event = ClusterEvent(args.l) if args.union else ClusterEvent(args.l, args.k, args.a)
    rec = _prob_record(args.n, ps, event, args.formula, _cache(args), args.jobs)
    return [rec], rec.get("agree") == "DISAGREE"


def _cmd_verify(args) -> tuple[list[dict], bool]:
    if args.max_n is not None and args.max_n < 3:
        raise ParseError(f"--max-n {args.max_n} is below 3, the smallest n the suites check")
    from . import verify

    if args.suite == "all":
        reports = verify.run_all(args.max_n, args.jobs)
    else:
        reports = [verify.run_suite(args.suite, args.max_n, args.jobs)]
    records = []
    for rep in reports:
        for row in rep.rows:
            records.append({
                "suite": row.suite,
                "instance": row.instance,
                "expected": row.expected,
                "actual": row.actual,
                "status": "pass" if row.passed else "FAIL",
            })
        if not rep.passed:
            bad = rep.first_failure()
            print(
                f"counterexample in suite {rep.name}: {bad.instance}: "
                f"expected {bad.expected}, got {bad.actual}",
                file=sys.stderr,
            )
    return records, not all(rep.passed for rep in reports)


def _cmd_limits(args) -> tuple[list[dict], bool]:
    from . import formulas

    target = "cor1" if args.target.startswith("cor1:") else args.target
    reads = {"sep": ("at_n",), "cor2": ("fixed_k", "right_offset", "interior", "at_n"), "cor1": ("sw_limit",)}
    if target not in reads:
        raise ParseError(f"unknown limits target {args.target!r} (use sep, cor2, or cor1:<pattern>)")
    for name in reads["cor2"] + reads["cor1"]:
        if getattr(args, name) is not None and name not in reads[target]:
            raise ParseError(f"limits {target} does not read --{name.replace('_', '-')}")
    cache = _cache(args)
    records = []
    ls = parse_int_range(args.l)
    if target == "sep":
        for l in ls:
            lim = formulas.separable_cluster_limit(l, cache=cache)
            rec = {"l": str(l), "limit": lim.symbolic(), "limit_dec": _dec(lim.approx)}
            if args.at_n:
                p = formulas.separable_cluster_probability(args.at_n, l, cache=cache)
                rec.update(_ratio_cells(f"value_at_n{args.at_n}", p))
                rec["gap_dec"] = _dec(abs(float(formulas.Sqrt2Number(p, 0) - lim.value)))
            records.append(rec)
        return records, False
    if target == "cor2":
        if args.fixed_k is not None:
            spec = formulas.LimitSpec.fixed_k(args.fixed_k)
        elif args.right_offset is not None:
            spec = formulas.LimitSpec.fixed_right_offset(args.right_offset)
        else:
            spec = formulas.LimitSpec.interior()
        for l in ls:
            lim = formulas.monotone_cluster_limit(l, spec)
            rec = {"l": str(l), "mode": spec.mode,
                   "k": "" if spec.k is None else str(spec.k)}
            rec.update(_ratio_cells("limit", lim))
            if args.at_n:
                k = spec.k if spec.k is not None else (args.at_n - l + 2) // 2
                p = formulas.monotone_cluster_probability(args.at_n, l, k)
                rec.update(_ratio_cells(f"value_at_n{args.at_n}", p))
                rec["gap_dec"] = _dec(abs(p - lim))
            records.append(rec)
        return records, False
    tau = parse_permutation(args.target.split(":", 1)[1])
    for l in ls:
        rep = formulas.cluster_limit_report(tau, l, sw_limit=args.sw_limit, cache=cache)
        rec = {"pattern": tau.text(), "l": str(l),
               "growth_limit": "unavailable" if rep.limit_used is None else str(rep.limit_used)}
        for name in ("upper", "exact", "lower"):
            rec.update(_ratio_cells(name, getattr(rep, name)))
        rec["note"] = rep.note
        records.append(rec)
    return records, False


def _cmd_table(args) -> tuple[list[dict], bool]:
    if args.union and args.k:
        raise ParseError("--union excludes --k")
    ps = parse_avoid_spec(args.avoid)
    cache = _cache(args)
    records = []
    for n in parse_int_range(args.n):
        ls = parse_int_range(args.l) if args.l else list(range(2, n))
        for l in ls:
            if not 2 <= l <= n - 1:
                continue
            if args.union:
                events = [ClusterEvent(l)]
            else:
                ks = parse_int_range(args.k) if args.k else range(1, n - l + 2)
                events = [ClusterEvent(l, k) for k in ks if 1 <= k <= n - l + 1]
            for event in events:
                records.append(_prob_record(n, ps, event, args.formula, cache, args.jobs))
    if not records:
        chosen = " ".join(f"--{name} {spec}" for name, spec in (("n", args.n), ("l", args.l), ("k", args.k)) if spec)
        raise DomainError(f"{chosen} select no event: every event has 2 <= l <= n-1 and 1 <= k <= n-l+1")
    return records, any(rec.get("agree") == "DISAGREE" for rec in records)


def _audit_record(key: str, cached: str | None, fresh: str | None, same: bool, max_n: int) -> dict:
    """One cache-audit row; a line that fails its seal (cached None) shows
    "bad checksum", and an entry with no recomputed value (n > max_n) is
    skipped."""
    cached = "bad checksum" if cached is None else cached
    if fresh is None:
        return {"key": key, "cached": cached, "recomputed": "", "status": f"skipped (n > {max_n})"}
    return {"key": key, "cached": cached, "recomputed": fresh, "status": "ok" if same else "MISMATCH"}


def _cmd_cache_audit(args) -> tuple[list[dict], bool]:
    """Recompute every cached count, then every stored event table, by fresh
    growth.  A count's row shows the stored and the recomputed count, a
    table's row the CRC-32 of the stored and of the recomputed line."""
    cache = _cache(args)
    records = []
    for key, cached in cache.items():
        n, ps = enumeration.parse_cache_key(key)
        fresh = None if n > args.max_n else str(enumeration.fresh_count(n, ps, jobs=args.jobs))
        records.append(_audit_record(key, cached, fresh, fresh == cached, args.max_n))
    store = cache.tables
    for key, cached in store.items():
        n, ps = enumeration.parse_cache_key(key)
        fresh = None if n > args.max_n else store.encode(enumeration.fresh_table(n, ps, jobs=args.jobs))
        seal = [None if value is None else store.checksum(key, value) for value in (cached, fresh)]
        records.append(_audit_record(enumeration.table_key(key), *seal, fresh == cached, args.max_n))
    bad = next((r for r in records if r["status"] == "MISMATCH"), None)
    if bad is not None:
        print(f"cache mismatch at {bad['key']}: cached {bad['cached']}, "
              f"recomputed {bad['recomputed']}", file=sys.stderr)
    return records, bad is not None


# ---------------------------------------------------------------------------


def usable_cores() -> int:
    """The cores this process may run on: its affinity set, or the
    machine's cores where the platform has no affinity call (macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_GROWTH_JOBS = "processes that share a growth of the class (default 1)"
# What each command splits over --jobs processes, for its help.
_JOBS_HELP = {
    "count": _GROWTH_JOBS,
    "enumerate": "accepted, unused: a listing is grown in one process",
    "prob": _GROWTH_JOBS,
    "verify": "processes that the suites' classes are dealt to (default: every usable core)",
    "limits": "accepted, unused: limits are closed forms",
    "table": _GROWTH_JOBS,
    "cache-audit": _GROWTH_JOBS,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--cache", default=str(_DEFAULT_CACHE), metavar="PATH")
    common.add_argument("--no-meta", action="store_true",
                        help="suppress timestamps for byte-identical reruns")

    parser = argparse.ArgumentParser(
        prog="permcluster",
        description="Exact cluster statistics for pattern-avoiding and separable permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count |S_n(avoid)|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")

    p = sub.add_parser("enumerate", parents=[common],
                       help="list S_n(avoid) in lexicographic order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")

    p = sub.add_parser("prob", parents=[common], help="exact cluster-event probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--union", action="store_true", help="the union event over all k")
    p.add_argument("--formula", action="store_true",
                   help="also print the matching closed form and AGREE/DISAGREE")

    p = sub.add_parser("verify", parents=[common], help="run identity suites")
    p.add_argument("suite", choices=list(_SUITE_NAMES) + ["all"])
    p.add_argument("--max-n", type=int, dest="max_n")

    p = sub.add_parser("limits", parents=[common], help="n -> infinity limit tables")
    p.add_argument("target", help="sep | cor2 | cor1:<pattern>")
    p.add_argument("--l", required=True, help="single value or lo..hi")
    regime = p.add_mutually_exclusive_group()
    regime.add_argument("--fixed-k", type=int, dest="fixed_k")
    regime.add_argument("--right-offset", type=int, dest="right_offset")
    regime.add_argument("--interior", action="store_true", default=None)
    p.add_argument("--at-n", type=int, dest="at_n",
                   help="also evaluate the finite-n value and the gap")
    p.add_argument("--sw-limit", type=float, dest="sw_limit",
                   help="externally supplied growth constant for cor1 targets")

    p = sub.add_parser("table", parents=[common], help="probability grid over (n, l, k)")
    p.add_argument("--avoid", default="")
    p.add_argument("--n", required=True, help="single value or lo..hi")
    p.add_argument("--l", help="single value or lo..hi (default: all valid)")
    p.add_argument("--k", help="single value or lo..hi (default: all valid)")
    p.add_argument("--union", action="store_true")
    p.add_argument("--formula", action="store_true")

    p = sub.add_parser("cache-audit", parents=[common],
                       help="recompute cached counts and compare")
    p.add_argument("--max-n", type=int, dest="max_n", default=10,
                   help="recompute entries up to this n; larger ones are skipped")

    for command, p in sub.choices.items():
        p.add_argument("--jobs", type=int, default=None if command == "verify" else 1,
                       metavar="N", help=_JOBS_HELP[command])
    return parser


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "prob": _cmd_prob,
    "verify": _cmd_verify,
    "limits": _cmd_limits,
    "table": _cmd_table,
    "cache-audit": _cmd_cache_audit,
}


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    meta = {
        "command": "permcluster " + " ".join(argv),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        cpus = usable_cores()
        if args.jobs is None:
            args.jobs = cpus
        if not 1 <= args.jobs <= cpus:
            raise ParseError(f"--jobs {args.jobs} outside 1..{cpus}")
        records, failed = _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    _emit(records, meta, args, out)
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
