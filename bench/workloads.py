"""The benchmark's workloads and the correctness gate on their output.

A workload is a list of `permcluster` command lines drawn from a seed; the
program receives only those arguments.  `check` compares what a command
printed with the reference values in `reference.py` and returns the
number of class members the output describes (the numerator of
`perms_per_s`; for `verify`, its fixed row count), or raises `CheckError`.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction

import reference

# Row count of `verify all --max-n N`; every row must pass.  It is also the
# fixed numerator of `perms_per_s` on `verify`.
VERIFY_ROWS = {7: 2317, 5: 905}


class CheckError(Exception):
    """A command's output disagrees with the reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    # session: every command of a pass shares one cache; otherwise each
    # command starts from an empty one.
    shared_cache: bool
    note: str


def build(name: str, seed: int, jobs: int, smoke: bool = False) -> Workload:
    """The commands of one pass of workload `name` for `seed`.

    `jobs` is the worker count of the parallel `grow` command, at most the
    number of usable cores.  `smoke` shrinks every size so that a pass
    takes about a second.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "grow":
        a = reference.symmetry_images("1342")[rng.randrange(8)]
        b = reference.symmetry_images("12345")[rng.randrange(8)]
        n1, n2 = (8, 7) if smoke else (11, 10)
        cmds = [("count", "--n", str(n1), "--avoid", a, "--jobs", "1"),
                ("count", "--n", str(n1), "--avoid", a, "--jobs", str(jobs)),
                ("count", "--n", str(n2), "--avoid", b)]
        return Workload(name, tuple(cmds), False, f"images {a} and {b}")
    if name == "tabulate":
        cmds = []
        for n, avoid in (((6, ""), (7, "sep")) if smoke else ((10, ""), (11, "sep"))):
            l = rng.randint(2, n - 1)
            k = rng.randint(1, n - l + 1)
            cmds.append(("prob", "--n", str(n), f"--avoid={avoid}", "--l", str(l),
                         "--k", str(k), "--formula"))
        return Workload(name, tuple(cmds), False, "(l, k) drawn from the seed")
    if name == "verify":
        max_n = 5 if smoke else 7
        return Workload(name, (("verify", "all", "--max-n", str(max_n)),), False,
                        "the seed is unused")
    if name == "session":
        return Workload(name, tuple(_session(rng, smoke)), True,
                        "patterns, sizes and query order drawn from the seed")
    raise KeyError(name)


def _session(rng: random.Random, smoke: bool) -> list[tuple[str, ...]]:
    # A small pattern pool makes some queries repeat, so the shared cache
    # is both written and read.  It always holds a pattern with a closed form
    # of each kind, so `--formula` is exercised.  Sizes and pattern lengths
    # are spread evenly over each kind of query, so that the work of a pass
    # depends little on the seed.
    len3 = ["123", "132", "213", "231", "312", "321"]
    len4 = sorted({q for rep in ("1342", "2413", "1234", "1243", "2143", "1432", "1324")
                   for q in reference.symmetry_images(rep)})
    short = [rng.choice(("123", "321")), rng.choice([p for p in len3 if p not in ("123", "321")])]
    long = [rng.choice(("2413", "3142"))]
    long += rng.sample([p for p in len4 if p not in ("2413", "3142")], 3)
    top = 6 if smoke else 9
    quota = {"count": 2, "prob": 2, "table": 2, "limits": 2} if smoke else \
        {"count": 40, "prob": 30, "table": 15, "limits": 15}

    def pattern(i: int) -> str:
        return rng.choice(short if i % 2 else long)

    def size(i: int) -> int:
        return top - (i // 2) % 4

    cmds = []
    for i in range(quota["count"]):
        cmds.append(("count", "--n", str(size(i)), "--avoid", pattern(i)))
    for i in range(quota["prob"]):
        n = size(i)
        l = rng.randint(2, n - 1)
        cmds.append(("prob", "--n", str(n), "--avoid", pattern(i), "--l", str(l),
                     "--k", str(rng.randint(1, n - l + 1)), "--formula"))
    for i in range(quota["table"]):
        cmds.append(("table", "--avoid", pattern(i), "--n", f"{size(i) - 1}..{size(i)}",
                     "--formula"))
    for i in range(quota["limits"]):
        cmds.append(("limits", f"cor1:{pattern(i)}", "--l", str(2 + i % 5)))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# the correctness gate


def _option(argv: tuple[str, ...], flag: str) -> str:
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    raise CheckError(f"no {flag} in {argv}")


def _rows(stdout: str) -> list[dict[str, str]]:
    body = "".join(line for line in io.StringIO(stdout) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _check_prob_row(row: dict[str, str], avoid: str, count) -> int:
    n, l = int(row["n"]), int(row["l"])
    total = int(row["class_count"])
    _expect(total == count(avoid, n), f"class_count {total} != reference {count(avoid, n)} "
                                      f"for avoid={avoid!r} n={n}")
    p = Fraction(row["probability"])
    _expect(p == Fraction(int(row["event_count"]), total), f"probability {p} != event/class")
    if avoid == "":
        _expect(p == reference.uniform_probability(n, l), f"probability {p} != uniform form")
    want = reference.expected_formula(avoid)
    _expect(row["formula"] == want, f"formula {row['formula']!r}, expected {want!r}")
    if want != "none":
        _expect(row["agree"] == "AGREE", f"formula row says {row['agree']!r}")
    return total


def check(argv: tuple[str, ...], returncode: int, stdout: str, count=reference.count) -> int:
    """Check one command's exit code and output; return the class members it
    reports (for `verify`, the fixed number of rows it must print).

    `count` is the reference count function; a deliberately wrong one shows
    that the gate fires.
    """
    _expect(returncode == 0, f"exit code {returncode}")
    rows = _rows(stdout)
    sub = argv[0]
    if sub == "count":
        avoid, n = _option(argv, "--avoid"), int(_option(argv, "--n"))
        _expect(len(rows) == 1, f"{len(rows)} rows")
        got = int(rows[0]["count"])
        _expect(got == count(avoid, n), f"count {got} != reference {count(avoid, n)} "
                                        f"for avoid={avoid!r} n={n}")
        return got
    if sub == "prob":
        _expect(len(rows) == 1, f"{len(rows)} rows")
        return _check_prob_row(rows[0], _option(argv, "--avoid"), count)
    if sub == "table":
        avoid = _option(argv, "--avoid")
        lo, hi = (int(x) for x in _option(argv, "--n").split(".."))
        want = sum(n - l + 1 for n in range(lo, hi + 1) for l in range(2, n))
        _expect(len(rows) == want, f"{len(rows)} rows, expected {want}")
        totals = {int(r["n"]): _check_prob_row(r, avoid, count) for r in rows}
        return sum(totals.values())
    if sub == "limits":
        tau = argv[1].split(":", 1)[1]
        l = int(_option(argv, "--l"))
        _expect(len(rows) == 1, f"{len(rows)} rows")
        row = rows[0]
        limit = reference.growth_limit(tau)
        if limit is None:
            _expect(row["growth_limit"] == "unavailable" and not row["upper"] + row["exact"],
                    f"growth limit of {tau} should be unknown: {row}")
            return 0
        _expect(row["growth_limit"] == str(limit), f"growth limit {row['growth_limit']} != {limit}")
        want = Fraction(count(tau, l), limit ** (l - 1))
        for col in ("upper", "exact"):
            if row[col]:
                _expect(Fraction(row[col]) == want, f"{col} {row[col]} != {want}")
        return 0
    if sub == "verify":
        max_n = int(_option(argv, "--max-n"))
        _expect(len(rows) == VERIFY_ROWS[max_n], f"{len(rows)} rows, expected {VERIFY_ROWS[max_n]}")
        failed = [r["instance"] for r in rows if r["status"] != "pass"]
        _expect(not failed, f"{len(failed)} rows fail, first {failed[:1]}")
        return VERIFY_ROWS[max_n]
    raise CheckError(f"no check for {sub!r}")
