"""The permcluster benchmark: run one workload and print every metric.

    python3 bench/run.py --workload grow --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each command of a workload is a real `permcluster` CLI invocation in a
fresh interpreter, run against this checkout's `src/` through PYTHONPATH
(the package need not be installed).  Every command gets its own empty
temporary HOME and count cache inside `.bench_tmp/`; only the commands of
one `session` pass share a cache.  Numeric thread pools are pinned to one
thread and no command uses more workers than there are usable cores.

A run imports the CLI once to warm up, then repeats passes over the
workload's commands until `--seconds` is spent, at least once; fresh
imports for `setup_s` are timed before and after the passes.  Every
command's output is checked against the
reference values in `reference.py`; a miss, a nonzero exit or a timeout is
an error, is reported on stderr with the last lines of the command's own
stderr, and makes the run exit 1.

`--trace 0` prints the end-to-end metrics, medians over the passes:

    wall_s        one pass
    perms_per_s   class members the pass's outputs report per second of
                  pass wall time (for `verify`: its fixed number of rows,
                  all of which must pass)
    peak_rss_mb   the largest process of a pass, pool workers included
    query_p50_ms  per-command wall time over every command of the run
    query_p90_ms
    setup_s       a fresh interpreter importing permcluster.cli

`--trace 1` alternates untraced passes and traced passes, in which every
command runs under `traced_cli.py`, and prints the per-layer metrics.
`--smoke` runs every workload at tiny sizes, traced and untraced, and shows
that the correctness gate fires on a deliberately wrong reference.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the error rate is
`failed / attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_CLI = BENCH / "traced_cli.py"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 9
STDERR_LINES = 5  # shown with a failed command
NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("grow", "tabulate", "verify", "session")
SUITES = ("uniform", "thm1", "thm2", "thm3", "cor2", "symmetry", "transform")

END_TO_END = {
    "wall_s": "s",
    "perms_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
}

_SESSION = "session: query_p50_ms, query_p90_ms"
_VERIFY = "verify: wall_s"
# Per-layer metrics: name -> (unit, the end-to-end metric it should move,
# whether it is in the result line).  One list of result-line metrics serves
# every workload, and a time that reads the same value on every run is not
# accepted as a measurement.  A layer that a workload never reaches times
# exactly 0 there on every run, so of the times only those every workload
# exercises go into the result line; counts and ratios may read 0, so all go
# in.  `jobs2_efficiency` exists only on `grow`.  The rest are printed above
# the result line.
PER_LAYER = {
    "enumeration.fresh_count.calls": ("count", "grow: wall_s, perms_per_s, peak_rss_mb", True),
    "enumeration.fresh_count.s": ("s", "grow: wall_s, perms_per_s, peak_rss_mb", True),
    "enumeration.fresh_count.rows": ("count", "grow: wall_s, perms_per_s, peak_rss_mb", True),
    "enumeration.jobs2_efficiency": ("ratio", "grow: wall_s", False),
    "enumeration.event_count_table.calls": ("count", "tabulate: wall_s", True),
    "enumeration.event_count_table.s": ("s", "tabulate: wall_s", False),
    "enumeration.tabulate_s.derived": ("s", "tabulate: wall_s", False),
    "enumeration.count_avoiders.calls": ("count", _SESSION, True),
    "enumeration.count_avoiders.self_s": ("s", _SESSION, True),
    "enumeration.CountCache.get.calls": ("count", _SESSION, True),
    "enumeration.CountCache.get.s": ("s", _SESSION, False),
    "enumeration.CountCache.get.hit_ratio": ("ratio", _SESSION, True),
    "enumeration.CountCache.put.calls": ("count", _SESSION, True),
    "enumeration.CountCache.put.s": ("s", _SESSION, False),
    "enumeration.CountCache.put.bytes_written": ("bytes", _SESSION, True),
    "formulas.calls": ("count", _SESSION, True),
    "formulas.self_s": ("s", _SESSION, False),
    "cli.main.self_s": ("s", _SESSION, True),
    "transform.contract.calls": ("count", _VERIFY, True),
    "transform.contract.s": ("s", _VERIFY, False),
    "transform.expand.calls": ("count", _VERIFY, True),
    "transform.expand.s": ("s", _VERIFY, False),
    "perms.in_cluster_event.calls": ("count", _VERIFY, True),
    "perms.in_cluster_event.s": ("s", _VERIFY, False),
    "enumeration.contains_pattern_rows.calls": ("count", _VERIFY, True),
    "enumeration.contains_pattern_rows.rows": ("count", _VERIFY, True),
    "enumeration.contains_pattern_rows.s": ("s", _VERIFY, False),
    "enumeration.enumerate_avoiders.calls": ("count", _VERIFY, True),
    "enumeration.enumerate_avoiders.s": ("s", _VERIFY, False),
    **{f"verify.{s}.{k}": (u, _VERIFY, k == "rows") for s in SUITES
       for k, u in (("s", "s"), ("rows", "count"))},
    "trace_overhead_pct": ("%", "none: the cost of tracing itself", True),
}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Result:
    wall_s: float
    rss_kb: int
    returncode: int
    stdout: str
    timed_out: bool
    stderr_tail: list[str]  # the last lines the command wrote to stderr


class Runner:
    """Runs commands one at a time, each in its own process group, and
    stops every one of them by the run's deadline."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")

    def run(self, args: list[str], home: Path) -> Result:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Result(0.0, 0, -1, "", True, [])
        errfile = home / "stderr.txt"
        t0 = time.perf_counter()
        with errfile.open("wb") as err:
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                                    cwd=home, env=dict(self.env, HOME=str(home)),
                                    start_new_session=True)
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline
        tail = errfile.read_text(errors="replace").splitlines()[-STDERR_LINES:]
        return Result(wall, usage.ru_maxrss, proc.returncode, out.decode(), timed_out, tail)

    def python(self, code: str) -> Result:
        home = Path(tempfile.mkdtemp(dir=self.tmp))
        return self.run([sys.executable, "-c", code], home)


@dataclass
class CommandRecord:
    argv: tuple[str, ...]
    wall_s: float
    rss_kb: int
    perms: int
    error: str | None
    trace: dict | None


@dataclass
class PassRecord:
    wall_s: float
    commands: list[CommandRecord]

    @property
    def perms(self) -> int:
        return sum(c.perms for c in self.commands)


def run_pass(runner: Runner, wl: workloads.Workload, traced: bool,
             count=reference.count) -> PassRecord:
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=runner.tmp))
    records = []
    t0 = time.perf_counter()
    for i, argv in enumerate(wl.commands):
        home = pass_dir / f"home{i}"
        home.mkdir()
        cache = pass_dir / "shared-counts.txt" if wl.shared_cache else home / "counts.txt"
        cli_args = [*argv, "--cache", str(cache)]
        trace_path = home / "trace.json"
        if traced:
            args = [sys.executable, str(TRACED_CLI), str(trace_path), *cli_args]
        else:
            args = [sys.executable, "-m", "permcluster", *cli_args]
        res = runner.run(args, home)
        perms, error = 0, None
        if res.timed_out:
            error = "timed out"
        else:
            try:
                perms = workloads.check(argv, res.returncode, res.stdout, count)
            except workloads.CheckError as exc:
                error = str(exc)
        if error:
            print(f"ERROR: permcluster {' '.join(argv)}: {error}", file=sys.stderr)
            for line in res.stderr_tail:
                print(f"  stderr: {line}", file=sys.stderr)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        records.append(CommandRecord(argv, res.wall_s, res.rss_kb, perms, error, trace))
    wall = time.perf_counter() - t0
    shutil.rmtree(pass_dir)
    return PassRecord(wall, records)


def repeat_passes(seconds: float, deadline: float, one_pass) -> list:
    """Call one_pass until `seconds` are spent: stop when the next call
    would end more than half a call late, or could overrun the deadline."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass())
        spent = time.perf_counter() - t0
        mean = spent / len(passes)
        if spent + mean / 2 >= seconds or time.monotonic() + 1.5 * mean >= deadline:
            return passes


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes: list[PassRecord], setup_times: list[float]) -> dict[str, float]:
    queries = [c.wall_s * 1000 for p in passes for c in p.commands]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "perms_per_s": statistics.median(p.perms / p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(max(c.rss_kb for c in p.commands) / 1024
                                         for p in passes),
        "query_p50_ms": percentile(queries, 0.5),
        "query_p90_ms": percentile(queries, 0.9),
        "setup_s": statistics.median(setup_times),
    }


def _span_stats(traces: list[dict]) -> tuple[dict[str, dict[str, float]], dict, dict]:
    """Per span name: calls, s (outermost spans only), self_s and rows; the
    summed counters; and event-table seconds per (n, avoid) input."""
    stats: dict[str, dict[str, float]] = {}
    counters: dict[str, list[int]] = {}
    tables: dict[tuple[int, str], float] = {}
    for trace in traces:
        spans = {s[0]: s for s in trace["spans"]}
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end, _, _ in spans.values():
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        for sid, parent, name, start, end, rows, info in spans.values():
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
            st["calls"] += 1
            st["self_s"] += (end - start - child_ns.get(sid, 0)) / 1e9
            st["rows"] += rows or 0
            up = parent
            while up and spans[up][2] != name:
                up = spans[up][1]
            if not up:
                st["s"] += (end - start) / 1e9
                if info:
                    key = (info[0], info[1])
                    tables[key] = tables.get(key, 0.0) + (end - start) / 1e9
        for name, (calls, ns) in trace["counters"].items():
            c = counters.setdefault(name, [0, 0])
            c[0] += calls
            c[1] += ns
    return stats, counters, tables


def layer_metrics(p: PassRecord) -> tuple[dict[str, float], dict[tuple[int, str], float]]:
    stats, counters, tables = _span_stats([c.trace for c in p.commands if c.trace])
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0}
    m: dict[str, float] = {}
    for name in ("enumeration.fresh_count", "enumeration.event_count_table",
                 "enumeration.count_avoiders", "enumeration.contains_pattern_rows",
                 "enumeration.CountCache.get", "enumeration.CountCache.put"):
        st = stats.get(name, empty)
        for field in ("calls", "s", "self_s", "rows"):
            m[f"{name}.{field}"] = st[field]
    gets = m["enumeration.CountCache.get.calls"]
    m["enumeration.CountCache.get.hit_ratio"] = (
        m["enumeration.CountCache.get.rows"] / gets if gets else 0.0)
    m["enumeration.CountCache.put.bytes_written"] = m["enumeration.CountCache.put.rows"]
    formula_spans = [st for name, st in stats.items() if name.startswith("formulas.")]
    m["formulas.calls"] = sum(st["calls"] for st in formula_spans)
    m["formulas.self_s"] = sum(st["self_s"] for st in formula_spans)
    m["cli.main.self_s"] = stats.get("cli.main", empty)["self_s"]
    for name in ("transform.contract", "transform.expand", "perms.in_cluster_event",
                 "enumeration.enumerate_avoiders"):
        calls, ns = counters.get(name, (0, 0))
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = ns / 1e9
    for suite in SUITES:
        st = stats.get(f"verify.{suite}", empty)
        m[f"verify.{suite}.s"] = st["s"]
        m[f"verify.{suite}.rows"] = st["rows"]
    return m, tables


def fresh_count_times(runner: Runner, inputs: list[tuple[int, str]]) -> list[float]:
    home = Path(tempfile.mkdtemp(dir=runner.tmp))
    out = home / "times.json"
    args = [sys.executable, str(TRACED_CLI), "--fresh-count-times", str(out),
            *(f"{n}:{avoid}" for n, avoid in inputs)]
    res = runner.run(args, home)
    if res.returncode != 0:
        raise RuntimeError(f"timing fresh_count failed with exit code {res.returncode}: "
                           + " | ".join(res.stderr_tail))
    return [ns / 1e9 for ns in json.loads(out.read_text())]


def trace_run(runner: Runner, wl: workloads.Workload, seconds: float,
              deadline: float) -> tuple[dict[str, float], list[PassRecord]]:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced ones, and the untraced ones give the tracing overhead
    and the `--jobs` efficiency."""
    pairs = repeat_passes(seconds, deadline, lambda: (run_pass(runner, wl, traced=False),
                                                      run_pass(runner, wl, traced=True)))
    plain = [a for a, _ in pairs]
    traced = [b for _, b in pairs]
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m, _ in per_pass)
               for name in per_pass[0][0]}
    metrics["trace_overhead_pct"] = (statistics.median(p.wall_s for p in traced)
                                     / statistics.median(p.wall_s for p in plain) - 1) * 100
    jobs_walls = [[c.wall_s for c in p.commands if "--jobs" in c.argv] for p in plain]
    if all(len(w) == 2 for w in jobs_walls):
        metrics["enumeration.jobs2_efficiency"] = statistics.median(
            w[0] / (2 * w[1]) for w in jobs_walls)
    tables = per_pass[0][1]
    inputs = sorted(tables)
    fresh = fresh_count_times(runner, inputs) if inputs else []
    metrics["enumeration.tabulate_s.derived"] = sum(tables[i] for i in inputs) - sum(fresh)
    return metrics, plain + traced


# ---------------------------------------------------------------------------
# provenance


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(versions: str) -> dict[str, object]:
    python, numpy = versions.split()
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"commit": _commit(), "nproc": NPROC, "cpu": _cpu_model(),
            "ram_gib": round(ram / 2**30, 1), "python": python, "numpy": numpy}


# ---------------------------------------------------------------------------


PROBE = "import sys, numpy, permcluster.cli; print(sys.version.split()[0], numpy.__version__)"


def check_import(runner: Runner) -> dict[str, object]:
    """Import the CLI once, which also warms the bytecode cache, and return
    the provenance record."""
    warm = runner.python(PROBE)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import permcluster from {ROOT / 'src'}: "
                           + " | ".join(warm.stderr_tail))
    return provenance(warm.stdout)


def setup_probes(runner: Runner, count: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI."""
    return [runner.python(PROBE).wall_s for _ in range(count)]


def summarize(passes: list[PassRecord]) -> tuple[int, int]:
    commands = [c for p in passes for c in p.commands]
    return len(commands), sum(c.error is not None for c in commands)


def bench(args, runner: Runner, deadline: float) -> int:
    jobs = min(2, NPROC)
    wl = workloads.build(args.workload, args.seed, jobs)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "inputs": wl.note,
                      "commands_per_pass": len(wl.commands), "jobs": jobs,
                      **check_import(runner)}))
    if args.trace:
        values, passes = trace_run(runner, wl, args.seconds, deadline)
        metrics = {}
        for name, (unit, moves, in_result) in PER_LAYER.items():
            value = values.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"layer {name} = {shown} {unit}   (should move {moves})")
            if in_result:
                metrics[name] = {"value": value, "unit": unit}
    else:
        # Set-up is timed before and after the passes, so that one slow
        # spell of the machine weighs less on it.
        setup_times = setup_probes(runner, SETUP_PROBES - SETUP_PROBES // 2)
        passes = repeat_passes(args.seconds, deadline, lambda: run_pass(runner, wl, False))
        setup_times += setup_probes(runner, SETUP_PROBES // 2)
        values = end_to_end(passes, setup_times)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        walls = ", ".join(f"{p.wall_s:.3f}" for p in passes)
        print(f"samples: {len(passes)} passes ({walls} s), "
              f"{sum(len(p.commands) for p in passes)} commands, {len(setup_times)} setup probes")
    attempted, failed = summarize(passes)
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def smoke(runner: Runner) -> int:
    """Every workload end to end at tiny sizes, then the gate on a wrong
    reference.  Exits 0 only if all pass and the gate fires."""
    ok = True
    check_import(runner)
    setup_times = setup_probes(runner, 2)
    for name in WORKLOADS:
        wl = workloads.build(name, 1, min(2, NPROC), smoke=True)
        plain = run_pass(runner, wl, traced=False)
        values = end_to_end([plain], setup_times)
        layers, _ = layer_metrics(run_pass(runner, wl, traced=True))
        attempted, failed = summarize([plain])
        good = failed == 0 and all(v > 0 for v in values.values()) and \
            layers["cli.main.self_s"] > 0
        ok &= good
        print(f"smoke {name}: {attempted} commands, {failed} failed, "
              f"wall_s {values['wall_s']:.3f}: {'ok' if good else 'FAILED'}")
    wrong = run_pass(runner, workloads.build("grow", 1, 1, smoke=True), traced=False,
                     count=lambda avoid, n: reference.count(avoid, n) + 1)
    attempted, failed = summarize([wrong])
    fired = failed == attempted
    ok &= fired
    print(f"smoke gate: {failed} of {attempted} commands flagged against a wrong reference: "
          f"{'ok' if fired else 'FAILED'}")
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        listed = json.loads(spec.read_text())
        same = ({m["name"] for m in listed["end_to_end"]} == set(END_TO_END)
                and {m["name"] for m in listed["per_layer"]}
                == {n for n, (_, _, shown) in PER_LAYER.items() if shown}
                and [w["name"] for w in listed["workloads"]] == list(WORKLOADS))
        ok &= same
        print(f"smoke BENCHMARK.json names match: {'ok' if same else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    if not (ROOT / "src" / "permcluster" / "cli.py").is_file():
        print(f"error: no permcluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        runner = Runner(tmp, deadline)
        return smoke(runner) if args.smoke else bench(args, runner, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
