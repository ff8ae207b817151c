"""Record a baseline, or compare two recorded baselines.

    python3 bench/baseline.py record OUT.json
    python3 bench/baseline.py compare FIRST.json SECOND.json

`record` runs `run.py` once per seed and workload, for SEEDS seeds and the
`run_seconds` of BENCHMARK.json, then once traced per workload, and writes
every result line with each metric's median, quartiles and quartile spread
(the distance between the first and third quartile over the median).  It
also times the ROADMAP re-anchor commands three times each.

`compare` prints, as a markdown table, each end-to-end metric's median and
spread in both files and the change of the median from the first to the
second.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

SEEDS = 10
RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
ROADMAP_COMMANDS = (
    ("prob", "--n", "10", "--avoid=", "--l", "3", "--union"),
    ("prob", "--n", "11", "--avoid", "sep", "--l", "3", "--k", "2", "--formula"),
)


def bench_run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                          "--trace", str(trace)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    layers = {line.split()[1]: line.split()[3] for line in out if line.startswith("layer ")}
    record = {"provenance": json.loads(out[0]), "result": json.loads(out[-1])}
    if layers:
        record["printed_layers"] = layers
    return record


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def roadmap_times(repeats: int = 3) -> dict[str, list[float]]:
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="baseline-", dir=run.ROOT / ".bench_tmp"))
    runner = run.Runner(tmp, time.monotonic() + 600)
    times = {}
    for argv in ROADMAP_COMMANDS:
        walls = []
        for i in range(repeats):
            home = tmp / f"{len(times)}-{i}"
            home.mkdir()
            res = runner.run([sys.executable, "-m", "permcluster", *argv,
                              "--cache", str(home / "counts.txt")], home)
            if res.returncode != 0:
                raise RuntimeError(f"{argv} exited {res.returncode}: "
                                   + " | ".join(res.stderr_tail))
            walls.append(res.wall_s)
        times["permcluster " + " ".join(argv)] = walls
    shutil.rmtree(tmp)
    return times


def record(out: str) -> None:
    baseline: dict = {"seconds": RUN_SECONDS, "workloads": {}}
    for workload in run.WORKLOADS:
        runs = [bench_run(workload, seed, 0) for seed in range(1, SEEDS + 1)]
        names = runs[0]["result"]["metrics"]
        baseline["workloads"][workload] = {
            "runs": runs,
            "summary": {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
                        for name in names},
            "traced": bench_run(workload, 1, 1),
        }
        print(workload, json.dumps(baseline["workloads"][workload]["summary"]), flush=True)
    baseline["roadmap_commands_s"] = roadmap_times()
    Path(out).write_text(json.dumps(baseline, indent=1) + "\n")


def compare(first: str, second: str) -> None:
    a, b = (json.loads(Path(f).read_text()) for f in (first, second))
    print("| workload | metric | median | quartile spread "
          "| second set median (change) | second set spread |")
    print("|---|---|---|---|---|---|")
    for workload, data in a["workloads"].items():
        for name, s1 in data["summary"].items():
            s2 = b["workloads"][workload]["summary"][name]
            change = (s2["median"] / s1["median"] - 1) * 100
            print(f"| `{workload}` | `{name}` ({run.END_TO_END[name]}) | {s1['median']:.4g} "
                  f"| {s1['spread']:.3f} | {s2['median']:.4g} ({change:+.1f}%) "
                  f"| {s2['spread']:.3f} |")


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        record(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
