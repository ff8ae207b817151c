"""Run one `permcluster` command with call tracing, for the traced run.

    python3 bench/traced_cli.py TRACE_OUT <permcluster arguments...>
    python3 bench/traced_cli.py --fresh-count-times OUT N:AVOID [N:AVOID ...]

The first form installs wrappers on the module attributes that the
program's callers look up, runs `permcluster.cli.main`, and writes the
trace to TRACE_OUT as JSON when the command ends.  Spans mark command,
suite and public-call boundaries; each is `[id, parent_id, name, start_ns,
end_ns, rows, info]` and is kept in memory until the end.  The hot scalar
calls in `transform` and `perms` only add to aggregated counters
`name -> [calls, total_ns]`, because a span per call would cost more than
the call.

The second form times `enumeration.fresh_count` on each input, which the
benchmark subtracts from event-table time to derive the tabulation share.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from permcluster import cli, enumeration, formulas, perms, transform, verify


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = [0]  # ids of the spans now running; 0 is the root
        self.counters: dict[str, list[int]] = {}

    def span(self, name: str, fn, rows=None, info=None):
        """Wrap fn so each call records a span; rows(args, result) and
        info(args) fill the span's optional fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(self.spans) + 1, self.open[-1], name, time.perf_counter_ns(), 0, None,
                   info(args) if info else None]
            self.spans.append(rec)
            self.open.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                self.open.pop()
                rec[4] = time.perf_counter_ns()
            if rows:
                rec[5] = rows(args, out)
            return out

        return traced

    def counter(self, name: str, fn):
        slot = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += time.perf_counter_ns() - t0

        return counted

    def generator_counter(self, name: str, fn):
        """Like counter, for a generator: counts time spent producing items,
        not time the consumer spends between them."""
        slot = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            slot[0] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    slot[1] += time.perf_counter_ns() - t0
                yield item

        return counted


def install(tr: Tracer) -> None:
    """Patch each traced name where its callers look it up."""
    e = enumeration
    for name in ("count_avoiders", "count_event", "count_union_event", "exact_probability",
                 "ratio_sequence"):
        setattr(e, name, tr.span(f"enumeration.{name}", getattr(e, name)))
    e.fresh_count = tr.span("enumeration.fresh_count", e.fresh_count,
                            rows=lambda a, out: out)
    e.event_count_table = tr.span("enumeration.event_count_table", e.event_count_table,
                                  rows=lambda a, out: out.total,
                                  info=lambda a: [a[0], a[1].key()])
    e.contains_pattern_rows = tr.span("enumeration.contains_pattern_rows",
                                      e.contains_pattern_rows, rows=lambda a, out: len(a[0]))
    e.enumerate_avoiders = tr.generator_counter("enumeration.enumerate_avoiders",
                                                e.enumerate_avoiders)
    e.CountCache.get = tr.span("enumeration.CountCache.get", e.CountCache.get,
                               rows=lambda a, out: int(out is not None))
    e.CountCache.put = tr.span("enumeration.CountCache.put", e.CountCache.put,
                               rows=lambda a, out: os.path.getsize(a[0].path))
    for name, fn in inspect.getmembers(formulas, inspect.isfunction):
        if fn.__module__ == formulas.__name__ and not name.startswith("_"):
            setattr(formulas, name, tr.span(f"formulas.{name}", fn))
    transform.contract = tr.counter("transform.contract", transform.contract)
    transform.expand = tr.counter("transform.expand", transform.expand)
    # verify and transform import in_cluster_event by name.
    in_event = tr.counter("perms.in_cluster_event", perms.in_cluster_event)
    for module in (perms, verify, transform):
        module.in_cluster_event = in_event
    for suite, (fn, default) in list(verify.SUITES.items()):
        verify.SUITES[suite] = (tr.span(f"verify.{suite}", fn, rows=lambda a, out: len(out.rows)),
                                default)


def main(argv: list[str]) -> int:
    if argv[0] == "--fresh-count-times":
        times = []
        for item in argv[2:]:
            n, avoid = item.split(":", 1)
            ps = cli.parse_avoid_spec(avoid)
            t0 = time.perf_counter_ns()
            enumeration.fresh_count(int(n), ps)
            times.append(time.perf_counter_ns() - t0)
        with open(argv[1], "w") as fh:
            json.dump(times, fh)
        return 0
    tr = Tracer()
    install(tr)
    try:
        return tr.span("cli.main", cli.main)(argv[1:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w") as fh:
            json.dump({"spans": tr.spans, "counters": tr.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
