"""Byte-identity of the CLI on a fixed set of cheap commands.

Each case runs `cli.main` in-process with `--no-meta` and a fresh default
cache under tmp_path, and compares stdout, stderr and the exit code with
the files under tests/golden/.  A change that is meant to keep the output
(a refactor, a speed-up) must leave them alone; a change that is meant to
alter it regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and shows the difference in its diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from permcluster import cli, enumeration

GOLDEN = Path(__file__).parent / "golden"

# name, arguments (before --no-meta), expected exit code
CASES = [
    ("count_321", ["count", "--n", "5", "--avoid", "321"], 0),
    ("count_n1", ["count", "--n", "1", "--avoid", "21"], 0),
    ("count_catalan", ["count", "--n", "14", "--avoid", "231"], 0),
    ("count_schroeder", ["count", "--n", "12", "--avoid", "sep"], 0),
    ("count_parse_error", ["count", "--n", "5", "--avoid", "33"], 2),
    ("enumerate_n1", ["enumerate", "--n", "1", "--avoid", "21"], 0),
    ("enumerate_sep", ["enumerate", "--n", "4", "--avoid", "2413+3142"], 0),
    # n >= 10: one-line text is space separated
    ("enumerate_n10", ["enumerate", "--n", "10", "--avoid", "12"], 0),
    ("prob_monotone", ["prob", "--n", "6", "--avoid", "321", "--l", "2", "--k", "1", "--formula"], 0),
    ("prob_anchored", ["prob", "--n", "6", "--avoid", "132", "--l", "2", "--k", "2", "--a", "3"], 0),
    ("prob_union", ["prob", "--n", "6", "--avoid", "", "--l", "3", "--union", "--formula"], 0),
    ("prob_sep_json", ["prob", "--n", "7", "--avoid", "sep", "--l", "3", "--k", "2", "--formula",
                       "--format", "json"], 0),
    ("prob_empty_class", ["prob", "--n", "3", "--avoid", "12+21", "--l", "2", "--k", "1"], 3),
    ("prob_out_of_range", ["prob", "--n", "5", "--avoid", "321", "--l", "9", "--k", "1"], 3),
    ("table_cluster_free", ["table", "--avoid", "2413", "--n", "5..6", "--l", "2..3", "--formula"], 0),
    ("table_sep_union", ["table", "--avoid", "sep", "--n", "5", "--union", "--formula"], 0),
    # n = 2..4: most cluster windows of a leaf are its last window or its whole parent
    ("table_boundary_sn", ["table", "--avoid=", "--n", "2..4", "--formula"], 0),
    ("table_boundary_union", ["table", "--avoid", "231", "--n", "2..4", "--union"], 0),
    ("table_boundary_sep", ["table", "--avoid", "sep", "--n", "3..4", "--formula"], 0),
    ("prob_boundary_anchored", ["prob", "--n", "4", "--avoid", "132+4321", "--l", "3", "--k", "2",
                                "--a", "2"], 0),
    ("limits_sep", ["limits", "sep", "--l", "2..4", "--at-n", "12"], 0),
    ("limits_cor2", ["limits", "cor2", "--fixed-k", "2", "--l", "2..3", "--at-n", "40"], 0),
    ("limits_cor1_321", ["limits", "cor1:321", "--l", "2..3"], 0),
    ("limits_cor1_1324", ["limits", "cor1:1324", "--l", "3", "--sw-limit", "11.6"], 0),
    ("verify_thm3", ["verify", "thm3", "--max-n", "6"], 0),
    ("verify_transform", ["verify", "transform", "--max-n", "5"], 0),
    ("cache_audit", ["cache-audit"], 1),
]

# The cache that cache_audit reads: one good entry, one wrong entry (a
# mismatch, exit 1) and one entry above the default --max-n (skipped).
AUDITED_CACHE = "".join(f"{key}\t{count}\t{enumeration.CountCache.checksum(key, count)}\n" for key, count in
                        (("avoid=2413;n=5", "103"), ("avoid=321;n=5", "41"), ("avoid=2413+3142;n=12", "5293446")))


def run_case(argv: list[str], home: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run whose default
    cache lives under home."""
    cache = home / "counts.txt"
    if argv[0] == "cache-audit":
        cache.write_text(AUDITED_CACHE)
    saved = cli._DEFAULT_CACHE
    cli._DEFAULT_CACHE = cache
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--no-meta"], out=out)
    finally:
        cli._DEFAULT_CACHE = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code, tmp_path):
    got_code, out, err = run_case(argv, tmp_path)
    assert got_code == code
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()


WARM_CASES = [case for case in CASES if case[1][0] in ("prob", "table")]


@pytest.mark.parametrize("name,argv,code", WARM_CASES, ids=[c[0] for c in WARM_CASES])
def test_warm_cache_output_matches_golden(name, argv, code, tmp_path, monkeypatch):
    # the second run starts from empty memos, so its tables come from the
    # store beside the cache that the first run wrote, not from growth
    for run in range(2):
        monkeypatch.setattr(enumeration, "_MEMO", {})
        if run:
            monkeypatch.setattr(enumeration, "fresh_table", None)
        got_code, out, err = run_case(argv, tmp_path)
    assert got_code == code
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        with tempfile.TemporaryDirectory() as home:
            got_code, out, err = run_case(argv, Path(home))
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
