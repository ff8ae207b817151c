import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from permcluster import SEP, cli, enumeration, growth


def run_cli(args, tmp_path):
    out = io.StringIO()
    code = cli.main(args + ["--cache", str(tmp_path / "counts.txt")], out=out)
    return code, out.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_count_examples(tmp_path):
    code, out = run_cli(["count", "--n", "5", "--avoid", "321", "--no-meta"], tmp_path)
    assert code == 0
    assert csv_rows(out) == [{"n": "5", "avoid": "321", "count": "42"}]
    code, out = run_cli(["count", "--n", "4", "--avoid", "sep", "--no-meta"], tmp_path)
    assert csv_rows(out)[0]["count"] == "22"
    code, out = run_cli(["count", "--n", "4", "--avoid", "", "--no-meta"], tmp_path)
    assert csv_rows(out)[0]["count"] == "24"


def test_enumerate_output(tmp_path):
    code, out = run_cli(["enumerate", "--n", "3", "--avoid", "321", "--no-meta"], tmp_path)
    assert code == 0
    assert [r["permutation"] for r in csv_rows(out)] == ["123", "132", "213", "231", "312"]


def test_prob_with_formula(tmp_path):
    code, out = run_cli(
        ["prob", "--n", "5", "--avoid", "321", "--l", "2", "--k", "1", "--formula", "--no-meta"],
        tmp_path,
    )
    assert code == 0
    row = csv_rows(out)[0]
    assert row["probability"] == "19/42"
    assert row["formula"] == "monotone3"
    assert row["agree"] == "AGREE"


def test_prob_uniform(tmp_path):
    code, out = run_cli(["prob", "--n", "4", "--avoid", "", "--l", "2", "--k", "2", "--no-meta"], tmp_path)
    assert csv_rows(out)[0]["probability"] == "1/2"


def test_prob_separable_formula_agrees(tmp_path):
    code, out = run_cli(
        ["prob", "--n", "6", "--avoid", "sep", "--l", "3", "--k", "1", "--formula", "--no-meta"],
        tmp_path,
    )
    assert code == 0
    assert csv_rows(out)[0]["agree"] == "AGREE"


def test_prob_union(tmp_path):
    code, out = run_cli(["prob", "--n", "5", "--avoid", "", "--l", "3", "--union", "--no-meta"], tmp_path)
    assert code == 0
    assert csv_rows(out)[0]["union"] == "yes"


def test_json_and_csv_cells_agree(tmp_path):
    args = ["prob", "--n", "5", "--avoid", "321", "--l", "2", "--k", "1", "--formula", "--no-meta"]
    _, out_csv = run_cli(args, tmp_path)
    _, out_json = run_cli(args + ["--format", "json"], tmp_path)
    assert csv_rows(out_csv) == json.loads(out_json)["rows"]


def test_no_meta_runs_are_byte_identical(tmp_path):
    args = ["count", "--n", "6", "--avoid", "132", "--no-meta"]
    _, a = run_cli(args, tmp_path)
    _, b = run_cli(args, tmp_path)
    assert a == b


def test_default_meta_has_timestamp(tmp_path):
    _, out = run_cli(["count", "--n", "3", "--avoid", ""], tmp_path)
    assert "generated_at=" in out
    _, js = run_cli(["count", "--n", "3", "--avoid", "", "--format", "json"], tmp_path)
    assert "generated_at" in json.loads(js)["meta"]


def test_decimal_cells_match_exact_cells(tmp_path):
    _, out = run_cli(
        ["table", "--avoid", "321", "--n", "6..7", "--l", "2..3", "--no-meta"], tmp_path
    )
    for row in csv_rows(out):
        num, den = row["probability"].split("/")
        assert abs(float(row["probability_dec"]) - int(num) / int(den)) < 1e-12


def test_verify_pass_and_exit_codes(tmp_path):
    code, out = run_cli(["verify", "uniform", "--max-n", "5", "--no-meta"], tmp_path)
    assert code == 0
    rows = csv_rows(out)
    assert rows and all(r["status"] == "pass" for r in rows)
    code, _ = run_cli(["verify", "all", "--max-n", "4", "--no-meta"], tmp_path)
    assert code == 0


def test_verify_runs_each_suite_small(tmp_path):
    for suite in ("thm1", "thm2", "thm3", "cor2", "symmetry", "transform"):
        code, out = run_cli(["verify", suite, "--max-n", "4", "--no-meta"], tmp_path)
        assert code == 0, suite
        assert csv_rows(out), suite


def test_verify_rejects_max_n_below_3(tmp_path, capsys):
    # every suite starts at n = 3, so a smaller cap would check nothing
    for suite, value in (("transform", "2"), ("transform", "-3"), ("all", "0"), ("cor2", "2")):
        code, out = run_cli(["verify", suite, "--max-n", value, "--no-meta"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2, (suite, value)
        assert out == ""
        assert err.startswith("error: --max-n") and err.count("\n") == 1
    code, out = run_cli(["verify", "transform", "--max-n", "3", "--no-meta"], tmp_path)
    assert code == 0 and csv_rows(out)


def test_limits_tables(tmp_path):
    code, out = run_cli(["limits", "sep", "--l", "3..4", "--no-meta"], tmp_path)
    rows = csv_rows(out)
    assert rows[0]["limit"] == "6*(3-2*sqrt(2))^2"
    assert rows[1]["limit"] == "22*(3-2*sqrt(2))^3"
    code, out = run_cli(["limits", "cor2", "--interior", "--l", "2..6", "--no-meta"], tmp_path)
    assert [r["limit"] for r in csv_rows(out)] == ["1/4", "1/16", "1/64", "1/256", "1/1024"]
    code, out = run_cli(["limits", "cor1:321", "--l", "3", "--no-meta"], tmp_path)
    row = csv_rows(out)[0]
    assert row["upper"] == "5/16" and row["lower"] == "1/16"
    code, out = run_cli(["limits", "cor1:2413", "--l", "3", "--no-meta"], tmp_path)
    assert csv_rows(out)[0]["growth_limit"] == "unavailable"
    code, out = run_cli(
        ["limits", "cor2", "--fixed-k", "1", "--l", "2", "--at-n", "50", "--no-meta"], tmp_path
    )
    row = csv_rows(out)[0]
    assert row["limit"] == "5/16" and row["value_at_n50"]
    code, out = run_cli(
        ["limits", "cor1:2413", "--l", "3..4", "--sw-limit", "5.83", "--no-meta"], tmp_path
    )
    rows = csv_rows(out)
    assert abs(float(rows[0]["exact_dec"]) - 6 / 5.83**2) < 1e-9
    assert abs(float(rows[1]["exact_dec"]) - 23 / 5.83**3) < 1e-9
    code, _ = run_cli(["limits", "cor2", "--fixed-k", "1", "--interior", "--l", "2"], tmp_path)
    assert code == 2  # the regimes are mutually exclusive


def test_table_grid(tmp_path):
    code, out = run_cli(
        ["table", "--avoid", "sep", "--n", "5", "--formula", "--no-meta"], tmp_path
    )
    assert code == 0
    rows = csv_rows(out)
    assert all(r["agree"] == "AGREE" for r in rows)
    ls = {r["l"] for r in rows}
    assert ls == {"2", "3", "4"}


@pytest.mark.parametrize("name, injective", [
    ("expand_rows", "ok=False not anchored: eta=12 rho=12 (l=2,k=1,a=1)"),
    ("contract_rows", None),  # the injectivity check expands only
], ids=["expand_rows", "contract_rows"])
def test_verify_reports_a_broken_transform(name, injective, tmp_path, monkeypatch, capsys):
    # a batch transform that swaps the first and last entries of each output
    # row breaks the round trips from n = 3 on: exit 1, one counterexample
    # line on stderr, and FAIL rows that name the first failure
    from permcluster import transform

    def swapped(*args, fn=getattr(transform, name)):
        out = fn(*args).copy()
        out[:, [0, -1]] = out[:, [-1, 0]]
        return out

    monkeypatch.setattr(transform, name, swapped)
    code, out = run_cli(["verify", "transform", "--max-n", "4", "--no-meta"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("counterexample in suite transform: round trips n=3: ")
    assert err[0].endswith(", got 8 failures first: 123 (l=2,k=1,a=1)")
    failed = {r["instance"]: r["actual"] for r in csv_rows(out) if r["status"] == "FAIL"}
    assert failed["round trips n=3"] == "8 failures first: 123 (l=2,k=1,a=1)"
    assert failed["round trips n=4"] == "60 failures first: 1234 (l=2,k=1,a=1)"
    assert failed.get("expansion injective and anchored n=3") == injective


def _verify_run(argv, jobs, tmp_path, monkeypatch, capsys):
    """(exit code, stdout less its command line, stderr) of one in-process
    `verify` at --jobs `jobs`, from empty memos and kept levels, so that
    every class is grown in the process the suites are dealt to."""
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    monkeypatch.setattr(growth, "_KEPT", growth._KeptLevels())
    monkeypatch.setattr(cli, "usable_cores", lambda: 2)
    code, out = run_cli(["verify", *argv, "--jobs", str(jobs), "--no-meta"], tmp_path)
    assert out.startswith("# command=permcluster verify ")
    return code, out.split("\n", 1)[1], capsys.readouterr().err


@pytest.mark.parametrize("argv", [["all", "--max-n", "6"]] + [[suite, "--max-n", "5"] for suite in cli._SUITE_NAMES],
                         ids=lambda argv: "-".join(argv))
def test_verify_prints_the_same_at_one_and_two_jobs(argv, tmp_path, monkeypatch, capsys):
    # the suites are dealt to two processes by class, and the rows put back
    # in the order of one process
    serial = _verify_run(argv, 1, tmp_path, monkeypatch, capsys)
    assert serial[0] == 0 and serial[1].count("\n") > 2
    assert _verify_run(argv, 2, tmp_path, monkeypatch, capsys) == serial


@pytest.mark.parametrize("name", ["expand_rows", "contract_rows"])
def test_verify_reports_a_broken_transform_at_two_jobs(name, tmp_path, monkeypatch, capsys):
    # a broken batch transform fails in whichever process runs its rows:
    # the same FAIL rows, and the same counterexample line, at both settings
    from permcluster import transform

    def swapped(*args, fn=getattr(transform, name)):
        out = fn(*args).copy()
        out[:, [0, -1]] = out[:, [-1, 0]]
        return out

    monkeypatch.setattr(transform, name, swapped)
    runs = [_verify_run(["transform", "--max-n", "4"], jobs, tmp_path, monkeypatch, capsys) for jobs in (1, 2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 1 and err.startswith("counterexample in suite transform: round trips n=3: ")
    assert any(r["status"] == "FAIL" for r in csv_rows(out))


# Runs `verify thm3 --max-n 5 --jobs 2` in a fresh process, with the thm3
# unit that a child takes raising there: the child marks that it started,
# and the unit this process takes waits for the mark.  Then prints whether
# any child of the process is left, running or not waited for.
_CHILD_FAILURE_PROBE = """
import os, sys, time
from permcluster import cli, verify
parent, mark = os.getpid(), sys.argv[1] + ".started"
suite, default = verify.SUITES["thm3"]

def failing(max_n, patterns):
    if os.getpid() != parent:
        open(mark, "w").close()
        raise ZeroDivisionError("unit failed in a child")
    while not os.path.exists(mark):
        time.sleep(0.01)
    return suite(max_n, patterns)

verify.SUITES["thm3"] = (failing, default)
cli.usable_cores = lambda: 2
code = cli.main(["verify", "thm3", "--max-n", "5", "--jobs", "2", "--no-meta", "--cache", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    print(code, "a child is left")
except ChildProcessError:
    print(code, "no child")
"""


def test_verify_unit_failing_in_a_child_is_an_internal_error(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _CHILD_FAILURE_PROBE, str(tmp_path / "counts.txt")],
                          capture_output=True, text=True)
    assert proc.stdout == "4 no child\n", proc.stderr
    assert proc.stderr.startswith("internal error: ZeroDivisionError: unit failed in a child\n")
    assert "in failing" in proc.stderr  # the child's traceback, as the cause


def test_jobs_flag_gives_same_answers(tmp_path):
    from permcluster import enumeration
    from permcluster.perms import PatternSet, Permutation

    enumeration._MEMO.pop("table:avoid=132;n=8", None)
    enumeration._MEMO.pop("avoid=132;n=8", None)
    code, out = run_cli(["count", "--n", "8", "--avoid", "132", "--jobs", "2", "--no-meta"], tmp_path)
    assert code == 0
    assert csv_rows(out)[0]["count"] == "1430"
    code, out = run_cli(
        ["prob", "--n", "7", "--avoid", "321", "--l", "3", "--k", "2", "--jobs", "2", "--no-meta"],
        tmp_path,
    )
    assert code == 0


def test_jobs_out_of_range_is_a_usage_error(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected --jobs value started a worker pool")

    monkeypatch.setattr(growth, "run_parts", no_pool)
    for jobs in ("0", "-1", str((os.cpu_count() or 1) + 1)):
        code, out = run_cli(["count", "--n", "8", "--avoid", "132", "--jobs", jobs], tmp_path)
        assert code == 2 and out == ""
        assert f"--jobs {jobs} outside 1.." in capsys.readouterr().err


def test_cache_audit_clean_and_tampered(tmp_path):
    code, _ = run_cli(["count", "--n", "5", "--avoid", "2413", "--no-meta"], tmp_path)
    assert code == 0
    code, out = run_cli(["cache-audit", "--no-meta"], tmp_path)
    assert code == 0
    assert all(r["status"] == "ok" for r in csv_rows(out))
    # tamper with the stored value, under its old checksum and resealed
    path, key = tmp_path / "counts.txt", "avoid=2413;n=5"
    path.write_text(path.read_text().replace("\t103", "\t104"))
    for cached in ("bad checksum", "104"):
        code, out = run_cli(["cache-audit", "--no-meta"], tmp_path)
        assert code == 1
        assert csv_rows(out) == [{"key": key, "cached": cached, "recomputed": "103", "status": "MISMATCH"}]
        _replace_line(path, key, _resealed(key, "104"))


def test_domain_error_exit(tmp_path):
    code, _ = run_cli(["prob", "--n", "5", "--avoid", "321", "--l", "9", "--k", "1"], tmp_path)
    assert code == 3
    code, _ = run_cli(["count", "--n", "-2", "--avoid", ""], tmp_path)
    assert code == 3


def test_oversized_listing_and_table_exit_3_before_growth(tmp_path, monkeypatch, capsys):
    # 13! rows of 13 bytes are over the listing budget, and S_13 is over the
    # S_n table cap; both are refused without growing anything
    def no_growth():
        raise AssertionError("no growth expected")

    monkeypatch.setattr(enumeration, "_engine", no_growth)
    code, out = run_cli(["enumerate", "--n", "13", "--avoid="], tmp_path)
    assert code == 3 and out == ""
    assert "over the budget of 40000000" in capsys.readouterr().err
    code, out = run_cli(["prob", "--n", "13", "--avoid=", "--l", "3", "--union"], tmp_path)
    assert code == 3 and out == ""
    assert "out of reach (n! rows); n <= 12" in capsys.readouterr().err


def test_largest_s_n_table_comes_from_the_decomposition(tmp_path, monkeypatch):
    # S_12 is served by the substitution decomposition, without growth
    def no_growth():
        raise AssertionError("no growth expected")

    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_engine", no_growth)
    code, out = run_cli(["prob", "--n", "12", "--avoid=", "--l", "3", "--union", "--no-meta"], tmp_path)
    assert code == 0
    row = csv_rows(out)[0]
    assert (row["event_count"], row["class_count"], row["probability"]) == ("170538330", "479001600",
                                                                           "5684611/15966720")


def test_cache_audit_regrows_decomposed_tables(tmp_path, monkeypatch):
    # decomposed tables are stored like grown ones, and the audit checks
    # them against growth
    monkeypatch.setattr(enumeration, "_MEMO", {})
    for avoid in ("--avoid=", "--avoid=sep"):
        assert run_cli(["prob", "--n", "10", avoid, "--l", "3", "--union", "--no-meta"], tmp_path)[0] == 0
    code, out = run_cli(["cache-audit", "--max-n", "10", "--no-meta"], tmp_path)
    assert code == 0
    assert [(row["key"], row["status"]) for row in csv_rows(out)] == [
        ("avoid=2413+3142;n=10", "ok"), ("table:avoid=2413+3142;n=10", "ok"), ("table:avoid=;n=10", "ok")]


def test_parse_error_exit(tmp_path):
    code, _ = run_cli(["count", "--n", "5", "--avoid", "33"], tmp_path)
    assert code == 2
    code, _ = run_cli(["prob", "--n", "5", "--avoid", "", "--l", "2", "--union", "--k", "1"], tmp_path)
    assert code == 2
    code, _ = run_cli(["prob", "--n", "5", "--avoid", "", "--l", "2"], tmp_path)
    assert code == 2
    code, out = run_cli(["table", "--avoid", "321", "--n", "5", "--union", "--k", "2"], tmp_path)
    assert code == 2 and out == ""  # as for prob: a union row has no k
    code, _ = run_cli(["limits", "nonsense", "--l", "2"], tmp_path)
    assert code == 2


def test_unusable_cache_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = io.StringIO()
    code = cli.main(["count", "--n", "5", "--avoid", "1342", "--cache", str(blocker / "counts.txt")],
                    out=out)
    assert code == 2 and out.getvalue() == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit(tmp_path):
    assert cli.main(["count"]) == 2  # missing --n
    assert cli.main(["no-such-command"]) == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "permcluster.cli", "count", "--n", "4", "--avoid", "321",
         "--no-meta", "--cache", str(tmp_path / "c.txt")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4,321,14" in proc.stdout


# The package this test imports, found from any working directory.
SCRIPT_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))), os.environ.get("PYTHONPATH")]))}


def run_script(args, cwd, **kwargs):
    """The finished `python -m permcluster args` in cwd, stdout and stderr
    as bytes (stdout to kwargs["stdout"] if given)."""
    kwargs = {"stdout": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "permcluster", *args], cwd=cwd, env=SCRIPT_ENV,
                          stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("args", [["verify", "transform", "--max-n", "5", "--jobs", "1"],
                                  ["table", "--avoid", "2413", "--n", "5..6", "--formula"]],
                         ids=["verify", "table"])
def test_script_prints_through_a_pipe_what_main_prints(args, tmp_path, monkeypatch):
    # `run` ends the process once its output is flushed; nothing is lost
    argv = [*args, "--no-meta", "--cache", "counts.txt"]
    for side in ("script", "main"):
        (tmp_path / side).mkdir()
    proc = run_script(argv, tmp_path / "script")
    monkeypatch.chdir(tmp_path / "main")
    out = io.StringIO()
    assert cli.main(argv, out=out) == proc.returncode == 0
    assert proc.stdout.decode() == out.getvalue() and proc.stderr == b""


@pytest.mark.parametrize("args,code", [(["count", "--n", "5", "--avoid", "321"], 0),
                                       (["count", "--avoid", "321"], 2),
                                       (["prob", "--n", "3", "--avoid", "123", "--l", "5", "--k", "1"], 3)],
                         ids=["ok", "usage", "domain"])
def test_script_keeps_the_exit_codes(args, code, tmp_path):
    assert run_script([*args, "--cache", str(tmp_path / "c.txt")], tmp_path).returncode == code


def assert_one_write_error(code, err):
    err = err.decode()
    assert code == cli.EXIT_USAGE == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the Linux /dev/full")
@pytest.mark.parametrize("n", [4, 8], ids=["buffered", "streamed"])
def test_a_full_output_device_exits_2(n, tmp_path):
    # a short output fails at the final flush, a long one inside main
    with open("/dev/full", "wb") as full:
        proc = run_script(["enumerate", "--n", str(n), "--avoid=", "--no-meta", "--cache", "c.txt"], tmp_path,
                          stdout=full)
    assert_one_write_error(proc.returncode, proc.stderr)


def test_a_reader_that_closes_early_exits_2(tmp_path):
    proc = subprocess.Popen([sys.executable, "-m", "permcluster", "enumerate", "--n", "8", "--avoid=", "--no-meta",
                             "--cache", "c.txt"], cwd=tmp_path, env=SCRIPT_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"# command=permcluster enumerate")
    proc.stdout.close()
    err = proc.stderr.read()
    assert_one_write_error(proc.wait(), err)


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # exit 1 stays reserved for counterexamples; anything unforeseen exits 4
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "count", broken)
    code, out = run_cli(["count", "--n", "5", "--avoid", "321"], tmp_path)
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom\nTraceback (most recent call last):\n")
    assert err.endswith("RuntimeError: boom\n")


# The modules that a command answered from the stores has no use for.
HEAVY_MODULES = ("numpy", "dataclasses", "inspect", "json", "traceback", "fractions", "permcluster.formulas",
                 "permcluster.transform", "permcluster.growth", "permcluster.verify")

# Runs `cli.main` on its arguments (if any) in a fresh process, then prints
# its exit code and which of HEAVY_MODULES the process loaded from
# `from permcluster.cli import main` on.
_IMPORT_PROBE = f"""
import sys
before = set(sys.modules)
from permcluster.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(set({HEAVY_MODULES!r}) & (set(sys.modules) - before)))
"""


def loaded_modules(*args):
    """(stdout lines, exit code, loaded heavy modules) of one probed run."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.splitlines()
    code, *loaded = last.split()
    return output, int(code), set(loaded)


def test_cli_import_leaves_out_the_verification_suites():
    assert loaded_modules() == ([], 0, set())


def test_verify_choices_are_the_suite_names():
    from permcluster import verify

    assert list(cli._SUITE_NAMES) == sorted(verify.SUITES)


def test_answers_from_the_stores_leave_out_numpy(tmp_path):
    # a cache-hit count, a table-hit prob and a limits row, each in a fresh
    # process, load none of the heavy modules but the closed forms and
    # fractions (for --formula and limits) and json (for --format json);
    # the first 1324 count and the first prob grow, with numpy, and fill
    # the stores (1324 has no image the state counter takes and no closed
    # form; 2413 has no known growth constant, so its limits rows count
    # nothing); the 1342 counts come from Bóna's closed form, without numpy
    # even when cold, and load no other module for it
    cache = ["--cache", str(tmp_path / "counts.txt"), "--no-meta"]
    count = ["count", "--n", "9", "--avoid", "1342", *cache]
    count11 = ["count", "--n", "11", "--avoid", "1342", *cache]
    grown = ["count", "--n", "9", "--avoid", "1324", *cache]
    prob = ["prob", "--n", "8", "--avoid", "321", "--l", "3", "--k", "2", "--formula", *cache]
    limits = ["limits", "cor1:2413", "--l", "3..5", *cache]
    ratios, engine = {"permcluster.formulas", "fractions"}, {"numpy", "permcluster.growth"}
    for args, grows, warm in ((count, False, set()), (grown, True, set()), (prob, True, ratios),
                              (limits, False, ratios), (count + ["--format", "json"], False, {"json"}),
                              (count11, False, set())):
        first, code, cold = loaded_modules(*args)
        assert code == 0 and cold & engine == (engine if grows else set())
        again, code, loaded = loaded_modules(*args)
        assert code == 0 and loaded == warm and again == first
    # the growing lookups stored every width up to the reach: 9 for 1324, 11 for 321
    tables = [line.split("\t")[0] for line in (tmp_path / "counts.txt.tables").read_text().splitlines()]
    assert tables == sorted([f"avoid=1324;n={n}" for n in range(2, 10)] + [f"avoid=321;n={n}" for n in range(2, 12)])


def test_queries_after_a_cold_table_leave_out_numpy(tmp_path, monkeypatch):
    # one cold table of 1324 at n = 5..6 grows the class and stores every
    # width up to its reach, 9: a prob at 9, a table at 8..9 and a count at
    # 8 then load neither numpy nor the growth engine, and print the rows
    # that each prints from an empty store
    cache = ["--no-meta", "--cache", str(tmp_path / "counts.txt")]
    _, code, loaded = loaded_modules("table", "--avoid", "1324", "--n", "5..6", *cache)
    assert code == 0 and {"numpy", "permcluster.growth"} <= loaded
    ratios = {"permcluster.formulas", "fractions"}
    for args, loads in ((["prob", "--n", "9", "--avoid", "1324", "--l", "3", "--k", "2", "--formula"], ratios),
                        (["table", "--avoid", "1324", "--n", "8..9"], {"fractions"}),
                        (["count", "--n", "8", "--avoid", "1324"], set())):
        output, code, loaded = loaded_modules(*args, *cache)
        assert code == 0 and loaded == loads, args
        monkeypatch.setattr(enumeration, "_MEMO", {})
        code, cold = run_cli(args + ["--no-meta"], tmp_path / args[0])
        assert code == 0 and output[1:] == cold.splitlines()[1:], args


def test_state_counts_leave_out_numpy(tmp_path):
    # single patterns with an image the state counter takes are counted in
    # a fresh process from an empty cache without numpy or growth, one
    # length-3 pattern above n = 10 too (Catalan numbers are no count
    # source); limits loads the closed forms always
    cache = ["--no-meta", "--cache", str(tmp_path / "counts.txt")]
    ratios = {"permcluster.formulas", "fractions"}
    for args, want, loads in (
        (["count", "--n", "11", "--avoid", "1342"], ["11,1342,3475090"], set()),
        (["count", "--n", "10", "--avoid", "54321"], ["10,54321,2190688"], set()),
        (["count", "--n", "14", "--avoid", "231"], ["14,231,2674440"], set()),
        (["limits", "cor1:1342", "--l", "3..6"], [f"1342,{l},8,{upper}," for l, upper in
                                                 ((3, "3/32"), (4, "23/512"), (5, "103/4096"), (6, "1/64"))], ratios),
    ):
        output, code, loaded = loaded_modules(*args, *cache)
        assert code == 0 and loaded == loads, args
        assert len(output) == 2 + len(want) and all(row.startswith(w) for row, w in zip(output[2:], want))
    lines = [line.split("\t") for line in (tmp_path / "counts.txt").read_text().splitlines()]
    assert all(crc == enumeration.CountCache.checksum(key, value) for key, value, crc in lines)
    counts = {key: value for key, value, _ in lines}
    assert counts["avoid=1342;n=6"] == "512" and counts["avoid=231;n=14"] == "2674440"


def test_wilf_class_of_1342_counts_leave_out_numpy(tmp_path):
    # a cold count of 2413 (no image the state counter takes) or of 1342
    # comes from Bóna's closed form, without numpy, the growth engine, the
    # closed-form module or fractions
    for text, n, want in (("2413", 13, 144640291), ("1342", 16, 43478151737)):
        output, code, loaded = loaded_modules("count", "--n", str(n), "--avoid", text, "--no-meta",
                                              "--cache", str(tmp_path / text / "counts.txt"))
        assert code == 0 and loaded == set(), text
        assert output[-1] == f"{n},{text},{want}"


def test_limits_sep_decimals_lie_in_the_exact_enclosure(tmp_path):
    # each printed limit_dec lies in the limit's rational enclosure, widened
    # by half a unit in its 15th significant digit (taken as a + b*sqrt(2)
    # in floats, the decimal cancelled: l = 12 printed 0)
    from fractions import Fraction

    from permcluster import formulas

    code, out = run_cli(["limits", "sep", "--l", "2..30", "--no-meta"], tmp_path)
    assert code == 0
    rows = csv_rows(out)
    assert [row["l"] for row in rows] == [str(l) for l in range(2, 31)]
    for row in rows:
        lo, hi = formulas.separable_cluster_limit(int(row["l"])).bounds()
        half_unit = Fraction(5, 10**15) * 10 ** math.floor(math.log10(lo))
        assert hi - lo < half_unit and lo - half_unit <= Fraction(row["limit_dec"]) <= hi + half_unit, row


def test_s_n_table_leaves_out_numpy(tmp_path):
    # a cold S_10 table comes from the substitution decomposition, which
    # loads neither numpy nor the growth engine; --formula loads the
    # closed forms
    output, code, loaded = loaded_modules("prob", "--n", "10", "--avoid=", "--l", "3", "--k", "2", "--formula",
                                          "--no-meta", "--cache", str(tmp_path / "counts.txt"))
    assert code == 0 and loaded == {"permcluster.formulas", "fractions"}
    assert output[-1].startswith("10,,3,2,,,241920,3628800,1/15,")
    assert (tmp_path / "counts.txt.tables").read_text().startswith("avoid=;n=10\t")


def test_decomposed_tables_and_long_patterns_leave_out_numpy(tmp_path, monkeypatch):
    # cold tables of S_n and of the separable class below n = 10 come from
    # the gated decomposition, and print the rows that growth gives (the
    # decomposition's gate failed in process); patterns of length 6 and 7
    # are counted by states, gated on the scalar count up to m + 1: no
    # process loads numpy or the growth engine
    engine = {"numpy", "permcluster.growth"}
    grown = {("decomposition", ""): False, ("decomposition", SEP.key()): False}
    for name, args in (("sn", ["table", "--avoid=", "--n", "2..9"]),
                       ("sep", ["table", "--avoid", "sep", "--n", "2..9", "--union"])):
        output, code, loaded = loaded_modules(*args, "--no-meta", "--cache", str(tmp_path / name / "counts.txt"))
        assert code == 0 and not loaded & engine, args
        monkeypatch.setattr(enumeration, "_MEMO", {})
        monkeypatch.setattr(enumeration, "_GATE", dict(grown))
        code, want = run_cli(args + ["--no-meta"], tmp_path / f"{name}-grown")
        assert code == 0 and output[1:] == want.splitlines()[1:], args
    for name, args, want in (("m6", ["count", "--n", "12", "--avoid", "123456"], "12,123456,370531683"),
                             ("m7", ["count", "--n", "9", "--avoid", "1234567"], "9,1234567,361302")):
        output, code, loaded = loaded_modules(*args, "--no-meta", "--cache", str(tmp_path / name / "counts.txt"))
        assert code == 0 and not loaded & engine and output[-1] == want, args


def test_separable_counts_leave_out_numpy(tmp_path):
    # from an empty cache, every separable count comes from the gated
    # substitution decomposition (n <= 10, and the Schroeder recurrence's
    # gate) or the recurrence (n > 10), so none loads numpy or the growth
    # engine; --formula and limits load the closed forms
    ratios = {"permcluster.formulas", "fractions"}
    limits = [f"{l},{c}*(3-2*sqrt(2))^{l - 1}," for l, c in
              ((3, 6), (4, 22), (5, 90), (6, 394), (7, 1806), (8, 8558), (9, 41586), (10, 206098), (11, 1037718),
               (12, 5293446))]
    for name, args, want, loads in (
        ("prob", ["prob", "--n", "11", "--avoid=sep", "--l", "3", "--k", "2", "--formula"],
         ["11,2413+3142,3,2,,,249516,1037718,13862/57651,0.240446826594508,separable,13862/57651,"
          "0.240446826594508,AGREE"], ratios),
        ("limits", ["limits", "sep", "--l", "3..12"], limits, ratios),
        ("count", ["count", "--n", "12", "--avoid", "sep"], ["12,2413+3142,5293446"], set()),
    ):
        output, code, loaded = loaded_modules(*args, "--no-meta", "--cache", str(tmp_path / name / "counts.txt"))
        assert code == 0 and loaded == loads, args
        assert len(output) == 2 + len(want) and all(row.startswith(w) for row, w in zip(output[2:], want)), output


def test_count_below_the_pattern_length_leaves_out_numpy(tmp_path):
    # |S_3(1342)| = 3! without growth, an identity that is never written
    cache = tmp_path / "counts.txt"
    output, code, loaded = loaded_modules("limits", "cor1:1342", "--l", "3", "--no-meta", "--cache", str(cache))
    assert code == 0 and loaded == {"permcluster.formulas", "fractions"}
    assert output[1:] == [
        "pattern,l,growth_limit,upper,upper_dec,exact,exact_dec,lower,lower_dec,note",
        '1342,3,8,3/32,0.09375,,,1/64,0.015625,"conditions held: c1,c2; cluster-free: False"',
    ]
    assert not cache.exists()


# Runs `python -c <code>` and prints its exit code, its peak RSS in KiB and
# its stdout.  A child's peak RSS counts the pages of the process it was
# forked from, so the measured process is started from this small driver,
# not from the test process.
_RSS_DRIVER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-c", sys.argv[1]], stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
sys.stdout.write(out.decode())
"""


def peak_rss_mib(code):
    """Run `python -c code` in a fresh process; its exit code, stdout and
    peak RSS in MiB."""
    proc = subprocess.run([sys.executable, "-c", _RSS_DRIVER, code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    head, _, out = proc.stdout.partition("\n")
    status, rss_kib = map(int, head.split())
    return status, out, rss_kib / 1024


def test_count_memory_is_bounded_by_the_part_size(tmp_path):
    # growth holds one part of each level at a time, so counting the 25M
    # members of S_12(1324) takes a few MiB above the imports (1324 has no
    # closed form and no image the state counter takes, so it is grown)
    baseline = peak_rss_mib("import numpy, permcluster.cli")[2]
    args = ["count", "--n", "12", "--avoid", "1324", "--no-meta", "--cache", str(tmp_path / "counts.txt")]
    code, out, peak = peak_rss_mib(f"import sys; from permcluster import cli; sys.exit(cli.main({args!r}))")
    assert code == 0 and out.splitlines()[-1] == "12,1324,25431452"
    assert peak - baseline < 48, (peak, baseline)


def test_jobs_bound_is_the_cores_the_process_may_use(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code, out = run_cli(["count", "--n", "8", "--avoid", "132", "--jobs", "2"], tmp_path)
    assert code == 2 and out == ""
    assert "--jobs 2 outside 1..1" in capsys.readouterr().err


def test_jobs_bound_without_sched_getaffinity(tmp_path, monkeypatch, capsys):
    # where the platform has no affinity call (macOS), the bound is the
    # machine's cores
    monkeypatch.delattr(os, "sched_getaffinity")
    code, out = run_cli(["count", "--n", "5", "--avoid", "321", "--no-meta"], tmp_path)
    assert code == 0 and csv_rows(out)[0]["count"] == "42"
    cpus = os.cpu_count() or 1
    code, out = run_cli(["count", "--n", "5", "--avoid", "321", "--jobs", str(cpus + 1)], tmp_path)
    assert code == 2 and out == ""
    assert f"--jobs {cpus + 1} outside 1..{cpus}" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (["cor1:321", "--at-n", "50"], "--at-n"),
    (["sep", "--fixed-k", "2"], "--fixed-k"),
    (["sep", "--sw-limit", "4"], "--sw-limit"),
    (["cor2", "--sw-limit", "4"], "--sw-limit"),
], ids=["cor1-at-n", "sep-fixed-k", "sep-sw-limit", "cor2-sw-limit"])
def test_limits_rejects_an_option_its_target_does_not_read(args, option, tmp_path, capsys):
    code, out = run_cli(["limits", *args, "--l", "3", "--no-meta"], tmp_path)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: limits {args[0].split(':')[0]} does not read {option}\n"


@pytest.mark.parametrize("spec, message", [
    ("5..3", "empty range '5..3'"), ("x", "bad range 'x'"), ("3..x", "bad range '3..x'"),
])
def test_bad_int_range_is_a_usage_error(spec, message, tmp_path, capsys):
    code, out = run_cli(["table", "--avoid", "321", "--n", spec, "--no-meta"], tmp_path)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_limits_right_offset_matches_fixed_k(tmp_path):
    # the limit at a fixed right offset equals the limit at that fixed k
    limits = {}
    for regime in ("--right-offset", "--fixed-k"):
        code, out = run_cli(["limits", "cor2", regime, "2", "--l", "2..3", "--no-meta"], tmp_path)
        assert code == 0
        limits[regime] = [(r["l"], r["k"], r["limit"], r["limit_dec"]) for r in csv_rows(out)]
    assert limits["--right-offset"] == limits["--fixed-k"] == [("2", "2", "17/64", "0.265625"),
                                                               ("3", "2", "5/64", "0.078125")]


def test_table_that_selects_no_event_is_a_domain_error(tmp_path, capsys):
    # as prob exits 3 on an event out of range, table exits 3 when its
    # ranges select no event at all, and prints nothing on stdout
    for ranges in (["--n", "5", "--l", "9"], ["--n", "3", "--l", "5"], ["--n", "1..2"],
                   ["--n", "3..4", "--l", "3", "--k", "3"]):
        for fmt in ("csv", "json"):
            code, out = run_cli(["table", "--avoid", "321", *ranges, "--format", fmt, "--no-meta"], tmp_path)
            assert code == 3 and out == ""
            assert capsys.readouterr().err == f"error: {' '.join(ranges)} select no event: " \
                                              "every event has 2 <= l <= n-1 and 1 <= k <= n-l+1\n"


def test_prob_formula_none_leaves_the_value_cells_empty(tmp_path):
    # 1342 has a cluster, so no closed form applies
    code, out = run_cli(["prob", "--n", "6", "--avoid", "1342", "--l", "2", "--k", "1", "--formula", "--no-meta"],
                        tmp_path)
    assert code == 0
    row = csv_rows(out)[0]
    assert (row["probability"], row["formula"], row["formula_value"], row["formula_value_dec"], row["agree"]) \
        == ("103/256", "none", "", "", "")


@pytest.mark.parametrize("target", ["sep", "cor1:321"])
def test_limits_below_l_2_is_a_domain_error(target, tmp_path, capsys):
    code, out = run_cli(["limits", target, "--l", "1", "--no-meta"], tmp_path)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "error: limits need l >= 2\n"


def test_count_above_the_enumeration_cap_exits_3_before_growth(tmp_path, monkeypatch, capsys):
    def no_growth(*args):
        raise AssertionError("no growth expected")

    monkeypatch.setattr(growth, "_children", no_growth)
    code, out = run_cli(["count", "--n", "61", "--avoid", "1324", "--no-meta"], tmp_path)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "error: enumeration supports n <= 60\n"


def test_identities_are_never_read_from_the_cache(tmp_path, monkeypatch):
    # |S_3(1342)| is 3!, whatever a sealed count line says; the audit still
    # flags the line
    monkeypatch.setattr(enumeration, "_MEMO", {})
    counts = tmp_path / "counts.txt"
    counts.write_text(_resealed("avoid=1342;n=3", "7") + "\n")
    code, out = run_cli(["count", "--n", "3", "--avoid", "1342", "--no-meta"], tmp_path)
    assert code == 0 and csv_rows(out)[0]["count"] == "6"
    code, out = run_cli(["limits", "cor1:1342", "--l", "3", "--no-meta"], tmp_path)
    assert code == 0 and csv_rows(out)[0]["upper"] == "3/32"
    code, out = run_cli(["cache-audit", "--no-meta"], tmp_path)
    assert code == 1
    assert csv_rows(out) == [{"key": "avoid=1342;n=3", "cached": "7", "recomputed": "6", "status": "MISMATCH"}]


def test_table_of_an_identity_class_reads_back_without_its_count(tmp_path, monkeypatch):
    # a stored table of S_3(1342), all of S_3, is checked against 3!, so it
    # is used with no count line to check it against
    args = ["prob", "--n", "3", "--avoid", "1342", "--l", "2", "--k", "1", "--no-meta"]
    monkeypatch.setattr(enumeration, "_MEMO", {})
    code, want = run_cli(args, tmp_path)
    assert code == 0 and (tmp_path / "counts.txt.tables").exists()
    (tmp_path / "counts.txt").unlink(missing_ok=True)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "fresh_table", None)
    assert run_cli(args, tmp_path) == (0, want)


def _stored_line(path, key):
    return next(line for line in path.read_text().splitlines() if line.startswith(key + "\t"))


def _replace_line(path, key, line):
    lines = [line if old.startswith(key + "\t") else old for old in path.read_text().splitlines()]
    path.write_text("".join(f"{ln}\n" for ln in lines))


def _resealed(key, value):
    return f"{key}\t{value}\t{enumeration.TableStore.checksum(key, value)}"


def test_tampered_table_lines_are_ignored(tmp_path, monkeypatch):
    # each tampered line is ignored: the table is grown again, the printed
    # probability is the recomputed one and the line is rewritten whole;
    # the first lookup grows the table at 7 and, with it, those of every
    # other width up to the reach, 2..9, so the second finds its line
    args = ["prob", "--n", "7", "--avoid", "1342", "--l", "3", "--k", "2", "--a", "1", "--no-meta"]
    grown = []
    fresh_table = enumeration.fresh_table
    monkeypatch.setattr(enumeration, "fresh_table", lambda *a, **kw: grown.append(a) or fresh_table(*a, **kw))

    def run(argv):
        monkeypatch.setattr(enumeration, "_MEMO", {})
        return run_cli(argv, tmp_path)

    args6 = args[:2] + ["6"] + args[3:]
    code, want = run(args)
    assert code == 0 and csv_rows(want)[0]["event_count"] != "0"
    code, want6 = run(args6)
    assert code == 0 and want6 != want
    tables = tmp_path / "counts.txt.tables"
    k7, k6 = "avoid=1342;n=7", "avoid=1342;n=6"
    line7, line6 = _stored_line(tables, k7), _stored_line(tables, k6)
    assert len(grown) == 8 and run(args) == (0, want) and len(grown) == 8  # an intact line is used
    _, value7, crc7 = line7.split("\t")
    _, value6, crc6 = line6.split("\t")
    entry = next(e for e in value7.split(",") if e.startswith("3.2.1="))
    bumped = entry[:-1] + str((int(entry[-1]) + 1) % 10)
    total = value7.rsplit("=", 1)[1]
    cases = {
        "digit changed under the old checksum": {k7: f"{k7}\t{value7.replace(entry, bumped)}\t{crc7}"},
        "truncated line": {k7: line7[: len(line7) // 2]},
        "values swapped between two keys": {k7: f"{k7}\t{value6}\t{crc6}", k6: f"{k6}\t{value7}\t{crc7}"},
        "total disagrees with the count file": {k7: _resealed(k7, f"{value7[: -len(total)]}{int(total) + 1}")},
        "sealed but not a table": {k7: _resealed(k7, "not a table")},
    }
    for name, tampered in cases.items():
        for key, line in tampered.items():
            _replace_line(tables, key, line)
        before = len(grown)
        for argv, key, line, out in ((args, k7, line7, want), (args6, k6, line6, want6)):
            assert run(argv) == (0, out), name
            assert _stored_line(tables, key) == line, name
        assert len(grown) == before + len(tampered), name


def test_tampered_count_lines_are_ignored(tmp_path, monkeypatch):
    # as for table lines: each tampered or unsealed count line is ignored,
    # the class counted again, the printed count the recomputed one and the
    # line rewritten sealed (1324 is grown, so each recount is seen); the
    # width asked for is counted by `fresh_count`, and the first lookup
    # grows the table and count of every width up to the reach, 2..9, by
    # `fresh_table`, as a later one grows each other width whose count line
    # it finds tampered
    args = ["count", "--n", "7", "--avoid", "1324", "--no-meta"]
    args6 = args[:2] + ["6"] + args[3:]
    counted, tabled = [], []
    fresh_count, fresh_table = enumeration.fresh_count, enumeration.fresh_table
    monkeypatch.setattr(enumeration, "fresh_count", lambda n, *a, **kw: counted.append(n) or fresh_count(n, *a, **kw))
    monkeypatch.setattr(enumeration, "fresh_table", lambda n, *a, **kw: tabled.append(n) or fresh_table(n, *a, **kw))

    def run(argv):
        monkeypatch.setattr(enumeration, "_MEMO", {})
        return run_cli(argv, tmp_path)

    code, want = run(args)
    assert code == 0 and csv_rows(want)[0]["count"] == "2762"
    code, want6 = run(args6)
    assert code == 0 and csv_rows(want6)[0]["count"] == "513"
    counts = tmp_path / "counts.txt"
    k7, k6 = "avoid=1324;n=7", "avoid=1324;n=6"
    line7, line6 = _stored_line(counts, k7), _stored_line(counts, k6)
    assert (line7, line6) == (_resealed(k7, "2762"), _resealed(k6, "513"))
    assert (counted, tabled) == ([7], list(range(2, 10)))
    assert run(args) == (0, want) and (len(counted), len(tabled)) == (1, 8)  # an intact line is used
    _, count7, crc7 = line7.split("\t")
    _, count6, crc6 = line6.split("\t")
    cases = {
        "digit changed under the old checksum": {k7: f"{k7}\t{count7[:-1]}{(int(count7[-1]) + 1) % 10}\t{crc7}"},
        "truncated line": {k7: line7[:-4]},
        "values swapped between two keys": {k7: f"{k7}\t{count6}\t{crc6}", k6: f"{k6}\t{count7}\t{crc7}"},
        "pre-change two-field line": {k7: f"{k7}\t{count7}"},
        "torn pre-change line": {k7: f"{k7}\t{count7[:2]}"},
    }
    for name, tampered in cases.items():
        for key, line in tampered.items():
            _replace_line(counts, key, line)
        before = len(counted), len(tabled)
        for argv, key, line, out in ((args, k7, line7, want), (args6, k6, line6, want6)):
            assert run(argv) == (0, out), name
            assert _stored_line(counts, key) == line, name
        assert counted[before[0]:] == [7] and tabled[before[1]:] == ([6] if k6 in tampered else []), name


def test_cache_audit_recomputes_stored_tables(tmp_path, monkeypatch):
    # the prob grows the table at 6 and stores with it the counts and tables
    # of 2413 up to its reach, 9 (no count below 4, where the class is all
    # of S_n); the audit regrows every line
    monkeypatch.setattr(enumeration, "_MEMO", {})  # so that the table is grown and stored
    code, _ = run_cli(["prob", "--n", "6", "--avoid", "2413", "--l", "2", "--k", "1", "--no-meta"], tmp_path)
    assert code == 0

    def audit(*args):
        code, out = run_cli(["cache-audit", *args, "--no-meta"], tmp_path)
        return code, {row["key"]: row for row in csv_rows(out)}

    code, rows = audit()
    assert code == 0 and all(row["status"] == "ok" for row in rows.values())
    assert list(rows) == [f"avoid=2413;n={n}" for n in range(4, 10)] + [f"table:avoid=2413;n={n}" for n in range(2, 10)]
    table6 = rows["table:avoid=2413;n=6"]
    assert table6["cached"] == table6["recomputed"]
    code, rows = audit("--max-n", "5")
    assert code == 0 and rows["table:avoid=2413;n=6"]["status"] == "skipped (n > 5)"
    tables = tmp_path / "counts.txt.tables"
    key = "avoid=2413;n=6"
    _, value, _ = _stored_line(tables, key).split("\t")
    for tampered, cached in ((_resealed(key, value.replace("=", "=1", 1)), None),
                             (f"{key}\t{value.replace('=', '=1', 1)}\t{table6['cached']}", "bad checksum")):
        _replace_line(tables, key, tampered)
        code, rows = audit()
        row = rows["table:" + key]
        assert code == 1 and row["status"] == "MISMATCH"
        assert row["recomputed"] == table6["recomputed"]
        assert row["cached"] == (cached or tampered.split("\t")[2])
