import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

import spectral_turan.cli as cli
from spectral_turan import complete_multipartite, parse_graph6, to_edge_list, to_graph6, turan_graph
from spectral_turan.cli import build_parser, cli_main
from spectral_turan.cliques import CliqueCountOverflowError
from spectral_turan.graphs import Graph6Error
from spectral_turan.multipartite import SearchBudgetExceeded
from spectral_turan.theorems import TheoremReport, Verdict

from oracles import graph6_large

REPORT_FIELDS = {"id", "subcommand", "params", "mu", "kr", "verdict", "notes", "version", "config", "graph6"}


def run_cli(argv, capsys):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def load_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


@pytest.fixture(autouse=True)
def no_worker_left():
    # every campaign joins the workers it forked, whatever way it ends; a
    # worker left behind fails the test, and is killed so the suite goes on
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == []


@contextlib.contextmanager
def within(seconds):
    """Fail, rather than hang, if the block runs past ``seconds``."""
    def expire(signum, frame):
        # not a TimeoutError: that is an OSError, which a waiting join swallows
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_gen_turan_graph6(capsys):
    code, out = run_cli(["gen", "--turan", "7,3"], capsys)
    assert code == 0
    assert out.strip() == to_graph6(turan_graph(7, 3))
    assert parse_graph6(out.strip()) == turan_graph(7, 3)


def test_gen_gnp_count_and_edgelist(capsys):
    code, out = run_cli(["gen", "--gnp", "12,0.5", "--seed", "3", "--count", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] != lines[1]

    code, out = run_cli(["gen", "--turan", "4,2", "--format", "edgelist"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "4 4"

    code, _ = run_cli(
        ["gen", "--gnp", "5,0.5", "--count", "2", "--format", "edgelist"], capsys
    )
    assert code == 2  # edgelist holds a single graph


def test_gen_converts_an_edge_list_to_graph6(tmp_path, capsys):
    path = tmp_path / "g9.txt"
    path.write_text(to_edge_list(complete_multipartite((3, 3, 3))))
    converted = run_cli(["gen", "--in", str(path), "--in-format", "edgelist"], capsys)
    assert converted == run_cli(["gen", "--multipartite", "3,3,3"], capsys)
    assert converted[0] == 0 and converted[1].count("\n") == 1


def test_mu_report_schema(capsys):
    code, out = run_cli(["mu", "--turan", "6,2"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert REPORT_FIELDS <= set(rep)
    assert rep["params"]["n"] == 6
    assert abs(rep["mu"]["value"] - 3.0) <= 1e-8
    assert rep["mu"]["residual"] >= 0
    assert rep["graph6"] == to_graph6(turan_graph(6, 2))
    assert rep["config"]["seed"] == 0


def test_cliques_subcommand(capsys):
    code, out = run_cli(["cliques", "--r", "3", "--multipartite", "1,1,1,1,1"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["kr"] == 10
    assert rep["params"]["r"] == 3


def test_find_kpartite_outcomes(capsys):
    code, out = run_cli(["find-kpartite", "--sizes", "2,3", "--multipartite", "2,3"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["verdict"] == "confirmed"
    assert rep["witness"] == [[0, 1, 2], [3, 4]]

    code, out = run_cli(["find-kpartite", "--sizes", "2,2", "--in", "c5.g6"], capsys)
    assert code == 2  # no such file

    code, out = run_cli(["find-kpartite", "--sizes", "6,6", "--gnp", "16,0.5", "--budget", "2"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["verdict"] == "indeterminate"

    code, out = run_cli(
        ["find-kpartite", "--sizes", "6,6", "--gnp", "16,0.5", "--budget", "2", "--strict"], capsys
    )
    assert code == 3


def test_verify_fact1_gnp_campaign(capsys):
    code, out = run_cli(
        ["verify", "fact1", "--gnp", "30,0.5", "--count", "100", "--seed", "7", "--r", "3"], capsys
    )
    assert code == 0
    reports = load_jsonl(out)
    assert len(reports) == 100
    assert all(r["verdict"] == "confirmed" for r in reports)
    assert all(r["config"]["seed"] == 7 for r in reports)
    assert all(r["graph6"] for r in reports)


def test_verify_fact3_sweep(capsys):
    code, out = run_cli(["verify", "fact3", "--n-max", "100", "--r-max", "6"], capsys)
    assert code == 0
    reports = load_jsonl(out)
    assert len(reports) == 6 * 101
    assert all(r["verdict"] == "confirmed" for r in reports)


def test_verify_theorem1_vacuous_campaign(capsys):
    code, out = run_cli(
        ["verify", "theorem1", "--gnp", "20,0.6", "--count", "5", "--r", "3", "--c", "0.3"], capsys
    )
    assert code == 0
    reports = load_jsonl(out)
    assert all(r["verdict"] == "vacuous" for r in reports)


def test_verify_chain_r_c_lists(capsys):
    code, out = run_cli(
        ["verify", "chain", "--multipartite", "1,1,1,1,1,1,1,1,1", "--r", "3,4", "--c", "0.05,0.1"],
        capsys,
    )
    assert code == 0
    reports = load_jsonl(out)
    assert len(reports) == 4
    assert all(r["verdict"] == "confirmed" for r in reports)


def test_verify_usage_errors(capsys):
    code, _ = run_cli(["verify", "fact1", "--gnp", "10,0.5"], capsys)  # missing --r
    assert code == 2
    code, _ = run_cli(["verify", "fact2", "--gnp", "10,0.5", "--r", "2"], capsys)  # missing --c
    assert code == 2
    code, _ = run_cli(["verify", "fact3"], capsys)  # missing sweep bounds
    assert code == 2
    code, _ = run_cli(["nonsense"], capsys)
    assert code == 2


def test_spex_and_gap(capsys):
    code, out = run_cli(["spex", "--n", "5", "--f", "K3"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert abs(rep["mu"]["value"] - 5**0.5 * 6**0.5 / 5**0.5) <= 1e-6 or abs(rep["mu"]["value"] - 6**0.5) <= 1e-6
    assert rep["graph6"]

    code, out = run_cli(["gap", "--n", "6", "--f", "K3"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["verdict"] == "confirmed"
    assert abs(rep["quantities"]["lower"] - 0.5) <= 1e-6
    assert abs(rep["quantities"]["upper"] - 0.5) <= 1e-6


@pytest.mark.parametrize("command", ["spex", "gap"])
def test_scan_bound_is_fixed(command, capsys):
    code = cli_main([command, "--n", "9", "--f", "K3"])
    assert code == 2
    assert "exceeds exhaustive scan bound 8" in capsys.readouterr().err
    code = cli_main([command, "--n", "5", "--f", "K3", "--max-n", "9"])
    assert code == 2
    assert "unrecognized arguments: --max-n 9" in capsys.readouterr().err


@pytest.mark.parametrize("pattern, message", [
    ("K11", "error: pattern limited to n <= 10"),
    ("K1", "error: pattern is contained in every graph of this order"),
])
def test_spex_pattern_outside_domain_exits_2(pattern, message, capsys):
    code = cli_main(["spex", "--n", "4", "--f", pattern])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


@pytest.mark.parametrize("command", ["mu", "verify fact1 --r 3", "gap --n 5 --f K3"])
def test_tol_flag_is_gone(command, capsys):
    code = cli_main(command.split() + ["--turan", "6,2"] * (command != "gap --n 5 --f K3")
                    + ["--tol", "1e-9"])
    assert code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


# each command parses only the flags it reads: --budget only where a witness
# search runs, --strict only where a report can be indeterminate, --c only
# where c is read, and fact3 sweeps (n, r) without a corpus
@pytest.mark.parametrize("argv, unread", [
    ("spex --n 4 --f K3", "--budget 5"),
    ("gap --n 4 --f K3", "--strict"),
    ("cliques --r 3 --turan 6,2", "--strict"),
    ("verify fact1 --turan 6,2 --r 3", "--c 0.3"),
    ("verify fact3 --n-max 3 --r-max 2", "--gnp 5,0.5"),
    ("mu --turan 6,2", "--thr 2"),  # no flag is taken by a prefix
])
def test_a_flag_the_command_does_not_read_is_rejected(argv, unread, capsys):
    code = cli_main(f"{argv} {unread}".split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"unrecognized arguments: {unread}\n" in captured.err


@pytest.mark.parametrize("argv", [
    "gen --gnp 5,0.5 --count 0 --format edgelist",
    "gen --gnp 5,0.5 --count -1",
    "mu --gnp 5,0.5 --count 0",
    "verify fact1 --turan 6,2 --gnp 5,0.5 --count 0 --r 3",
])
def test_count_below_one_is_a_usage_error(argv, capsys):
    code = cli_main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "argument --count: must be >= 1" in captured.err


@pytest.mark.parametrize("argv, flag", [
    ("mu --turan 6,2 --threads -3", "--threads"),
    ("verify fact1 --turan 6,2 --r 3 --threads 0", "--threads"),
    ("find-kpartite --sizes 2,2 --turan 6,2 --budget -1", "--budget"),
    ("biclique-scan --n 10 --p 0.5 --seeds 1 --budget 0", "--budget"),
])
def test_threads_and_budget_below_one_are_usage_errors(argv, flag, capsys):
    code = cli_main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"argument {flag}: must be >= 1" in captured.err


@pytest.mark.parametrize("argv, message", [
    ("mu --turan 6", "error: --turan expects 'n,r'\n"),
    ("verify fact1 --turan 6,2,1 --r 3", "error: --turan expects 'n,r'\n"),
    ("biclique-scan --n 0 --p 0.5 --seeds 1", "error: max_balanced_biclique requires n >= 2\n"),
    ("biclique-scan --n 1 --p 0.5 --seeds 1,2 --threads 2", "error: max_balanced_biclique requires n >= 2\n"),
    ("spex --n 6 --f Kx",
     "error: --f expects 'K<n>', 'C<n>' or graph6: body length 1 != expected 11 (byte offset 1)\n"),
    ("gap --n 6 --f ~",
     "error: --f expects 'K<n>', 'C<n>' or graph6: truncated multi-byte size (byte offset 1)\n"),
    ("spex --n 5 --f C2", "error: --f expects 'K<n>', 'C<n>' or graph6: cycle needs >= 3 vertices\n"),
    ("spex --n 5 --f K10001",
     "error: --f expects 'K<n>', 'C<n>' or graph6: vertex count 10001 outside [0, 10000]\n"),
    # a non-finite c would write NaN or Infinity, which is not JSON
    ("verify theorem1 --turan 8,3 --r 3 --c nan", "error: theorem1 requires a finite c\n"),
    ("verify fact2 --turan 8,3 --r 2 --c nan", "error: fact2 requires a finite c\n"),
    ("verify chain --turan 8,3 --r 3 --c inf", "error: proof chain requires a finite c\n"),
    ("verify theorem1 --turan 8,3 --r 3 --c=-inf", "error: theorem1 requires c > 0\n"),
    # a token that names none of the command's flags is a value
    ("verify chain --turan 8,3 --r 3 --c -inf", "error: proof chain requires c > 0\n"),
    ("verify theorem1 --turan 8,3 --r 3 --c -inf", "error: theorem1 requires c > 0\n"),
    ("verify fact2 --turan 8,3 --r 2 --c -inf", "error: fact2 requires c > 0\n"),
    ("verify fact2 --turan 8,3 --r 2 --c -0.1,0.2", "error: fact2 requires c > 0\n"),
    ("mu --turan -1,2", "error: --turan expects 'n,r': n must be >= 0\n"),
    ("verify fact2 --gnp -5,0.5 --r 2 --c 0.3",
     "error: --gnp expects 'n,p': vertex count -5 outside [0, 10000]\n"),
    # a generator's bound names the corpus flag it came from
    ("gen --gnp 10,1.5", "error: --gnp expects 'n,p': p must lie in [0, 1]\n"),
    ("gen --turan 5,0", "error: --turan expects 'n,r': r must be >= 1\n"),
    ("gen --multipartite 5001,5000",
     "error: --multipartite expects part sizes 'S1,S2,...': vertex count 10001 outside [0, 10000]\n"),
    # an empty sweep is refused, as an empty corpus is
    ("verify fact3 --n-max -1 --r-max 3", "error: --n-max must be >= 0 and --r-max >= 1\n"),
    ("verify fact3 --n-max 5 --r-max 0", "error: --n-max must be >= 0 and --r-max >= 1\n"),
    # a range too long for len() is refused before any report
    ("biclique-scan --n 10 --p 0.5 --seeds 0..99999999999999999999",
     f"error: --seeds '0..99999999999999999999' names more than {sys.maxsize} seeds\n"),
    ("verify fact3 --n-max 99999999999 --r-max 99999999999",
     f"error: --n-max and --r-max make a sweep of more than {sys.maxsize} reports\n"),
    # gnp's bounds name the biclique-scan flag, once, before any worker starts
    ("biclique-scan --n 10 --p 1.5 --seeds 1", "error: --p: p must lie in [0, 1]\n"),
    ("biclique-scan --n 10001 --p 0.5 --seeds 1..4 --threads 2",
     "error: --n: vertex count 10001 outside [0, 10000]\n"),
])
def test_input_errors_name_the_flag_or_the_bound(argv, message, capsys):
    code = cli_main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


@pytest.mark.parametrize("name, text, in_format, source, defect", [
    # the line number counts physical lines, the blank one included
    ("corpus.g6", "D??\n\nAx\n", "graph6", "line 3", "nonzero padding bits (byte offset 1)"),
    ("corpus.g6", "D??\nG\n", "graph6", "line 2", "body length 0 != expected 5 (byte offset 1)"),
    ("edges.txt", "5 2\n0 1\n3 1\n", "edgelist", None, "edge (3, 1) violates 0 <= u < v < n"),
    ("edges.txt", "10001 0\n", "edgelist", None, "vertex count 10001 outside [0, 10000]"),
    ("bad.g6", b"\xff\xfe", "graph6", None,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["graph6-after-blank", "graph6-line-2", "edgelist-edge", "edgelist-order", "not-utf-8"])
def test_input_file_errors_name_the_file_and_line(name, text, in_format, source, defect, tmp_path, capsys):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code = cli_main(["mu", "--in", str(path), "--in-format", in_format])
    captured = capsys.readouterr()
    where = f"--in {path}" + (f" {source}" if source else "")
    assert (code, captured.out, captured.err) == (2, "", f"error: {where}: {defect}\n")


@pytest.mark.parametrize("argv, message", [
    ("mu --turan a,b", "error: --turan expects 'n,r'\n"),
    ("mu --gnp 5,x", "error: --gnp expects 'n,p'\n"),
    ("mu --gnp 5.5,0.5", "error: --gnp expects 'n,p'\n"),
    ("mu --multipartite 2,x", "error: --multipartite expects part sizes 'S1,S2,...'\n"),
    ("gen --multipartite 2,x", "error: --multipartite expects part sizes 'S1,S2,...'\n"),
    ("find-kpartite --sizes 2,2.5 --turan 6,2", "error: --sizes expects part sizes 'S1,S2,...'\n"),
    ("verify fact1 --turan 6,2 --r 3,x", "error: --r expects clique orders 'R1,R2,...'\n"),
    ("verify fact2 --turan 6,2 --r 3 --c 0.1,x", "error: --c expects numbers 'C1,C2,...'\n"),
    ("verify fact1 --turan 6,2 --r ,", "error: --r expects clique orders 'R1,R2,...'\n"),
    ("verify chain --turan 6,2 --r 3 --c ,", "error: --c expects numbers 'C1,C2,...'\n"),
    ("biclique-scan --n 10 --p 0.5 --seeds x", "error: --seeds expects '7', '1,2,5' or '1..20'\n"),
    ("biclique-scan --n 10 --p 0.5 --seeds 1..x", "error: --seeds expects '7', '1,2,5' or '1..20'\n"),
])
def test_malformed_numbers_name_the_flag(argv, message, capsys):
    code = cli_main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


@pytest.mark.parametrize("seeds", ["5..1", ","])
def test_empty_seed_spec_is_a_usage_error(seeds, capsys):
    code = cli_main(["biclique-scan", "--n", "10", "--p", "0.5", "--seeds", seeds])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "names no seed" in captured.err


@pytest.mark.parametrize("check", ["fact2", "theorem1"])
def test_huge_r_is_vacuous_not_a_crash(check, capsys):
    code, out = run_cli(["verify", check, "--turan", "10,2", "--r", "2000", "--c", "2"], capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["verdict"] == "vacuous"
    assert rep["quantities"]["t_target"] == 0.0


# one argv per subcommand that writes reports
ECHO_ARGV = {
    "mu": "mu --turan 6,2",
    "cliques": "cliques --r 3 --turan 6,2",
    "find-kpartite": "find-kpartite --sizes 2,2 --turan 6,2",
    "verify": "verify chain --turan 6,2 --r 3 --c 0.1",
    "verify-fact1": "verify fact1 --turan 6,2 --r 3",
    "verify-fact2": "verify fact2 --turan 6,2 --r 2 --c 0.1",
    "verify-fact3": "verify fact3 --n-max 0 --r-max 1",
    "spex": "spex --n 4 --f K3",
    "gap": "gap --n 4 --f K3",
    "biclique-scan": "biclique-scan --n 8 --p 0.5 --seeds 1",
}


def leaf_parser(argv):
    """The parser of the (sub)command that argv names."""
    parser = build_parser()
    for word in argv:
        sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            return parser
        parser = sub.choices[word]


@pytest.mark.parametrize("command", sorted(ECHO_ARGV))
def test_config_echo_is_every_flag(command, capsys):
    argv = ECHO_ARGV[command].split()
    dests = {a.dest for a in leaf_parser(argv)._actions if a.dest != "help"}
    code, out = run_cli(argv, capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert set(rep["config"]) == dests - {"command", "check", "func", "threads", "out"} | {"subcommand"}


def test_biclique_scan(capsys):
    code, out = run_cli(["biclique-scan", "--n", "20", "--p", "0.5", "--seeds", "1..3"], capsys)
    assert code == 0
    reports = load_jsonl(out)
    assert len(reports) == 3
    for rep in reports:
        assert rep["quantities"]["exact"] is True
        assert rep["quantities"]["side"] >= 1
        assert rep["witness"]


def test_csv_format(capsys):
    code, out = run_cli(
        ["verify", "fact1", "--turan", "10,3", "--r", "2,3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,verdict,mu_low,mu_high,kr,rhs,s_target,t_target"
    assert len(lines) == 3
    assert all(",confirmed," in line for line in lines[1:])


def _outputs_at_three_thread_counts(fmt, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    outputs = []
    for threads in (1, 4, 8):
        path = tmp_path / f"t{threads}.{fmt}"
        code = cli_main(
            [
                "verify", "fact1", "--gnp", "20,0.5", "--count", "24", "--seed", "11",
                "--r", "2,3", "--threads", str(threads), "--out", str(path), "--format", fmt,
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    return outputs


def test_threads_determinism(tmp_path, monkeypatch):
    outputs = _outputs_at_three_thread_counts("jsonl", tmp_path, monkeypatch)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 48


def test_threads_determinism_csv(tmp_path, monkeypatch):
    # the csv header is written to the open --out file before the workers fork
    outputs = _outputs_at_three_thread_counts("csv", tmp_path, monkeypatch)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 48 + 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_threads_determinism_on_a_stdout_pipe(fmt):
    # forked workers share the parent's stdout; none of them may write to it.
    # Six seeds make one chunk of 16, so chunks of one reach the fork path.
    script = "import os; os.cpu_count = lambda: 2; import spectral_turan.cli as cli; cli._CHUNK = 1; cli.main()"
    argv = ["biclique-scan", "--n", "18", "--p", "0.5", "--seeds", "1..6", "--format", fmt]
    outputs = [
        subprocess.run([sys.executable, "-c", script, *argv, "--threads", threads],
                       capture_output=True, check=True, timeout=120).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 6 + (fmt == "csv")


def test_a_long_campaign_keeps_no_per_report_state(tmp_path, monkeypatch):
    # 15,000 reports: a writer that buffers them peaks near 25 MB, a streaming
    # one below 0.5 MB; forked workers hand this process finished lines only
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "fact3", "--n-max", "149", "--r-max", "100", "--out", str(tmp_path / "f3.jsonl")]
    for threads in ("1", "2"):
        tracemalloc.start()
        try:
            code = cli_main(argv + ["--threads", threads])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "f3.jsonl").read_bytes().count(b"\n") == 15_000
        assert peak < 2 * 2**20, threads


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reports_written_before_an_error_stay(threads, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_CHUNK", 1)  # two tasks, one per worker: --threads 2 forks
    _, alone = run_cli(["verify", "fact1", "--turan", "6,2", "--r", "3"], capsys)
    code = cli_main(["verify", "fact1", "--turan", "6,2", "--r", "3,1", "--threads", threads])
    captured = capsys.readouterr()
    # the config echo names the --r flag as given
    assert alone.count('"r":"3"') == 1
    expected = alone.replace('"r":"3"', '"r":"3,1"')
    assert (code, captured.out, captured.err) == (2, expected, "error: fact1 requires r >= 2\n")


def test_repeated_run_byte_identical(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        assert cli_main(["biclique-scan", "--n", "18", "--p", "0.5", "--seeds", "1..4", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_main_exit_codes(threads, monkeypatch, capsys):
    # an uncaught exception exits 4 with its traceback: exit 1 stays the
    # code of a written VIOLATION report
    def crash(g):
        raise RuntimeError("planted crash")

    def violation(g, r):
        return TheoremReport({"n": g.n, "r": r}, True, Verdict.VIOLATION)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_CHUNK", 1)  # three tasks, one per chunk: --threads 2 forks
    monkeypatch.setattr(cli, "spectral_radius", crash)
    monkeypatch.setattr(cli, "fact1_check", violation)
    corpus = ["--gnp", "10,0.5", "--count", "3", "--threads", threads]
    for argv, code in ((["mu"], 4), (["verify", "fact1", "--r", "3"], 1)):
        monkeypatch.setattr(sys, "argv", ["spectral-turan", *argv, *corpus])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        captured = capsys.readouterr()
        assert exc.value.code == code
        if code == 4:
            assert captured.out == ""
            assert "Traceback" in captured.err
            assert "RuntimeError: planted crash" in captured.err
            # a worker's error keeps the traceback of the frame that raised it
            assert 'raise RuntimeError("planted crash")' in captured.err
        else:
            assert [r["verdict"] for r in load_jsonl(captured.out)] == ["VIOLATION"] * 3
            assert captured.err == ""


@pytest.mark.parametrize(
    "threads, cpus, methods, requested",
    [
        (4096, 64, ["fork", "spawn"], [0, 1, 2]),  # bounded by the chunk count
        (4096, 2, ["fork", "spawn"], [0, 1]),  # bounded by the core count
        (2, 64, ["fork", "spawn"], [0, 1]),
        (1, 64, ["fork", "spawn"], []),  # one worker runs in process
        (4096, None, ["fork", "spawn"], []),  # core count unknown: one
        (4096, 64, ["spawn"], []),  # no fork: serial
    ],
)
def test_worker_count_is_bounded(threads, cpus, methods, requested, monkeypatch, capsys):
    # three seeds in chunks of one; ``requested`` is the first chunk of each
    # worker forked, and worker w starts at chunk w
    ctx = multiprocessing.get_context("fork")
    forked = []

    def process(target, args):
        forked.append(args[2][0])
        return multiprocessing.context.ForkProcess(target=target, args=args)

    monkeypatch.setattr(ctx, "Process", process)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_CHUNK", 1)
    argv = ["biclique-scan", "--n", "18", "--p", "0.5", "--seeds", "1..3"]
    code, out = run_cli(argv + ["--threads", str(threads)], capsys)
    assert forked == requested
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, GOLDEN["biclique-scan"][2])


@pytest.mark.parametrize("items, workers", [(16, 0), (17, 2), (33, 3)])
def test_one_worker_per_chunk(items, workers, monkeypatch):
    # 16 items are one chunk, run in this process; worker w runs chunk w first
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pids = set(cli._run_parallel(lambda i: os.getpid(), range(items), 8))
    assert len(pids - {os.getpid()}) == workers


def test_a_full_pipe_blocks_its_worker(monkeypatch):
    # a worker blocks on its full pipe until the reader takes its chunk, so
    # results made but not yet read stay within a few chunks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    made = multiprocessing.get_context("fork").Value("i", 0)

    def task(i):
        with made.get_lock():
            made.value += 1
        return bytes(200_000)  # a chunk of 16 is ~3 MB, far above a pipe's buffer

    items = range(50 * cli._CHUNK + 1)
    with within(60):
        results = cli._run_parallel(task, items, 8)
        assert len(next(results)) == 200_000
        time.sleep(0.5)
        # the chunk read, and the one chunk each worker blocks on sending
        assert made.value <= 3 * cli._CHUNK
        assert sum(len(r) == 200_000 for r in results) == len(items) - 1
    assert made.value == len(items)


def test_closing_early_stops_every_worker(monkeypatch):
    # workers blocked on full pipes exit once the reader closes them; one
    # that kept its own reader open would never see the pipe break
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    results = cli._run_parallel(lambda i: bytes(200_000), range(30 * cli._CHUNK), 3)
    with within(20):
        assert len(next(results)) == 200_000
        results.close()
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_an_internal_error(monkeypatch, capsys):
    # a worker that exits without sending its chunk leaves EOF on its pipe:
    # exit 4 names the worker and the chunk, after the reports before it
    argv = ["verify", "fact3", "--n-max", "99", "--r-max", "1"]
    _, alone = run_cli(argv, capsys)
    real = cli.fact3_check

    def die_at_20(n, r):
        if n == 20:  # in chunk 1, run by worker 1
            os._exit(1)
        return real(n, r)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "fact3_check", die_at_20)
    monkeypatch.setattr(sys, "argv", ["spectral-turan", *argv, "--threads", "2"])
    with within(30), pytest.raises(SystemExit) as exc:
        cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == "".join(alone.splitlines(keepends=True)[:cli._CHUNK])
    assert "RuntimeError: worker 1 exited without sending chunk 1" in captured.err
    assert multiprocessing.active_children() == []


def test_parallel_tasks_run_in_worker_processes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    items = range(3 * cli._CHUNK)  # three chunks on two workers
    results = list(cli._run_parallel(lambda i: (i, os.getpid()), items, 2))
    assert [i for i, _ in results] == list(items)
    assert os.getpid() not in {pid for _, pid in results}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_error_becomes_usage_exit(threads, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_CHUNK", 1)  # three tasks, one per chunk: --threads 2 forks
    argv = ["verify", "fact1", "--gnp", "10,0.5", "--count", "3", "--r", "1"]
    code = cli_main(argv + ["--threads", threads])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: fact1 requires r >= 2\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_clique_count_overflow_is_an_input_error(threads, monkeypatch, capsys):
    # exit 1 means a VIOLATION report; an over-limit count is an input error
    import spectral_turan.cliques as cl

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_CHUNK", 1)  # three tasks, one per chunk: --threads 2 forks
    monkeypatch.setattr(cl, "_COUNT_LIMIT", 5)
    code = cli_main(["cliques", "--r", "3", "--gnp", "10,0.9", "--count", "3", "--threads", threads])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: clique count exceeds 128-bit limit\n")


@pytest.mark.parametrize(
    "exc, attrs",
    [
        (Graph6Error("bad byte", 3), {"offset": 3}),
        (SearchBudgetExceeded(7), {"budget": 7}),
        (CliqueCountOverflowError("count exceeds 128 bits"), {}),
    ],
    ids=["Graph6Error", "SearchBudgetExceeded", "CliqueCountOverflowError"],
)
def test_errors_survive_pickling(exc, attrs):
    # worker exceptions reach the campaign through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert {k: getattr(back, k) for k in attrs} == attrs


def test_exit_code_mapping():
    from spectral_turan.cli import _exit_code

    assert _exit_code({"confirmed", "vacuous"}, strict=False) == 0
    assert _exit_code({"confirmed", "VIOLATION"}, strict=False) == 1
    assert _exit_code({"indeterminate"}, strict=False) == 0
    assert _exit_code({"indeterminate"}, strict=True) == 3
    # violation outranks strict indeterminate
    assert _exit_code({"indeterminate", "VIOLATION"}, strict=True) == 1


def test_in_file_graph6_lines(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text(to_graph6(turan_graph(6, 2)) + "\n" + to_graph6(turan_graph(7, 3)) + "\n")
    code, out = run_cli(["cliques", "--r", "2", "--in", str(path)], capsys)
    assert code == 0
    reports = load_jsonl(out)
    assert [r["kr"] for r in reports] == [9, 16]
    assert reports[0]["id"].endswith("#0")


# Each case's exit code and the sha256 of its stdout, one or more cases per
# subcommand, verdict path and csv report shape.  Output bytes change only on
# purpose, and never with the thread count.
GOLDEN = {
    # gen writes graphs, not reports: this digest is the concatenated stdout
    # of the former `gen turan --n 7 --r 3`, `gen multipartite --sizes 2,3`
    # and `gen gnp --n 12 --p 0.5 --seed 3 --count 2`
    "gen": ("gen --turan 7,3 --multipartite 2,3 --gnp 12,0.5 --seed 3 --count 2", 0,
        "d8af0b2e97cba22a721c2f29f855fa1aece5b20099e5a3ac4e7d400297e7be01"),
    "mu": ("mu --turan 6,2 --gnp 12,0.4 --count 2", 0,
        "f0c10246e26e86425ad97a6ff6ab747089c001dc9ad7ad38ed18b9ee47349ab4"),
    "mu-g70": ("mu --in g70.g6", 0,
        "42475efdf208c9e701e207f14fe5f8d993ee15fc008b1d73666dc36653d1b1fc"),
    "cliques": ("cliques --r 3 --in g9.txt --in-format edgelist --multipartite 2,2,3", 0,
        "09f46ca448893000f28f76d6f08f58d6650b25764b7d19b4c69cc3af16000fe3"),
    "find-kpartite": ("find-kpartite --sizes 2,3 --multipartite 2,3 --gnp 9,0.3 --count 3", 0,
        "d226c2575e0a7ffa408f31c7edb8e1e1f6d5ef7c3c332860c81506428f9efd68"),
    "find-kpartite-budget": ("find-kpartite --sizes 6,6 --gnp 16,0.5 --budget 2", 0,
        "cf42d848a32d1af5cf87dd681bb99e4c6dfd6cd3eef40d600321397bf68a18ee"),
    "find-kpartite-g70": ("find-kpartite --sizes 2,2 --in g70.g6", 0,
        "9a44ae96af50c66fff13a54eef95137e56a182832985136bd8e423397fee8065"),
    "spex": ("spex --n 5 --f K3", 0,
        "456f5e394d605e228f1740a8e26029b3beacf5d704a92f11f0355804c2086bf1"),
    "gap": ("gap --n 5 --f C5", 0,
        "2a02ea080d665ce7fd8b6f140ccc4379c032b8509758bab1178e9f7205e6058a"),
    "biclique-scan": ("biclique-scan --n 18 --p 0.5 --seeds 1..3", 0,
        "79a5d191b7d564d164df04d4d3bbdad11326e9112582c8cade4d4ee7ec3993ee"),
    "biclique-scan-budget": ("biclique-scan --n 18 --p 0.5 --seeds 4,5 --budget 5", 0,
        "245b2a7aa6fc325e1ed0a39b44d216ca3b7cd01102e27db7f7599fb9d6528fae"),
    "biclique-scan-alarm": ("biclique-scan --n 30 --p 1 --seeds 1", 0,
        "89d4bb862bd8ab402b11f4d86e265fd86265476dbda7e01b7512b257658212bd"),
    "fact1": ("verify fact1 --gnp 20,0.5 --count 4 --seed 3 --r 2,3", 0,
        "8dc661c1838acee6f7c46a1af498f9b92bc50f5fd2e0416729f45221a065aa22"),
    "fact1-g70": ("verify fact1 --in g70.g6 --r 3", 0,
        "abb65aca31c60b395817e9d9cca403af62cdd83a8a62e38adfc83617f9c30e53"),
    "fact2-confirmed": ("verify fact2 --turan 100,100 --r 2 --c 0.49", 0,
        "dc22129db8e11c5915cd3116bdfa53685bed1d5a134835dededf8ed97a01e808"),
    "fact2-budget": ("verify fact2 --turan 100,100 --r 2 --c 0.49 --budget 1", 0,
        "bfee826e2210964233ccd69e514d3aa9bf252657fa853e684ff24625ac291cd3"),
    "fact2-strict": ("verify fact2 --turan 100,100 --r 2 --c 0.49 --budget 1 --strict", 3,
        "81059625dcc6c16495e7699bda80e441abcefeb5c702ce7bc41e9bef3505fd81"),
    "fact2-vacuous": ("verify fact2 --gnp 12,0.5 --r 2,3 --c 0.3", 0,
        "b44438bdd0903b8baecdb776814d26ef2702064a5a1b7deaff301785201fec5c"),
    "fact3": ("verify fact3 --n-max 12 --r-max 4", 0,
        "36133d32c7691767783d8fdb89d3203fd8532b02f19338f278ee822eee64df0a"),
    "theorem1": ("verify theorem1 --gnp 20,0.6 --count 2 --r 3 --c 0.3,2", 0,
        "8952b1716c352706b695935d2b725b81c6445e751fb8461ae5e32abf6797781c"),
    "chain": ("verify chain --multipartite 1,1,1,1,1,1,1,1,1 --gnp 10,0.3 --r 3,4 --c 0.05,0.1", 0,
        "c0ce2324e818a429dfa80b9b86db27e727755cfe0ba4f89de3066bc055c3d9b5"),
    "csv-mu": ("mu --turan 6,2 --format csv", 0,
        "653f3e5016057a4508a1979917ea48e85b11d52628cab7064038f94f47afa86d"),
    "csv-cliques": ("cliques --r 3 --multipartite 2,2,3 --format csv", 0,
        "19ebdf6f313136cfbd6f97abc94021d74ef2a5f8cf06b33024a7df237b16cbd7"),
    "csv-find-kpartite": ("find-kpartite --sizes 2,3 --multipartite 2,3 --format csv", 0,
        "5683600e7e578935531678f7bc516a5a56e25cab4b60c2cdfb27866aa04e113a"),
    "csv-spex": ("spex --n 5 --f K3 --format csv", 0,
        "9b814a5d90a2b5ab952fed6b3815a3458ec0f9e57c01bdc0dcad5130f1e33231"),
    "csv-gap": ("gap --n 5 --f C5 --format csv", 0,
        "fe5df82a2632a70c1bb9d02afa5a1b450fbd712d108da960980bdb827b2ca10f"),
    "csv-biclique-scan": ("biclique-scan --n 18 --p 0.5 --seeds 1 --format csv", 0,
        "f5f2e9b32dceafeec157e22dcad09afabe56fa332c5288c80c4813a219cd574b"),
    "csv-fact1": ("verify fact1 --turan 10,3 --r 2,3 --format csv", 0,
        "72f8c4cbe5b16ca49dd09d771ada917dc4c1097e1d2f03e62dbaf3fd8e03bc98"),
    "csv-fact2": ("verify fact2 --turan 100,100 --r 2 --c 0.49 --format csv", 0,
        "c47faf7c4bd109207824e80ddeed9ca6ee6cea7ae4cd22a1f1b3918b2d784493"),
    "csv-fact3": ("verify fact3 --n-max 3 --r-max 2 --format csv", 0,
        "ba7b671c3d8324bbe6a8cbfaee459be63c4c4937c70ba45c5b85f7d5a790eec6"),
    "csv-theorem1": ("verify theorem1 --turan 9,3 --r 3 --c 0.3 --format csv", 0,
        "f4e21550a1806f7945c031691e91a9137b5ae73d82d9a43d658ffd7165fcb445"),
    "csv-chain": ("verify chain --turan 9,3 --r 3 --c 0.05 --format csv", 0,
        "e1549c9bfac2d219a8df85dfb0a1a9faf7ec9b63268547d4e1d0b27e6ff635e5"),
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    from spectral_turan import gnp

    g70 = gnp(70, 0.3, 5)
    text = graph6_large(g70)
    assert parse_graph6(text) == g70
    (tmp_path / "g70.g6").write_text(text + "\n")
    (tmp_path / "g9.txt").write_text(to_edge_list(complete_multipartite((3, 3, 3))))
    monkeypatch.chdir(tmp_path)  # relative --in paths keep config.infile checkout-free


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(case, threads, golden_dir, capsys):
    argv, code, digest = GOLDEN[case]
    if case != "gen":  # gen runs no campaign, so it takes no --threads
        argv += f" --threads {threads}"
    got_code, out = run_cli(argv.split(), capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize(
    "argv, note",
    [
        ("find-kpartite --sizes 3,3 --gnp 70,0.02", "exhaustive search: no witness exists"),
        ("biclique-scan --n 70 --p 0.5 --seeds 1 --budget 5",
         "budget exhausted: side is a lower bound"),
        ("verify fact2 --turan 100,100 --r 2 --c 0.49 --budget 1",
         "witness search budget exhausted"),
    ],
    ids=["find-kpartite", "biclique-scan", "verify"],
)
def test_graph_omitted_note_joins_the_check_note(argv, note, capsys):
    code, out = run_cli(argv.split(), capsys)
    assert code == 0
    (rep,) = load_jsonl(out)
    assert rep["graph6"] is None
    assert rep["notes"] == f"graph omitted: n = {rep['params']['n']} > 62; {note}"
