"""Campaign runner: generate corpora, run checkers, emit deterministic reports.

Each command parses only the flags it reads; ``gen`` writes the graphs of
the corpus flags the campaigns read.  Output is JSON lines (one report
object per line) or a CSV summary.  ``--threads`` sets the number of worker
processes (fork; serial for one chunk or without fork).  Each task renders
its own report to its finished line; each worker sends those lines in fixed
chunks of tasks down its own pipe, which blocks it while full, and this
process only writes them, in instance order.  So ``--threads`` never changes output bytes,
memory does not grow with the number of reports, and the reports before an
error stay.  Exit codes: 0 all confirmed/vacuous, 1 any VIOLATION, 2 usage or
input error, 3 indeterminate results under --strict, 4 internal error (an
uncaught exception, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from functools import partial

from . import __version__
from .cliques import CliqueCountOverflowError, count_cliques
from .graphs import (
    Graph,
    _require_order,
    _require_probability,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
    turan_graph,
)
from .multipartite import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    find_complete_multipartite,
    max_balanced_biclique,
)
from .spectral import spectral_radius
from .theorems import (
    TheoremReport,
    Verdict,
    fact1_check,
    fact2_check,
    fact3_check,
    proof_chain_check,
    spex_scan,
    theorem1_check,
    theorem2_gap,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4

# reports carry graph6 only up to this order (graph6's one-byte size field):
# the writer takes n <= 10^4, but at ~1-6 ms per graph for n = 500..1000 it
# would add 20-40% to a campaign over such graphs, so they get a note instead
REPORT_GRAPH6_MAX_N = 62


class UsageError(Exception):
    pass


def _number(tok: str, usage: str, kind: type = int):
    """``kind(tok)`` for a flag's value; ``usage`` ("--flag expects ...") is
    the error for a malformed one."""
    try:
        return kind(tok)
    except ValueError:
        raise UsageError(usage) from None


def _parse_list(text: str, usage: str, kind: type = int) -> list:
    return [_number(tok, usage, kind) for tok in text.split(",") if tok.strip()]


def _parse_seeds(text: str) -> list[int] | range:
    """Seed spec: '7', '1,2,5', or a range '1..20'; never empty."""
    usage = "--seeds expects '7', '1,2,5' or '1..20'"
    lo, dots, hi = text.partition("..")
    if dots:
        seeds = range(_number(lo, usage), _number(hi, usage) + 1)
        if seeds.stop - seeds.start > sys.maxsize:  # len() could not count them
            raise UsageError(f"--seeds {text!r} names more than {sys.maxsize} seeds")
    else:
        seeds = _parse_list(text, usage)
    if not seeds:
        raise UsageError(f"--seeds {text!r} names no seed")
    return seeds


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _built(make, arg, source: str) -> Graph:
    """``make(arg)``; its ValueError becomes a UsageError that names ``source``."""
    try:
        return make(arg)
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


def named_graph(spec: str) -> Graph:
    """Pattern graph from 'K<n>', 'C<n>', or a graph6 literal."""
    s = spec.strip()
    usage = "--f expects 'K<n>', 'C<n>' or graph6"
    if len(s) >= 2 and s[0] in "KC" and s[1:].isdigit():
        return _built(complete_graph if s[0] == "K" else cycle_graph, int(s[1:]), usage)
    return _built(parse_graph6, s, usage)


def _gather_instances(args) -> list[tuple[str, Graph]]:
    """Instance corpus in deterministic order: --in, --turan, --multipartite, --gnp."""
    instances: list[tuple[str, Graph]] = []
    if args.infile:
        path = args.infile
        with open(path, encoding="utf-8") as fh:
            text = _built(fh.read, -1, f"--in {path}")  # a decode error names the file
        name = os.path.basename(path)
        if args.in_format == "edgelist":
            instances.append((f"{name}#0", _built(parse_edge_list, text, f"--in {path}")))
        else:
            lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
            for i, (k, line) in enumerate(lines):
                g = _built(parse_graph6, line, f"--in {path} line {k}")
                instances.append((f"{name}#{i}", g))
    if args.turan:
        usage = "--turan expects 'n,r'"
        values = _parse_list(args.turan, usage)
        if len(values) != 2:
            raise UsageError(usage)
        n, r = values
        instances.append((f"turan-n{n}-r{r}", _built(partial(turan_graph, n), r, usage)))
    if args.multipartite:
        usage = "--multipartite expects part sizes 'S1,S2,...'"
        sizes = _parse_list(args.multipartite, usage)
        label = "x".join(str(s) for s in sizes)
        instances.append((f"kpartite-{label}", _built(complete_multipartite, sizes, usage)))
    if args.gnp:
        usage = "--gnp expects 'n,p'"
        parts = args.gnp.split(",")
        if len(parts) != 2:
            raise UsageError(usage)
        n, p = _number(parts[0], usage), _number(parts[1], usage, float)
        seed = args.seed
        for i in range(args.count):
            g = _built(partial(gnp, n, p), seed + i, usage)
            instances.append((f"gnp-n{n}-p{p}-seed{seed}-i{i:04d}", g))
    if not instances:
        raise UsageError("no input graphs: use --in, --turan, --multipartite or --gnp")
    return instances


def _config_echo(args) -> dict:
    # every flag but the thread count and the output path: identical configs
    # must produce identical bytes at any parallelism and destination
    skip = ("command", "check", "func", "threads", "out")
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    check = getattr(args, "check", None)
    cfg["subcommand"] = f"{args.command}-{check}" if check else args.command
    return cfg


def _report_dict(iid: str, tr: TheoremReport, g: Graph | None, config: dict) -> dict:
    """The JSONL report: the task's id, the checker's fields, version, config
    and graph6.

    Graphs above ``REPORT_GRAPH6_MAX_N`` are omitted, and a note saying so
    precedes the checker's own note.
    """
    rep = {
        "id": iid,
        "subcommand": config["subcommand"],
        "params": {key: tr.params.get(key) for key in ("n", "r", "c")},
        "mu": None if tr.mu is None else {"value": tr.mu.value, "residual": tr.mu.residual},
        "kr": tr.kr,
        "verdict": tr.verdict.value,
        "notes": tr.notes,
        "version": __version__,
        "config": config,
        "graph6": None,
    }
    if tr.witness is not None:
        rep["witness"] = tr.witness.to_lists()
    if tr.quantities:
        rep["quantities"] = tr.quantities
    if g is not None and g.n <= REPORT_GRAPH6_MAX_N:
        rep["graph6"] = to_graph6(g)
    elif g is not None:
        omitted = f"graph omitted: n = {g.n} > {REPORT_GRAPH6_MAX_N}"
        rep["notes"] = f"{omitted}; {tr.notes}" if tr.notes else omitted
    return rep


# items per chunk a worker sends: enough to amortize a round trip through a
# pipe, few enough that short campaigns still share out across workers
_CHUNK = 16


class _WorkerTraceback(Exception):
    """The traceback text of an error raised in a worker process."""


def _work(fn, items, starts: range, readers, writer) -> None:
    """A forked worker: send ``fn`` over the chunk of ``items`` at each of
    ``starts`` down ``writer``, as its results before the first error, that
    error (or None) and its traceback text; an error is the last chunk."""
    for reader in readers:  # one left open here would keep a full pipe from breaking
        reader.close()
    with contextlib.suppress(BrokenPipeError):  # the reader is gone: stop quietly
        for start in starts:
            results = []
            try:
                for item in items[start:start + _CHUNK]:
                    results.append(fn(item))
            except Exception as exc:
                import traceback

                writer.send((results, exc, traceback.format_exc()))
                return
            writer.send((results, None, None))


def _run_parallel(fn, items, threads: int):
    """Yield ``fn(item)`` over ``items`` in order, from up to ``threads`` worker processes.

    Items go in chunks of ``_CHUNK``, at most one worker per chunk and per
    core.  Forked worker w inherits ``fn`` and ``items``, runs chunks w, w +
    workers, ... and sends each down its own pipe, read here in chunk order;
    a full pipe blocks its worker, so waiting results stay bounded.  A chunk
    stops at its first error, raised after the results before it; a worker
    that exits without sending its chunk is a RuntimeError.  One worker, or
    a platform without fork, runs ``fn`` here.  The worker count never
    changes the result.
    """
    chunks = range(0, len(items), _CHUNK)
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        # imported only here, so that serial campaigns skip its start-up cost
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # a context Process, not a bare os.fork: it flushes stdout and
            # stderr first, so no worker writes the parent's buffered bytes
            ctx = multiprocessing.get_context("fork")
            readers, children = [], []
            try:
                for w in range(workers):
                    # made just before its fork, so no other worker holds its writer
                    reader, writer = ctx.Pipe(duplex=False)
                    readers.append(reader)
                    child = ctx.Process(target=_work, args=(fn, items, chunks[w::workers], readers, writer))
                    child.start()
                    children.append(child)
                    writer.close()
                for k in range(len(chunks)):
                    try:
                        results, exc, tb = readers[k % workers].recv()
                    except EOFError:
                        raise RuntimeError(f"worker {k % workers} exited without sending chunk {k}") from None
                    yield from results
                    if exc is not None:
                        raise exc from _WorkerTraceback(tb)
            finally:
                for reader in readers:
                    reader.close()
                for child in children:
                    child.join()
            return
    for item in items:
        yield fn(item)


# the first of these quantities a report has fills the csv "rhs" column
_CSV_RHS_KEYS = ("rhs_low", "bound_strict", "count_threshold", "threshold", "rhs_4r1nn_rr")
_CSV_HEADER = "id,verdict,mu_low,mu_high,kr,rhs,s_target,t_target\n"


def _report_line(rep: dict, fmt: str) -> str:
    """The report's JSONL line or CSV row, newline included."""
    if fmt == "jsonl":
        return json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
    mu, q = rep["mu"], rep.get("quantities", {})
    cells = [
        None if mu is None else mu["value"] - mu["residual"],
        None if mu is None else mu["value"] + mu["residual"],
        rep["kr"],
        next((q[key] for key in _CSV_RHS_KEYS if key in q), None),
        q.get("s_target"),
        q.get("t_target"),
    ]
    return ",".join([rep["id"], rep["verdict"]] + ["" if x is None else repr(x) for x in cells]) + "\n"


def _write_reports(results, args) -> set[str]:
    """Write each (verdict, line) result's line as it arrives; return the set of verdicts."""
    verdicts = set()
    with _output(args.out) as out:
        if args.format == "csv":
            out.write(_CSV_HEADER)
        for verdict, line in results:
            verdicts.add(verdict)
            out.write(line)
    return verdicts


def _output(out: str | None):
    """The --out path opened for writing, or stdout without one, as a context."""
    return open(out, "w", encoding="utf-8", newline="") if out else contextlib.nullcontext(sys.stdout)


def _exit_code(verdicts: set[str], strict: bool) -> int:
    if Verdict.VIOLATION.value in verdicts:
        return EXIT_VIOLATION
    if strict and Verdict.INDETERMINATE.value in verdicts:
        return EXIT_INDETERMINATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    graphs = [g for _, g in _gather_instances(args)]
    if args.format == "edgelist" and len(graphs) > 1:
        raise UsageError("edgelist output supports a single graph")
    with _output(args.out) as out:
        if args.format == "edgelist":
            out.write(to_edge_list(graphs[0]))
        else:
            out.writelines(to_graph6(g) + "\n" for g in graphs)
    return EXIT_OK


def run_campaign(items, task, args) -> int:
    """Run task(item) -> (id, TheoremReport, graph or None) over items, in order.

    Each task renders its report to its line, so workers return lines; each
    line is written as it arrives, only the set of verdicts is kept, and the
    campaign's exit code is returned.
    """
    config = _config_echo(args)

    def render(item):
        rep = _report_dict(*task(item), config)
        return rep["verdict"], _report_line(rep, args.format)

    results = _run_parallel(render, items, args.threads)
    return _exit_code(_write_reports(results, args), getattr(args, "strict", False))


def _cmd_mu(args) -> int:
    def task(item):
        iid, g = item
        est = spectral_radius(g)
        tr = TheoremReport(
            {"n": g.n}, True,
            Verdict.CONFIRMED if est.converged else Verdict.INDETERMINATE, mu=est,
            quantities={"iterations": est.iterations, "converged": est.converged},
            notes="" if est.converged else "eigenvalue iteration did not converge",
        )
        return iid, tr, g

    return run_campaign(_gather_instances(args), task, args)


def _cmd_cliques(args) -> int:
    def task(item):
        iid, g = item
        kr = count_cliques(g, args.r)
        tr = TheoremReport({"n": g.n, "r": args.r}, True, Verdict.CONFIRMED, kr=kr)
        return iid, tr, g

    return run_campaign(_gather_instances(args), task, args)


def _cmd_find_kpartite(args) -> int:
    sizes = _parse_list(args.sizes, "--sizes expects part sizes 'S1,S2,...'")

    def task(item):
        iid, g = item
        tr = TheoremReport({"n": g.n}, True, Verdict.CONFIRMED)
        try:
            tr.witness = find_complete_multipartite(g, sizes, budget=args.budget)
        except SearchBudgetExceeded:
            tr.verdict, tr.notes = Verdict.INDETERMINATE, "search budget exhausted"
            return iid, tr, g
        if tr.witness is None:
            tr.verdict, tr.notes = Verdict.VACUOUS, "exhaustive search: no witness exists"
        return iid, tr, g

    return run_campaign(_gather_instances(args), task, args)


def _cmd_fact3(args) -> int:
    if args.n_max < 0 or args.r_max < 1:
        raise UsageError("--n-max must be >= 0 and --r-max >= 1")
    if (args.n_max + 1) * args.r_max > sys.maxsize:  # len() could not count them
        raise UsageError(f"--n-max and --r-max make a sweep of more than {sys.maxsize} reports")

    def task(i):
        r, n = divmod(i, args.n_max + 1)  # r - 1, n: n runs fastest
        return f"fact3-n{n}-r{r + 1}", fact3_check(n, r + 1), None

    return run_campaign(range((args.n_max + 1) * args.r_max), task, args)


def _cmd_verify(args) -> int:
    r_usage, c_usage = "--r expects clique orders 'R1,R2,...'", "--c expects numbers 'C1,C2,...'"
    r_values = _parse_list(args.r, r_usage)
    c_values = _parse_list(args.c, c_usage, float) if "c" in args else [None]
    if not r_values or not c_values:
        raise UsageError(c_usage if r_values else r_usage)

    def task(item):
        (iid, g), r, c = item
        iid += f"-r{r}" + (f"-c{c}" if c is not None else "")
        if args.check == "fact1":
            return iid, fact1_check(g, r), g
        if args.check == "chain":
            return iid, proof_chain_check(g, r, c), g
        check = fact2_check if args.check == "fact2" else theorem1_check
        return iid, check(g, r, c, budget=args.budget), g

    items = [(inst, r, c) for inst in _gather_instances(args) for r in r_values for c in c_values]
    return run_campaign(items, task, args)


def _cmd_spex(args) -> int:
    def task(f):
        res = spex_scan(args.n, f)
        quantities = {"max_mu": res.mu.value, "maximal_graphs": res.maximal_graphs}
        tr = TheoremReport({"n": args.n}, True, Verdict.CONFIRMED, mu=res.mu, quantities=quantities)
        return f"spex-n{args.n}-f{args.f}", tr, res.witness

    return run_campaign([named_graph(args.f)], task, args)


def _cmd_gap(args) -> int:
    def task(f):
        return f"gap-n{args.n}-f{args.f}", theorem2_gap(args.n, f), None

    return run_campaign([named_graph(args.f)], task, args)


def _cmd_biclique_scan(args) -> int:
    # gnp's bounds, checked once here so that their errors name the flag
    _built(_require_order, args.n, "--n")
    _built(_require_probability, args.p, "--p")

    def task(seed):
        g = gnp(args.n, args.p, seed)
        res = max_balanced_biclique(g, budget=args.budget)
        alarm = 4.0 * math.log(g.n)  # g.n >= 2 once the search ran
        tr = TheoremReport(
            {"n": g.n}, True, Verdict.CONFIRMED, witness=res.witness,
            quantities={"side": res.side, "exact": res.exact, "alarm_threshold": alarm},
        )
        if not res.exact:
            tr.verdict, tr.notes = Verdict.INDETERMINATE, "budget exhausted: side is a lower bound"
        elif res.side > alarm:
            tr.notes = f"alarm: side {res.side} exceeds 4 ln n = {alarm:.3f}"
        return f"biclique-n{args.n}-p{args.p}-seed{seed}", tr, g

    return run_campaign(_parse_seeds(args.seeds), task, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, search: bool = False, strict: bool = False) -> None:
    """Every campaign's output flags; a witness search adds --budget and
    --strict, and ``strict`` adds --strict alone."""
    if search:
        p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                       help="search budget in node expansions (candidate vertices tried)")
    if search or strict:
        p.add_argument("--strict", action="store_true", help="exit 3 when indeterminate results occur")
    p.add_argument(
        "--threads",
        type=_count,
        default=1,
        help="worker processes (fork; serial for one chunk of 16 tasks or without fork); "
        "output bytes do not depend on it",
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default=None, help="input graph file")
    p.add_argument("--in-format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--turan", default=None, metavar="N,R", help="Turan graph instance")
    p.add_argument("--multipartite", default=None, metavar="S1,S2,...", help="complete multipartite instance")
    p.add_argument("--gnp", default=None, metavar="N,P", help="random graph instances")
    p.add_argument("--count", type=_count, default=1, help="number of gnp instances")
    p.add_argument("--seed", type=int, default=0, help="base seed (instance i uses seed + i)")


class _Parser(argparse.ArgumentParser):
    """Reads a token as a value unless its part before ``=`` names one of
    the command's flags: argparse alone takes only plain negative numbers
    such as -1 for values, so ``--c -inf`` or ``--turan -1,2`` would name a
    missing value instead of reaching the checker's or generator's bound."""

    def _parse_optional(self, arg_string):
        if arg_string.split("=", 1)[0] in self._option_string_actions:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    # each flag is taken by its full name only, so that a flag of another
    # command (--c) is never read as a prefix of this one's (--count)
    exact = partial(_Parser, allow_abbrev=False)
    parser = exact(
        prog="spectral-turan",
        description="Verify the spectral radius / clique count / multipartite subgraph chain on exact graph corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    p_gen = sub.add_parser("gen", help="write the graphs of the campaign corpus flags")
    _add_inputs(p_gen)
    p_gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_mu = sub.add_parser("mu", help="certified spectral radius")
    _add_inputs(p_mu)
    _add_common(p_mu, strict=True)
    p_mu.set_defaults(func=_cmd_mu)

    p_cl = sub.add_parser("cliques", help="exact r-clique count")
    p_cl.add_argument("--r", type=int, required=True)
    _add_inputs(p_cl)
    _add_common(p_cl)
    p_cl.set_defaults(func=_cmd_cliques)

    p_fk = sub.add_parser("find-kpartite", help="search complete multipartite subgraph")
    p_fk.add_argument("--sizes", required=True, metavar="S1,S2,...")
    _add_inputs(p_fk)
    _add_common(p_fk, search=True)
    p_fk.set_defaults(func=_cmd_find_kpartite)

    checks = sub.add_parser("verify", help="run a theorem/fact checker").add_subparsers(
        dest="check", required=True, parser_class=exact)
    for check, reads_c, search, help_ in (
        ("fact1", False, False, "r-clique count bound at mu (Fact 1)"),
        ("fact2", True, True, "k_r >= c n^r forces a complete r-partite subgraph (Fact 2)"),
        ("theorem1", True, True, "large mu forces a complete r-partite subgraph (Theorem 1)"),
        ("chain", True, False, "Theorem 1's clique-count inequalities under its hypothesis"),
    ):
        p_ck = checks.add_parser(check, help=help_)
        p_ck.add_argument("--r", required=True, help="clique orders, comma separated")
        if reads_c:
            p_ck.add_argument("--c", required=True, help="c parameters, comma separated")
        _add_inputs(p_ck)
        _add_common(p_ck, search=search)
        p_ck.set_defaults(func=_cmd_verify)
    p_f3 = checks.add_parser("fact3", help="Turan graph edge bound over an (n, r) sweep (Fact 3)")
    p_f3.add_argument("--n-max", type=int, required=True, help="largest n of the sweep")
    p_f3.add_argument("--r-max", type=int, required=True, help="largest r of the sweep")
    _add_common(p_f3)
    p_f3.set_defaults(func=_cmd_fact3)

    p_spex = sub.add_parser("spex", help="exhaustive max spectral radius over F-free graphs")
    p_spex.add_argument("--n", type=int, required=True)
    p_spex.add_argument("--f", required=True, help="pattern: K<n>, C<n>, or graph6")
    _add_common(p_spex)
    p_spex.set_defaults(func=_cmd_spex)

    p_gap = sub.add_parser("gap", help="finite-n sandwich around the extremal limit")
    p_gap.add_argument("--n", type=int, required=True)
    p_gap.add_argument("--f", required=True, help="pattern: K<n>, C<n>, or graph6")
    _add_common(p_gap)
    p_gap.set_defaults(func=_cmd_gap)

    p_bc = sub.add_parser("biclique-scan", help="max balanced biclique over seeded random graphs")
    p_bc.add_argument("--n", type=int, required=True)
    p_bc.add_argument("--p", type=float, required=True)
    p_bc.add_argument("--seeds", required=True, help="'7', '1,2,5' or '1..20'")
    _add_common(p_bc, search=True)
    p_bc.set_defaults(func=_cmd_biclique_scan)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, CliqueCountOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    # exit 1 means a VIOLATION report, so a crash must not exit 1
    try:
        code = cli_main()
    except Exception:
        import traceback  # only a crash needs it; start-up stays lean

        traceback.print_exc()
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
