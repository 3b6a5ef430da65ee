"""Campaign benchmark for the spectral-turan CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  A
run measures set-up time in fresh interpreters, runs the workload's campaign
through ``cli_main`` once untimed, then repeatedly for ``--seconds``, then
once more at one thread with every layer traced, and checks every report
against ``reference.py``.  The last stdout line is the result: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line
before it is the run's full record.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import speed
from tracer import Tracer, patch_everywhere, unpatch
from workloads import WORKLOADS, Campaign

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure_setup() -> tuple[list[float], list[float]]:
    """(reference-speed, wall) seconds of fresh interpreters that import the
    CLI and build its parser, one pair per spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import spectral_turan.cli as cli; cli.build_parser()"]
    cpus = sorted(os.sched_getaffinity(0))
    nominal, wall = [], []
    for i in range(SETUP_SPAWNS + 1):
        # the child inherits this CPU, so the probes around it see its speed
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        try:
            before = min(speed.probe() for _ in range(3))
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
            elapsed = time.perf_counter() - start
            after = min(speed.probe() for _ in range(3))
        finally:
            os.sched_setaffinity(0, cpus)
        if proc.returncode:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
        if i:  # the first spawn also writes bytecode caches
            nominal.append(elapsed * speed.REF_S / ((before + after) / 2))
            wall.append(elapsed)
    return nominal, wall


class Execution:
    """One pass over a campaign's invocations."""

    def __init__(self, cli_main, camp: Campaign, threads: int, work: Path):
        self.outputs: list[bytes] = []
        self.codes: list[int | None] = []
        self.errors: list[str] = []
        self.intervals: list[tuple[float, float]] = []  # perf_counter span per invocation
        out = work / "out.jsonl"
        for argv in camp.argv(work):
            full = argv + ["--threads", str(threads), "--out", str(out)]
            start = time.perf_counter()
            try:
                code = cli_main(full)
            except Exception:  # a crash fails the invocation's reports
                code = None
                self.errors.append(traceback.format_exc(limit=4))
            self.intervals.append((start, time.perf_counter()))
            self.outputs.append(out.read_bytes() if out.exists() else b"")
            self.codes.append(code)
            out.unlink(missing_ok=True)
        self.wall = sum(t1 - t0 for t0, t1 in self.intervals)
        self.data = b"".join(self.outputs)
        self.digest = hashlib.sha256(self.data).hexdigest()
        self.reports_written = self.data.count(b"\n")

    def nominal(self, probe: speed.SpeedProbe) -> float:
        return sum(probe.nominal(t0, t1) for t0, t1 in self.intervals)

    def reports(self) -> dict[str, dict]:
        """Reports by id, omitting those of invocations that exited non-zero."""
        out = {}
        for data, code in zip(self.outputs, self.codes):
            if code != 0:
                continue
            for line in data.splitlines():
                try:
                    rep = json.loads(line)
                except ValueError:
                    continue
                out[rep.get("id")] = rep
        return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).exists():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": h.hexdigest(),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# spans reported with calls and self_s, and the work counter each turns into a rate
RATE_SPANS = {
    "graphs.gnp": ("pairs_per_s", "pairs"),
    "graphs.parse_graph6": ("bytes_per_s", "bytes"),
    "graphs.to_graph6": None,
    "spectral.spectral_radius": None,
    "cliques.count_cliques": ("cliques_per_s", "cliques"),
    "multipartite.find_complete_multipartite": None,
    "multipartite.max_balanced_biclique": None,
    "theorems.contains_subgraph": None,
    "theorems.spex_scan": None,
}


def per_layer_metrics(totals: dict, traced_s: float, scale: float, untraced_s: float,
                      output_bytes: int) -> dict:
    """Per-layer metrics; times are scaled to reference speed by ``scale``."""
    m = {}
    for span, rate in RATE_SPANS.items():
        t = totals[span]
        m[f"{span}.calls"] = (t["calls"], "count")
        m[f"{span}.self_s"] = (t["self_s"] * scale, "s")
        if rate:
            m[f"{span}.{rate[0]}"] = (_rate(t["counters"][rate[1]], t["self_s"] * scale), "1/s")
    sr = totals["spectral.spectral_radius"]
    m["spectral.spectral_radius.iterations"] = (sr["counters"]["iterations"], "count")
    m["spectral.spectral_radius.iterations_max"] = (sr["counters"]["iterations_max"], "count")
    m["spectral.spectral_radius.us_per_iteration"] = (
        _rate(sr["self_s"] * scale * 1e6, sr["counters"]["iterations"]), "us")
    m["spectral.spectral_radius.unconverged"] = (sr["counters"]["unconverged"], "count")
    fm = totals["multipartite.find_complete_multipartite"]
    m["multipartite.find_complete_multipartite.found_ratio"] = (
        _rate(fm["counters"]["found"], fm["calls"]), "ratio")
    m["multipartite.find_complete_multipartite.budget_exceeded"] = (
        fm["counters"]["budget_exceeded"], "count")
    cs = totals["theorems.contains_subgraph"]
    m["theorems.contains_subgraph.true_ratio"] = (_rate(cs["counters"]["true"], cs["calls"]), "ratio")
    m["theorems.spex_scan.maximal_graphs"] = (
        totals["theorems.spex_scan"]["counters"]["maximal_graphs"], "count")
    m["theorems.checks.self_s"] = (totals["theorems.checks"]["self_s"] * scale, "s")
    m["cli.self_s"] = (totals["cli"]["self_s"] * scale, "s")
    m["cli.write_reports.self_s"] = (totals["cli.write_reports"]["self_s"] * scale, "s")
    m["cli.output_bytes"] = (output_bytes, "B")
    m["trace.wall_s"] = (traced_s, "s")
    self_total = sum(t["self_s"] for t in totals.values()) * scale
    m["trace.coverage"] = (_rate(self_total, traced_s), "ratio")
    m["trace.overhead"] = (_rate(traced_s, untraced_s), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run(args, work: Path) -> tuple[dict, dict]:
    setup, setup_wall = measure_setup()
    sys.path.insert(0, str(SRC))
    import spectral_turan.cli as cli

    camp = WORKLOADS[args.workload](args.seed)
    for name, data in camp.files.items():
        (work / name).write_bytes(data)
    planted = []
    if args.plant_wrong_kr:
        planted = patch_everywhere("cliques", "count_cliques",
                                   lambda fn: lambda g, r: fn(g, r) + (r >= 3))

    def execute(threads: int) -> Execution:
        # look cli_main up per call, so the traced run goes through its wrapper
        return Execution(lambda argv: cli.cli_main(argv), camp, threads, work)

    tracer = Tracer()
    with speed.SpeedProbe() as probe:
        warmup = execute(camp.threads)
        timed: list[Execution] = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            timed.append(execute(camp.threads))
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        tracer.install()
        try:
            traced = execute(1)
        finally:
            tracer.restore()
            unpatch(planted)
    totals = tracer.totals()

    # every distinct output is checked once; identical bytes fail identically
    defects_by_digest = {}
    for ex in [warmup, *timed, traced]:
        if ex.digest not in defects_by_digest:
            defects_by_digest[ex.digest] = camp.check(ex.reports())
    checked = [*timed, traced]
    attempted = len(camp.expected_ids) * len(checked)
    failed = sum(len(defects_by_digest[ex.digest]) for ex in checked)
    digest_ok = all(ex.digest == traced.digest for ex in [warmup, *timed])

    nominal = [ex.nominal(probe) for ex in timed]
    rates = [_rate(ex.reports_written, s) for ex, s in zip(timed, nominal)]
    traced_s = traced.nominal(probe)
    e2e = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "reports_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"},
        "output_digest_ok": {"value": 1.0 if digest_ok else 0.0, "unit": "bool"},
    }
    per_layer = per_layer_metrics(totals, traced_s, _rate(traced_s, traced.wall),
                                  statistics.median(nominal), len(traced.data))

    # call counts follow from the reports only when those are right
    want_calls = {} if defects_by_digest[traced.digest] else camp.calls(
        list(traced.reports().values()))
    call_mismatches = {
        span: {"expected": n, "traced": totals[span]["calls"]}
        for span, n in want_calls.items() if totals[span]["calls"] != n
    }
    errors = [e for ex in [warmup, *timed, traced] for e in ex.errors]
    checks_ok = failed == 0 and digest_ok and not errors
    correct = checks_ok and (not args.trace or not call_mismatches)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "plant_wrong_kr": args.plant_wrong_kr,
        "inputs": {
            "sha256": camp.inputs_sha256(),
            "files_sha256": {k: hashlib.sha256(v).hexdigest() for k, v in camp.files.items()},
            "invocations": camp.invocations,
            "threads": camp.threads,
        },
        "env": environment(),
        "samples": {
            "count": len(timed),
            "setup_s": setup,
            "setup_wall_s": setup_wall,
            "campaign_s": nominal,
            "campaign_wall_s": [ex.wall for ex in timed],
            "reports_per_s": rates,
            "reports_per_wall_s": [_rate(ex.reports_written, ex.wall) for ex in timed],
            "warmup_wall_s": warmup.wall,
            "traced_wall_s": traced.wall,
        },
        "output_sha256": traced.digest,
        "exit_codes": sorted({c for ex in [warmup, *timed, traced] for c in ex.codes}, key=str),
        "end_to_end": e2e,
        "per_layer": per_layer,
        "trace": {
            "binding_sites": tracer.sites,
            "spans": {k: {"calls": v["calls"], "self_wall_s": v["self_s"], **v["counters"]}
                      for k, v in totals.items()},
            "expected_calls": want_calls,
            "call_mismatches": call_mismatches,
        },
        "defects": {d: dict(list(v.items())[:10]) for d, v in defects_by_digest.items() if v},
        "errors": errors[:5],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if args.trace else e2e,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed campaign time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print per-layer metrics instead of end-to-end ones")
    ap.add_argument("--plant-wrong-kr", action="store_true",
                    help="self-test: add 1 to every count_cliques(g, r >= 3); the run must fail")
    args = ap.parse_args(argv)
    if not (SRC / "spectral_turan" / "cli.py").is_file():
        print(f"error: no program at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
