"""Perf trajectory: run ``perfbench/run.py`` of one or two checkouts in
alternating pairs and write their end-to-end numbers and traced counters.

    python3 tools/trajectory.py --side parent=../parent --side change=. \\
        --pairs fact1-sparse-large=10 --pairs gap-spex=3 --seed 3 \\
        --seconds 8 --out BENCH_31.json

Each ``--side NAME=DIR`` is the root of a checkout; its own, unchanged
``perfbench/run.py`` runs there, one run at a time, so the benchmark a side
is measured with is the one it ships.  Pair i runs the sides in the given
order when i is even and reversed when i is odd, at the one workload seed.
Every run is ``--trace 0``, whose record also holds the traced run's spans
and call checks.  Per side and workload the output holds ``reports_per_s``
(median, quartiles and every run), ``setup_s``, ``peak_rss_mb`` and
``ok_share`` (median and every run), ``output_digest_ok``, the output
digests, ``correct`` with and without the traced call checks, and the first
run's traced spans.  Each workload holds every pair's run order.  With two
sides, it also holds how many pairs the second side won on
``reports_per_s``: in all, when it ran first and when it ran second, since a
side that wins mostly in one position shows the host's drift within a pair
more than a change's effect.  And it holds one ``verdicts`` entry
per ``end_to_end`` metric of the first side's ``BENCHMARK.json``, from
``verdict``: both medians, the relative change signed so that positive is
better, the metric's bound, the first side's spread and whether the
second side is ``worse``, ``unresolved``, ``within`` or ``better``.
Without ``--pairs`` each workload that every side's
``perfbench/workloads.py`` names in its ``WORKLOADS`` runs once per side.

This driver lives outside ``perfbench/`` on purpose: a change that claims
a gain may not edit the benchmark it is measured with.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def workload_names(root: Path) -> list[str]:
    """The keys of ``WORKLOADS`` in ``root/perfbench/workloads.py``, read
    without importing it."""
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise ValueError(f"no WORKLOADS in {root}/perfbench/workloads.py")


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(record, result) of one ``perfbench/run.py --trace 0`` run in ``root``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    """Median, quartiles and every value."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _relative(delta: float, base: float) -> float:
    """delta / |base|, where a zero base counts any move as infinite."""
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def verdict(base: list[float], runs: list[float], better: str, bound: float) -> dict:
    """How ``runs`` compare with ``base`` on one metric, run i of each
    being pair i, where ``better`` is "higher" or "lower".

    ``gain`` is the change of the median relative to the base median,
    positive when better, and ``base_spread`` the base runs' IQR over their
    median.  The verdict is ``worse`` when the gain is below -bound;
    ``unresolved`` when the base spread exceeds the bound and not every run
    beats every base run; ``better`` when the runs win at least nine tenths
    of the pairs and the medians differ by more than the base IQR; and
    ``within`` otherwise.
    """
    sign = 1 if better == "higher" else -1
    b, c = _spread(base), _spread(runs)
    gain = _relative(sign * (c["median"] - b["median"]), b["median"])
    spread = _relative(b["iqr"], b["median"])
    if gain < -bound:
        word = "worse"
    elif spread > bound and not min(sign * x for x in runs) > max(sign * x for x in base):
        word = "unresolved"
    elif (10 * sum(sign * (x - y) > 0 for x, y in zip(runs, base)) >= 9 * len(base)
          and sign * (c["median"] - b["median"]) > b["iqr"]):
        word = "better"
    else:
        word = "within"
    return {"medians": [b["median"], c["median"]], "gain": gain, "bound": bound,
            "base_spread": spread, "verdict": word}


def pair_order(names: list[str], i: int) -> list[str]:
    """The sides in the order pair i runs them: as given when i is even,
    reversed when it is odd."""
    return names if i % 2 == 0 else names[::-1]


def second_side_wins(names: list[str], rates: dict[str, list[float]]) -> dict[str, int]:
    """How many pairs the second side won on ``rates`` (run i of each side
    being pair i): in all, when it ran first and when it ran second."""
    first, second = names
    won = [b > a for a, b in zip(rates[first], rates[second])]
    ran_first = [pair_order(names, i)[0] == second for i in range(len(won))]
    return {f"{second}_wins": sum(won),
            f"{second}_wins_run_first": sum(w and f for w, f in zip(won, ran_first)),
            f"{second}_wins_run_second": sum(w and not f for w, f in zip(won, ran_first))}


def _side_summary(runs: list[tuple[dict, dict]]) -> dict:
    e2e = [record["end_to_end"] for record, _ in runs]
    first = runs[0][0]

    def metric(name: str) -> list[float]:
        return [m[name]["value"] for m in e2e]

    return {
        "src_sha256": first["env"]["src_sha256"],
        "reports_per_s": _spread(metric("reports_per_s")),
        "setup_s": _spread(metric("setup_s")),
        "peak_rss_mb": _spread(metric("peak_rss_mb")),
        "ok_share": _spread(metric("ok_share")),
        "output_digest_ok": min(metric("output_digest_ok")),
        "output_sha256": sorted({record["output_sha256"] for record, _ in runs}),
        "correct": all(result["correct"] for _, result in runs),
        "correct_traced": all(result["correct"] and not record["trace"]["call_mismatches"]
                              for record, result in runs),
        "samples": [record["samples"]["count"] for record, _ in runs],
        "traced_spans": first["trace"]["spans"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", action="append", required=True, metavar="NAME=DIR",
                    help="a checkout to measure; one or two, in first-run order")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=COUNT",
                    help="pairs (runs per side) for a workload; default 1 of each workload")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run")
    ap.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    sides = dict(side.split("=", 1) for side in args.side)
    if not 1 <= len(sides) <= 2 or len(sides) != len(args.side):
        ap.error("give one or two --side NAME=DIR with distinct names")
    names = list(sides)
    shared = [w for w in workload_names(Path(sides[names[0]]))
              if all(w in workload_names(Path(root)) for root in sides.values())]
    pairs = dict.fromkeys(shared, 1) if not args.pairs else {
        w: int(k) for w, k in (p.split("=", 1) for p in args.pairs)}
    if not set(pairs) <= set(shared) or min(pairs.values()) < 1:
        ap.error(f"--pairs takes WORKLOAD=COUNT with COUNT >= 1 and WORKLOAD in {shared}")

    metrics = json.loads((Path(sides[names[0]]) / "BENCHMARK.json").read_text())["end_to_end"]
    out = {"seed": args.seed, "seconds": args.seconds, "sides": names, "workloads": {}}
    for workload, count in pairs.items():
        runs: dict[str, list] = {name: [] for name in names}
        orders = [pair_order(names, i) for i in range(count)]
        for i, order in enumerate(orders):
            for name in order:
                runs[name].append(_run(Path(sides[name]), workload, args.seed, args.seconds))
                rate = runs[name][-1][0]["end_to_end"]["reports_per_s"]["value"]
                print(f"{workload} pair {i + 1}/{count} {name}: {rate:.1f} reports/s", file=sys.stderr)
        entry = {"pairs": count, "orders": orders,
                 "sides": {name: _side_summary(runs[name]) for name in names}}
        if len(names) == 2:
            def values(metric: str) -> dict[str, list[float]]:
                return {name: [record["end_to_end"][metric]["value"] for record, _ in runs[name]]
                        for name in names}

            entry.update(second_side_wins(names, values("reports_per_s")))
            entry["verdicts"] = {m["name"]: verdict(*values(m["name"]).values(), m["better"], m["bound"])
                                 for m in metrics}
        out["workloads"][workload] = entry
    out["env"] = {k: v for k, v in runs[names[0]][0][0]["env"].items()
                  if k in ("python", "numpy", "nproc", "platform")}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
