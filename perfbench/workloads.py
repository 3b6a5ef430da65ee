"""The benchmark's campaigns, their inputs and their correctness checks.

A workload turns the workload seed into CLI invocations (plus any input
files) and knows, for every report it expects, how to check it against
``reference`` and against values frozen from an earlier commit.  Reports are
matched by id; a missing report fails.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())
WORK = "{work}"  # stands for the run's work directory in invocation arguments


@dataclass
class Campaign:
    invocations: list[list[str]]  # argv per cli_main call, without --threads/--out
    threads: int  # --threads for the untraced runs; the traced run uses 1
    # report id -> check(report) -> defect or None, one entry per expected report
    checkers: dict[str, Callable[[dict], str | None]]
    # traced call counts per span that follow from the workload and its reports
    calls: Callable[[list[dict]], dict[str, int]]
    files: dict[str, bytes] = field(default_factory=dict)  # work-directory inputs by name

    @property
    def expected_ids(self) -> list[str]:
        return list(self.checkers)

    def argv(self, work: Path) -> list[list[str]]:
        return [[a.replace(WORK, str(work)) for a in argv] for argv in self.invocations]

    def check(self, reports: dict[str, dict]) -> dict[str, str]:
        """Report id -> first defect, for every expected report that fails."""
        defects = {}
        for rid, checker in self.checkers.items():
            rep = reports.get(rid)
            if rep is None:
                defects[rid] = "missing"
                continue
            if rep.get("verdict") != "confirmed":
                defects[rid] = f"verdict {rep.get('verdict')}: {rep.get('notes')}"
                continue
            try:
                defect = checker(rep)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                defect = f"malformed report: {exc!r}"
            if defect:
                defects[rid] = defect
        return defects

    def inputs_sha256(self) -> str:
        h = hashlib.sha256(json.dumps(self.invocations).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


def _fact1_checker(adj_fn, r: int, want_fn, frozen_key: str | None = None):
    """Check a fact1 report: eigenvalue enclosure and an exact clique count."""

    def check(rep: dict) -> str | None:
        adj = adj_fn()
        if rep["params"]["n"] != len(adj) or rep["params"]["r"] != r:
            return f"params {rep['params']} != n={len(adj)}, r={r}"
        mu = rep["mu"]
        lo, hi = mu["value"] - mu["residual"], mu["value"] + mu["residual"]
        lam = ref.largest_eigenvalue(adj)
        slack = ref.eigenvalue_slack(adj, lam)
        if not lo - slack <= lam <= hi + slack:
            return f"mu interval [{lo!r}, {hi!r}] misses eigvalsh {lam!r}"
        want = want_fn()
        frozen = FROZEN["fact1-dense"].get(f"k{r}", {}).get(frozen_key)
        if frozen is not None and frozen != want:
            return f"reference k{r} {want} disagrees with frozen {frozen}"
        if rep["kr"] != want:
            return f"kr {rep['kr']} != reference {want}"
        return None

    return check


def fact1_dense(seed: int) -> Campaign:
    n, p, count, rs = 80, 0.8, 20, (3, 4, 5)
    checkers = {}
    for i in range(count):
        # reference values are computed once, when the first report needs them
        adj = functools.cache(lambda s=seed + i: ref.splitmix_gnp(n, p, s))
        k45 = functools.cache(lambda adj=adj: ref.clique_counts_4_5(adj()))
        wants = {3: lambda adj=adj: ref.triangles_by_trace(adj()),
                 4: lambda k45=k45: k45()[0], 5: lambda k45=k45: k45()[1]}
        for r in rs:
            checkers[f"gnp-n{n}-p{p}-seed{seed}-i{i:04d}-r{r}"] = _fact1_checker(
                adj, r, wants[r], str(seed + i))
    reports = count * len(rs)
    return Campaign(
        [["verify", "fact1", "--gnp", f"{n},{p}", "--count", str(count),
          "--seed", str(seed), "--r", ",".join(map(str, rs))]],
        threads=1, checkers=checkers,
        calls=lambda _: {"spectral.spectral_radius": reports, "cliques.count_cliques": reports,
                         "theorems.checks": reports, "graphs.gnp": count, "cli": 1},
    )


# the corpus: dense mid-size, sparse mid-size, and subcritical (disconnected)
SPARSE_CORPUS = ((500, 0.3), (700, 0.1), (1000, 0.002))


def fact1_sparse_large(seed: int) -> Campaign:
    rng = np.random.default_rng(seed)
    corpus = [ref.numpy_gnp(n, p, rng) for n, p in SPARSE_CORPUS]
    n, p, count = 1000, 0.003, 2
    adjs = [(f"corpus.g6#{i}", lambda a=a: a) for i, a in enumerate(corpus)]
    adjs += [(f"gnp-n{n}-p{p}-seed{seed}-i{i:04d}",
              functools.cache(lambda s=seed + i: ref.splitmix_gnp(n, p, s))) for i in range(count)]
    checkers = {
        f"{iid}-r3": _fact1_checker(adj, 3, lambda adj=adj: ref.triangles_by_trace(adj()))
        for iid, adj in adjs
    }
    reports = len(adjs)
    return Campaign(
        [["verify", "fact1", "--in", f"{WORK}/corpus.g6", "--gnp", f"{n},{p}",
          "--count", str(count), "--seed", str(seed), "--r", "3"]],
        threads=1, checkers=checkers,
        calls=lambda _: {"spectral.spectral_radius": reports, "cliques.count_cliques": reports,
                         "theorems.checks": reports, "graphs.gnp": count,
                         "graphs.parse_graph6": len(corpus), "cli": 1},
        files={"corpus.g6": b"".join(ref.graph6(a) + b"\n" for a in corpus)},
    )


def _biclique_checker(n: int, p: float, s: int):
    def check(rep: dict) -> str | None:
        adj = ref.splitmix_gnp(n, p, s)
        g6 = rep.get("graph6")
        if g6 is not None and g6.encode() != ref.graph6(adj):
            return "graph6 field differs from the reference encoding"
        q = rep["quantities"]
        side = q["side"]
        if q["exact"] is not True:
            return f"inexact side: {q}"
        if side:
            defect = ref.check_witness(adj, rep["witness"], (side, side))
            if defect:
                return f"witness: {defect}"
        frozen = FROZEN["biclique-search"]["side"].get(str(s))
        if frozen is not None and side != frozen:
            return f"side {side} != frozen {frozen}"
        return None

    return check


def biclique_search(seed: int) -> Campaign:
    # Per-graph search cost varies with CV ~0.3, so a campaign's cost varies as
    # 0.3 / sqrt(count) between workload seeds: 100 graphs keep that near 0.03.
    n, p, count = 40, 0.5, 100

    def calls(reports: list[dict]) -> dict[str, int]:
        # max_balanced_biclique probes s = 1, 2, ... up to the first absent size
        sides = [rep["quantities"]["side"] for rep in reports]
        return {"graphs.gnp": count, "graphs.to_graph6": count,
                "multipartite.max_balanced_biclique": count,
                "multipartite.find_complete_multipartite":
                    sum(s + (2 * (s + 1) <= n) for s in sides),
                "cli": 1}

    return Campaign(
        [["biclique-scan", "--n", str(n), "--p", str(p), "--seeds", f"{seed}..{seed + count - 1}"]],
        threads=2,
        checkers={f"biclique-n{n}-p{p}-seed{s}": _biclique_checker(n, p, s)
                  for s in range(seed, seed + count)},
        calls=calls,
    )


# K3, K4, C5, the wheel W4 (graph6 "D|s") and the diamond ("Cz")
GAP_PATTERNS = ("K3", "K4", "C5", "D|s", "Cz")


def _gap_checker(n: int, pattern: str):
    def check(rep: dict) -> str | None:
        frozen = FROZEN["gap-spex"][pattern]
        q = rep["quantities"]
        r = rep["params"]["r"]
        if r != frozen["r"] or q["maximal_graphs"] != frozen["maximal_graphs"]:
            return f"r={r}, maximal_graphs={q['maximal_graphs']} != frozen {frozen}"
        for key, want in (("lower", ref.turan_lower(n, r)), ("lower", frozen["lower"]),
                          ("upper", frozen["upper"])):
            if not abs(q[key] - want) <= 1e-9:
                return f"{key} {q[key]!r} != reference {want!r}"
        return None

    return check


def gap_spex(seed: int) -> Campaign:
    # exhaustive input: the seed changes nothing
    n = 6
    return Campaign(
        [["gap", "--n", str(n), "--f", f] for f in GAP_PATTERNS],
        threads=1,
        checkers={f"gap-n{n}-f{f}": _gap_checker(n, f) for f in GAP_PATTERNS},
        # one eigenvalue per maximal F-free graph
        calls=lambda reports: {
            "spectral.spectral_radius": sum(rep["quantities"]["maximal_graphs"] for rep in reports),
            "theorems.spex_scan": len(GAP_PATTERNS), "theorems.checks": len(GAP_PATTERNS),
            "cli": len(GAP_PATTERNS)},
    )


WORKLOADS = {
    "fact1-dense": fact1_dense,
    "fact1-sparse-large": fact1_sparse_large,
    "biclique-search": biclique_search,
    "gap-spex": gap_spex,
}
