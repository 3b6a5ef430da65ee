import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import trajectory  # noqa: E402
from trajectory import pair_order, second_side_wins, verdict  # noqa: E402

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]  # IQR 1, spread 0.01
NOISY = [60.0, 100.0, 140.0, 80.0, 120.0]  # IQR 40, spread 0.4


@pytest.mark.parametrize("base, runs, better, bound, word", [
    # the median 25% lower against a 10% bound
    (STEADY, [75.0, 76.0, 74.0, 75.5, 74.5], "higher", 0.1, "worse"),
    # lower is better: 30% more is worse, even under a wide base spread
    (NOISY, [x * 1.3 for x in NOISY], "lower", 0.25, "worse"),
    # the same medians under a base spread of 0.4 > 0.25: nothing can be told
    (NOISY, [100.0, 61.0, 139.0, 121.0, 79.0], "higher", 0.25, "unresolved"),
    # a wide base spread is resolved when every run beats every base run
    (NOISY, [141.0, 142.0, 143.0, 144.0, 145.0], "higher", 0.25, "better"),
    # 5 of 5 pairs won and the medians 10 apart against a base IQR of 1
    (STEADY, [x + 10 for x in STEADY], "higher", 0.25, "better"),
    (STEADY, [x - 10 for x in STEADY], "lower", 0.25, "better"),
    # 5 of 5 pairs won, but by less than the base IQR
    (STEADY, [x + 0.5 for x in STEADY], "higher", 0.25, "within"),
    # far ahead in the median, but 4 of 5 pairs is below nine tenths
    (STEADY, [110.0, 111.0, 109.0, 110.5, 99.0], "higher", 0.25, "within"),
    # a slower median inside the bound
    (STEADY, [x - 5 for x in STEADY], "higher", 0.25, "within"),
    # a constant metric: equal is within, a drop from 1 to 0 is worse
    ([1.0] * 3, [1.0] * 3, "higher", 0.001, "within"),
    ([1.0] * 3, [0.0, 0.0, 1.0], "higher", 0.001, "worse"),
])
def test_verdict_outcomes(base, runs, better, bound, word):
    assert verdict(base, runs, better, bound)["verdict"] == word


def test_verdict_fields():
    v = verdict(STEADY, [x + 10 for x in STEADY], "lower", 0.25)
    assert v == {"medians": [100.0, 110.0], "gain": pytest.approx(-0.1), "bound": 0.25,
                 "base_spread": pytest.approx(0.01), "verdict": "within"}
    # a zero base median counts any move as infinite, and none as zero
    assert verdict([0.0] * 3, [1.0] * 3, "lower", 0.25)["gain"] == float("-inf")
    assert verdict([0.0] * 3, [0.0] * 3, "lower", 0.25)["gain"] == 0.0



def test_pairs_alternate_the_run_order():
    names = ["parent", "change"]
    assert [pair_order(names, i) for i in range(3)] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]]


@pytest.mark.parametrize("change, wins", [
    # change runs second in pairs 0 and 2 and first in pairs 1 and 3
    ([2, 2, 2, 2], (4, 2, 2)),
    ([2, 0, 2, 0], (2, 0, 2)),
    ([0, 2, 0, 0], (1, 1, 0)),
    # a tie is no win
    ([1, 1, 1, 1], (0, 0, 0)),
])
def test_second_side_wins_split_by_run_order(change, wins):
    rates = {"parent": [1.0] * 4, "change": [float(x) for x in change]}
    assert second_side_wins(["parent", "change"], rates) == dict(zip(
        ("change_wins", "change_wins_run_first", "change_wins_run_second"), wins))


def _fake_checkout(root: Path):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text('WORKLOADS = {"w": None}\n')
    metrics = [{"name": "reports_per_s", "better": "higher", "bound": 0.25}]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))


def test_the_record_holds_the_orders_and_the_split_wins(tmp_path, monkeypatch):
    # a host whose second run of a pair is always faster: the side that
    # ran second wins every pair, whichever side it is
    for side in ("parent", "change"):
        _fake_checkout(tmp_path / side)
    ran = []

    def fake_run(root, workload, seed, seconds):
        ran.append(root.name)
        rate = 110.0 if len(ran) % 2 == 0 else 100.0
        record = {"end_to_end": {"reports_per_s": {"value": rate}, "setup_s": {"value": 0.1},
                                 "peak_rss_mb": {"value": 30.0}, "ok_share": {"value": 1.0},
                                 "output_digest_ok": {"value": 1.0}},
                  "env": {"src_sha256": root.name, "python": "3"}, "output_sha256": "x",
                  "samples": {"count": 2}, "trace": {"spans": {}, "call_mismatches": []}}
        return record, {"correct": True}

    monkeypatch.setattr(trajectory, "_run", fake_run)
    out = tmp_path / "bench.json"
    assert trajectory.main(["--side", f"parent={tmp_path / 'parent'}",
                            "--side", f"change={tmp_path / 'change'}",
                            "--pairs", "w=5", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["orders"] == [["parent", "change"], ["change", "parent"]] * 2 + [["parent", "change"]]
    assert ran == [name for order in entry["orders"] for name in order]
    # change ran second in pairs 0, 2 and 4, and first in pairs 1 and 3
    assert (entry["change_wins"], entry["change_wins_run_first"],
            entry["change_wins_run_second"]) == (3, 0, 3)
