import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from trajectory import verdict  # noqa: E402

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

