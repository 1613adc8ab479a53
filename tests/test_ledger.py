"""The BENCH ledger's pair runner and comparison (``benchmarks/ledger.py``),
on fake measurements: no perfbench run."""
from __future__ import annotations

import pytest

from benchmarks import ledger


def side(value, exit=0):
    return {"exit": exit, "v": value}


def value(s):
    return s["v"]


class TestRunPairs:
    def test_each_side_first_in_half_the_pairs(self):
        calls = []

        def measure(s, j):
            calls.append((j, s))
            return {"exit": 0, "j": j, "side": s}

        pairs = ledger.run_pairs(6, measure)
        assert [p["first"] for p in pairs].count("parent") == 3
        assert [p["first"] for p in pairs].count("change") == 3
        # each pair's first side is measured first, and both sides once
        assert calls[::2] == [(j, p["first"]) for j, p in enumerate(pairs)]
        assert sorted(calls) == sorted(
            (j, s) for j in range(6) for s in ledger.SIDES)
        for j, p in enumerate(pairs):
            assert p["parent"] == {"exit": 0, "j": j, "side": "parent"}
            assert p["change"] == {"exit": 0, "j": j, "side": "change"}


class TestCompare:
    # parent -> change: a change win when lower is better, a loss, a tie,
    # a failed change side, a parent side without a value, another win
    PAIRS = [
        {"parent": side(10.0), "change": side(5.0)},
        {"parent": side(4.0), "change": side(8.0)},
        {"parent": side(3.0), "change": side(3.0)},
        {"parent": side(2.0), "change": side(1.0, exit=1)},
        {"parent": side(None), "change": side(1.0)},
        {"parent": side(8.0), "change": side(6.0)},
    ]

    @pytest.mark.parametrize("better, wins, losses",
                             [("lower", 2, 1), ("higher", 1, 2)])
    def test_wins_losses_ties_and_dropped(self, better, wins, losses):
        c = ledger.compare(self.PAIRS, value, better)
        assert c["ratios"] == [0.5, 2.0, 1.0, 0.75]
        assert c["median_ratio"] == pytest.approx(0.875)
        assert (c["wins"], c["losses"]) == (wins, losses)
        assert c["pairs"] == 4
        assert c["dropped"] == [3, 4]
        assert c["parent"]["median"] == pytest.approx(6.0)
        assert c["change"]["median"] == pytest.approx(5.5)

    def test_all_dropped(self):
        c = ledger.compare([{"parent": side(1.0, exit=2),
                             "change": side(1.0)}], value, "lower")
        assert (c["pairs"], c["dropped"], c["median_ratio"]) == (0, [0], None)
        assert c["parent"] == {"median": None, "q1": None, "q3": None}


def test_main_requires_parent(capsys):
    with pytest.raises(SystemExit) as e:
        ledger.main(["--pr", "1"])
    assert e.value.code == 2
    assert "--parent" in capsys.readouterr().err
