import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(base_s, change_s, base_rate, change_rate):
    return {"base": {"pass_norm_s": base_s, "units_per_norm_s": base_rate},
            "change": {"pass_norm_s": change_s,
                       "units_per_norm_s": change_rate}}


def test_summarize_counts_wins_by_direction():
    pairs = [_pair(0.43, 0.17, 100, 250), _pair(0.44, 0.18, 100, 240),
             _pair(0.42, 0.45, 100, 90), _pair(0.40, 0.40, 100, 100),
             _pair(0.45, 0.16, 100, 260)]
    out = bench_pairs.summarize(pairs, {"pass_norm_s": "lower",
                                        "units_per_norm_s": "higher"})
    s = out["pass_norm_s"]
    # a tie is not a win
    assert s["change_wins"] == 3 and s["pairs"] == 5
    assert s["better"] == "lower"
    assert s["base"]["median"] == 0.43
    assert s["change"]["median"] == 0.18
    assert s["base"]["q1"] == pytest.approx(0.42)
    assert s["base"]["q3"] == pytest.approx(0.44)
    assert s["base"]["iqr"] == pytest.approx(0.02)
    r = out["units_per_norm_s"]
    assert r["change_wins"] == 3
    assert r["change"]["median"] == 240
    assert r["base"]["iqr"] == 0


def test_summarize_single_pair():
    out = bench_pairs.summarize([_pair(2.0, 1.0, 5, 10)],
                                {"pass_norm_s": "lower"})
    side = out["pass_norm_s"]["change"]
    assert side == {"median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0}
    assert out["pass_norm_s"]["change_wins"] == 1


def test_final_record_is_the_last_stdout_line():
    stdout = ("fs-h1 pass_norm_s = 0.2 s\n"
              'env {"python": "3.11"}\n'
              '{"correct": true, "attempted": 2, "failed": 0, "metrics": '
              '{"pass_norm_s": {"value": 0.2, "unit": "s"}}}\n')
    record = bench_pairs.last_record(stdout)
    assert record["failed"] == 0
    assert bench_pairs._values(record) == {"pass_norm_s": 0.2}


def test_summarize_marks_regression_beyond_the_bound():
    # lower is better: base median 0.43; a change median above
    # 0.43 * 1.25 regresses, one below it does not
    base = [0.42, 0.43, 0.44]
    better = {"pass_norm_s": "lower", "units_per_norm_s": "higher"}
    bounds = {"pass_norm_s": 0.25, "units_per_norm_s": 0.25}
    slow = [_pair(b, c, 100, r) for b, c, r in
            zip(base, (0.53, 0.54, 0.55), (80, 74, 70))]
    out = bench_pairs.summarize(slow, better, bounds)
    assert out["pass_norm_s"]["regressed"] is True
    assert out["pass_norm_s"]["bound"] == 0.25
    # higher is better: 74 is below 100 * 0.75
    assert out["units_per_norm_s"]["regressed"] is True
    near = [_pair(b, c, 100, r) for b, c, r in
            zip(base, (0.52, 0.53, 0.54), (80, 76, 70))]
    out = bench_pairs.summarize(near, better, bounds)
    assert out["pass_norm_s"]["regressed"] is False
    assert out["units_per_norm_s"]["regressed"] is False
    # no bound, no regression
    out = bench_pairs.summarize(slow, better)
    assert out["pass_norm_s"]["regressed"] is False
    assert out["pass_norm_s"]["bound"] is None


def test_verdict_lines():
    better = {"pass_norm_s": "lower"}
    bounds = {"pass_norm_s": 0.25}
    gain = [_pair(0.93 + 0.01 * (i % 3), 0.71, 100, 100) for i in range(10)]
    s = bench_pairs.summarize(gain, better, bounds)["pass_norm_s"]
    line = bench_pairs.verdict("verify-grid", "pass_norm_s", s)
    assert line.startswith("verify-grid pass_norm_s: 0.94 -> 0.71 (-24.5%)")
    assert "change wins 10/10" in line and "bound 25%" in line
    assert line.endswith(": gain")
    # 8 of 10 wins is not a gain
    mixed = gain[:8] + [_pair(0.93, 0.95, 100, 100)] * 2
    s = bench_pairs.summarize(mixed, better, bounds)["pass_norm_s"]
    assert bench_pairs.verdict("w", "pass_norm_s", s).endswith(
        ": within bound")
    slow = [_pair(0.4, 0.6, 100, 100)] * 3
    s = bench_pairs.summarize(slow, better, bounds)["pass_norm_s"]
    assert bench_pairs.verdict("w", "pass_norm_s", s).endswith(": REGRESSED")
