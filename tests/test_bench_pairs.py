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
