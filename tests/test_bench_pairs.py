import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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
    # a gain of under 3% in the median asks for a second paired run
    small = [_pair(0.70 + 0.001 * (i % 3), 0.69, 100, 100) for i in range(10)]
    s = bench_pairs.summarize(small, better, bounds)["pass_norm_s"]
    line = bench_pairs.verdict("verify-grid", "pass_norm_s", s)
    assert "(-1.6%)" in line and "change wins 10/10" in line
    assert line.endswith(": gain under 3%: confirm with a second paired"
                         " run on other seeds")
    # 8 of 10 wins is not a gain
    mixed = gain[:8] + [_pair(0.93, 0.95, 100, 100)] * 2
    s = bench_pairs.summarize(mixed, better, bounds)["pass_norm_s"]
    assert bench_pairs.verdict("w", "pass_norm_s", s).endswith(
        ": within bound")
    slow = [_pair(0.4, 0.6, 100, 100)] * 3
    s = bench_pairs.summarize(slow, better, bounds)["pass_norm_s"]
    assert bench_pairs.verdict("w", "pass_norm_s", s).endswith(": REGRESSED")


def _failed(base, change):
    return {"failed": {"base": base, "change": change}}


def test_failure_verdict_flags_any_failing_change_pair():
    clean = [_failed(0, 0)] * 10
    assert bench_pairs.failure_verdict("fs-h1", clean) is None
    # the base failing alone is not the change's fault
    assert bench_pairs.failure_verdict(
        "fs-h1", [_failed(2, 0)] + clean[1:]) is None
    # one failing output of the change in one pair is flagged, even
    # when the base fails as often
    line = bench_pairs.failure_verdict(
        "fs-h1", [_failed(1, 1)] + clean[1:])
    assert line == ("fs-h1: FAILURES: the change failed outputs in 1/10"
                    " pairs, 1 in all against 1 for the base")
    line = bench_pairs.failure_verdict(
        "push-long", [_failed(0, 3), _failed(0, 1)])
    assert line.startswith("push-long: FAILURES:")
    assert "in 2/2 pairs, 4 in all against 0" in line


def test_main_exits_nonzero_when_the_change_fails(monkeypatch, tmp_path,
                                                  capsys):
    # the change fails one push-long output per run: the file is still
    # written and the exit code is 1; with no failures it is 0
    failing = {"push-long"}

    def fake_run(tree, workload, seed, seconds):
        failed = tree == bench_pairs.ROOT and workload in failing
        return {"failed": int(failed),
                "metrics": {"pass_norm_s": {"value": 1.0},
                            "peak_rss_mib": {"value": 25.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_norm_s", "better": "lower",'
        ' "bound": 0.25}, {"name": "peak_rss_mib", "better": "lower",'
        ' "bound": 0.1}]}')
    args = ["--pr", "t", "--pairs", "2", "--seconds", "1",
            "--workload", "fs-h1", "--workload", "push-long"]
    assert bench_pairs.main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [x for x in lines if "FAILURES" in x] == [
        "push-long: FAILURES: the change failed outputs in 2/2 pairs, 2 in"
        " all against 0 for the base"]
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [p["failed"] for p in written["workloads"]["push-long"]["pairs"]] \
        == [{"base": 0, "change": 1}] * 2
    failing.clear()
    assert bench_pairs.main(args) == 0


def test_main_compiles_both_trees_alike_before_the_first_pair(
        monkeypatch, tmp_path):
    # the working tree may hold bytecode that a fresh export lacks, so
    # both are compiled by one command before any run
    events = []

    def fake_subprocess_run(cmd, cwd=None, **kwargs):
        events.append(("command", tuple(cmd), Path(cwd)))
        return subprocess.CompletedProcess(cmd, 0, b"", b"")

    def fake_export(rev, dest):
        events.append(("export", dest))
        return "0" * 40

    def fake_run(tree, workload, seed, seconds):
        events.append(("run", tree))
        return {"failed": 0, "metrics": {"pass_norm_s": {"value": 1.0},
                                         "peak_rss_mib": {"value": 25.0}}}

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(bench_pairs, "export_commit", fake_export)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_norm_s", "better": "lower",'
        ' "bound": 0.25}]}')
    assert bench_pairs.main(["--pr", "t", "--pairs", "2", "--seconds", "1",
                             "--workload", "fs-h1"]) == 0
    base = events[0][1]
    assert events[0] == ("export", base)
    commands = events[1:3]
    assert [cwd for _, _, cwd in commands] == [base, tmp_path]
    assert commands[0][1] == commands[1][1]
    assert commands[0][1][1:] == ("-m", "compileall", "-q", "src")
    assert [e[0] for e in events[3:]] == ["run"] * 4
    assert {e[1] for e in events[3:]} == {base, tmp_path}


def test_source_hash_follows_the_package_sources(tmp_path):
    package = tmp_path / "src" / "torelli"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    first = bench_pairs.source_hash(tmp_path)
    assert bench_pairs.source_hash(tmp_path) == first
    # files outside src/torelli/*.py do not count
    (package / "notes.txt").write_text("y")
    (tmp_path / "README.md").write_text("z")
    assert bench_pairs.source_hash(tmp_path) == first
    (package / "a.py").write_text("x = 2\n")
    changed = bench_pairs.source_hash(tmp_path)
    assert changed != first
    (package / "b.py").write_text("")
    assert bench_pairs.source_hash(tmp_path) not in (first, changed)


def test_main_stops_when_the_sources_change_during_the_run(
        monkeypatch, tmp_path):
    # an edit of the package after the first pair stops the run before
    # the second, and no file is written
    package = tmp_path / "src" / "torelli"
    package.mkdir(parents=True)
    (package / "lattice.py").write_text("x = 1\n")
    runs = []

    def fake_run(tree, workload, seed, seconds):
        runs.append(tree)
        if len(runs) == 2:
            (package / "lattice.py").write_text("x = 2\n")
        return {"failed": 0, "metrics": {"pass_norm_s": {"value": 1.0},
                                         "peak_rss_mib": {"value": 25.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_norm_s", "better": "lower",'
        ' "bound": 0.25}]}')
    args = ["--pr", "t", "--pairs", "3", "--seconds", "1",
            "--workload", "fs-h1"]
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(args)
    assert "changed since the run started (before fs-h1 pair 2)" in str(
        stop.value)
    assert len(runs) == 2
    assert not (tmp_path / "BENCH_t.json").exists()
    # unchanged sources run every pair and record their hash
    runs.clear()
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *rest: (
        runs.append(tree) or {"failed": 0, "metrics": {
            "pass_norm_s": {"value": 1.0}, "peak_rss_mib": {"value": 25.0}}}))
    assert bench_pairs.main(args) == 0
    assert len(runs) == 6
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert written["change_sources_sha256"] == bench_pairs.source_hash(
        tmp_path)


_DRIVER = """
import importlib.util, pathlib, shutil, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {tool!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
root = pathlib.Path({root!r})


def export(rev, dest):
    shutil.copytree(root / "perfbench", dest / "perfbench")
    (root / "export.txt").write_text(str(dest))
    return "0" * 40


bench_pairs.ROOT = root
bench_pairs.export_commit = export
bench_pairs.compile_tree = lambda tree: None
sys.exit(bench_pairs.main(["--pr", "t", "--pairs", "1", "--seconds", "1",
                           "--workload", "fs-h1"]))
"""

_STUB_RUN = """
import os, pathlib, time
pathlib.Path({pid_file!r}).write_text(str(os.getpid()))
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_for(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def test_sigterm_removes_the_export_and_kills_the_run(tmp_path):
    # the tool (one process) runs a stub perfbench/run.py (the second)
    # that sleeps; SIGTERM to the tool removes the export directory and
    # kills the stub
    root = tmp_path / "root"
    (root / "src" / "torelli").mkdir(parents=True)
    (root / "src" / "torelli" / "a.py").write_text("x = 1\n")
    (root / "perfbench").mkdir()
    pid_file = tmp_path / "run.pid"
    (root / "perfbench" / "run.py").write_text(
        _STUB_RUN.format(pid_file=str(pid_file)))
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_norm_s", "better": "lower",'
        ' "bound": 0.25}]}')
    driver = subprocess.Popen(
        [sys.executable, "-c", _DRIVER.format(tool=str(_PATH),
                                              root=str(root))],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    pid = None
    try:
        assert _wait_for(lambda: pid_file.exists()
                         and pid_file.read_text().isdigit())
        pid = int(pid_file.read_text())
        export = Path((root / "export.txt").read_text())
        assert export.is_dir() and _alive(pid)
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=10) == 128 + signal.SIGTERM
        assert _wait_for(lambda: not _alive(pid))
        assert not export.parent.exists()
        assert not (root / "BENCH_t.json").exists()
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait(timeout=10)
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)
