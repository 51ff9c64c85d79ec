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


_BENCHMARK = ('{"run_seconds": 7, "end_to_end": [{"name": "pass_norm_s",'
              ' "better": "lower", "bound": 0.25}, {"name": "peak_rss_mib",'
              ' "better": "lower", "bound": 0.1}]}')


def _working_tree(root: Path) -> Path:
    """A package, a harness and a ``BENCHMARK.json`` under ``root``."""
    (root / "src" / "torelli").mkdir(parents=True)
    (root / "src" / "torelli" / "lattice.py").write_text("x = 1\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(_BENCHMARK)
    return root


def _record(failed=0):
    return {"failed": failed, "metrics": {"pass_norm_s": {"value": 1.0},
                                          "peak_rss_mib": {"value": 25.0}}}


def test_main_exits_nonzero_when_the_change_fails(monkeypatch, tmp_path,
                                                  capsys):
    # the change fails one push-long output per run: the file is still
    # written and the exit code is 1; with no failures it is 0
    failing = {"push-long"}

    def fake_run(tree, workload, seed, seconds):
        return _record(failed=int(tree.name == "change"
                                  and workload in failing))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_pairs, "ROOT", _working_tree(tmp_path))
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
    # the change snapshot is copied before the base is exported, both
    # trees get the working tree's harness and are compiled by one
    # command before any run; --seconds defaults to BENCHMARK.json's
    # run_seconds
    events = []

    def fake_subprocess_run(cmd, cwd=None, **kwargs):
        events.append(("command", tuple(cmd), Path(cwd)))
        return subprocess.CompletedProcess(cmd, 0, b"", b"")

    def fake_export(rev, dest):
        events.append(("export", dest, (dest.parent / "change" / "src"
                                        / "torelli" / "lattice.py").exists()))
        return "0" * 40

    def fake_run(tree, workload, seed, seconds):
        events.append(("run", tree, seconds,
                       (tree / "perfbench" / "run.py").is_file()))
        return _record()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(bench_pairs, "export_commit", fake_export)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", _working_tree(tmp_path))
    assert bench_pairs.main(["--pr", "t", "--pairs", "2",
                             "--workload", "fs-h1"]) == 0
    base = events[0][1]
    change = base.parent / "change"
    assert events[0] == ("export", base, True)
    commands = events[1:3]
    assert [cwd for _, _, cwd in commands] == [base, change]
    assert commands[0][1] == commands[1][1]
    assert commands[0][1][1:] == ("-m", "compileall", "-q", "src")
    runs = events[3:]
    assert [e[0] for e in runs] == ["run"] * 4
    assert [e[1] for e in runs] == [base, change, change, base]
    assert {e[2:] for e in runs} == {(7, True)}
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["seconds"] == 7


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


_HARNESS = """
import argparse, json, pathlib, sys
parser = argparse.ArgumentParser()
parser.add_argument("--workload", choices={choices!r}, required=True)
for name in ("--seed", "--seconds", "--trace"):
    parser.add_argument(name)
workload = parser.parse_args().workload
tree = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(tree / "src"))
import torelli
with open({log!r}, "a") as log:
    print(workload, tree.name, torelli.MARKER,
          (tree / "perfbench" / "out").exists(), file=log)
print(json.dumps({{"failed": 0, "metrics": {{
    "pass_norm_s": {{"value": 1.0}}, "peak_rss_mib": {{"value": 25.0}}}}}}))
"""


def test_both_sides_run_the_working_trees_harness(monkeypatch, tmp_path):
    # in a real repository, the committed harness knows workload a only
    # and the working tree's knows a and b: both sides run b under the
    # working tree's harness, and each imports its own package
    root = tmp_path / "root"
    log = tmp_path / "runs.log"
    (root / "src" / "torelli").mkdir(parents=True)
    (root / "perfbench").mkdir()
    init = root / "src" / "torelli" / "__init__.py"
    harness = root / "perfbench" / "run.py"
    init.write_text('MARKER = "base-package"\n')
    harness.write_text(_HARNESS.format(choices=["a"], log=str(log)))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c",
                        "user.email=t@example.com", *args],
                       cwd=root, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    init.write_text('MARKER = "change-package"\n')
    harness.write_text(_HARNESS.format(choices=["a", "b"], log=str(log)))
    (root / "perfbench" / "out").mkdir()
    (root / "BENCHMARK.json").write_text(_BENCHMARK)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    assert bench_pairs.main(["--pr", "t", "--base", "HEAD", "--pairs", "2",
                             "--seconds", "1", "--workload", "b"]) == 0
    assert log.read_text().splitlines() == [
        "b base base-package False", "b change change-package False",
        "b change change-package False", "b base base-package False"]
    written = json.loads((root / "BENCH_t.json").read_text())
    assert written["change_sources_sha256"] == bench_pairs.source_hash(root)
    assert [p["failed"] for p in written["workloads"]["b"]["pairs"]] == [
        {"base": 0, "change": 0}] * 2


def test_main_runs_the_start_snapshot_after_an_edit(monkeypatch, tmp_path):
    # an edit of the working tree's package after the first pair
    # reaches no run: every pair runs the snapshot taken at the start,
    # whose hash is recorded
    root = _working_tree(tmp_path / "root")
    start = bench_pairs.source_hash(root)
    seen = []

    def fake_run(tree, workload, seed, seconds):
        if tree.name == "change":
            seen.append((tree / "src" / "torelli" / "lattice.py").read_text())
            (root / "src" / "torelli" / "lattice.py").write_text("x = 2\n")
        return _record()

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    assert bench_pairs.main(["--pr", "t", "--pairs", "3", "--seconds", "1",
                             "--workload", "fs-h1"]) == 0
    assert seen == ["x = 1\n"] * 3
    assert bench_pairs.source_hash(root) != start
    written = json.loads((root / "BENCH_t.json").read_text())
    assert written["change_sources_sha256"] == start
    assert len(written["workloads"]["fs-h1"]["pairs"]) == 3


_DRIVER = """
import importlib.util, pathlib, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {tool!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
root = pathlib.Path({root!r})


def export(rev, dest):
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
    (root / "BENCHMARK.json").write_text(_BENCHMARK)
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
