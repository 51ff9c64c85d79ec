"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pairs.py --pr 6 --pairs 10 \
        --workload fs-h1 --workload verify-grid --workload push-long

Both sides are snapshots in one temporary directory, so no worktree is
registered and no edit made during the run reaches either side:
``change/src`` is the working tree's ``src/`` copied at the start, and
``base/src`` the committed ``src/`` of ``--base``, by ``git archive``.
The working tree's ``perfbench/`` (no ``__pycache__`` or ``out/``) is
copied into both, so one harness, checker and ``expected.json`` run both
packages, and a workload the change adds runs on the base side too.
The harness reads only ``cli.main`` and public names
(``parse_drag_word``, ``push_boundary``, ``reduce``, ``same_map``,
``realize_word``); a change that removes one updates the harness first.
Both trees are compiled to bytecode by one command, so neither side's
set-up compiles the package when ``PYTHONDONTWRITEBYTECODE`` is set.

For each workload and pair, ``perfbench/run.py`` runs once in each
tree on the same seed, alternating which side goes first; the last line
of its stdout is its JSON record.  ``BENCH_<pr>.json`` gets the hash of
the change snapshot's ``src/torelli/*.py``, each pair's end-to-end
metrics and failure counts, and per metric each side's median and
quartiles, the pairs the change won (was strictly better in, by the
direction in ``BENCHMARK.json``), and whether its median is worse than
the base median by more than the metric's relative ``bound`` there.
One verdict line per workload and metric ends the output.

``perfbench/run.py`` exits 0 even when outputs fail their checks, so
each run's ``failed`` count is read too: a workload whose change side
fails outputs in any pair gets a FAILURES line, and the command exits 1
after writing the file.  Base-side failures are recorded, not gated:
after a change that edits ``expected.json`` the base may fail them.
Nothing is left behind after Ctrl-C or SIGTERM: SIGTERM raises
``SystemExit``, the temporary directory is removed on the way out, and
the process group of the running ``perfbench/run.py``, which starts in
its own session, is killed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its final JSON record.  The run
    starts in its own session, and if this call is left by an exception
    its whole process group is killed."""
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed "
                           f"{seed}, exit {proc.returncode}): "
                           f"{stderr.strip()}")
    return last_record(stdout)


@contextlib.contextmanager
def _sigterm_exits():
    """Inside the block SIGTERM raises ``SystemExit``, so that what the
    block opened is closed on the way out."""

    def stop(signum: int, frame) -> None:
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def last_record(stdout: str) -> dict:
    """The JSON record on the last line of a run's report."""
    return json.loads(stdout.strip().splitlines()[-1])


def _values(record: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in record["metrics"].items()}


def _side(xs: list[float]) -> dict[str, float]:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: medians and quartiles of both sides, the number of
    pairs in which the change is strictly better, and whether the
    change's median is worse than the base median by more than the
    metric's relative bound.  ``pairs`` hold ``base`` and ``change``
    metric dicts; ``better`` maps each metric name to "lower" or
    "higher", and ``bounds`` maps it to its bound (no bound, no
    regression)."""
    bounds = bounds or {}
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        sides = {"base": _side(base), "change": _side(change)}
        bound = bounds.get(name)
        worse_by = sign * (sides["change"]["median"]
                           - sides["base"]["median"])
        regressed = (bound is not None
                     and worse_by > bound * abs(sides["base"]["median"]))
        out[name] = {"better": direction, "pairs": len(pairs),
                     "change_wins": wins, "bound": bound,
                     "regressed": regressed, **sides}
    return out


def verdict(workload: str, name: str, s: dict) -> str:
    """One line: the medians, the change in percent, the wins, the base
    IQR and the verdict.  REGRESSED is worse beyond the bound; "gain"
    is better in at least nine of ten pairs and by more than the base
    IQR in the median; anything else is "within bound".  Drift of the
    host between the two sides of a pair can pass that rule, so a gain
    of under 3% in the median asks for a second paired run."""
    base, change = s["base"]["median"], s["change"]["median"]
    pct = 100 * (change - base) / base if base else 0.0
    sign = 1 if s["better"] == "lower" else -1
    if s["regressed"]:
        word = "REGRESSED"
    elif (10 * s["change_wins"] >= 9 * s["pairs"]
          and sign * (base - change) > s["base"]["iqr"]):
        word = "gain" if abs(pct) >= 3 else (
            "gain under 3%: confirm with a second paired run on other seeds")
    else:
        word = "within bound"
    bound = "none" if s["bound"] is None else f"{100 * s['bound']:.0f}%"
    return (f"{workload} {name}: {base:.4g} -> {change:.4g} ({pct:+.1f}%),"
            f" {s['better']} is better, change wins {s['change_wins']}/"
            f"{s['pairs']}, base IQR {s['base']['iqr']:.3g}, bound {bound}:"
            f" {word}")


def failure_verdict(workload: str, pairs: list[dict]) -> str | None:
    """A FAILURES line when the change side failed outputs in any pair,
    which includes every case of it failing more often than the base;
    None otherwise."""
    failing = sum(p["failed"]["change"] > 0 for p in pairs)
    if not failing:
        return None
    base = sum(p["failed"]["base"] for p in pairs)
    change = sum(p["failed"]["change"] for p in pairs)
    return (f"{workload}: FAILURES: the change failed outputs in {failing}/"
            f"{len(pairs)} pairs, {change} in all against {base} for the"
            f" base")


def export_commit(rev: str, dest: Path) -> str:
    """Write the committed ``src/`` of ``rev`` into ``dest``; its hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def compile_tree(tree: Path) -> None:
    """Compile the package sources of ``tree`` to bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=tree, capture_output=True, check=True)


def source_hash(tree: Path) -> str:
    """SHA-256 over the names and contents of ``src/torelli/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "torelli").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True,
                        help="label of the change; names BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1",
                        help="commit to compare against (default HEAD~1)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    metrics = bench["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    result = {"pr": args.pr, "base": None, "change": "working tree",
              "command": "python3 tools/bench_pairs.py "
                         + " ".join(argv if argv is not None else sys.argv[1:]),
              "seconds": args.seconds, "python": platform.python_version(),
              "machine": platform.machine(), "workloads": {}}
    with _sigterm_exits(), \
            tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        shutil.copytree(ROOT / "src", trees["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result["change_sources_sha256"] = source_hash(trees["change"])
        trees["base"].mkdir()
        result["base"] = export_commit(args.base, trees["base"])
        for tree in trees.values():
            shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            compile_tree(tree)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                records = {side: run_once(trees[side], workload, seed,
                                          args.seconds) for side in order}
                pairs.append({"seed": seed, "first": order[0],
                              "failed": {side: records[side]["failed"]
                                         for side in ("base", "change")},
                              "base": _values(records["base"]),
                              "change": _values(records["change"])})
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{k} {pairs[-1]['base'][k]:.4g} -> "
                                  f"{pairs[-1]['change'][k]:.4g}"
                                  for k in ("pass_norm_s", "peak_rss_mib")),
                      flush=True)
            result["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, better, bounds)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    failed = False
    for workload, data in result["workloads"].items():
        for name, s in data["summary"].items():
            print(verdict(workload, name, s))
        line = failure_verdict(workload, data["pairs"])
        if line:
            failed = True
            print(line)
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
