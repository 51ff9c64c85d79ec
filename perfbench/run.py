"""Benchmark of the torelli CLI, driven in-process from the working tree.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

One client, one process, one thread, closed loop: each CLI invocation is
issued after the previous one returns.  A run repeats whole passes over
the workload's seeded input set while they fit in ``--seconds`` (at
least one pass) and checks every output from outside the program.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced pass over the same inputs and reports
the per-layer metrics (see tracing.py) plus the tracing overhead.

Gated timings are CPU seconds normalized for the speed of the host at
the time (see speed_factor); raw CPU and elapsed times are printed too.
Every line but the last is a human-readable report: metrics by name and
unit, the failure fraction, the environment and the input statistics.
The last line is one JSON object with the keys correct, attempted,
failed and metrics.  The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())
SETUP_PROBES = 7
# Host speed (see speed_factor): a reference kernel runs after each
# invocation for about REFERENCE_SHARE of its CPU time; one call of it
# takes NOMINAL_REFERENCE_S on the nominal host.
NOMINAL_REFERENCE_S = 0.003
REFERENCE_SHARE = 0.05
SPEED_WINDOW = 3
_reference_rng = random.Random(0)
REFERENCE_WORD = tuple(_reference_rng.choice((-3, -2, -1, 1, 2, 3))
                       for _ in range(3000))
REFERENCE_MATRIX = [[_reference_rng.choice((-1, 0, 0, 0, 0, 1))
                     for _ in range(240)] for _ in range(16)]
PUSH_WORD_LENGTH = 100


class SetupError(RuntimeError):
    """The working tree cannot be benchmarked (no package, wrong copy)."""


# --- inputs, made from the seed without calling the package -------------------

def ordered_partitions(b: int) -> list[tuple[tuple[int, ...], ...]]:
    """Ordered partitions of {1..b}, labels ascending inside each block."""
    out = set()
    for labels in itertools.product(range(b), repeat=b):
        blocks = [tuple(x + 1 for x in range(b) if labels[x] == k)
                  for k in range(b)]
        blocks = [blk for blk in blocks if blk]
        for order in itertools.permutations(blocks):
            out.add(tuple(order))
    return sorted(out)


def canonical_config(n: int, b: int, partition) -> str:
    return json.dumps({"n": n, "b": b, "partition": [list(x) for x in partition]},
                      separators=(",", ":"))


def config_arg(rng: random.Random, n: int, b: int, partition) -> str:
    """The configuration as JSON, keys in a seeded order."""
    items = [("n", n), ("b", b), ("partition", [list(x) for x in partition])]
    rng.shuffle(items)
    return json.dumps(dict(items))


def free_reduce(letters) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def random_word(rng: random.Random, n: int, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice([k for k in range(-n, n + 1) if k])
        if not out or out[-1] != -x:
            out.append(x)
    return out


def commutator_word(rng: random.Random, n: int) -> list[int]:
    """A product of commutators [u, v] of random reduced words of length
    2, freely reduced, about PUSH_WORD_LENGTH letters long.  Commutators of
    short words keep the abelianized prefixes small, so the drag words and
    their cost vary far less from seed to seed than for uniform words."""
    while True:
        letters: list[int] = []
        while len(free_reduce(letters)) < PUSH_WORD_LENGTH:
            u, v = random_word(rng, n, 2), random_word(rng, n, 2)
            letters += u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]
        word = free_reduce(letters)
        if len(word) <= PUSH_WORD_LENGTH + 12:
            return word


def word_text(letters) -> str:
    return " ".join(f"x{x}" if x > 0 else f"x{-x}^-1" for x in letters)


@dataclass
class Item:
    """One CLI invocation and what it should produce."""

    args: list[str]
    units: int
    expect: dict = field(default_factory=dict)
    cpu_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    output: str | None = None
    failures: int = 0


def verify_grid_items(rng: random.Random) -> list[Item]:
    items = []
    for n in (2, 3, 4):
        for b in range(4):
            for partition in ordered_partitions(b):
                expect = EXPECTED["verify-grid"][canonical_config(n, b, partition)]
                args = ["verify", "--all", "--config",
                        config_arg(rng, n, b, partition)]
                items.append(Item(args, expect["checks"], expect))
    rng.shuffle(items)
    return items


def push_long_items(rng: random.Random) -> list[Item]:
    items = []
    for n in (2, 3):
        for b in (1, 2, 3):
            for partition in ordered_partitions(b):
                for r, block in enumerate(partition, start=1):
                    for s in range(1, len(block) + 1):
                        word = commutator_word(rng, n)
                        args = ["push-factor",
                                "--config", config_arg(rng, n, b, partition),
                                "--boundary", f"{r},{s}",
                                "--word", word_text(word)]
                        expect = {"n": n, "b": b, "partition": partition,
                                  "boundary": (r, s), "word": word}
                        items.append(Item(args, len(word), expect))
    rng.shuffle(items)
    return items


def fs_h1_items(rng: random.Random, sizes=((4, 1), (3, 2))) -> list[Item]:
    items = []
    for n, bound in sizes:
        expect = EXPECTED["fs-h1"][f"{n},{bound}"]
        options = [["--n", str(n)], ["--bound", str(bound)], ["--homology"]]
        rng.shuffle(options)
        cells = expect["vertices"] + expect["edges"] + expect["triangles"]
        items.append(Item(["fs", *itertools.chain(*options)], cells, expect))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "verify-grid": (verify_grid_items,
                    ["verify", "--all", "--config",
                     '{"n":2,"b":0,"partition":[]}']),
    "push-long": (push_long_items,
                  ["push-factor", "--config", '{"n":2,"b":1,"partition":[[1]]}',
                   "--boundary", "1,1", "--word", "x1 x2 x1^-1 x2^-1"]),
    "fs-h1": (fs_h1_items, ["fs", "--n", "2", "--bound", "1", "--homology"]),
}


# --- invoking the CLI ------------------------------------------------------------

def load_cli():
    """Import the package from the working tree's src/ and return its CLI."""
    if not (SRC / "torelli" / "__init__.py").is_file():
        raise SetupError(f"no torelli package under {SRC}")
    sys.path.insert(0, str(SRC))
    import torelli
    from torelli import cli
    if Path(torelli.__file__).resolve().parent != (SRC / "torelli").resolve():
        raise SetupError(f"torelli resolved to {torelli.__file__}, not {SRC}")
    return cli


def invoke(cli, args: list[str]) -> tuple[float, float, int, str]:
    """Run one CLI invocation; (CPU seconds, elapsed seconds, exit code,
    stdout).  An exception escaping the CLI is reported as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    cpu, start = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="torelli", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed invocation, not a stop
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            code = -1
    return (time.process_time() - cpu, time.perf_counter() - start, code,
            out.getvalue())


def setup(workload: str, seed: int):
    """Everything before the first timed invocation: import, inputs, warm-up."""
    cli = load_cli()
    make_items, warm_args = WORKLOADS[workload]
    items = make_items(random.Random(seed))
    code = invoke(cli, warm_args)[2]
    if code != 0:
        raise SetupError(f"warm-up invocation exited {code}")
    return cli, items


# --- output checks, all outside the timed region ----------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_verify(item: Item, out: str) -> str | None:
    doc = json.loads(out)
    if doc.get("configs") != 1 or doc.get("ok") is not True:
        return "verify reported a failing check"
    if not all(c.get("ok") is True for c in doc["checks"]):
        return "a check is not ok"
    if len(doc["checks"]) != item.expect["checks"]:
        return f"{len(doc['checks'])} checks, expected {item.expect['checks']}"
    if sha256(out) != item.expect["sha256"]:
        return "stdout digest differs from the recorded one"
    return None


def check_fs(item: Item, out: str) -> str | None:
    doc = json.loads(out)
    if doc.get("h1_rank") != item.expect["h1"]:
        return f"h1 {doc.get('h1_rank')}, expected {item.expect['h1']}"
    if (len(doc["vertices"]), len(doc["edges"])) != (
            item.expect["vertices"], item.expect["edges"]):
        return "vertex or edge count differs"
    if sha256(out) != item.expect["sha256"]:
        return "stdout digest differs from the recorded one"
    return None


def check_push(item: Item, out: str) -> str | None:
    doc = json.loads(out)
    if doc.get("matches_push") is not True:
        return "matches_push is not true"
    if not isinstance(doc.get("drags"), str) or not doc["drags"]:
        return "no drag word"
    return None


def check_push_library(item: Item, out: str) -> str | None:
    """Realize the emitted drag word through the library and compare it
    with the direct push; free reduction of the word may change stdout
    legitimately, so no digest is used."""
    from torelli import config as cfg
    from torelli import drags, words
    e = item.expect
    config = cfg.partition_config(e["n"], e["b"], e["partition"])
    dw = drags.parse_drag_word(json.loads(out)["drags"])
    pushed = drags.push_boundary(config, e["boundary"],
                                 words.reduce(e["word"], e["n"]))
    if not words.same_map(drags.realize_word(config, dw), pushed):
        return "drag word does not realize the push"
    return None


CHECKS = {"verify-grid": check_verify, "push-long": check_push,
          "fs-h1": check_fs}


def check_output(workload: str, item: Item, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[workload](item, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- host speed ---------------------------------------------------------------------

def words_reference() -> None:
    """Free reduction and dictionary counting, like the words layer."""
    for k in range(6):
        word = free_reduce(REFERENCE_WORD[k:] + REFERENCE_WORD[:k])
        counts: dict[int, int] = {}
        for x in word:
            counts[x] = counts.get(x, 0) + 1


def lattice_reference() -> None:
    """Fraction-free row elimination of a sparse +-1 matrix, like the
    lattice layer's rank computation."""
    m = [row[:] for row in REFERENCE_MATRIX]
    top = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(top, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        for i in range(top + 1, len(m)):
            if m[i][col]:
                p, q = m[top][col], m[i][col]
                m[i] = [p * x - q * y for x, y in zip(m[i], m[top])]
                g = 0
                for x in m[i]:
                    g = gcd(g, x)
                if g > 1:
                    m[i] = [x // g for x in m[i]]
        top += 1
        if top == len(m):
            break


REFERENCE_KERNELS = {"verify-grid": words_reference,
                     "push-long": words_reference,
                     "fs-h1": lattice_reference}


def reference_sample(kernel, budget: float) -> tuple[int, float]:
    """Run a reference kernel at least once and until it used ``budget``
    CPU seconds; (calls, CPU seconds)."""
    calls, start = 0, time.process_time()
    while not calls or time.process_time() - start < budget:
        kernel()
        calls += 1
    return calls, time.process_time() - start


def speed_factor(samples: list[tuple[int, float]]) -> float:
    """Host speed from reference samples.

    On a shared machine the CPU time of the same work drifts by a quarter
    or more within minutes, with what other tenants run on the same
    cores.  The reference computation slows down with it, so CPU time
    multiplied by this factor is the CPU time the work would take on the
    nominal host, where one call of a reference kernel takes
    NOMINAL_REFERENCE_S.  Each workload's kernel resembles the layer it
    spends its time in, since the layers do not slow down alike."""
    return (NOMINAL_REFERENCE_S * sum(c for c, _ in samples)
            / sum(t for _, t in samples))


# --- passes ------------------------------------------------------------------------

@dataclass
class Pass:
    cpu_s: float
    wall_s: float
    norm_s: float
    speed: float


def run_pass(cli, workload: str, items: list[Item], call=invoke,
             corrupt=None) -> Pass:
    """One closed-loop pass, each invocation followed by a reference
    sample.  Each invocation's CPU time is normalized by the host speed
    over the SPEED_WINDOW samples on either side of it."""
    kernel = REFERENCE_KERNELS[workload]
    samples = [reference_sample(kernel, 0.0)]
    for item in items:
        cpu, wall, code, out = call(cli, item.args)
        samples.append(reference_sample(kernel, REFERENCE_SHARE * cpu))
        if corrupt is not None:
            out = corrupt(item, out)
        item.cpu_s.append(cpu)
        item.wall_s.append(wall)
        if item.output is None:
            item.output = out
        problem = check_output(workload, item, code, out)
        if problem is None and out != item.output:
            problem = "output differs between passes"
        if problem is not None:
            item.failures += 1
            print(f"FAIL {workload} {' '.join(item.args)[:120]}: {problem}")
    for j, item in enumerate(items):
        window = samples[max(0, j - SPEED_WINDOW):j + 2 + SPEED_WINDOW]
        item.norm_s.append(item.cpu_s[-1] * speed_factor(window))
    return Pass(sum(i.cpu_s[-1] for i in items),
                sum(i.wall_s[-1] for i in items),
                sum(i.norm_s[-1] for i in items), speed_factor(samples))


def library_checks(workload: str, items: list[Item]) -> None:
    """Checks made once per distinct input after the timed passes."""
    if workload != "push-long":
        return
    for item in items:
        if item.failures == len(item.cpu_s):
            continue
        try:
            problem = check_push_library(item, item.output)
        except ValueError as exc:  # ParseError and PreconditionError
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            item.failures = len(item.cpu_s)
            print(f"FAIL {workload} {' '.join(item.args)[:120]}: {problem}")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; with ten samples or fewer, the maximum."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0, len(xs)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh process: set up, then print the CPU time used so far,
    the host speed factor and the monotonic clock at the point where the
    first timed invocation would be issued."""
    setup(workload, seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    kernel = REFERENCE_KERNELS[workload]
    kernel()
    print(usage.ru_utime + usage.ru_stime,
          speed_factor([reference_sample(kernel, 0.05)]), ready)


def setup_seconds(workload: str, seed: int) -> dict[str, float]:
    """Medians over fresh processes of the set-up time: normalized CPU,
    raw CPU, and elapsed from spawning the process."""
    norm, cpu, wall = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        probe_cpu, factor, ready = (float(x) for x in done.stdout.split()[-3:])
        norm.append(probe_cpu * factor)
        cpu.append(probe_cpu)
        wall.append(ready - start)
    return {"norm": statistics.median(norm), "cpu": statistics.median(cpu),
            "wall": statistics.median(wall)}


# --- environment and input statistics ---------------------------------------------

def environment() -> dict:
    import torelli
    digest = hashlib.sha256()
    for path in sorted((SRC / "torelli").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if done.returncode == 0:
            head = done.stdout.strip()
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"module": torelli.__file__, "git_head": head,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def input_stats(workload: str, items: list[Item]) -> dict:
    stats: dict = {"invocations_per_pass": len(items),
                   "units_per_pass": sum(i.units for i in items)}
    if workload == "verify-grid":
        stats["configs"] = len(items)
    elif workload == "push-long":
        lengths = sorted(i.units for i in items)
        stats["word_length"] = {"min": lengths[0],
                                "median": statistics.median(lengths),
                                "max": lengths[-1]}
        tokens = sorted(len(json.loads(i.output)["drags"].split())
                        for i in items if i.output and not i.failures)
        if tokens:
            stats["drag_tokens"] = {"min": tokens[0],
                                    "median": statistics.median(tokens),
                                    "max": tokens[-1], "total": sum(tokens)}
    else:
        stats["fs"] = {" ".join(i.args): {k: i.expect[k] for k in
                                          ("vertices", "edges", "triangles",
                                           "d1_shape", "d2_shape")}
                       for i in items}
    return stats


# --- runs --------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict
    ungated: dict[str, tuple[float, str]] = field(default_factory=dict)


def counts(items: list[Item]) -> tuple[int, int]:
    return (sum(len(i.cpu_s) for i in items),
            sum(i.failures for i in items))


def measure(workload: str, seed: int, seconds: float, cli,
            items: list[Item], corrupt=None) -> Result:
    """Whole passes while the next one is expected to end within
    ``seconds`` of the first.  Gated times are normalized CPU times (see
    speed_factor): the program is single-threaded and never waits, so its
    CPU time is its elapsed time less what the host took from the virtual
    CPU.  Raw CPU and elapsed times are reported alongside."""
    started = time.perf_counter()
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(cli, workload, items, corrupt=corrupt))
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            break
    rss = peak_rss_mib()
    library_checks(workload, items)
    attempted, failed = counts(items)
    units = sum(i.units for i in items) * len(passes)
    norm_items = [statistics.median(i.norm_s) for i in items]
    wall_items = [statistics.median(i.wall_s) for i in items]
    tail_norm, tail_pct, tail_n = tail(norm_items)
    norm_total = sum(p.norm_s for p in passes)
    wall_total = sum(p.wall_s for p in passes)
    setup_s = setup_seconds(workload, seed)
    metrics = {
        "setup_s": (setup_s["norm"], "s"),
        "pass_norm_s": (norm_total / len(passes), "s"),
        "units_per_norm_s": (units / norm_total, "1/s"),
        "item_p50_norm_ms": (1000.0 * statistics.median(norm_items), "ms"),
        "item_tail_norm_ms": (1000.0 * tail_norm, "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    ungated = {
        "setup_cpu_s": (setup_s["cpu"], "s"),
        "setup_wall_s": (setup_s["wall"], "s"),
        "pass_cpu_s": (sum(p.cpu_s for p in passes) / len(passes), "s"),
        "wall_s": (wall_total / len(passes), "s"),
        "units_per_s": (units / wall_total, "1/s"),
        "item_p50_ms": (1000.0 * statistics.median(wall_items), "ms"),
        "item_tail_ms": (1000.0 * tail(wall_items)[0], "ms"),
    }
    notes = {"passes": len(passes),
             "host_speed": [round(p.speed, 4) for p in passes],
             "item_tail": {"percentile": round(tail_pct, 2),
                           "samples": tail_n},
             "fail_frac": failed / attempted}
    return Result(failed == 0, attempted, failed, metrics, notes, ungated)


def measure_traced(workload: str, seed: int, cli, items: list[Item]) -> Result:
    """One untraced pass, then one traced pass over the same inputs."""
    from tracing import Tracer
    plain = run_pass(cli, workload, items)
    tracer = Tracer()

    def traced_call(cli, args):
        tracer.trace_id += 1
        result = tracer.span("cli.main", invoke, cli, args)
        tracer.counters["cli.stdout_bytes"] += len(result[3].encode())
        return result

    tracer.install()
    try:
        traced = run_pass(cli, workload, items, traced_call)
    finally:
        tracer.uninstall()
    library_checks(workload, items)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.dump(trace_path)
    attempted, failed = counts(items)
    metrics = tracer.metrics(traced.speed)
    metrics["trace.overhead_s"] = (traced.norm_s - plain.norm_s, "s")
    notes = {"untraced_norm_s": plain.norm_s, "traced_norm_s": traced.norm_s,
             "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
             "host_speed": [plain.speed, traced.speed],
             "spans": len(tracer.spans), "trace_file": str(trace_path),
             "fail_frac": failed / attempted}
    return Result(failed == 0, attempted, failed, metrics, notes)


def report(workload: str, result: Result, items: list[Item], env: dict) -> None:
    for name, (value, unit) in (result.metrics | result.ungated).items():
        print(f"{workload} {name} = {value} {unit}")
    print(f"{workload} fail_frac = {result.notes['fail_frac']} "
          f"({result.failed}/{result.attempted})")
    print("notes " + json.dumps(result.notes))
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(input_stats(workload, items)))
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        cli, items = setup(args.workload, args.seed)
        if args.trace:
            result = measure_traced(args.workload, args.seed, cli, items)
        else:
            result = measure(args.workload, args.seed, args.seconds, cli,
                             items)
        report(args.workload, result, items, environment())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
