"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For each workload, on a few small inputs: an untraced and a traced run
emit exactly the metrics BENCHMARK.json names, with its units, and fail
nothing; then a run whose first output is corrupted before the outside
check counts that invocation as failed.  Exits 1 if anything is off.
"""

from __future__ import annotations

import json
import random
import sys

import run

SEED = 7


def tiny_items(workload: str) -> list[run.Item]:
    rng = random.Random(SEED)
    if workload == "verify-grid":
        return [i for i in run.verify_grid_items(rng)
                if json.loads(i.args[-1])["n"] == 2
                and json.loads(i.args[-1])["b"] <= 1]
    if workload == "push-long":
        return [i for i in run.push_long_items(rng)
                if i.expect["n"] == 2 and i.expect["b"] <= 2]
    return run.fs_h1_items(rng, sizes=((3, 1), (2, 2)))


def flip_drag_token(item: run.Item, out: str) -> str:
    """Invert the exponent of the first drag token; matches_push stays
    true, so only the library check outside the program can notice."""
    doc = json.loads(out)
    first, _, rest = doc["drags"].partition(" ")
    first = first[:-3] if first.endswith("^-1") else first + "^-1"
    doc["drags"] = f"{first} {rest}".strip()
    return json.dumps(doc, separators=(",", ":")) + "\n"


def drop_last_check(item: run.Item, out: str) -> str:
    doc = json.loads(out)
    doc["checks"].pop()
    return json.dumps(doc, separators=(",", ":")) + "\n"


def change_h1(item: run.Item, out: str) -> str:
    doc = json.loads(out)
    doc["h1_rank"] += 1
    return json.dumps(doc, separators=(",", ":")) + "\n"


CORRUPTIONS = {"verify-grid": drop_last_check, "push-long": flip_drag_token,
               "fs-h1": change_h1}


def first_only(corrupt):
    done = []

    def apply(item, out):
        if done:
            return out
        done.append(item)
        return corrupt(item, out)
    return apply


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    cli = run.load_cli()
    for workload in run.WORKLOADS:
        for key, traced in (("end_to_end", False), ("per_layer", True)):
            items = tiny_items(workload)
            if traced:
                result = run.measure_traced(workload, SEED, cli, items)
            else:
                result = run.measure(workload, SEED, 0.0, cli, items)
            units = {name: unit for name, (_, unit) in result.metrics.items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(units == wanted,
                   f"{workload} {key}: every metric emitted with its unit")
            expect(result.correct and result.failed == 0
                   and result.attempted >= len(items),
                   f"{workload} {key}: no failures on correct outputs")
        items = tiny_items(workload)
        result = run.measure(workload, SEED, 0.0, cli, items,
                             first_only(CORRUPTIONS[workload]))
        expect(not result.correct and result.failed == 1
               and result.notes["fail_frac"] == 1 / result.attempted,
               f"{workload}: a corrupted output is counted in fail_frac")
    expect(run.tail([float(x) for x in range(100)]) == (89.0, 90.0, 100),
           "tail: p90 of 100 samples leaves ten beyond it")
    expect(run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3),
           "tail: maximum when there are ten samples or fewer")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
