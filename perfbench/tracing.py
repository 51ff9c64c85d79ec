"""Layer tracing for the benchmark, done entirely from outside the package.

Every public function of the layer modules is replaced, in every
``torelli.*`` namespace that binds it, by a wrapper that records how long
the call took and which traced call was running when it started.  No
source under ``src/`` changes: ``drags`` imports ``compose`` and friends
by name, so each module namespace is patched, not just the defining one.

Calls to functions in ``AGGREGATED`` are too frequent to keep one span
each (``words.apply`` runs about 2.5e5 times per pass of ``push-long``);
they are summed into per-parent counters instead.  A span's self time is
its duration minus the time covered by its children, so summing self
times over a layer never counts nested work twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "config", "words", "johnson", "drags", "rewriter", "lattice")

# Module-level helpers called once per letter, token or matrix entry.
AGGREGATED = frozenset({
    "words.reduce", "words.gen", "words.mul", "words.inv", "words.conj",
    "words.comm", "words.power", "words.apply", "words.compose",
    "words.identity_map", "words.same_map", "words.is_identity",
    "words.abelianization_vector", "words.word_text",
    "config.validate", "config.build_basis", "config.capped_rank",
    "config.loop_role", "config.arc_role", "config.handle_role",
    "config.partition_config",
    "johnson.rho", "johnson.ext_vector", "johnson.zero_ext",
    "johnson.wedge", "johnson.ext_add", "johnson.ext_neg",
    "johnson.ext_scale", "johnson.hom_table", "johnson.zero_table",
    "johnson.table_from_entries", "johnson.table_add", "johnson.table_neg",
    "johnson.flatten",
    "lattice.identity", "lattice.is_primitive", "lattice.spans_summand",
    "lattice.fs_is_simplex",
    "drags.hd", "drags.cd_minus", "drags.cd_plus", "drags.bcd", "drags.pd",
    "drags.drag_word", "drags.drag_word_inv", "drags.drag_word_text",
    "rewriter.factor_word", "rewriter.in_commutator_subgroup",
})


def clock() -> float:
    """CPU time of the process; metrics() scales it by the host speed."""
    return time.process_time()


def _nonzeros(matrix) -> int:
    return sum(1 for row in matrix for x in row if x)


def _free_cancelled(drag_word) -> int:
    """Tokens that free reduction of a drag word would cancel."""
    out: list = []
    for g, e in drag_word:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return len(drag_word) - len(out)


class Tracer:
    """Spans, per-parent aggregates and per-function counters of one
    traced pass.  Frames on the stack are [span id, name, start, child
    time]; aggregated calls get no span id and report into their parent."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []       # (id, trace, name, start, end, parent)
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.drag_words_in: list = []
        self.stack: list[list] = []
        self.trace_id = 0
        self._next_id = 1
        self._patched: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _enter(self, name: str, aggregated: bool) -> list:
        span_id = 0
        if not aggregated:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, clock(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = clock()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._parent_id()
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if span_id:
            self.spans.append((span_id, self.trace_id, name, start, end,
                               parent))
        else:
            agg = self.aggregates[(name, parent)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child

    def _parent_id(self) -> int:
        for frame in reversed(self.stack):
            if frame[0]:
                return frame[0]
        return 0

    def _hidden(self, start: float) -> None:
        """Book time spent in a counting hook as child time of the
        enclosing frame, so that no layer's self time includes it."""
        if self.stack:
            self.stack[-1][3] += clock() - start

    def span(self, name: str, func, *args):
        frame = self._enter(name, False)
        try:
            return func(*args)
        finally:
            self._exit(frame)

    # --- patching --------------------------------------------------------

    def _wrap(self, name: str, func):
        aggregated = name in AGGREGATED
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, aggregated)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                start = clock()
                hook(tracer, args, result)
                tracer._hidden(start)
            return result

        return traced

    def install(self) -> None:
        """Patch every public function of every layer module in every
        torelli namespace that binds it."""
        modules = [importlib.import_module("torelli")]
        modules += [importlib.import_module(f"torelli.{layer}")
                    for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, func in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or func.__module__ != module.__name__:
                    continue
                wrappers[id(func)] = self._wrap(f"{layer}.{attr}", func)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- results ---------------------------------------------------------

    def metrics(self, speed: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit).  Self times
        are CPU seconds scaled by the host speed factor of the pass."""
        calls, counters = self.calls, self.counters
        self_s = defaultdict(float, {name: t * speed
                                     for name, t in self.self_s.items()})

        def layer_self_s(layer: str) -> float:
            return sum((t for name, t in self_s.items()
                        if name.split(".", 1)[0] == layer), 0.0)

        tokens_in = counters["drags.realize_word.tokens_in"]
        cancelled = sum(_free_cancelled(w) for w in self.drag_words_in)
        simplex = calls["lattice.fs_is_simplex"]
        out = {
            "words.compose.calls": (calls["words.compose"], "count"),
            "words.apply.calls": (calls["words.apply"], "count"),
            "words.apply.letters_out":
                (counters["words.apply.letters_out"], "count"),
            "words.self_s": (layer_self_s("words"), "s"),
            "drags.realize_word.calls": (calls["drags.realize_word"], "count"),
            "drags.realize_word.tokens_in": (tokens_in, "count"),
            "drags.realize_word.reducible_frac":
                (cancelled / tokens_in if tokens_in else 0.0, "ratio"),
            "config.build_basis.calls": (calls["config.build_basis"], "count"),
            "config.self_s": (layer_self_s("config"), "s"),
            "drags.push_boundary.calls":
                (calls["drags.push_boundary"], "count"),
            "drags.self_s": (layer_self_s("drags"), "s"),
            "drags.realize.calls": (calls["drags.realize"], "count"),
            "drags.abelianization_rank.self_s":
                (self_s["drags.abelianization_rank"], "s"),
            "johnson.tau.calls": (calls["johnson.tau"], "count"),
            "johnson.rho.calls": (calls["johnson.rho"], "count"),
            "johnson.self_s": (layer_self_s("johnson"), "s"),
            "lattice.snf.calls": (calls["lattice.snf"], "count"),
            "lattice.snf.self_s": (self_s["lattice.snf"], "s"),
            "lattice.det.self_s": (self_s["lattice.det"], "s"),
            "lattice.mat_mul.self_s": (self_s["lattice.mat_mul"], "s"),
            "lattice.matrix_rank.calls": (calls["lattice.matrix_rank"], "count"),
            "lattice.matrix_rank.self_s": (self_s["lattice.matrix_rank"], "s"),
            "lattice.matrix_rank.cells_in":
                (counters["lattice.matrix_rank.cells_in"], "count"),
            "lattice.matrix_rank.nnz_in":
                (counters["lattice.matrix_rank.nnz_in"], "count"),
            "lattice.spans_summand.calls":
                (calls["lattice.spans_summand"], "count"),
            "lattice.spans_summand.self_s":
                (self_s["lattice.spans_summand"], "s"),
            "lattice.fs_is_simplex.hit_frac":
                (counters["lattice.fs_is_simplex.hits"] / simplex
                 if simplex else 0.0, "ratio"),
            "lattice.self_s": (layer_self_s("lattice"), "s"),
            "rewriter.tomaszewski_factor.calls":
                (calls["rewriter.tomaszewski_factor"], "count"),
            "rewriter.tomaszewski_factor.factors_out":
                (counters["rewriter.tomaszewski_factor.factors_out"], "count"),
            "rewriter.push_factorization.tokens_out":
                (counters["rewriter.push_factorization.tokens_out"], "count"),
            "rewriter.self_s": (layer_self_s("rewriter"), "s"),
            "cli.invocations": (calls["cli.main"], "count"),
            "cli.stdout_bytes": (counters["cli.stdout_bytes"], "B"),
            "cli.self_s": (layer_self_s("cli"), "s"),
        }
        return out

    def dump(self, path) -> None:
        """Write spans and aggregates as one JSON document; times are raw
        process CPU seconds."""
        doc = {
            "span_fields": ["id", "trace", "name", "start", "end", "parent"],
            "spans": self.spans,
            "aggregate_fields": ["name", "parent", "calls", "total_s",
                                 "self_s"],
            "aggregates": [[name, parent, *values] for (name, parent), values
                           in sorted(self.aggregates.items())],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _count(key: str, measure):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counters[key] += measure(args, result)
    return hook


def _realize_word_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["drags.realize_word.tokens_in"] += len(args[1])
    tracer.drag_words_in.append(args[1])


def _matrix_rank_hook(tracer: Tracer, args, result) -> None:
    matrix = args[0]
    cols = len(matrix[0]) if matrix else 0
    tracer.counters["lattice.matrix_rank.cells_in"] += len(matrix) * cols
    tracer.counters["lattice.matrix_rank.nnz_in"] += _nonzeros(matrix)


_HOOKS = {
    "words.apply": _count("words.apply.letters_out",
                          lambda args, result: len(result.letters)),
    "drags.realize_word": _realize_word_hook,
    "lattice.matrix_rank": _matrix_rank_hook,
    "lattice.fs_is_simplex": _count("lattice.fs_is_simplex.hits",
                                    lambda args, result: int(bool(result))),
    "rewriter.tomaszewski_factor": _count(
        "rewriter.tomaszewski_factor.factors_out",
        lambda args, result: len(result.factors)),
    "rewriter.push_factorization": _count(
        "rewriter.push_factorization.tokens_out",
        lambda args, result: len(result)),
}
