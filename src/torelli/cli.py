"""Command-line surface with JSON output for scripting and golden files.

Every library operation is reachable from exactly one subcommand, which
returns its result; the one result callback, ``_emit``, prints it, and
JSON output is byte-stable for identical inputs.  ``verify`` prints the
checks of the library's one verifier, ``drags.verify_config``.  Exit
codes, mapped once by ``_Command``: 0 success, 1 domain error (violated
precondition, reported verbatim), 2 usage error.
"""

from __future__ import annotations

import json
import sys

import click

from . import config as cfg
from . import drags, johnson, lattice, rewriter, words

# Inputs whose work would explode are refused, with exit 1, before any
# work starts.  `fs` enumerates (2 bound + 1)^n candidate vectors and
# then tests pairs of them.  The cap admits n <= 6 at bound 1 and
# (n, bound) = (4, 2) and (3, 4); with --homology, in-process, those
# take 0.35-0.58, 0.13-0.18 and 0.18-0.30 s of CPU on a 2-vCPU Xeon
# host, depending on its load, and print 0.6-2.1 MB.
FS_MAX_CANDIDATES = 729
# `complete-basis` builds, checks and prints an n x n matrix, and the
# entries of its Smith-form completion grow with n.  On random rows with
# entries in [-10, 10], n/2, 3n/4 and n - 1 of them, the CLI takes at
# most 0.5, 0.8 and 1.6 s of CPU at n = 54 (the cap), with entries of up
# to 3483 digits; n = 60 and 64 with n - 1 rows take 2.9 and 4.8 s and
# then exit 1, their entries past Python's 4300-digit limit on int to
# str, on a 2-vCPU Xeon host.  Input entries larger than these can pass
# that limit below the cap, and then also exit 1.
COMPLETE_BASIS_MAX_N = 54
# `rewrite` and `push-factor` expand each letter of the word into
# Schreier factors; the raw count, before any cancels, is known from
# one scan.  At n = 3, x1^k x2^k x1^-k x2^-k has k^2 of them: `push-factor`
# takes 0.11-0.19 s of CPU at k = 40 and 0.42-0.72 s at k = 64 (the
# cap), and its work at k = 80 takes 0.78-1.1 s in the library, on a
# 2-vCPU Xeon host under varying load.  Seeded words of about 100
# letters, as in the push-long benchmark, stay below 100.
REWRITE_MAX_FACTORS = 4096
# `push-factor`'s drag word, with a whole W . BCD . W^-1 for each
# Schreier factor m [x_i, x_j] m^-1, has 2 (n - 1) |d|_1 + 1 tokens per
# factor before free reduction, d the exponents of m; this raw count
# comes from the same scan and bounds the tokens it emits.  At the
# cap it admits x1^64 x2^64 x1^-64 x2^-64 at n = 3 (1,036,288 tokens,
# 0.42-0.72 s of CPU) and x1^8 x2^8 x1^-8 x2^-8 at n = 999 (894,272
# tokens, 0.37-0.69 s), and refuses the same word with exponent 16 at
# n = 300 (2,296,576 tokens, 0.51-0.95 s of work in the library) and
# exponent 64 at n = 999 (515,067,904), on a 2-vCPU Xeon host.  Seeded
# words of about 100 letters, as in the push-long benchmark, count a few
# hundred (at most 632 over seeds 0-11).
PUSH_MAX_TOKENS = 2 ** 20
# `rho` and `rewrite` allocate rank-sized lists, and each Schreier
# factor carries up to n conjugator exponents; `tau`, `realize`, `push`
# and `push-factor` build a map of the config's capped rank, which they
# check against the same cap.  At the cap, `rewrite` of
# x1^64 x2^64 x1^-64 x2^-64 (4096 factors) takes 0.74-1.4 s of CPU and
# peaks at 98 MiB, printing 8.3 MB, on a 2-vCPU Xeon host; `rho`,
# `rewrite` and `push-factor` of x1 x2 x1^-1 x2^-1 take under 0.02 s,
# and `tau`, `realize` and `push` of a few tokens under 0.3 s.
WORD_MAX_RANK = 1000
# `rank` and `verify --config` realize the config's ~n^3 drag generators
# and rank their Johnson images; the capped rank bounds n and b at once.
# At the cap, `verify --all` of n = 12, b = 1 takes 0.12-0.23 s of CPU
# (22 MiB) and `rank` of n = 13, b = 0 0.03-0.05 s (21 MiB), on a 2-vCPU
# Xeon host (1.8 s and 1.1 s when the cap was set); `verify_config` of
# n = 20, b = 0 takes 0.7 s (36 MiB).  The CLI sweep and the benchmark's
# grid reach capped rank 9 and 7.
VERIFY_MAX_RANK = 13
# `gens` lists them unrealized: 1.2 s, 84 MiB and 3.7 MB of stdout at
# n = 64, b = 0; 3.9 s, 317 MiB and 14.6 MB at n = 100, b = 2.
GENS_MAX_RANK = 64


def _show_help(ctx: click.Context, param: click.Parameter,
               value: bool) -> None:
    """The --help callback: click's own, but printing through the
    current sys.stdout like ``_emit``.  Click's default echoes on a
    wrapper it caches per stream, which would keep an in-process
    caller's replacement stdout alive."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _Command(click.Command):
    """The exit contract of every command and group: --help prints
    through ``_show_help``, parse failures are usage errors (exit 2),
    and failed preconditions, validation or output, the printing of a
    result included, are domain errors (exit 1, JSON on stderr)."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except words.ParseError as exc:
            raise click.UsageError(str(exc), ctx) from None
        except (ValueError, OSError) as exc:
            click.echo(json.dumps({"error": str(exc)}, separators=(",", ":")),
                       file=sys.stderr)
            sys.exit(1)


class _Group(_Command, click.Group):
    command_class = _Command
    group_class = type

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        """Print the no-argument help through the current sys.stderr,
        with exit 2.  Click raises ``NoArgsIsHelpError``, whose message
        goes to its cached default stderr wrapper, the leak that
        ``_show_help`` avoids on stdout."""
        if not args and self.no_args_is_help and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), color=ctx.color, file=sys.stderr)
            ctx.exit(2)
        return super().parse_args(ctx, args)


def _config_option(func):
    return click.option("--config", "config_text", required=True,
                        help='configuration JSON, e.g. '
                             '\'{"n":2,"b":1,"partition":[[1]]}\'')(func)


def _parse_boundary(text: str) -> tuple[int, int]:
    parts = tuple(map(words._read_index, text.split(",")))
    if len(parts) != 2 or None in parts:
        raise words.ParseError(f"boundary must be 'r,s', got {text!r}")
    return parts


def _check_rank(command: str, n: int, cap: str = "WORD_MAX_RANK") -> None:
    limit = globals()[cap]
    if n > limit:
        raise words.PreconditionError(
            f"{command}: rank {n} exceeds {cap} = {limit}")


@click.group(cls=_Group)
@click.option("--output", type=click.Choice(["json", "human"]),
              default="json", help="output mode")
def main(output: str) -> None:
    """Exact computation with drag generators, Johnson images,
    Tomaszewski rewriting and summand lattices."""


@main.result_callback()
def _emit(obj: dict, output: str) -> None:
    if output == "human":
        for key, value in obj.items():
            click.echo(f"{key}: {json.dumps(value, separators=(',', ':'))}",
                       file=sys.stdout)
    else:
        click.echo(json.dumps(obj, separators=(",", ":")), file=sys.stdout)


# --- words ------------------------------------------------------------------

@main.group()
def word() -> None:
    """Free-group word arithmetic."""


@word.command("reduce")
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", required=True)
def word_reduce(n: int, word_text: str) -> dict:
    return {"word": words.word_text(words.parse_word(word_text, n))}


@word.command("mul")
@click.option("--n", type=int, required=True)
@click.option("--word", "u_text", required=True)
@click.option("--other", "v_text", required=True)
def word_mul(n: int, u_text: str, v_text: str) -> dict:
    u = words.parse_word(u_text, n)
    v = words.parse_word(v_text, n)
    return {"word": words.word_text(words.mul(u, v))}


@word.command("inv")
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", required=True)
def word_inv(n: int, word_text: str) -> dict:
    return {"word": words.word_text(words.inv(words.parse_word(word_text, n)))}


# --- Johnson ----------------------------------------------------------------

@main.command()
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", required=True)
def rho(n: int, word_text: str) -> dict:
    """Degree-2 Magnus projection of a commutator-subgroup word."""
    _check_rank("rho", n)
    w = words.parse_word(word_text, n)
    vec = johnson.rho(w)
    return {"coeffs": [list(t) for t in vec.coeffs]}


@main.command()
@_config_option
@click.option("--drags", "drags_text", required=True,
              help="drag word, e.g. 'HD:1,2 CD-:1,2,3^-1'")
def tau(config_text: str, drags_text: str) -> dict:
    """Johnson image of a realized drag word."""
    config = cfg.config_from_json(config_text)
    _check_rank("tau", cfg.capped_rank(config))
    table = drags.tau_star(config, drags.parse_drag_word(drags_text))
    return table.to_json()


# --- drags ------------------------------------------------------------------

@main.command()
@_config_option
@click.option("--reduced", is_flag=True, help="reduced generating set")
def gens(config_text: str, reduced: bool) -> dict:
    """List drag generators for a configuration."""
    config = cfg.config_from_json(config_text)
    _check_rank("gens", cfg.capped_rank(config), "GENS_MAX_RANK")
    gs = (drags.reduced_generating_set(config) if reduced
          else drags.all_generators(config))
    return {"count": len(gs), "generators": [g.token() for g in gs]}


@main.command()
@_config_option
@click.option("--drags", "drags_text", required=True)
def realize(config_text: str, drags_text: str) -> dict:
    """Generator images of a realized drag word."""
    config = cfg.config_from_json(config_text)
    _check_rank("realize", cfg.capped_rank(config))
    basis = cfg.build_basis(config)
    f = drags.realize_word(config, drags.parse_drag_word(drags_text))
    return {
        "rank": f.rank,
        "basis": [role.text() for role in basis.roles],
        "images": [words.word_text(w) for w in f.images],
        "inverse_images": [words.word_text(w) for w in f.inverse_images],
    }


@main.command()
@click.option("--config", "config_text", default=None,
              help="configuration JSON; omit to run the whole test grid")
@click.option("--relations", "mode", flag_value="relations")
@click.option("--membership", "mode", flag_value="membership")
@click.option("--all", "mode", flag_value="all", default=True)
def verify(config_text: str | None, mode: str) -> dict:
    """Check drag membership certificates and relations; --all also
    reproduces the Johnson table and the rank formula.  Without --config
    the whole standard grid is verified and a certificate listing every
    identity is emitted."""
    if config_text is None:
        configs = cfg.standard_grid()
    else:
        configs = [cfg.config_from_json(config_text)]
        _check_rank("verify", cfg.capped_rank(configs[0]), "VERIFY_MAX_RANK")
    checks: list[dict] = []
    for config in configs:
        header = json.dumps(cfg.config_to_json(config), separators=(",", ":"))
        checks.extend({"config": header, "check": c.name, "detail": c.detail,
                       "ok": c.ok} for c in drags.verify_config(config, mode))
    return {"configs": len(configs), "ok": all(c["ok"] for c in checks),
            "checks": checks}


@main.command()
@_config_option
def rank(config_text: str) -> dict:
    """Abelianization rank: computed vs formula."""
    config = cfg.config_from_json(config_text)
    _check_rank("rank", cfg.capped_rank(config), "VERIFY_MAX_RANK")
    computed, formula, _ = drags.abelianization_rank(config)
    return {"computed_rank": computed, "formula_rank": formula,
            "match": computed == formula}


# --- rewriting --------------------------------------------------------------

def _check_rewrite_size(command: str, w: words.Word) -> int:
    """Refuse w over ``REWRITE_MAX_FACTORS``; the drag tokens that
    ``push-factor`` would build, from the same scan."""
    size, tokens = rewriter._expansion_size(w)
    if size > REWRITE_MAX_FACTORS:
        raise words.PreconditionError(
            f"{command}: {size} Schreier factors exceed REWRITE_MAX_FACTORS"
            f" = {REWRITE_MAX_FACTORS}")
    return tokens


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", required=True)
def rewrite(n: int, word_text: str) -> dict:
    """Tomaszewski factorization of a commutator-subgroup word."""
    _check_rank("rewrite", n)
    w = words.parse_word(word_text, n)
    _check_rewrite_size("rewrite", w)
    fact = rewriter.tomaszewski_factor(w)
    return {"word": words.word_text(w),
            "factors": [{"factor": f.text(), "exp": e}
                        for f, e in fact.factors]}


@main.command()
@_config_option
@click.option("--boundary", required=True, help="boundary address 'r,s'")
@click.option("--gamma", "gamma_text", required=True,
              help="loop word (rank n)")
def push(config_text: str, boundary: str, gamma_text: str) -> dict:
    """Realize a boundary push and report its membership status."""
    config = cfg.config_from_json(config_text)
    _check_rank("push", cfg.capped_rank(config))
    gamma = words.parse_word(gamma_text, config.n)
    images = drags._push_images(config, _parse_boundary(boundary), gamma)
    return {
        "rank": len(images),
        "images": [words.word_text(w) for w in images],
        "membership": drags.membership_IOP(
            config, words.GroupMap(len(images), images)),
    }


@main.command("push-factor")
@_config_option
@click.option("--boundary", required=True, help="boundary address 'r,s'")
@click.option("--word", "word_text", required=True,
              help="commutator-subgroup loop word (rank n)")
def push_factor(config_text: str, boundary: str, word_text: str) -> dict:
    """Drag word realizing a pushed commutator word, with a check that
    it matches the direct push realization."""
    config = cfg.config_from_json(config_text)
    addr = _parse_boundary(boundary)
    _check_rank("push-factor", cfg.capped_rank(config))
    w = words.parse_word(word_text, config.n)
    tokens = _check_rewrite_size("push-factor", w)
    if tokens > PUSH_MAX_TOKENS:
        raise words.PreconditionError(
            f"push-factor: {tokens} drag tokens exceed PUSH_MAX_TOKENS"
            f" = {PUSH_MAX_TOKENS}")
    m, push_action = drags._checked_push(config, addr, w)
    dw = rewriter.push_factorization(config, addr, w)
    # maps are equal when their moved images are; no inverse image is
    # built on either side
    matches = (drags._moved_word_images(config, dw)
               == drags._moved_images(m, (push_action,)))
    return {"drags": drags.drag_word_text(dw), "matches_push": matches}


# --- lattices ---------------------------------------------------------------

def _power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """Whether base^exponent > limit, for base >= 2, multiplying up and
    stopping once past the limit instead of forming the power."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > limit:
            return True
    return False


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--bound", type=int, required=True)
@click.option("--homology", is_flag=True,
              help="also compute the truncated H_1 rank")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              default=None, help="write the 1-skeleton in DOT format")
def fs(n: int, bound: int, homology: bool, dot_path: str | None) -> dict:
    """Truncation of the complex of rank-1 summands of Z^n."""
    if n >= 1 and bound >= 1 and _power_exceeds(2 * bound + 1, n,
                                                 FS_MAX_CANDIDATES):
        raise words.PreconditionError(
            f"fs: (2*bound+1)^n candidate vectors exceed FS_MAX_CANDIDATES"
            f" = {FS_MAX_CANDIDATES} (n={n}, bound={bound})")
    verts, edges = lattice.fs_graph(n, bound)
    components = lattice.fs_components(verts, edges)
    out = {
        "vertices": [list(v) for v in verts],
        "edges": [[list(u), list(v)] for u, v in edges],
        "connected": components == 1,
    }
    if homology:
        out["h1_rank"] = lattice.fs_h1(verts, edges)
    if dot_path:
        with open(dot_path, "w") as handle:
            handle.write(lattice.fs_dot(verts, edges))
        out["dot"] = dot_path
    return out


@main.command("complete-basis")
@click.option("--n", type=int, required=True)
@click.option("--vectors", "vectors_text", required=True,
              help="JSON list of integer vectors, e.g. '[[1,1]]'")
def complete_basis_cmd(n: int, vectors_text: str) -> dict:
    """Extend summand-spanning rows to a basis of Z^n."""
    if n > COMPLETE_BASIS_MAX_N:
        raise words.PreconditionError(
            f"complete-basis: n={n} exceeds COMPLETE_BASIS_MAX_N"
            f" = {COMPLETE_BASIS_MAX_N}")
    try:
        vectors = json.loads(vectors_text)
    except json.JSONDecodeError as exc:
        raise words.ParseError(f"bad vector JSON: {exc}") from None
    if (not isinstance(vectors, list)
            or any(not isinstance(v, list) for v in vectors)):
        raise words.ParseError("vectors must be a JSON list of lists")
    if any(type(x) is not int for v in vectors for x in v):
        raise words.ParseError("vector entries must be integers")
    out = lattice.complete_basis(vectors, n)
    return {"matrix": out, "det": lattice.det(out)}


if __name__ == "__main__":
    main()
