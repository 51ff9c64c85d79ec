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
# work starts, by ``_check_cap``.  The README's CLI section gives what
# each cap costs at its value.
# (2 bound + 1)^n candidate vectors, which `fs` then tests in pairs
FS_MAX_CANDIDATES = 729
# the n x n matrix of `complete-basis`, whose entries grow with n
COMPLETE_BASIS_MAX_N = 54
# Schreier factors of `rewrite` and `push-factor`, before any cancel
REWRITE_MAX_FACTORS = 4096
# drag tokens of `push-factor`, before free reduction
PUSH_MAX_TOKENS = 2 ** 20
# the rank that `rho`, `rewrite`, `tau`, `realize` and the pushes allocate
WORD_MAX_RANK = 1000
# capped rank of `rank` and `verify --config`, which realize ~n^3 drags
VERIFY_MAX_RANK = 13
# capped rank of `gens`, which lists the generators unrealized
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


def _check_cap(count: int, cap: str, refusal: str, detail: str = "") -> None:
    """Refuse a count over the cap named ``cap``, read now, so that a
    patched cap applies; the error reads ``refusal``, the cap and its
    value, then ``detail``."""
    limit = globals()[cap]
    if count > limit:
        raise words.PreconditionError(f"{refusal} {cap} = {limit}{detail}")


def _check_rank(command: str, n: int, cap: str = "WORD_MAX_RANK") -> None:
    _check_cap(n, cap, f"{command}: rank {n} exceeds")


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
    _check_cap(size, "REWRITE_MAX_FACTORS",
               f"{command}: {size} Schreier factors exceed")
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
    m, action = drags._checked_push(config, _parse_boundary(boundary), gamma)
    images = drags._realize_images(m, (action,))
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
    _check_cap(tokens, "PUSH_MAX_TOKENS",
               f"push-factor: {tokens} drag tokens exceed")
    m, push_action = drags._checked_push(config, addr, w)
    dw = rewriter.push_factorization(config, addr, w)
    # maps are equal when their moved images are; no inverse image is
    # built on either side
    matches = (drags._moved_word_images(config, dw)
               == drags._moved_images(m, (push_action,)))
    return {"drags": drags.drag_word_text(dw), "matches_push": matches}


# --- lattices ---------------------------------------------------------------

@main.command()
@click.option("--n", type=int, required=True)
@click.option("--bound", type=int, required=True)
@click.option("--homology", is_flag=True,
              help="also compute the truncated H_1 rank")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              default=None, help="write the 1-skeleton in DOT format")
def fs(n: int, bound: int, homology: bool, dot_path: str | None) -> dict:
    """Truncation of the complex of rank-1 summands of Z^n."""
    if n >= 1 and bound >= 1:
        # exact for n up to the cap's bit length L; past L, 3^L > 2^L > cap
        _check_cap((2 * bound + 1) ** min(n, FS_MAX_CANDIDATES.bit_length()),
                   "FS_MAX_CANDIDATES",
                   "fs: (2*bound+1)^n candidate vectors exceed",
                   f" (n={n}, bound={bound})")
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
    _check_cap(n, "COMPLETE_BASIS_MAX_N", f"complete-basis: n={n} exceeds")
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
