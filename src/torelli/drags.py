"""Drag generators realized as automorphisms of the capped free group.

Four families act on the capped basis (loops y_1..y_n, then arcs and
handles per block):

* HD(i, j)   handle drag: y_i |-> y_j y_i y_j^-1.
* CD-(i,j,k) commutator drag: y_i |-> [y_j, y_k] y_i.
* CD+(i,j,k) commutator drag: y_i |-> y_i [y_j, y_k]^-1.
* BCD(r,s,i,j) boundary commutator drag: the boundary (r, s) pushed
  around [y_i, y_j]^-1 (see push_boundary for the case table).
* PD(r, j)   block drag: block r pushed around y_j.

Composition is ``compose(f, g) = f o g`` with g acting first; a drag
word realizes left-to-right with the rightmost token acting first.
Displayed relation products (where the leftmost factor acts first) are
therefore realized from reversed token lists; the relation verifiers
below do this explicitly.

``realize_word`` evaluates a drag word in place instead of composing
full maps: it keeps the images of the map built so far as letter lists
and, token by token, rewrites only the generators the next drag moves,
so letters cancel only where substituted images meet.  The inverse
certificate is the realization of the inverse drag word by the same
loop.  ``realize`` is its one-token case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import CappedBasis, PartitionConfig, build_basis, capped_rank
from .johnson import HomTable, flatten, table_from_entries, tau
from .lattice import matrix_rank, smith_invariants
from .words import (
    GroupMap,
    ParseError,
    PreconditionError,
    Word,
    _action_table,
    _substitute,
    comm,
    conj,
    gen,
    identity_map,
    inner_automorphism,
    inv,
    is_homology_trivial,
    mul,
    same_map,
)

_KINDS = ("HD", "CD+", "CD-", "BCD", "PD")


@dataclass(frozen=True)
class DragGenerator:
    kind: str
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown drag kind {self.kind!r}")
        want = {"HD": 2, "CD+": 3, "CD-": 3, "BCD": 4, "PD": 2}[self.kind]
        if len(self.indices) != want:
            raise ValueError(f"{self.kind} takes {want} indices")

    def token(self) -> str:
        return f"{self.kind}:{','.join(str(i) for i in self.indices)}"


def hd(i: int, j: int) -> DragGenerator:
    return DragGenerator("HD", (i, j))


def cd_minus(i: int, j: int, k: int) -> DragGenerator:
    return DragGenerator("CD-", (i, j, k))


def cd_plus(i: int, j: int, k: int) -> DragGenerator:
    return DragGenerator("CD+", (i, j, k))


def bcd(r: int, s: int, i: int, j: int) -> DragGenerator:
    return DragGenerator("BCD", (r, s, i, j))


def pd(r: int, j: int) -> DragGenerator:
    return DragGenerator("PD", (r, j))


# DragWord: sequence of (generator, exponent) with exponents +-1.
DragWord = tuple[tuple[DragGenerator, int], ...]


def drag_word(*tokens) -> DragWord:
    out = []
    for t in tokens:
        if isinstance(t, DragGenerator):
            out.append((t, 1))
        else:
            g, e = t
            if e not in (1, -1):
                raise ValueError("drag word exponents must be +-1")
            out.append((g, e))
    return tuple(out)


def drag_word_inv(w: DragWord) -> DragWord:
    return tuple((g, -e) for g, e in reversed(w))


def parse_drag_word(text: str) -> DragWord:
    tokens = text.split()
    out: list[tuple[DragGenerator, int]] = []
    for pos, token in enumerate(tokens, start=1):
        body, exp = token, 1
        if token.endswith("^-1"):
            body, exp = token[:-3], -1
        kind, _, rest = body.partition(":")
        if kind not in _KINDS:
            raise ParseError(f"token {pos}: unknown drag kind in {token!r}")
        try:
            indices = tuple(int(part) for part in rest.split(","))
        except ValueError:
            raise ParseError(f"token {pos}: bad indices in {token!r}") from None
        try:
            out.append((DragGenerator(kind, indices), exp))
        except ValueError as exc:
            raise ParseError(f"token {pos}: {exc}") from None
    return tuple(out)


def drag_word_text(w: DragWord) -> str:
    return " ".join(g.token() + ("" if e == 1 else "^-1") for g, e in w)


# --- validation -----------------------------------------------------------

def _check_generator(config: PartitionConfig, g: DragGenerator) -> None:
    n = config.n

    def loop_ok(*idx: int) -> None:
        for i in idx:
            if not 1 <= i <= n:
                raise PreconditionError(
                    f"{g.token()}: loop index {i} out of range 1..{n}")

    if g.kind == "HD":
        i, j = g.indices
        loop_ok(i, j)
        if i == j:
            raise PreconditionError("HD(i,i) is trivial and not allowed")
    elif g.kind in ("CD+", "CD-"):
        i, j, k = g.indices
        loop_ok(i, j, k)
        if len({i, j, k}) != 3 or j >= k:
            raise PreconditionError(
                f"{g.token()}: need i, j, k distinct with j < k")
    elif g.kind == "BCD":
        r, s, i, j = g.indices
        loop_ok(i, j)
        if i >= j:
            raise PreconditionError(f"{g.token()}: need i < j")
        _check_boundary(config, r, s)
    else:  # PD
        r, j = g.indices
        loop_ok(j)
        if not 1 <= r <= config.num_blocks:
            raise PreconditionError(f"{g.token()}: block {r} does not exist")


def _check_boundary(config: PartitionConfig, r: int, s: int) -> None:
    if not 1 <= r <= config.num_blocks:
        raise PreconditionError(f"block {r} does not exist")
    if not 1 <= s <= len(config.block(r)):
        raise PreconditionError(f"boundary ({r},{s}) does not exist")


# --- realization ----------------------------------------------------------

def _embed(w: Word, m: int) -> Word:
    return Word(m, w.letters)


def _images(basis: CappedBasis, action: dict[int, Word]) -> tuple[Word, ...]:
    m = basis.m
    return tuple(action.get(i, gen(m, i)) for i in range(1, m + 1))


def _push_action(basis: CappedBasis, r: int, s: int,
                 gamma: Word) -> dict[int, Word]:
    """Image table of the boundary (r, s) pushed around the loop word
    gamma (already at rank m).  Fixed-side table:

      r>1, s>1 : Arc(r,s) -> Arc(r,s) . gamma
      r=1, s>1 : Arc(1,s) -> gamma^-1 . Arc(1,s)
      r>1, s=1 : Arc(r,t) -> gamma^-1 . Arc(r,t)  (all t)   [multi block]
                 Handle(r) -> gamma^-1 . Handle(r) . gamma  [singleton]
      r=1, s=1 : y -> gamma . y . gamma^-1 off the block, and
                 Arc(1,t) -> gamma . Arc(1,t)               [multi block]
                 Handle(1) fixed                            [singleton]

    The sides are forced by push(uv) = push(u) o push(v) together with
    the relation verifiers; tests pin every case.
    """
    config = basis.config
    m = basis.m
    block = basis.block_indices(r)
    action: dict[int, Word] = {}
    if r > 1:
        if s > 1:
            a = block[s - 2]
            action[a] = mul(gen(m, a), gamma)
        elif not config.is_singleton(r):
            gi = inv(gamma)
            for a in block:
                action[a] = mul(gi, gen(m, a))
        else:
            action[block[0]] = conj(inv(gamma), gen(m, block[0]))
    else:
        if s > 1:
            a = block[s - 2]
            action[a] = mul(inv(gamma), gen(m, a))
        else:
            for idx in range(1, m + 1):
                if idx in block:
                    if not config.is_singleton(1):
                        action[idx] = mul(gamma, gen(m, idx))
                else:
                    action[idx] = conj(gamma, gen(m, idx))
    return action


def push_boundary(config: PartitionConfig, boundary: tuple[int, int],
                  gamma: Word) -> GroupMap:
    """Realize the point-push of boundary (r, s) around the loop gamma
    (a rank-n word).  Homomorphism in gamma; inverse certificate from
    the push of gamma^-1."""
    r, s = boundary
    _check_boundary(config, r, s)
    if gamma.rank != config.n:
        raise PreconditionError(
            f"push loop must have rank n = {config.n}, got {gamma.rank}")
    basis = build_basis(config)
    g = _embed(gamma, basis.m)
    fwd = _images(basis, _push_action(basis, r, s, g))
    bwd = _images(basis, _push_action(basis, r, s, inv(g)))
    return GroupMap(basis.m, fwd, bwd)


def _drag_action(basis: CappedBasis, g: DragGenerator,
                 sigma: int) -> dict[int, Word]:
    """Image table of g^sigma, sigma = +-1."""
    config = basis.config
    m = basis.m
    if g.kind == "HD":
        i, j = g.indices
        t = gen(m, j) if sigma > 0 else inv(gen(m, j))
        return {i: conj(t, gen(m, i))}
    if g.kind == "CD-":
        i, j, k = g.indices
        c = comm(gen(m, j), gen(m, k))
        c = c if sigma > 0 else inv(c)
        return {i: mul(c, gen(m, i))}
    if g.kind == "CD+":
        i, j, k = g.indices
        c = comm(gen(m, j), gen(m, k))
        c = inv(c) if sigma > 0 else c
        return {i: mul(gen(m, i), c)}
    if g.kind == "BCD":
        r, s, i, j = g.indices
        c = comm(gen(m, i), gen(m, j))
        gamma = inv(c) if sigma > 0 else c
        return _push_action(basis, r, s, gamma)
    # PD
    r, j = g.indices
    yj = gen(m, j) if sigma > 0 else inv(gen(m, j))
    if r > 1:
        return {a: conj(yj, gen(m, a)) for a in basis.block_indices(r)}
    block = set(basis.block_indices(1))
    return {idx: conj(inv(yj), gen(m, idx))
            for idx in range(1, m + 1) if idx not in block}


def realize(config: PartitionConfig, g: DragGenerator) -> GroupMap:
    """The drag as an explicit automorphism of F_m, with certificate."""
    return realize_word(config, ((g, 1),))


def _realize_images(m: int, w: DragWord, actions: dict) -> tuple[Word, ...]:
    """Generator images of the realized word.

    ``table`` holds the accumulated map acc in the layout of
    ``words._action_table`` (the image of x_k at k, its inverse at -k),
    as reduced letter lists.  Each token applies acc <- acc o g^e, which
    rewrites only the generators g^e moves: their images under g^e are
    substituted into the old acc, and every other image stays as it is.
    """
    table = _action_table((k,) for k in range(1, m + 1))
    for token in w:
        moved = [(k, _substitute(image, table)) for k, image in actions[token]]
        for k, letters in moved:
            table[k] = letters
            table[-k] = [-x for x in reversed(letters)]
    return tuple(Word(m, tuple(letters)) for letters in table[1:m + 1])


def realize_word(config: PartitionConfig, w: DragWord) -> GroupMap:
    """The drag word as an automorphism of F_m, with certificate.

    Tokens compose left to right with the rightmost token acting first.
    The word is evaluated in place: the images of the accumulated map
    are letter lists, and each token rewrites only the generators it
    moves, cancelling letters where substituted images meet.  Every
    token is validated before any work, exponents must be +-1, and the
    action table of each (generator, sign) is built once per call.  The
    inverse certificate is the realization of ``drag_word_inv(w)`` by
    the same loop; both image families come back as reduced ``Word``s.
    """
    basis = build_basis(config)
    m = basis.m
    actions: dict[tuple[DragGenerator, int], tuple] = {}
    for g, e in w:
        if e not in (1, -1):
            raise PreconditionError(
                f"drag word exponents must be +-1, got {e!r}")
        if (g, 1) not in actions:
            _check_generator(config, g)
            for sign in (1, -1):
                actions[(g, sign)] = tuple(
                    (k, image.letters)
                    for k, image in _drag_action(basis, g, sign).items())
    return GroupMap(m, _realize_images(m, w, actions),
                    _realize_images(m, drag_word_inv(w), actions))


# --- generating sets ------------------------------------------------------

def all_generators(config: PartitionConfig) -> list[DragGenerator]:
    n = config.n
    out: list[DragGenerator] = []
    out.extend(hd(i, j) for i in range(1, n + 1)
               for j in range(1, n + 1) if i != j)
    for maker in (cd_minus, cd_plus):
        out.extend(maker(i, j, k)
                   for i in range(1, n + 1)
                   for j in range(1, n + 1)
                   for k in range(j + 1, n + 1)
                   if i != j and i != k)
    for r, block in enumerate(config.partition, start=1):
        out.extend(bcd(r, s, i, j)
                   for s in range(1, len(block) + 1)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1))
    for r in range(1, config.num_blocks + 1):
        out.extend(pd(r, j) for j in range(1, n + 1))
    return out


def reduced_generating_set(config: PartitionConfig) -> list[DragGenerator]:
    """Generating set of size R = n*C(n,2) + (b-|P|)*C(n,2) + (|P|*n - n).

    Dropped from the full set: all CD+ (a commutator of handle drags
    times CD-), the s = 1 boundary drag of every block (the block
    relation expresses it), and the block-1 P-drags (the grand drag
    relation expresses them).  With b = 0 there are no P-drags and the
    grand relation instead removes one handle drag per conjugator index.
    """
    n = config.n
    out: list[DragGenerator] = []
    if config.b == 0:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and i != max(k for k in range(1, n + 1) if k != j):
                    out.append(hd(i, j))
    else:
        out.extend(hd(i, j) for i in range(1, n + 1)
                   for j in range(1, n + 1) if i != j)
    out.extend(cd_minus(i, j, k)
               for i in range(1, n + 1)
               for j in range(1, n + 1)
               for k in range(j + 1, n + 1)
               if i != j and i != k)
    for r, block in enumerate(config.partition, start=1):
        out.extend(bcd(r, s, i, j)
                   for s in range(2, len(block) + 1)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1))
    for r in range(2, config.num_blocks + 1):
        out.extend(pd(r, j) for j in range(1, n + 1))
    return out


def membership_IOP(config: PartitionConfig, f: GroupMap) -> bool:
    """Membership test for the capped Torelli group: trivial action on
    H_1(F_m)."""
    if f.rank != capped_rank(config):
        raise PreconditionError(
            f"map has rank {f.rank}, capped rank is {capped_rank(config)}")
    return is_homology_trivial(f)


# --- relations ------------------------------------------------------------

def _realize_displayed(config: PartitionConfig, tokens: DragWord) -> GroupMap:
    # displayed products act leftmost-first; realize the reversed word
    return realize_word(config, tuple(reversed(tokens)))


def verify_pd_relation(config: PartitionConfig, j: int) -> bool:
    """PD(1,j) PD(2,j) ... PD(|P|,j) . prod_{i != j} HD(i,j) = 1.

    With b = 0 the product degenerates to the handle drags alone, which
    compose to the inner automorphism by y_j; that is what is checked
    in that case (the identity holds in the outer group).
    """
    n = config.n
    if not 1 <= j <= n:
        raise PreconditionError(f"loop index {j} out of range 1..{n}")
    tokens = drag_word(*[pd(r, j) for r in range(1, config.num_blocks + 1)],
                       *[hd(i, j) for i in range(1, n + 1) if i != j])
    composite = _realize_displayed(config, tokens)
    if config.b == 0:
        target = inner_automorphism(composite.rank, gen(composite.rank, j))
        return same_map(composite, target)
    return same_map(composite, identity_map(composite.rank))


def verify_bcd_relation(config: PartitionConfig, r: int, i: int, j: int) -> bool:
    """BCD(r,1,i,j) ... BCD(r,b_r,i,j) = [PD(r,i), PD(r,j)]."""
    if i >= j:
        raise PreconditionError("need i < j")
    _check_boundary(config, r, 1)
    b_r = len(config.block(r))
    lhs = _realize_displayed(
        config, drag_word(*[bcd(r, s, i, j) for s in range(1, b_r + 1)]))
    rhs = _realize_displayed(
        config, drag_word(pd(r, i), pd(r, j), (pd(r, i), -1), (pd(r, j), -1)))
    return same_map(lhs, rhs)


def verify_cd_identity(config: PartitionConfig, i: int, j: int,
                       k: int) -> tuple[bool, str]:
    """CD+(i,j,k) o CD-(i,j,k) conjugates y_i by [y_j, y_k]; search the
    eight ordered/sign commutator variants of HD(i,j), HD(i,k) for the
    unique exact match and return its drag-word text."""
    target = realize_word(config, drag_word(cd_plus(i, j, k),
                                            cd_minus(i, j, k)))
    m = capped_rank(config)
    c = comm(gen(m, j), gen(m, k))
    expected = _images(build_basis(config), {i: conj(c, gen(m, i))})
    if target.images != expected:
        return False, ""
    matches: list[DragWord] = []
    for x, y in ((hd(i, k), hd(i, j)), (hd(i, j), hd(i, k))):
        for a in (1, -1):
            for b in (1, -1):
                candidate = drag_word((x, a), (y, b), (x, -a), (y, -b))
                if same_map(realize_word(config, candidate), target):
                    matches.append(candidate)
    if len(matches) != 1:
        return False, "; ".join(drag_word_text(w) for w in matches)
    return True, drag_word_text(matches[0])


# --- Johnson images -------------------------------------------------------

def tau_star(config: PartitionConfig, w: DragWord) -> HomTable:
    return tau(realize_word(config, w))


def tau_star_formula(config: PartitionConfig, g: DragGenerator) -> HomTable:
    """The closed-form Johnson image of a single drag generator; the
    computed route is tau(realize(g)) and the two must agree exactly."""
    _check_generator(config, g)
    basis = build_basis(config)
    m = basis.m
    cols: dict[int, dict[tuple[int, int], int]] = {}
    if g.kind == "HD":
        i, j = g.indices
        cols[i] = {(j, i): 1}
    elif g.kind == "CD-":
        i, j, k = g.indices
        cols[i] = {(j, k): 1}
    elif g.kind == "CD+":
        i, j, k = g.indices
        cols[i] = {(j, k): -1}
    elif g.kind == "BCD":
        r, s, i, j = g.indices
        block = basis.block_indices(r)
        singleton = config.is_singleton(r)
        if not singleton:
            if s > 1:
                a = block[s - 2]
                cols[a] = {(i, j): -1 if r > 1 else 1}
            else:
                for a in block:
                    cols[a] = {(i, j): 1 if r > 1 else -1}
        # singleton blocks: conjugation, zero image
    else:  # PD
        r, j = g.indices
        if r > 1:
            for a in basis.block_indices(r):
                cols[a] = {(j, a): 1}
        else:
            block = set(basis.block_indices(1))
            for idx in range(1, m + 1):
                if idx not in block and idx != j:
                    cols[idx] = {(idx, j): 1}
    return table_from_entries(m, cols)


def formula_rank(config: PartitionConfig) -> int:
    n, b, p = config.n, config.b, config.num_blocks
    c2 = n * (n - 1) // 2
    if b == 0:
        # Out(F_n): the n inner automorphisms are factored out, but for
        # n = 1 they are trivial and there is nothing to factor out
        return n * c2 - (n if n >= 2 else 0)
    return n * c2 + (b - p) * c2 + (p * n - n)


def abelianization_rank(config: PartitionConfig) -> tuple[int, int, list[int]]:
    """(computed rank, formula rank, Smith invariants of the reduced set).

    Rank of the abelianization of the drag group, computed as the rank
    of the lattice spanned by the Johnson images of the full generating
    set.  With b = 0 the group lives in Out, so the span is taken
    modulo the Johnson images of the inner automorphisms:
    rank(generators + inners) - rank(inners).
    """
    m = capped_rank(config)
    row_of = {g: list(flatten(tau(realize(config, g))))
              for g in all_generators(config)}
    rows = list(row_of.values())
    if config.b == 0:
        inner_rows = [list(flatten(tau(inner_automorphism(m, gen(m, j)))))
                      for j in range(1, config.n + 1)]
        computed = (matrix_rank(rows + inner_rows)
                    - matrix_rank(inner_rows))
    else:
        computed = matrix_rank(rows)
    reduced_rows = [row_of[g] for g in reduced_generating_set(config)]
    invariants = smith_invariants(reduced_rows) if reduced_rows else []
    return computed, formula_rank(config), invariants
