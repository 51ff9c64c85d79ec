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

The actions of the drags and pushes (``_drag_action``,
``_push_action``) are ``Action``s: an inner conjugator and a table from
each moved generator index to its image, all freely reduced letter
tuples.  ``_accumulate`` is the one loop that builds images: it runs
over ``Action``s in product order and rewrites only the generators each
one moves, in a table (``words._Unmoved``) that the first action's
images seed; the image of an inverse letter is built only when it is
read.
``_realize_images`` reads back every image, as validated ``Word``s, for
the maps that are printed or returned: drag words, their inverses for
the certificate, and pushes.  ``_moved_images`` reads back {k: image}
for the generators the product moves, and the checks compare only
those: the verifier's membership, tau, rank and relation checks, and
``push-factor``'s match of a drag word with its push (on the
``_checked_push`` action).  A push at boundary (1, 1) and PD(1, j)
conjugate every generator off block 1, so their ``Action`` is an inner
automorphism followed by a correction on block 1; the loop keeps the
conjugator apart and applies it once, at the end.

``verify_config`` is the one verifier: it decides which checks verify
a configuration, in what order, for ``torelli verify``, the acceptance
gate and the sweeps.  It builds the actions of every generator once,
and every check reads that one table through the private checks that
the public ``verify_*`` functions wrap.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, NamedTuple

from .config import CappedBasis, PartitionConfig, build_basis, capped_rank
from .johnson import (
    Entries,
    HomTable,
    _flat_entries,
    _hom_table,
    _tau_columns,
    _wedge,
    tau,
)
from .lattice import _sparse_rank, smith_invariants
from .words import (
    GroupMap,
    ParseError,
    PreconditionError,
    Word,
    _Unmoved,
    _certified,
    _homology_trivial,
    _join,
    _read_index,
    _reduce_letters,
    _substitute,
    inv,
    is_homology_trivial,
)

_KINDS = ("HD", "CD+", "CD-", "BCD", "PD")


class DragGenerator(NamedTuple("DragGenerator",
                                [("kind", str), ("indices", tuple[int, ...])])):
    """A drag generator, validated in shape.  It is a tuple, so the
    (generator, sign) tokens of a drag word hash and compare at C
    speed."""

    __slots__ = ()

    def __new__(cls, kind: str, indices: tuple[int, ...]) -> DragGenerator:
        if kind not in _KINDS:
            raise ValueError(f"unknown drag kind {kind!r}")
        want = {"HD": 2, "CD+": 3, "CD-": 3, "BCD": 4, "PD": 2}[kind]
        if len(indices) != want:
            raise ValueError(f"{kind} takes {want} indices")
        return super().__new__(cls, kind, indices)

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
        indices = tuple(map(_read_index, rest.split(",")))
        if None in indices:
            raise ParseError(f"token {pos}: bad indices in {token!r}")
        try:
            out.append((DragGenerator(kind, indices), exp))
        except ValueError as exc:
            raise ParseError(f"token {pos}: {exc}") from None
    return tuple(out)


def drag_word_text(w: DragWord) -> str:
    """The text of w; each distinct token is formatted once."""
    text = {(g, e): g.token() + ("" if e == 1 else "^-1") for g, e in set(w)}
    return " ".join(map(text.__getitem__, w))


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

Letters = tuple[int, ...]


def _inv_letters(letters: Letters) -> Letters:
    return tuple(-x for x in reversed(letters))


class Action(NamedTuple):
    """The map x |-> c . B(x) . c^-1 for c = ``inner`` and B = ``table``.

    ``table`` maps each generator B moves to its image, and ``inner``
    is empty unless the drag conjugates every generator outside block 1;
    both hold freely reduced letter tuples.
    """

    inner: Letters
    table: dict[int, Letters]


def _push_action(basis: CappedBasis, r: int, s: int,
                 gamma: Letters) -> Action:
    """The boundary (r, s) pushed around the reduced loop letters gamma.
    Fixed-side table:

      r>1, s>1 : Arc(r,s) -> Arc(r,s) . gamma
      r=1, s>1 : Arc(1,s) -> gamma^-1 . Arc(1,s)
      r>1, s=1 : Arc(r,t) -> gamma^-1 . Arc(r,t)  (all t)   [multi block]
                 Handle(r) -> gamma^-1 . Handle(r) . gamma  [singleton]
      r=1, s=1 : iota_gamma (y -> gamma . y . gamma^-1), then the
                 block-1 correction
                 Arc(1,t) -> Arc(1,t) . gamma               [multi block]
                 Handle(1) -> gamma^-1 . Handle(1) . gamma  [singleton]

    Expanded, the r = 1, s = 1 push conjugates every generator off
    block 1 by gamma, sends Arc(1,t) to gamma . Arc(1,t) and fixes a
    singleton's Handle(1).  The sides are forced by
    push(uv) = push(u) o push(v) together with the relation verifiers;
    tests pin every case.
    """
    config = basis.config
    block = basis.block_indices(r)
    gi = _inv_letters(gamma)
    action: dict[int, Letters] = {}
    if r > 1:
        if s > 1:
            a = block[s - 2]
            action[a] = _reduce_letters((a, *gamma))
        elif not config.is_singleton(r):
            for a in block:
                action[a] = _reduce_letters((*gi, a))
        else:
            a = block[0]
            action[a] = _reduce_letters((*gi, a, *gamma))
    elif s > 1:
        a = block[s - 2]
        action[a] = _reduce_letters((*gi, a))
    else:
        for a in block:
            action[a] = _reduce_letters((*gi, a, *gamma)
                                        if config.is_singleton(1)
                                        else (a, *gamma))
        return Action(gamma, action)
    return Action((), action)


def _checked_push(config: PartitionConfig, boundary: tuple[int, int],
                  gamma: Word) -> tuple[int, Action]:
    """(capped rank, ``Action``) of the push of boundary (r, s) around the
    loop gamma, once the boundary and the rank of gamma are checked."""
    r, s = boundary
    _check_boundary(config, r, s)
    if gamma.rank != config.n:
        raise PreconditionError(
            f"push loop must have rank n = {config.n}, got {gamma.rank}")
    basis = build_basis(config)
    return basis.m, _push_action(basis, r, s, gamma.letters)


def _push_images(config: PartitionConfig, boundary: tuple[int, int],
                 gamma: Word) -> tuple[Word, ...]:
    """The generator images of the push of boundary (r, s) around the
    loop gamma (a rank-n word), without a certificate."""
    m, action = _checked_push(config, boundary, gamma)
    return _realize_images(m, (action,))


def push_boundary(config: PartitionConfig, boundary: tuple[int, int],
                  gamma: Word) -> GroupMap:
    """Realize the point-push of boundary (r, s) around the loop gamma
    (a rank-n word).  Homomorphism in gamma; inverse certificate from
    the push of gamma^-1."""
    images = _push_images(config, boundary, gamma)
    return GroupMap(len(images), images,
                    _push_images(config, boundary, inv(gamma)))


def _drag_action(basis: CappedBasis, g: DragGenerator,
                 sigma: int) -> Action:
    """The action of g^sigma, sigma = +-1, as reduced letter tuples."""
    if g.kind == "HD":
        i, j = g.indices
        t = sigma * j
        return Action((), {i: _reduce_letters((t, i, -t))})
    if g.kind == "CD-":
        i, j, k = g.indices
        c = (j, k, -j, -k) if sigma > 0 else (k, j, -k, -j)
        return Action((), {i: _reduce_letters((*c, i))})
    if g.kind == "CD+":
        i, j, k = g.indices
        c = (k, j, -k, -j) if sigma > 0 else (j, k, -j, -k)
        return Action((), {i: _reduce_letters((i, *c))})
    if g.kind == "BCD":
        r, s, i, j = g.indices
        # gamma = [y_i, y_j]^-sigma
        gamma = (j, i, -j, -i) if sigma > 0 else (i, j, -i, -j)
        return _push_action(basis, r, s, gamma)
    # PD
    r, j = g.indices
    t = sigma * j
    table = {a: _reduce_letters((t, a, -t)) for a in basis.block_indices(r)}
    # PD(r, j), r > 1, conjugates block r by y_j^sigma.  PD(1, j)
    # conjugates every generator off block 1 by y_j^-sigma: that is
    # iota_{y_j^-sigma}, then block 1 conjugated back by y_j^sigma
    return Action((-t,) if r == 1 else (), table)


def realize(config: PartitionConfig, g: DragGenerator) -> GroupMap:
    """The drag as an explicit automorphism of F_m, with certificate."""
    return realize_word(config, ((g, 1),))


def _accumulate(actions: Iterable[Action]) -> tuple[_Unmoved, list[int]]:
    """(table, u) for the product of ``actions`` (the leftmost
    outermost), so that a_1 o ... o a_k = iota_u o phi with phi in
    ``table``, a ``words._Unmoved``.

    The product starts as the identity, so the first action
    iota_c o B is copied in: u = c, and the table holds B's images.
    Each later action iota_c o B applies acc <- acc o iota_c o B =
    iota_{u . phi(c)} o (phi o B): u takes phi(c) on the right, and the
    images under B of the generators B moves are substituted into the
    old phi, every other image staying as it is.  The inverse image of
    a rewritten generator is deleted, and the table builds it again
    only if it is read.  The table's images are lists of its own, so
    no ``Action`` shares one.
    """
    actions = iter(actions)
    inner, action = next(actions, ((), {}))
    table, u = _Unmoved(), list(inner)
    for k, image in action.items():
        table[k] = list(image)
    for inner, action in actions:
        if inner:
            _join(u, map(table.__getitem__, inner))
        if len(action) == 1:
            [(k, image)] = action.items()
            table[k] = _substitute(image, table)
            table.pop(-k, None)
            continue
        moved = [(k, _substitute(image, table))
                 for k, image in action.items()]
        for k, letters in moved:
            table[k] = letters
            table.pop(-k, None)
    return table, u


def _table_images(m: int, table: _Unmoved, u: list[int]):
    """The images of x_1..x_m under iota_u o phi, phi in ``table``; each
    is conjugated by u, cancelling only where the words meet."""
    images = map(table.__getitem__, range(1, m + 1))
    if not u:
        return images
    outer = [-x for x in reversed(u)]
    return (_join(list(u), (letters, outer)) for letters in images)


def _realize_images(m: int, actions: Iterable[Action]) -> tuple[Word, ...]:
    """The images of x_1..x_m under the product of ``actions``."""
    table, u = _accumulate(actions)
    return tuple(Word(m, tuple(x)) for x in _table_images(m, table, u))


def _moved_images(m: int, actions: Iterable[Action]) -> dict[int, list[int]]:
    """The product of ``actions`` read back as {k: image} for every x_k
    it moves: two maps are equal exactly when these dicts are."""
    table, u = _accumulate(actions)
    if u:
        return {k: x for k, x in enumerate(_table_images(m, table, u), 1)
                if x != [k]}
    return {k: x for k, x in table.items() if k > 0 and x != [k]}


def _word_actions(config: PartitionConfig,
                  w: DragWord) -> tuple[int, dict]:
    """(capped rank, {(generator, sign): its ``Action``} for w).

    Every token is validated before any work, in order, so the first
    bad token raises; exponents must be +-1.  Both signs of each
    generator are tabled, so the inverse word needs no second pass.
    """
    basis = build_basis(config)
    actions: dict[tuple[DragGenerator, int], Action] = {}
    for token in w:
        g, e = token
        if e not in (1, -1):
            raise PreconditionError(
                f"drag word exponents must be +-1, got {e!r}")
        if token not in actions:
            _check_generator(config, g)
            for sign in (1, -1):
                actions[(g, sign)] = _drag_action(basis, g, sign)
    return basis.m, actions


def realize_images(config: PartitionConfig, w: DragWord) -> tuple[Word, ...]:
    """The generator images of the drag word, without a certificate;
    validation and the realization loop are those of ``realize_word``."""
    m, actions = _word_actions(config, w)
    return _realize_images(m, map(actions.__getitem__, w))


def realize_word(config: PartitionConfig, w: DragWord) -> GroupMap:
    """The drag word as an automorphism of F_m, with certificate.

    Tokens compose left to right with the rightmost token acting first.
    Every token is validated before any work, exponents must be +-1,
    and the action of each (generator, sign) is built once per call.
    The inverse certificate is the realization of ``drag_word_inv(w)``
    by the same loop; ``torelli realize`` prints it.
    """
    m, actions = _word_actions(config, w)
    images, inverse_images = (_realize_images(m, map(actions.__getitem__, x))
                              for x in (w, drag_word_inv(w)))
    return GroupMap(m, images, inverse_images)


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

    ``all_generators`` less all CD+ (a commutator of handle drags times
    CD-), the s = 1 boundary drag of every block (the block relation
    expresses it) and the block-1 P-drags (the grand drag relation
    expresses them); with b = 0 there are no P-drags, and the grand
    relation removes HD(max{k != j}, j) for each j instead.
    """
    return [g for g in all_generators(config) if not _dropped(config, g)]


def _dropped(config: PartitionConfig, g: DragGenerator) -> bool:
    """Whether ``reduced_generating_set`` leaves g out."""
    if g.kind == "HD":
        i, j = g.indices
        n = config.n
        return config.b == 0 and i == (n - 1 if j == n else n)
    return (g.kind == "CD+" or (g.kind == "BCD" and g.indices[1] == 1)
            or (g.kind == "PD" and g.indices[0] == 1))


def membership_IOP(config: PartitionConfig, f: GroupMap) -> bool:
    """Membership test for the capped Torelli group: trivial action on
    H_1(F_m)."""
    if f.rank != capped_rank(config):
        raise PreconditionError(
            f"map has rank {f.rank}, capped rank is {capped_rank(config)}")
    return is_homology_trivial(f)


# --- relations ------------------------------------------------------------

# drag word -> its moved images: ``_moved_word_images`` on a
# configuration, or the one action table of ``verify_config``
Realizer = Callable[[DragWord], dict[int, list[int]]]


def _moved_word_images(config: PartitionConfig,
                       w: DragWord) -> dict[int, list[int]]:
    """``realize_images(config, w)`` read back sparse: {k: image} for
    every generator x_k that the drag word moves."""
    m, actions = _word_actions(config, w)
    return _moved_images(m, map(actions.__getitem__, w))


def _inner_images(m: int, j: int) -> dict[int, list[int]]:
    """The moved images of the inner automorphism by x_j."""
    return {k: [j, k, -j] for k in range(1, m + 1) if k != j}


def _displayed(tokens: DragWord) -> DragWord:
    # displayed products act leftmost-first; realize the reversed word
    return tuple(reversed(tokens))


def verify_pd_relation(config: PartitionConfig, j: int) -> bool:
    """PD(1,j) PD(2,j) ... PD(|P|,j) . prod_{i != j} HD(i,j) = 1.

    With b = 0 the product degenerates to the handle drags alone, which
    compose to the inner automorphism by y_j; that is what is checked
    in that case (the identity holds in the outer group).
    """
    n = config.n
    if not 1 <= j <= n:
        raise PreconditionError(f"loop index {j} out of range 1..{n}")
    return _pd_relation(config, j, partial(_moved_word_images, config))


def _pd_relation(config: PartitionConfig, j: int, images: Realizer) -> bool:
    n = config.n
    tokens = drag_word(*[pd(r, j) for r in range(1, config.num_blocks + 1)],
                       *[hd(i, j) for i in range(1, n + 1) if i != j])
    composite = images(_displayed(tokens))
    return composite == (_inner_images(n, j) if config.b == 0 else {})


def verify_bcd_relation(config: PartitionConfig, r: int, i: int, j: int) -> bool:
    """BCD(r,1,i,j) ... BCD(r,b_r,i,j) = [PD(r,i), PD(r,j)]."""
    if i >= j:
        raise PreconditionError("need i < j")
    _check_boundary(config, r, 1)
    return _bcd_relation(config, r, i, j, partial(_moved_word_images, config))


def _bcd_relation(config: PartitionConfig, r: int, i: int, j: int,
                  images: Realizer) -> bool:
    b_r = len(config.block(r))
    lhs = images(_displayed(
        drag_word(*[bcd(r, s, i, j) for s in range(1, b_r + 1)])))
    rhs = images(_displayed(
        drag_word(pd(r, i), pd(r, j), (pd(r, i), -1), (pd(r, j), -1))))
    return lhs == rhs


def verify_cd_identity(config: PartitionConfig, i: int, j: int,
                       k: int) -> tuple[bool, str]:
    """CD+(i,j,k) o CD-(i,j,k) conjugates y_i by [y_j, y_k]; search the
    eight ordered/sign commutator variants of HD(i,j), HD(i,k) for the
    unique exact match and return its drag-word text."""
    return _cd_identity(i, j, k, partial(_moved_word_images, config))


def _cd_identity(i: int, j: int, k: int,
                 images: Realizer) -> tuple[bool, str]:
    target = images(drag_word(cd_plus(i, j, k), cd_minus(i, j, k)))
    if target != {i: [j, k, -j, -k, i, k, j, -k, -j]}:
        return False, ""
    matches: list[DragWord] = []
    for x, y in ((hd(i, k), hd(i, j)), (hd(i, j), hd(i, k))):
        for a in (1, -1):
            for b in (1, -1):
                candidate = drag_word((x, a), (y, b), (x, -a), (y, -b))
                if images(candidate) == target:
                    matches.append(candidate)
    if len(matches) != 1:
        return False, "; ".join(drag_word_text(w) for w in matches)
    return True, drag_word_text(matches[0])


# --- Johnson images -------------------------------------------------------

def tau_star(config: PartitionConfig, w: DragWord) -> HomTable:
    images = realize_images(config, w)
    return tau(GroupMap(len(images), images))


def tau_star_formula(config: PartitionConfig, g: DragGenerator) -> HomTable:
    """The closed-form Johnson image of a single drag generator; the
    computed route is tau(realize(g)) and the two must agree exactly."""
    _check_generator(config, g)
    basis = build_basis(config)
    return _hom_table(basis.m, _formula_columns(basis, g))


def _formula_columns(basis: CappedBasis,
                     g: DragGenerator) -> dict[int, Entries]:
    """The nonzero columns of ``tau_star_formula``, as entries: each
    listed column is a wedge e_i ^ e_j with i != j."""
    config, m = basis.config, basis.m
    cols: dict[int, Entries] = {}
    if g.kind == "HD":
        i, j = g.indices
        cols[i] = _wedge(j, i)
    elif g.kind == "CD-":
        i, j, k = g.indices
        cols[i] = _wedge(j, k)
    elif g.kind == "CD+":
        i, j, k = g.indices
        cols[i] = _wedge(j, k, -1)
    elif g.kind == "BCD":
        r, s, i, j = g.indices
        block = basis.block_indices(r)
        singleton = config.is_singleton(r)
        if not singleton:
            if s > 1:
                a = block[s - 2]
                cols[a] = _wedge(i, j, -1 if r > 1 else 1)
            else:
                for a in block:
                    cols[a] = _wedge(i, j, 1 if r > 1 else -1)
        # singleton blocks: conjugation, zero image
    else:  # PD
        r, j = g.indices
        if r > 1:
            for a in basis.block_indices(r):
                cols[a] = _wedge(j, a)
        else:
            block = set(basis.block_indices(1))
            for idx in range(1, m + 1):
                if idx not in block and idx != j:
                    cols[idx] = _wedge(idx, j)
    return cols


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
    gens = all_generators(config)
    m, actions = _word_actions(config, tuple((g, 1) for g in gens))
    moved = {g: _moved_images(m, (actions[(g, 1)],)) for g in gens}
    if not all(map(_homology_trivial, moved.values())):
        raise PreconditionError("tau needs a homology-trivial map")
    return _rank_from_taus(config, {g: _tau_columns(m, images)
                                    for g, images in moved.items()})


def _rank_from_taus(config: PartitionConfig,
                    taus: dict[DragGenerator, dict[int, Entries]]
                    ) -> tuple[int, int, list[int]]:
    """``abelianization_rank`` from the nonzero Johnson columns
    (``johnson._tau_columns``) of ``all_generators(config)``.

    About 1% of a row's coordinates are nonzero, so rows stay sparse.
    The reduced set is the given generators less those ``_dropped``
    names, as in ``reduced_generating_set``.  Its rows are reduced by
    unit pivots alone (``_sparse_rank`` with ``unimodular``); when
    every row keeps a +-1 lead they span a summand, and every Smith
    invariant is 1.  Otherwise the invariants
    are taken by ``smith_invariants`` on the rows restricted to the
    union S of their supports: rows supported on S span a summand of
    Z^N exactly when they span one of Z^S, and zero columns add no
    nonzero invariant.
    """
    m = capped_rank(config)
    row_of = {g: _flat_entries(m, cols) for g, cols in taus.items()}
    rows = list(row_of.values())
    if config.b == 0:
        inner_rows = [_flat_entries(m, _tau_columns(m, _inner_images(m, j)))
                      for j in range(1, config.n + 1)]
        computed = _sparse_rank(rows + inner_rows) - _sparse_rank(inner_rows)
    else:
        computed = _sparse_rank(rows)
    reduced_rows = [row for g, row in row_of.items()
                    if not _dropped(config, g)]
    units = _sparse_rank(reduced_rows, unimodular=True)
    if units is not None:
        return computed, formula_rank(config), [1] * units
    support = sorted(set().union(*reduced_rows))
    invariants = smith_invariants([[row.get(c, 0) for c in support]
                                   for row in reduced_rows])
    return computed, formula_rank(config), invariants


# --- the verifier ---------------------------------------------------------

class Check(NamedTuple):
    """One verdict of ``verify_config``."""

    name: str
    detail: str
    ok: bool


def verify_config(config: PartitionConfig, mode: str = "all") -> list[Check]:
    """The checks of ``torelli verify`` on one configuration, in order:
    "membership" certifies each generator in the Torelli group,
    "relations" checks the PD and BCD relations and the CD identities,
    and "all" does both, then each generator's tau and the rank formula.

    Every realization reads one ``_word_actions`` table of all the
    generators, and every check compares only moved images
    (``_moved_images``) or nonzero tau columns, as {(i, j): c} entries.
    Membership checks each generator's homology once, and one that
    fails it fails its tau_table check and the rank check, which
    decides its Smith invariants by unit pivots (``_rank_from_taus``).
    """
    if mode not in ("membership", "relations", "all"):
        raise ValueError(f"unknown verify mode {mode!r}")
    n, gens = config.n, all_generators(config)
    m, actions = _word_actions(config, tuple((g, 1) for g in gens))

    def images(w: DragWord) -> dict[int, list[int]]:
        return _moved_images(m, map(actions.__getitem__, w))

    checks: list[Check] = []
    if mode != "relations":
        moved = {g: images(((g, 1),)) for g in gens}
        member = {g: _homology_trivial(moved[g])
                  and _certified(moved[g], images(((g, -1),)))
                  for g in gens}
        checks.extend(Check("membership", g.token(), ok)
                      for g, ok in member.items())
    if mode != "membership":
        checks.extend(Check("pd_relation", f"j={j}",
                            _pd_relation(config, j, images))
                      for j in range(1, n + 1))
        checks.extend(Check("bcd_relation", f"r={r},i={i},j={j}",
                            _bcd_relation(config, r, i, j, images))
                      for r in range(1, config.num_blocks + 1)
                      for i in range(1, n + 1) for j in range(i + 1, n + 1))
        for i, j, k in (g.indices for g in gens if g.kind == "CD-"):
            ok, expr = _cd_identity(i, j, k, images)
            checks.append(Check("cd_identity",
                                f"i={i},j={j},k={k} -> {expr}", ok))
    if mode == "all":
        basis = build_basis(config)
        taus = {g: _tau_columns(m, moved[g]) for g in gens if member[g]}
        checks.extend(Check("tau_table", g.token(), g in taus
                            and taus[g] == _formula_columns(basis, g))
                      for g in gens)
        missing = len(gens) - len(taus)
        if missing:
            checks.append(Check("rank", f"not computed: {missing}/"
                                f"{len(gens)} generators failed membership",
                                False))
        else:
            computed, formula, invariants = _rank_from_taus(config, taus)
            checks.append(Check(
                "rank", f"computed={computed} formula={formula} "
                f"invariants={invariants}",
                computed == formula and all(x == 1 for x in invariants)))
    return checks
