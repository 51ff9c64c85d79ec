"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity along a different route than the
package: the Magnus projection by genuine truncated power-series
multiplication, the Johnson homomorphism by rho of validated product
words, summand detection by maximal-minor gcds, the FS truncation by
one whole summand test per vertex pair and per triangle, substitution
into words by concatenating whole images and reducing afterwards, drag
actions and Tomaszewski factors built from validated words, products by
a left fold of ``mul``, the reduced generating set enumerated family by
family, folds of drag actions over whole images with every inverse built
up front, push factorizations with a whole conjugating drag word per
factor, the cap scan of factor and token counts with a prefix sum per
letter, words parsed token by token with no memory of earlier tokens,
and word strategies for property tests.
"""

import itertools
from collections import defaultdict
from math import gcd

from hypothesis import strategies as st

from torelli import (
    HomTable,
    ParseError,
    PreconditionError,
    Word,
    bcd,
    build_basis,
    cd_minus,
    comm,
    conj,
    drag_word_inv,
    fs_is_simplex,
    fs_vertices,
    gen,
    hd,
    inv,
    mul,
    pd,
    reduce,
    rho,
    spans_summand,
    tomaszewski_factor,
)
from torelli.words import _read_index

# --- truncated Magnus series ------------------------------------------------
#
# Elements of the degree-<=2 part of Z<<X_1..X_n>>: {monomial: coeff} with
# monomials () (constant), (i,), (i, j).


def _series_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            if len(m) > 2:
                continue
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _letter_series(letter: int) -> dict:
    k = abs(letter)
    if letter > 0:
        return {(): 1, (k,): 1}
    return {(): 1, (k,): -1, (k, k): 1}


def magnus_series(w: Word) -> dict:
    out = {(): 1}
    for letter in w.letters:
        out = _series_mul(out, _letter_series(letter))
    return out


def magnus_rho_coeffs(w: Word) -> dict:
    """The (i, j) |-> coefficient table, i < j, read off the series."""
    series = magnus_series(w)
    return {(i, j): c for (i, j), c in
            ((m, c) for m, c in series.items() if len(m) == 2)
            if i < j and c != 0}


# --- substitution by concatenation -------------------------------------------

def substitute_then_reduce(images, w: Word) -> Word:
    """The image of w under x_k |-> images[k-1]: concatenate the images
    (reversed and negated for inverse letters) and reduce once at the end."""
    raw: list[int] = []
    for letter in w.letters:
        image = images[abs(letter) - 1].letters
        raw.extend(image if letter > 0 else [-x for x in reversed(image)])
    return reduce(raw, w.rank)


# --- drag actions from validated words --------------------------------------
#
# The image tables of the drags, built one validated Word at a time with
# gen/conj/comm/mul/inv, as {generator index: image}.

def push_action_words(basis, r: int, s: int, gamma: Word) -> dict:
    """The boundary (r, s) pushed around gamma, a rank-m word."""
    config, m = basis.config, basis.m
    block = basis.block_indices(r)
    if r > 1:
        if s > 1:
            a = block[s - 2]
            return {a: mul(gen(m, a), gamma)}
        if not config.is_singleton(r):
            return {a: mul(inv(gamma), gen(m, a)) for a in block}
        return {block[0]: conj(inv(gamma), gen(m, block[0]))}
    if s > 1:
        a = block[s - 2]
        return {a: mul(inv(gamma), gen(m, a))}
    action = {}
    for idx in range(1, m + 1):
        if idx not in block:
            action[idx] = conj(gamma, gen(m, idx))
        elif not config.is_singleton(1):
            action[idx] = mul(gamma, gen(m, idx))
    return action


def drag_action_words(basis, g, sigma: int) -> dict:
    """The image table of the drag generator g to the power sigma = +-1."""
    m = basis.m
    if g.kind == "HD":
        i, j = g.indices
        t = gen(m, j) if sigma > 0 else inv(gen(m, j))
        return {i: conj(t, gen(m, i))}
    if g.kind in ("CD-", "CD+"):
        i, j, k = g.indices
        c = comm(gen(m, j), gen(m, k))
        if g.kind == "CD-":
            return {i: mul(c if sigma > 0 else inv(c), gen(m, i))}
        return {i: mul(gen(m, i), inv(c) if sigma > 0 else c)}
    if g.kind == "BCD":
        r, s, i, j = g.indices
        c = comm(gen(m, i), gen(m, j))
        return push_action_words(basis, r, s, inv(c) if sigma > 0 else c)
    r, j = g.indices
    yj = gen(m, j) if sigma > 0 else inv(gen(m, j))
    if r > 1:
        return {a: conj(yj, gen(m, a)) for a in basis.block_indices(r)}
    block = basis.block_indices(1)
    return {idx: conj(inv(yj), gen(m, idx))
            for idx in range(1, m + 1) if idx not in block}


def push_boundary_words(config, boundary, gamma: Word) -> tuple:
    """(images, inverse images) of the push of boundary (r, s) around
    the rank-n loop gamma."""
    basis = build_basis(config)
    m = basis.m
    gamma = Word(m, gamma.letters)
    out = []
    for loop in (gamma, inv(gamma)):
        action = push_action_words(basis, *boundary, loop)
        out.append(tuple(action.get(i, gen(m, i)) for i in range(1, m + 1)))
    return tuple(out)


def fold_actions_eagerly(m: int, actions) -> tuple:
    """The images of x_1..x_m under the product of ``actions``, the
    leftmost outermost, each ``Action`` (inner c, table B) the map
    x |-> c B(x) c^-1.  The running map is kept as all m images; before
    each action the images of every inverse letter are built, then the
    running map is substituted into each word c B(x_k) c^-1 whole and
    reduced afterwards."""
    images = [Word(m, (k,)) for k in range(1, m + 1)]
    for inner, table in actions:
        inverses = [inv(w) for w in images]
        outer = tuple(-x for x in reversed(inner))
        new = []
        for k in range(1, m + 1):
            raw: list[int] = []
            for x in (*inner, *table.get(k, (k,)), *outer):
                raw.extend((images if x > 0 else inverses)[abs(x) - 1].letters)
            new.append(reduce(raw, m))
        images = new
    return tuple(images)


# --- the Johnson homomorphism from validated words ------------------------

def tau_words(f) -> HomTable:
    """tau(f) with column i the public ``rho`` of the validated, freely
    reduced product word f(x_i) x_i^-1, built by ``mul`` and ``inv``."""
    m = f.rank
    return HomTable(m, tuple(rho(mul(f.images[i - 1], inv(gen(m, i))))
                             for i in range(1, m + 1)))


# --- Tomaszewski factors from validated words --------------------------------

def factor_word_words(f) -> Word:
    """The factor m [x_i, x_j] m^-1 by ``conj`` and ``comm`` of validated
    words, m = x_n^{d_n} ... x_i^{d_i}."""
    n = f.rank
    letters: list[int] = []
    for idx in range(n, f.i - 1, -1):
        e = f.d[idx - f.i]
        letters.extend([idx if e > 0 else -idx] * abs(e))
    return conj(Word(n, tuple(letters)), comm(gen(n, f.i), gen(n, f.j)))


# --- push factorizations with a whole conjugator per factor ------------------

def push_factorization_tokens(config, boundary, w) -> tuple:
    """The push of boundary (r, s) around the commutator word w as a drag
    word: each Tomaszewski factor m [x_i, x_j]^e m^-1 gives the whole
    W . BCD(r, s, i, j)^-e . W^-1, W the handle drags HD(a, idx)^(+-1),
    a != idx, of each letter x_idx^(+-1) of m, and every token is
    cancelled onto the word as it comes."""
    n = config.n
    out: list = []
    for f, e in tomaszewski_factor(w).factors:
        conjugator = []
        for idx in range(f.rank, f.i - 1, -1):
            exponent = f.d[idx - f.i]
            sign = 1 if exponent > 0 else -1
            for _ in range(abs(exponent)):
                conjugator.extend((hd(a, idx), sign)
                                  for a in range(1, n + 1) if a != idx)
        for g, sign in (*conjugator, (bcd(*boundary, f.i, f.j), -e),
                        *drag_word_inv(tuple(conjugator))):
            if out and out[-1] == (g, -sign):
                out.pop()
            else:
                out.append((g, sign))
    return tuple(out)


# --- the cap scan with a prefix sum per letter ------------------------------

def expansion_size_per_letter_sum(w) -> tuple:
    """``rewriter._expansion_size`` summing |a_q| over q >= k afresh for
    every letter x_k and walking q < k downward: the raw count of
    Tomaszewski factors of w, and of drag tokens with a whole
    W . BCD . W^-1 each."""
    n = w.rank
    a = [0] * n
    factors = tokens = 0
    for letter in w.letters:
        k = abs(letter)
        if letter < 0:
            a[k - 1] -= 1
        above = sum(abs(x) for x in a[k - 1:])
        for q in range(k - 1, 0, -1):
            e = a[q - 1]
            size = abs(e)
            t_sum = size * (size - 1 if e > 0 else size + 1) // 2
            tokens += 2 * (n - 1) * (size * above + t_sum) + size
            factors += size
            above += size
        if letter > 0:
            a[k - 1] += 1
    return factors, tokens


# --- words parsed token by token -------------------------------------------

def parse_word_per_token(text: str, rank: int) -> Word:
    """``parse_word`` reading every token from scratch, repeats included:
    the same word, or the same error naming the same token position."""
    if rank < 1:
        raise PreconditionError(f"rank must be >= 1, got {rank}")
    tokens = text.split()
    if not tokens:
        raise ParseError("empty input; the identity is written 'e'")
    if tokens == ["e"]:
        return Word(rank)
    letters: list[int] = []
    for pos, token in enumerate(tokens, start=1):
        body, negative = token, False
        if token.endswith("^-1"):
            body, negative = token[:-3], True
        k = _read_index(body[1:]) if body.startswith("x") else None
        if k is None:
            raise ParseError(f"token {pos}: cannot read {token!r}")
        if not 1 <= k <= rank:
            raise ParseError(
                f"token {pos}: index {k} out of range for rank {rank}")
        letters.append(-k if negative else k)
    return reduce(letters, rank)


# --- products by a left fold ------------------------------------------------

def mul_fold(words, rank: int) -> Word:
    """The product of the words, one ``mul`` at a time from the left."""
    out = Word(rank)
    for w in words:
        out = mul(out, w)
    return out


# --- generating sets -----------------------------------------------------

def reduced_generating_set_direct(config) -> list:
    """The reduced generating set enumerated directly, family by family
    in the order of ``all_generators``: HD (with b = 0, less
    HD(max{k != j}, j) for each j), CD-, the BCDs with s >= 2, and the
    PDs of blocks 2 and up."""
    n = config.n
    out = [hd(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
           if i != j and (config.b > 0
                          or i != max(k for k in range(1, n + 1) if k != j))]
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


# --- summand detection by minors -------------------------------------------

def _minor_det(rows: list, cols: tuple) -> int:
    sub = [[row[c] for c in cols] for row in rows]
    k = len(sub)
    if k == 1:
        return sub[0][0]
    if k == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        total += (-1) ** j * sub[0][j] * _minor_det(minor, tuple(range(k - 1)))
    return total


def minors_spans_summand(vectors: list) -> bool:
    """Rows span a rank-k summand iff the gcd of all k x k minors is 1."""
    k = len(vectors)
    if k == 0:
        return True
    n = len(vectors[0])
    if k > n:
        return False
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = gcd(g, _minor_det(vectors, cols))
        if g == 1:
            return True
    return False


# --- FS(Z^n) by one summand test per candidate -------------------------------

def fs_graph_per_pair(n: int, bound: int) -> tuple[list, list]:
    """Vertices and edges of the FS truncation, with one whole summand
    test of every vertex pair."""
    verts = fs_vertices(n, bound)
    return verts, [(u, v) for u, v in itertools.combinations(verts, 2)
                   if spans_summand([list(u), list(v)])]


def fs_triangles_per_candidate(edges: list) -> list:
    """The 2-simplices (u, v, w), u < v < w, with one whole simplex test
    of every common neighbour w > v of each edge (u, v)."""
    adj: dict = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [(u, v, w) for u, v in edges for w in sorted(adj[u] & adj[v])
            if w > v and fs_is_simplex([u, v, w])]


# --- hypothesis strategies --------------------------------------------------

def letters_strategy(rank: int, max_len: int = 12):
    nonzero = [x for x in range(-rank, rank + 1) if x != 0]
    return st.lists(st.sampled_from(nonzero), max_size=max_len)


def words_strategy(rank: int, max_len: int = 12):
    return letters_strategy(rank, max_len).map(lambda ls: reduce(ls, rank))


def commutator_words_strategy(rank: int):
    """Products of up to three commutators of short words."""
    pair = st.tuples(words_strategy(rank, 5), words_strategy(rank, 5))

    def build(pairs):
        out = Word(rank)
        for a, b in pairs:
            out = mul(out, comm(a, b))
        return out

    return st.lists(pair, min_size=1, max_size=3).map(build)


def drag_words_strategy(generators, max_len: int = 6):
    """Drag words of up to max_len drawn tokens over the given generators;
    a drawn flag follows a token by its inverse, so adjacent cancelling
    pairs are common."""
    token = st.tuples(st.sampled_from(generators), st.sampled_from((1, -1)),
                      st.booleans())

    def build(picks):
        out = []
        for g, e, pair in picks:
            out.append((g, e))
            if pair:
                out.append((g, -e))
        return tuple(out)

    return st.lists(token, max_size=max_len).map(build)


def drag_words_toward_strategy(favoured, generators, max_len: int = 40):
    """Drag words of up to max_len tokens, each drawn three times in four
    from ``favoured`` and otherwise from all of ``generators``."""
    pick = st.one_of(*[st.sampled_from(favoured)] * 3,
                     st.sampled_from(generators))
    return st.lists(st.tuples(pick, st.sampled_from((1, -1))),
                    max_size=max_len).map(tuple)
