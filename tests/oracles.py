"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity along a different route than the
package: the Magnus projection by genuine truncated power-series
multiplication, summand detection by maximal-minor gcds, substitution
into words by concatenating whole images and reducing afterwards, and
word strategies for property tests.
"""

import itertools
from math import gcd

from hypothesis import strategies as st

from torelli import Word, comm, mul, reduce

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
