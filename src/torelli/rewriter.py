"""Rewriting commutator-subgroup elements in the Tomaszewski basis.

The commutator subgroup [F_n, F_n] is freely generated by the words

    m . [x_i, x_j] . m^-1,   i < j,   m = x_n^{d_n} ... x_i^{d_i},

conjugator letters descending and no letter below index i.  The
factorization is Reidemeister-Schreier rewriting over the kernel of
F_n -> Z^n with the descending-monomial transversal
{x_n^{a_n} ... x_1^{a_1}}, followed by commutator-identity expansion of
each Schreier generator.  With this transversal every expansion step
lands directly on a basis factor, so the expansion never recurses into
itself.  Each factorization carries a multiply-back certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .config import PartitionConfig
from .drags import DragGenerator, DragWord, bcd, drag_word_inv, hd
from .words import (
    PreconditionError,
    Word,
    abelianization_vector,
    reduce,
)


class TomaszewskiFactor(NamedTuple("TomaszewskiFactor", [
        ("i", int), ("j", int), ("d", tuple[int, ...])])):
    """i < j plus the conjugator exponents d = (d_i, ..., d_n); a tuple,
    so factors compare at C speed."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, d: tuple[int, ...]) -> TomaszewskiFactor:
        if not 1 <= i < j:
            raise ValueError("need 1 <= i < j")
        if j > i + len(d) - 1:
            raise ValueError("j exceeds the rank implied by d")
        return super().__new__(cls, i, j, d)

    @property
    def rank(self) -> int:
        return self.i + len(self.d) - 1

    def text(self) -> str:
        return f"T:{self.i},{self.j}:[{','.join(str(x) for x in self.d)}]"


def _conjugator(f: TomaszewskiFactor) -> list[int]:
    """The letters of m = x_n^{d_n} ... x_i^{d_i}, indices descending."""
    m: list[int] = []
    for idx, e in zip(range(f.rank, f.i - 1, -1), reversed(f.d)):
        if e:
            m += [idx if e > 0 else -idx] * abs(e)
    return m


def factor_word(f: TomaszewskiFactor) -> Word:
    """The conjugated commutator m [x_i, x_j] m^-1, reduced: the
    conjugator cancels into the commutator where d_i < 0."""
    m = _conjugator(f)
    return reduce((*m, f.i, f.j, -f.i, -f.j, *(-x for x in reversed(m))),
                  f.rank)


def _conjugators(factors) -> dict[TomaszewskiFactor, list[int]]:
    """{f: ``_conjugator(f)``}, built once for each distinct factor."""
    return {f: _conjugator(f) for f in dict.fromkeys(f for f, _ in factors)}


def _steps(factors, conjugators):
    """For each factor (f, e), f's conjugator m: (drop, add, f, e), the
    rests of the previous conjugator and of m after their common prefix
    (taken on letters); then (the last conjugator, [], None, 0).  The
    product is drop^-1 . add . [x_i, x_j]^e, step by step, then the last
    conjugator's inverse."""
    last: list[int] = []
    for f, e in factors:
        m = conjugators[f]
        p, limit = 0, min(len(last), len(m))
        while p < limit and last[p] == m[p]:
            p += 1
        yield last[p:], m[p:], f, e
        last = m
    yield last, [], None, 0


def _product(factors, conjugators, rank: int) -> Word:
    """The product of the factors, from the letters of ``_steps``,
    reduced in one pass and validated as one ``Word``."""
    letters: list[int] = []
    for drop, add, f, e in _steps(factors, conjugators):
        letters += [-x for x in reversed(drop)]
        letters += add
        if f is not None:
            letters += ((f.i, f.j, -f.i, -f.j) if e == 1
                        else (f.j, f.i, -f.j, -f.i))
    return reduce(letters, rank)


@dataclass(frozen=True)
class Factorization:
    word: Word
    factors: tuple[tuple[TomaszewskiFactor, int], ...]

    def multiply_back(self) -> Word:
        """The product of the factors, reduced: each distinct factor's
        conjugator is built once, and consecutive factors contribute
        only the difference of their conjugators (``_steps``)."""
        return _product(self.factors, _conjugators(self.factors),
                        self.word.rank)


def in_commutator_subgroup(w: Word) -> bool:
    return not any(abelianization_vector(w))


def _expand_gamma(a: list[int], k: int) -> list[tuple[TomaszewskiFactor, int]]:
    """Expand the Schreier generator H [Q, x_k] H^-1 into basis factors,
    where H = x_n^{a_n} ... x_k^{a_k} and Q = x_{k-1}^{a_{k-1}} ... x_1^{a_1}.

    Peeling the highest syllable of Q first keeps every conjugator a
    descending monomial in letters >= the commutator's low index:

        [A B, c] = A [B, c] A^-1 . [A, c]
        [x^a, y] = prod_{t=a-1..0} x^t [x, y] x^-t          (a > 0)
        [x^a, y] = prod_{t=a..-1}  x^t [x, y]^-1 x^-t       (a < 0)

    Unrolled, the factors come out in product order for q = 1 ... k-1,
    each with exponents d = (t, a_(q+1), ..., a_n).
    """
    out: list[tuple[TomaszewskiFactor, int]] = []
    for q in range(1, k):
        e = a[q - 1]
        if e == 0:
            continue
        sign = 1 if e > 0 else -1
        steps = range(e - 1, -1, -1) if e > 0 else range(e, 0)
        out.extend((TomaszewskiFactor(q, k, (t, *a[q:])), sign)
                   for t in steps)
    return out


def _expansion_size(w: Word) -> tuple[int, int]:
    """(factors, tokens): how many factors ``tomaszewski_factor`` emits
    for w, those that cancel included, and how many drag tokens they
    give with a whole W . BCD . W^-1 each, before any cancel: at least
    as many as ``push_factorization`` emits.

    The letter x_k^(+-1) expands into |a_q| factors for each q < k, a
    the abelianized prefix, whose conjugator exponents d are
    (t, a_(q+1), ..., a_n) for t from 0 towards a_q (a_k included); a
    factor gives 2 (n - 1) |d|_1 + 1 tokens.  a_k itself is not among
    the a_q, so for the factor count it does not matter whether the
    letter has moved it yet.  The running total |a|_1 gives
    |a_(q+1)| + ... + |a_n| as the total less |a_1| + ... + |a_q|, so
    each letter walks a_1 .. a_(k-1) once and sums nothing else."""
    n = w.rank
    a = [0] * n
    total = factors = tokens = 0
    for letter in w.letters:
        k = abs(letter)
        if letter < 0:
            total += 1 if a[k - 1] <= 0 else -1
            a[k - 1] -= 1
        above = total
        for e in a[:k - 1]:
            if e:
                size = abs(e)
                above -= size
                # the sum of |t| over the |e| factors of x_q
                t_sum = size * (size - 1 if e > 0 else size + 1) // 2
                tokens += 2 * (n - 1) * (size * above + t_sum) + size
        factors += total - above
        if letter > 0:
            total += 1 if a[k - 1] >= 0 else -1
            a[k - 1] += 1
    return factors, tokens


def _cancel_onto(out: list, tokens) -> None:
    """Append (item, +-1) tokens to out, keeping it freely reduced."""
    for token in tokens:
        if out and out[-1][1] == -token[1] and out[-1][0] == token[0]:
            out.pop()
        else:
            out.append(token)


def tomaszewski_factor(w: Word) -> Factorization:
    """Deterministic factorization in the Tomaszewski basis.

    Single scan maintaining the abelianized prefix a: a positive letter
    x_k emits the Schreier generator at (a, k) and then increments a_k;
    a negative letter decrements first and emits the inverse.  Factors
    cancel against their inverses as they are emitted.  The
    multiply-back certificate is checked before returning: the whole
    reduced product, built as in ``Factorization.multiply_back``, must
    equal w.
    """
    return _factorize(w)[0]


def _factorize(w: Word) -> tuple[Factorization, dict]:
    """``tomaszewski_factor(w)`` and the ``_conjugators`` of its factors,
    which its multiply-back check builds and ``push_factorization``
    reads again."""
    if not in_commutator_subgroup(w):
        raise PreconditionError(
            "factorization needs a commutator-subgroup word, abelianization "
            f"is {abelianization_vector(w)}")
    a = [0] * w.rank
    factors: list[tuple[TomaszewskiFactor, int]] = []
    for letter in w.letters:
        k = abs(letter)
        if letter > 0:
            _cancel_onto(factors, _expand_gamma(a, k))
            a[k - 1] += 1
        else:
            a[k - 1] -= 1
            _cancel_onto(factors, ((f, -e) for f, e
                                   in reversed(_expand_gamma(a, k))))
    result = Factorization(w, tuple(factors))
    conjugators = _conjugators(factors)
    if _product(factors, conjugators, w.rank) != w:
        raise AssertionError("factorization failed its multiply-back check")
    return result, conjugators


# --- pushes as drag words ---------------------------------------------------

def push_factorization(config: PartitionConfig, boundary: tuple[int, int],
                       w: Word) -> DragWord:
    """Write the push of boundary (r, s) around the commutator word w as
    a drag word: realize_word of the result equals push_boundary(w).

    Factor by factor, push(m c m^-1) = W o push(c) o W^-1 where W is
    the handle-drag word acting as conjugation by m on the loops while
    fixing every arc and handle (each letter x_idx^(+-1) of m gives
    HD(a, idx)^(+-1) for all a != idx), and push([y_i, y_j]) =
    BCD(r,s,i,j)^-1.  Between consecutive factors only W^-1 of the rest
    of the previous conjugator after their common prefix, then W of the
    rest of the next, is emitted: the same element of the free group on
    the tokens, whose free reduction ``_cancel_onto`` keeps; the walk
    is ``_steps``, which the multiply-back check also takes, on the
    conjugators that check built.  The prefix is taken on letters,
    since the block of x^-1 is not the token inverse of the block of x.
    """
    if w.rank != config.n:
        raise PreconditionError(
            f"push word must have rank n = {config.n}, got {w.rank}")
    fact, conjugators = _factorize(w)
    # letter -> (its handle drags, their inverse), built once per letter;
    # BCD(r, s, i, j) built once per (i, j)
    blocks: dict[int, tuple[tuple, tuple]] = {}
    pushes: dict[tuple[int, int], DragGenerator] = {}
    out: list[tuple] = []
    for drop, add, f, e in _steps(fact.factors, conjugators):
        for x in reversed(drop):
            _cancel_onto(out, blocks[x][1])
        for x in add:
            if x not in blocks:
                idx, sign = abs(x), 1 if x > 0 else -1
                block = tuple((hd(a, idx), sign)
                              for a in range(1, config.n + 1) if a != idx)
                blocks[x] = block, drag_word_inv(block)
            _cancel_onto(out, blocks[x][0])
        if f is not None:
            if (f.i, f.j) not in pushes:
                pushes[f.i, f.j] = bcd(*boundary, f.i, f.j)
            _cancel_onto(out, ((pushes[f.i, f.j], -e),))
    return tuple(out)
