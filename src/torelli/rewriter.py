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

from .config import PartitionConfig
from .drags import DragWord, bcd, drag_word_inv, hd
from .words import (
    ParseError,
    PreconditionError,
    Word,
    abelianization_vector,
    comm,
    conj,
    gen,
    inv,
    mul,
    reduce,
)


@dataclass(frozen=True)
class TomaszewskiFactor:
    """i < j plus the conjugator exponents d = (d_i, ..., d_n)."""

    i: int
    j: int
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise ValueError("need 1 <= i < j")
        if self.j > self.rank:
            raise ValueError("j exceeds the rank implied by d")

    @property
    def rank(self) -> int:
        return self.i + len(self.d) - 1

    def text(self) -> str:
        return f"T:{self.i},{self.j}:[{','.join(str(x) for x in self.d)}]"


def parse_factor(text: str) -> TomaszewskiFactor:
    head, sep, tail = text.partition(":[")
    if not sep or not tail.endswith("]") or not head.startswith("T:"):
        raise ParseError(f"cannot read factor {text!r}")
    try:
        i, j = (int(x) for x in head[2:].split(","))
        d = tuple(int(x) for x in tail[:-1].split(","))
    except ValueError:
        raise ParseError(f"cannot read factor {text!r}") from None
    return TomaszewskiFactor(i, j, d)


def factor_word(f: TomaszewskiFactor) -> Word:
    """The conjugated commutator m [x_i, x_j] m^-1, reduced."""
    n = f.rank
    letters: list[int] = []
    for idx in range(n, f.i - 1, -1):
        e = f.d[idx - f.i]
        letters.extend([idx if e > 0 else -idx] * abs(e))
    m = Word(n, tuple(letters))
    return conj(m, comm(gen(n, f.i), gen(n, f.j)))


@dataclass(frozen=True)
class Factorization:
    word: Word
    factors: tuple[tuple[TomaszewskiFactor, int], ...]

    def multiply_back(self) -> Word:
        out = Word(self.word.rank)
        for f, e in self.factors:
            w = factor_word(f)
            out = mul(out, w if e == 1 else inv(w))
        return out


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
    """
    n = len(a)
    blocks: list[list[tuple[TomaszewskiFactor, int]]] = []
    for q in range(k - 1, 0, -1):
        e = a[q - 1]
        if e == 0:
            continue
        steps = range(e - 1, -1, -1) if e > 0 else range(e, 0)
        sign = 1 if e > 0 else -1
        block = []
        for t in steps:
            # conjugator: full syllables above q (those were peeled off
            # first), then x_q^t
            d = [0] * (n - q + 1)
            d[0] = t
            for idx in range(q + 1, n + 1):
                d[idx - q] = a[idx - 1]
            block.append((TomaszewskiFactor(q, k, tuple(d)), sign))
        blocks.append(block)
    out: list[tuple[TomaszewskiFactor, int]] = []
    for block in reversed(blocks):
        out.extend(block)
    return out


def tomaszewski_factor(w: Word) -> Factorization:
    """Deterministic factorization in the Tomaszewski basis.

    Single scan maintaining the abelianized prefix a: a positive letter
    x_k emits the Schreier generator at (a, k) and then increments a_k;
    a negative letter decrements first and emits the inverse.  Adjacent
    mutually inverse factors are cancelled afterwards.  The multiply-back
    certificate is checked before returning.
    """
    if not in_commutator_subgroup(w):
        raise PreconditionError(
            "factorization needs a commutator-subgroup word, abelianization "
            f"is {abelianization_vector(w)}")
    n = w.rank
    a = [0] * n
    raw: list[tuple[TomaszewskiFactor, int]] = []
    for letter in w.letters:
        k = abs(letter)
        if letter > 0:
            raw.extend(_expand_gamma(a, k))
            a[k - 1] += 1
        else:
            a[k - 1] -= 1
            raw.extend((f, -e) for f, e in reversed(_expand_gamma(a, k)))
    factors: list[tuple[TomaszewskiFactor, int]] = []
    for f, e in raw:
        if factors and factors[-1] == (f, -e):
            factors.pop()
        else:
            factors.append((f, e))
    result = Factorization(w, tuple(factors))
    if result.multiply_back() != w:
        raise AssertionError("factorization failed its multiply-back check")
    return result


# --- pushes as drag words ---------------------------------------------------

def push_factorization(config: PartitionConfig, boundary: tuple[int, int],
                       w: Word) -> DragWord:
    """Write the push of boundary (r, s) around the commutator word w as
    a drag word: realize_word of the result equals push_boundary(w).

    Factor by factor, push(m c m^-1) = W o push(c) o W^-1 where W is
    the handle-drag word acting as conjugation by m on the loops while
    fixing every arc and handle, and push([y_i, y_j]) = BCD(r,s,i,j)^-1.
    The word is freely reduced: each token that meets its inverse at
    the end of the word so far cancels against it.
    """
    if w.rank != config.n:
        raise PreconditionError(
            f"push word must have rank n = {config.n}, got {w.rank}")
    r, s = boundary
    fact = tomaszewski_factor(w)
    out: list[tuple] = []
    for f, e in fact.factors:
        conjugator: list[tuple] = []
        for idx in range(config.n, f.i - 1, -1):
            exp = f.d[idx - f.i]
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                conjugator.extend((hd(a, idx), sign)
                                  for a in range(1, config.n + 1) if a != idx)
        block = (*conjugator, (bcd(r, s, f.i, f.j), -e),
                 *drag_word_inv(tuple(conjugator)))
        for g, sign in block:
            if out and out[-1][1] == -sign and out[-1][0] == g:
                out.pop()
            else:
                out.append((g, sign))
    return tuple(out)
