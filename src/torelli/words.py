"""Reduced words and endomorphisms of finitely generated free groups.

A letter is a nonzero integer: ``+k`` stands for the generator x_k and
``-k`` for its inverse.  Words are always kept freely reduced.

Conventions used throughout the package:

* conjugation is ``conj(g, w) = g w g^-1`` (so ``w^g`` means g w g^-1),
* ``comm(u, v) = u v u^-1 v^-1``,
* ``compose(f, g)`` applies ``g`` first, i.e. (f o g)(x) = f(g(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class ParseError(ValueError):
    """Malformed text input; the message points at the offending token."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        prev = 0
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(
                    f"letter {letter} out of range for rank {self.rank}")
            if letter == -prev:
                raise ValueError("word is not freely reduced")
            prev = letter

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {word_text(self)!r})"

    def is_identity(self) -> bool:
        return not self.letters


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return Word(rank, tuple(out))


def gen(rank: int, i: int) -> Word:
    """The single-letter word x_i."""
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range for rank {rank}")
    return Word(rank, (i,))


def _check_ranks(u: Word, v: Word) -> None:
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} vs {v.rank}")


def mul(u: Word, v: Word) -> Word:
    _check_ranks(u, v)
    return Word(u.rank, tuple(_join(list(u.letters), (v.letters,))))


def inv(u: Word) -> Word:
    return Word(u.rank, tuple(-letter for letter in reversed(u.letters)))


def conj(g: Word, w: Word) -> Word:
    """g w g^-1, the convention forced by the handle-drag identity."""
    _check_ranks(g, w)
    return reduce(g.letters + w.letters + inv(g).letters, g.rank)


def comm(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    _check_ranks(u, v)
    return reduce(u.letters + v.letters + inv(u).letters + inv(v).letters,
                  u.rank)


def power(u: Word, k: int) -> Word:
    """u^k, freely reduced in one pass over k copies of the letters."""
    return reduce((u if k >= 0 else inv(u)).letters * abs(k), u.rank)


# --- text format ----------------------------------------------------------
#
# Whitespace-separated tokens `x<k>` / `x<k>^-1`; the empty word is `e`.

def _read_index(text: str) -> int | None:
    """The index ``text`` spells in ASCII digits with no leading zero,
    else None.  Words, drag words and boundaries read their indices
    here: ``int`` alone would also take other Unicode digits, a sign,
    ``_`` and blanks."""
    if text == "0" or text.isascii() and text.isdigit() and text[0] != "0":
        return int(text)
    return None


def parse_word(text: str, rank: int) -> Word:
    """The reduced word that ``text`` spells at the given rank.

    Each distinct token is read once per call; a token that cannot be
    read raises a ``ParseError`` naming its first position, before it
    is ever stored."""
    # the rank is checked before any token, so a bad rank is one domain
    # error whatever the text is
    if rank < 1:
        raise PreconditionError(f"rank must be >= 1, got {rank}")
    tokens = text.split()
    if not tokens:
        raise ParseError("empty input; the identity is written 'e'")
    if tokens == ["e"]:
        return Word(rank)
    read: dict[str, int] = {}
    letters: list[int] = []
    for pos, token in enumerate(tokens, start=1):
        letter = read.get(token)
        if letter is None:
            body, negative = token, False
            if token.endswith("^-1"):
                body, negative = token[:-3], True
            k = _read_index(body[1:]) if body.startswith("x") else None
            if k is None:
                raise ParseError(f"token {pos}: cannot read {token!r}")
            if not 1 <= k <= rank:
                raise ParseError(
                    f"token {pos}: index {k} out of range for rank {rank}")
            letter = read[token] = -k if negative else k
        letters.append(letter)
    return reduce(letters, rank)


def word_text(w: Word) -> str:
    if not w.letters:
        return "e"
    return " ".join(f"x{letter}" if letter > 0 else f"x{-letter}^-1"
                    for letter in w.letters)


# --- endomorphisms --------------------------------------------------------

@dataclass(frozen=True)
class GroupMap:
    """Endomorphism of F_rank given by generator images.

    ``inverse_images``, when present, is a certificate that the map is an
    automorphism: substituting one family into the other must return the
    generators (see verify_certificate).
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("need exactly one image per generator")
        for w in self.images:
            if w.rank != self.rank:
                raise ValueError("image rank mismatch")
        if self.inverse_images is not None:
            if len(self.inverse_images) != self.rank:
                raise ValueError("need exactly one inverse image per generator")
            for w in self.inverse_images:
                if w.rank != self.rank:
                    raise ValueError("inverse image rank mismatch")


def identity_map(rank: int) -> GroupMap:
    gens = tuple(gen(rank, i) for i in range(1, rank + 1))
    return GroupMap(rank, gens, gens)


class _Unmoved(dict):
    """An image table by signed letter: ``table[k]`` is the image of x_k
    and ``table[-k]`` that of x_k^-1, each a reduced letter sequence.
    A letter it does not hold maps to itself, unless it holds the
    inverse letter: then the letter's image is that one's inverse,
    built when it is first read and kept.  So a caller that rewrites
    the image of x_k marks that of x_k^-1 stale by deleting it."""

    def __missing__(self, letter: int) -> list[int]:
        inverse = self.get(-letter)
        image = self[letter] = ([letter] if inverse is None
                                else [-x for x in reversed(inverse)])
        return image


def _join(out: list[int], pieces) -> list[int]:
    """Extend the reduced letters ``out`` in place by each of the
    reduced letter sequences ``pieces`` in turn; returns ``out``.

    Letters cancel only where ``out`` meets the next piece, letter by
    letter as far as the tail of ``out`` is the inverse of the head of
    the piece.  This is the package's one junction scan.
    """
    for piece in pieces:
        if out and piece and out[-1] == -piece[0]:
            limit, k = min(len(out), len(piece)), 1
            while k < limit and out[~k] == -piece[k]:
                k += 1
            del out[-k:]
            out += piece[k:]
        else:
            out += piece
    return out


def _substitute(letters, table) -> list[int]:
    """The reduced image of the reduced letters under ``table`` (an
    ``_Unmoved``): every image is reduced, so ``_join`` of the images
    of the letters in turn is reduced."""
    return _join([], map(table.__getitem__, letters))


def apply(f: GroupMap, w: Word) -> Word:
    if f.rank != w.rank:
        raise ValueError(f"rank mismatch: map {f.rank} vs word {w.rank}")
    table = _Unmoved(_image_dict(f.images))
    return Word(f.rank, tuple(_substitute(w.letters, table)))


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """(f o g): g acts first.  Inverse certificates compose the other way."""
    if f.rank != g.rank:
        raise ValueError(f"rank mismatch: {f.rank} vs {g.rank}")
    table = _Unmoved(_image_dict(f.images))
    images = tuple(Word(f.rank, tuple(_substitute(w.letters, table)))
                   for w in g.images)
    inverse_images = None
    if f.inverse_images is not None and g.inverse_images is not None:
        table = _Unmoved(_image_dict(g.inverse_images))
        inverse_images = tuple(
            Word(f.rank, tuple(_substitute(w.letters, table)))
            for w in f.inverse_images)
    return GroupMap(f.rank, images, inverse_images)


def inverse(f: GroupMap) -> GroupMap:
    if f.inverse_images is None:
        raise PreconditionError("map carries no inverse certificate")
    return GroupMap(f.rank, f.inverse_images, f.images)


def same_map(f: GroupMap, g: GroupMap) -> bool:
    return f.rank == g.rank and f.images == g.images


def verify_certificate(f: GroupMap) -> bool:
    """Check the automorphism certificate by composing both ways."""
    return f.inverse_images is not None and _certified(
        _image_dict(f.images), _image_dict(f.inverse_images))


def _image_dict(images: Iterable[Word]) -> dict[int, tuple[int, ...]]:
    """A map's images as {k: letters of the image of x_k}."""
    return {k: w.letters for k, w in enumerate(images, 1)}


def _certified(images: dict, inverse_images: dict) -> bool:
    """``verify_certificate`` on {k: letters} images that may list only
    the generators each map moves: both maps fix every generator
    neither lists, so only the listed ones are substituted."""
    keys = images.keys() | inverse_images.keys()
    for family, other in ((inverse_images, images), (images, inverse_images)):
        table = _Unmoved(other)
        if any(_substitute(family.get(k, [k]), table) != [k] for k in keys):
            return False
    return True


def inner_automorphism(rank: int, g: Word) -> GroupMap:
    """w |-> g w g^-1, with its certificate."""
    if g.rank != rank:
        raise ValueError("rank mismatch")
    images = tuple(conj(g, gen(rank, i)) for i in range(1, rank + 1))
    ginv = inv(g)
    inverse_images = tuple(conj(ginv, gen(rank, i)) for i in range(1, rank + 1))
    return GroupMap(rank, images, inverse_images)


# --- homology -------------------------------------------------------------

def abelianization_vector(w: Word) -> tuple[int, ...]:
    out = [0] * w.rank
    for letter in w.letters:
        out[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(out)


def abelianization_matrix(f: GroupMap) -> list[list[int]]:
    """Row i, column j = exponent sum of x_{i+1} in f(x_{j+1})."""
    cols = [abelianization_vector(w) for w in f.images]
    return [[cols[j][i] for j in range(f.rank)] for i in range(f.rank)]


def is_homology_trivial(f: GroupMap) -> bool:
    return _homology_trivial(_image_dict(f.images))


def _homology_trivial(images: dict) -> bool:
    """``is_homology_trivial`` on {k: letters} images that may list only
    the moved generators: each listed image has the exponent sums of
    its generator."""
    for k, letters in images.items():
        sums: dict[int, int] = {}
        for x in letters:
            sums[abs(x)] = sums.get(abs(x), 0) + (1 if x > 0 else -1)
        if {a: c for a, c in sums.items() if c} != {k: 1}:
            return False
    return True


def nielsen_generators(n: int) -> list[GroupMap]:
    """Transvection, inversion, cycle and swap; their homology images
    generate GL_n(Z).  For n = 1 only the inversion exists."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    x = [gen(n, i) for i in range(1, n + 1)]
    inversion = GroupMap(
        n,
        (inv(x[0]),) + tuple(x[1:]),
        (inv(x[0]),) + tuple(x[1:]),
    )
    if n == 1:
        return [inversion]
    transvection = GroupMap(
        n,
        (mul(x[0], x[1]),) + tuple(x[1:]),
        (mul(x[0], inv(x[1])),) + tuple(x[1:]),
    )
    cycle = GroupMap(
        n,
        tuple(x[1:]) + (x[0],),
        (x[-1],) + tuple(x[:-1]),
    )
    swap = GroupMap(
        n,
        (x[1], x[0]) + tuple(x[2:]),
        (x[1], x[0]) + tuple(x[2:]),
    )
    return [transvection, inversion, cycle, swap]
