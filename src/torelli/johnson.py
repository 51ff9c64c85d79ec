"""Degree-2 Magnus projection rho and the Johnson homomorphism tau.

rho sends an element of the commutator subgroup [F_m, F_m] to its class
in wedge^2 Z^m, read off from the degree-2 coefficients of the Magnus
expansion (x |-> 1 + X, x^-1 |-> 1 - X + X^2 - ...).  tau sends a
homology-trivial endomorphism f to the table of columns
rho(f(x_i) x_i^-1).  Both run one letter kernel, which needs no reduced
word: the Magnus coefficients are those of the group element.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .words import (
    GroupMap,
    PreconditionError,
    Word,
    _image_dict,
    abelianization_vector,
    is_homology_trivial,
)


# the nonzero {(i, j): c}, i < j, of an element of wedge^2 Z^rank
Entries = dict[tuple[int, int], int]


@dataclass(frozen=True)
class ExtVector:
    """Element of wedge^2 Z^rank; coeffs holds (i, j, c) with i < j,
    lexicographically sorted, zero entries omitted."""

    rank: int
    coeffs: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = (0, 0)
        for i, j, c in self.coeffs:
            if not (1 <= i < j <= self.rank):
                raise ValueError(f"bad index pair ({i}, {j}) at rank {self.rank}")
            if c == 0:
                raise ValueError("zero coefficients must be omitted")
            if (i, j) <= prev:
                raise ValueError("coefficients must be sorted by (i, j)")
            prev = (i, j)

    def coefficient(self, i: int, j: int) -> int:
        """Signed lookup: coefficient(j, i) = -coefficient(i, j)."""
        if i == j:
            return 0
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for a, b, c in self.coeffs:
            if (a, b) == (i, j):
                return sign * c
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_json(self) -> dict:
        return {"rank": self.rank, "coeffs": [list(t) for t in self.coeffs]}


def ext_vector(rank: int, entries: dict[tuple[int, int], int]) -> ExtVector:
    """Build an ExtVector from an {(i, j): c} table, any index order."""
    table: dict[tuple[int, int], int] = {}
    for (i, j), c in entries.items():
        if i == j:
            continue
        if i > j:
            i, j, c = j, i, -c
        table[(i, j)] = table.get((i, j), 0) + c
    coeffs = tuple((i, j, c) for (i, j), c in sorted(table.items()) if c != 0)
    return ExtVector(rank, coeffs)


def wedge(rank: int, i: int, j: int, c: int = 1) -> ExtVector:
    """c * e_i ^ e_j."""
    return ext_vector(rank, {(i, j): c})


def _wedge(i: int, j: int, c: int = 1) -> Entries:
    """The entries of ``wedge`` for i != j and c != 0."""
    return {(i, j): c} if i < j else {(j, i): -c}


def _rho_letters(rank: int, letters: Iterable[int]) -> Entries:
    """rho of a letter sequence whose exponent sums are all zero, as
    its nonzero {(i, j): c} entries, i < j.

    Single left-to-right scan: the (i, j) coefficient (i < j) is
    sum over positions s < t of eps_s eps_t [idx_s = i][idx_t = j],
    which is exactly the X_i X_j Magnus coefficient.  The degree-2
    self-term of x^-1 never lands on an i < j monomial and is dropped.
    A cancelling pair x^e x^-e adds eps and -eps against every other
    letter, so the letters need not be freely reduced.
    """
    prefix = [0] * (rank + 1)
    table: Entries = {}
    for letter in letters:
        k = abs(letter)
        eps = 1 if letter > 0 else -1
        for i in range(1, k):
            if prefix[i]:
                key = (i, k)
                table[key] = table.get(key, 0) + prefix[i] * eps
        prefix[k] += eps
    return {key: c for key, c in table.items() if c}


def rho(w: Word) -> ExtVector:
    """Projection [F_m, F_m] -> wedge^2 Z^m; the word must have zero
    abelianization."""
    if any(abelianization_vector(w)):
        raise PreconditionError(
            "rho needs a word with zero abelianization, got "
            f"{abelianization_vector(w)}")
    return ext_vector(w.rank, _rho_letters(w.rank, w.letters))


@dataclass(frozen=True)
class HomTable:
    """An element of Hom(Z^rank, wedge^2 Z^rank), one column per generator."""

    rank: int
    columns: tuple[ExtVector, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.rank:
            raise ValueError("need exactly rank columns")
        for col in self.columns:
            if col.rank != self.rank:
                raise ValueError("column rank mismatch")

    def is_zero(self) -> bool:
        return all(col.is_zero() for col in self.columns)

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "columns": [[list(t) for t in col.coeffs]
                            for col in self.columns]}


def _hom_table(rank: int, columns: dict[int, Entries]) -> HomTable:
    """The table with these {1-based index: entries} columns, absent
    ones zero."""
    return HomTable(rank, tuple(ext_vector(rank, columns.get(i, {}))
                                for i in range(1, rank + 1)))


def tau(f: GroupMap) -> HomTable:
    """Johnson homomorphism: column i = rho(f(x_i) x_i^-1).

    Homology triviality, checked first, gives every column word zero
    abelianization; ``_tau_columns`` then reads the images."""
    if not is_homology_trivial(f):
        raise PreconditionError("tau needs a homology-trivial map")
    return _hom_table(f.rank, _tau_columns(f.rank, _image_dict(f.images)))


def _tau_columns(rank: int, images: dict) -> dict[int, Entries]:
    """The nonzero columns of ``tau``, as ``_rho_letters`` entries, of
    a map the caller knows to be homology-trivial, from {k: letters}
    images that may list only the moved generators: a fixed
    generator's column is zero.  Each column
    runs the letter kernel of ``rho`` on the letters of f(x_k) followed
    by x_k^-1, with no product word built: rho does not see free
    reduction."""
    columns = ((k, _rho_letters(rank, (*x, -k))) for k, x in images.items())
    return {k: col for k, col in columns if col}


def _flat_entries(rank: int, columns: dict[int, Entries]) -> dict[int, int]:
    """The nonzero entries of ``flatten`` of the table with these
    {1-based index: entries} columns, absent ones zero, as
    {coordinate: value}."""
    width = rank * (rank - 1) // 2
    entries: dict[int, int] = {}
    for col, table in columns.items():
        for (i, j), c in table.items():
            # (i, j) is preceded by the pairs (a, b), a < i, and (i, b), b < j
            entries[(col - 1) * width + (i - 1) * rank - (i - 1) * i // 2
                    + j - i - 1] = c
    return entries


def flatten(t: HomTable) -> tuple[int, ...]:
    """Fixed coordinate layout: column-major, (i, j) lexicographic inside
    each column; length rank * rank * (rank - 1) / 2."""
    out = [0] * (t.rank * t.rank * (t.rank - 1) // 2)
    entries = _flat_entries(t.rank, {
        k: {(i, j): c for i, j, c in col.coeffs}
        for k, col in enumerate(t.columns, 1)})
    for c, x in entries.items():
        out[c] = x
    return tuple(out)
