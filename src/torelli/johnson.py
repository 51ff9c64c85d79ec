"""Degree-2 Magnus projection rho and the Johnson homomorphism tau.

rho sends an element of the commutator subgroup [F_m, F_m] to its class
in wedge^2 Z^m, read off from the degree-2 coefficients of the Magnus
expansion (x |-> 1 + X, x^-1 |-> 1 - X + X^2 - ...).  tau sends a
homology-trivial endomorphism f to the table of columns
rho(f(x_i) x_i^-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    GroupMap,
    PreconditionError,
    Word,
    abelianization_vector,
    gen,
    inv,
    is_homology_trivial,
    mul,
)


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


def zero_ext(rank: int) -> ExtVector:
    return ExtVector(rank)


def wedge(rank: int, i: int, j: int, c: int = 1) -> ExtVector:
    """c * e_i ^ e_j."""
    return ext_vector(rank, {(i, j): c})


def ext_add(a: ExtVector, b: ExtVector) -> ExtVector:
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    table = {(i, j): c for i, j, c in a.coeffs}
    for i, j, c in b.coeffs:
        table[(i, j)] = table.get((i, j), 0) + c
    return ext_vector(a.rank, table)


def ext_neg(a: ExtVector) -> ExtVector:
    return ExtVector(a.rank, tuple((i, j, -c) for i, j, c in a.coeffs))


def ext_scale(a: ExtVector, k: int) -> ExtVector:
    if k == 0:
        return zero_ext(a.rank)
    return ExtVector(a.rank, tuple((i, j, k * c) for i, j, c in a.coeffs))


def rho(w: Word) -> ExtVector:
    """Projection [F_m, F_m] -> wedge^2 Z^m.

    Single left-to-right scan: the (i, j) coefficient (i < j) is
    sum over positions s < t of eps_s eps_t [idx_s = i][idx_t = j],
    which is exactly the X_i X_j Magnus coefficient.  The degree-2
    self-term of x^-1 never lands on an i < j monomial and is dropped.
    """
    if any(abelianization_vector(w)):
        raise PreconditionError(
            "rho needs a word with zero abelianization, got "
            f"{abelianization_vector(w)}")
    prefix = [0] * (w.rank + 1)
    table: dict[tuple[int, int], int] = {}
    for letter in w.letters:
        k = abs(letter)
        eps = 1 if letter > 0 else -1
        for i in range(1, k):
            if prefix[i]:
                key = (i, k)
                table[key] = table.get(key, 0) + prefix[i] * eps
        prefix[k] += eps
    return ext_vector(w.rank, table)


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


def hom_table(columns: list[ExtVector]) -> HomTable:
    if not columns:
        raise ValueError("empty column list")
    return HomTable(columns[0].rank, tuple(columns))


def zero_table(rank: int) -> HomTable:
    return HomTable(rank, tuple(zero_ext(rank) for _ in range(rank)))


def table_from_entries(rank: int,
                       entries: dict[int, dict[tuple[int, int], int]]) -> HomTable:
    """Columns given as {column index: {(i, j): c}} with 1-based columns."""
    cols = [ext_vector(rank, entries.get(i, {})) for i in range(1, rank + 1)]
    return HomTable(rank, tuple(cols))


def table_add(a: HomTable, b: HomTable) -> HomTable:
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return HomTable(a.rank, tuple(ext_add(x, y)
                                  for x, y in zip(a.columns, b.columns)))


def table_neg(a: HomTable) -> HomTable:
    return HomTable(a.rank, tuple(ext_neg(col) for col in a.columns))


def tau(f: GroupMap) -> HomTable:
    """Johnson homomorphism: column i = rho(f(x_i) x_i^-1)."""
    if not is_homology_trivial(f):
        raise PreconditionError("tau needs a homology-trivial map")
    m = f.rank
    cols = [rho(mul(f.images[i - 1], inv(gen(m, i))))
            for i in range(1, m + 1)]
    return HomTable(m, tuple(cols))


def _pairs(rank: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]


def flatten(t: HomTable) -> tuple[int, ...]:
    """Fixed coordinate layout: column-major, (i, j) lexicographic inside
    each column; length rank * rank * (rank - 1) / 2."""
    pairs = _pairs(t.rank)
    out: list[int] = []
    for col in t.columns:
        lookup = {(i, j): c for i, j, c in col.coeffs}
        out.extend(lookup.get(p, 0) for p in pairs)
    return tuple(out)
