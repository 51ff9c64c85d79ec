"""Exact integer-lattice algebra and the complex of rank-1 summands.

Matrices are plain lists of rows of Python ints, so all arithmetic is
arbitrary precision.  Smith normal form is computed by fraction-free
elimination pivoting on a minimal absolute value; every snf() call
verifies U A V = D and the unimodularity of U and V before returning.

Summand tests use no Smith form.  ``_spans_summand_rows``, by the
extension lemma, is the one elimination-based summand decision: it
serves ``spans_summand``, the rank check of ``drags`` and the all-unit
case of smith_invariants, so only rows that fail it go through snf().
The FS truncation asks only about pairs and triples of its own
vertices, and k vectors span a summand of rank k exactly when their
k x k minors have gcd 1.  So it builds no quotient: an edge is read off
2x2 minors (``fs_graph``) and a simplex off 3x3 minors
(``_fs_vertex_test``), each only until their gcd reaches 1.  Past the
graph, the FS code sees the vertices in one order, ``_fs_order_key``.

Ranks over Q come from one sparse fraction-free elimination.  The FS
homology adds the vertices in that order, unit vectors first, and
H_1 = 0 over Z follows with no elimination when the lower link of every
vertex is empty or connected.  Only if some lower link stays
disconnected is every triangle ranked over Q by the sparse elimination.
Common neighbours in the graph are the AND of two ints whose bits mark
neighbours.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from math import gcd
from typing import NamedTuple

Matrix = list[list[int]]
SparseRow = dict[int, int]
Vertex = tuple[int, ...]
Edge = tuple[Vertex, Vertex]
Triangle = tuple[Vertex, Vertex, Vertex]


def identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def det(a: Matrix) -> int:
    """Exact determinant (Bareiss)."""
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("determinant needs a square matrix")
    if k == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for t in range(k - 1):
        if m[t][t] == 0:
            for i in range(t + 1, k):
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[k - 1][k - 1]


def _sparse_rank(rows: Iterable[SparseRow], limit: int | None = None) -> int:
    """Rank over Q of integer rows given as {column: value}.

    Fraction-free elimination, each row divided by the gcd of its
    entries after every step.  A row is reduced on its largest column,
    the order of persistent-homology column reduction: on the FS
    boundary matrices it needs a small fraction of the row operations
    that pivoting on the smallest column does.

    With a limit that the caller knows the rank cannot exceed, no row
    is drawn once the rank reaches it, so a lazy row iterator is
    consumed only as far as needed.

    The steps scale rows, so the lattice the rows span is not kept:
    whether they span a summand is ``_spans_summand_rows``'s question.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, q = pivot[lead], row[lead]
            g = gcd(p, q) if p > 0 else -gcd(p, q)
            p, q = p // g, q // g
            if p != 1:
                row = {c: p * x for c, x in row.items()}
            for c, y in pivot.items():
                x = row.get(c, 0) - q * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
        if len(pivots) == limit:
            break
    return len(pivots)


def matrix_rank(a: Matrix) -> int:
    """Exact rank over the rationals."""
    return _sparse_rank(dict(enumerate(row)) for row in a)


class SnfResult(NamedTuple):
    U: Matrix
    D: Matrix
    V: Matrix

    def invariants(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D),
                                                len(self.D[0]) if self.D else 0))
                if self.D[i][i] != 0]


def _snf_raw(a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """(U, D, V, Vinv) with U a V = D, no verification."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = identity(rows)
    v = identity(cols)
    vinv = identity(cols)

    def row_swap(p, q):
        d[p], d[q] = d[q], d[p]
        u[p], u[q] = u[q], u[p]

    def col_swap(p, q):
        for row in d:
            row[p], row[q] = row[q], row[p]
        for row in v:
            row[p], row[q] = row[q], row[p]
        vinv[p], vinv[q] = vinv[q], vinv[p]

    def row_add(p, q, t):
        # row q += t * row p
        d[q] = [x + t * y for x, y in zip(d[q], d[p])]
        u[q] = [x + t * y for x, y in zip(u[q], u[p])]

    def col_add(p, q, t):
        # col q += t * col p
        for row in d:
            row[q] += t * row[p]
        for row in v:
            row[q] += t * row[p]
        vinv[p] = [x - t * y for x, y in zip(vinv[p], vinv[q])]

    def row_neg(p):
        d[p] = [-x for x in d[p]]
        u[p] = [-x for x in u[p]]

    t = 0
    while t < min(rows, cols):
        # first nonzero pivot of minimal absolute value in the trailing
        # block; no entry beats a unit
        best, size = None, 0
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                if row[j] and (best is None or abs(row[j]) < size):
                    best, size = (i, j), abs(row[j])
            if size == 1:
                break
        if best is None:
            break
        i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                row_add(t, i, -q)
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_add(t, j, -q)
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue
        # pivot must divide the rest of the block for the invariant
        # chain; a unit divides everything
        if abs(d[t][t]) != 1:
            offender = next(((i, j) for i in range(t + 1, rows)
                             for j in range(t + 1, cols)
                             if d[i][j] % d[t][t] != 0), None)
            if offender is not None:
                row_add(offender[0], t, 1)
                continue
        if d[t][t] < 0:
            row_neg(t)
        t += 1
    return u, d, v, vinv


def _is_diagonal_chain(d: Matrix) -> bool:
    rows = len(d)
    cols = len(d[0]) if rows else 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j] != 0:
                return False
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0:
            return False
        if b != 0 and (a == 0 or b % a != 0):
            return False
    return True


def snf(a: Matrix) -> SnfResult:
    """Smith normal form with verified transforms."""
    if a and any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged matrix")
    u, d, v, vinv = _snf_raw(a)
    if mat_mul(mat_mul(u, a), v) != d:
        raise AssertionError("snf: U A V != D")
    # an integer inverse certifies |det V| = 1
    if abs(det(u)) != 1 or mat_mul(v, vinv) != identity(len(v)):
        raise AssertionError("snf: transform not unimodular")
    if not _is_diagonal_chain(d):
        raise AssertionError("snf: bad diagonal")
    return SnfResult(u, d, v)


def smith_invariants(a: Matrix) -> list[int]:
    """The nonzero Smith invariants of the rows of a.

    Rows that span a summand of rank len(a) have invariants all 1,
    since Z^n / span is then free; ``spans_summand`` decides that by
    primitive quotients, with no Smith form.  Any other rows, the
    dependent ones included, get the verified ``snf(a).invariants()``.
    """
    if spans_summand(a):
        return [1] * len(a)
    return snf(a).invariants()


def is_primitive(v: Iterable[int]) -> bool:
    return gcd(*v) == 1


def _spans_summand_rows(rows: Iterable[SparseRow]) -> bool:
    """Whether the rows, {column: value}, span a summand of Z^n of rank
    len(rows).  The rows are copied, never changed.  This is the one
    elimination-based summand decision: ``spans_summand`` and the rank
    check of ``drags`` ask it.

    By the extension lemma: the first row must be primitive, and the
    images of the other rows in Z^n/<first row> must span a summand.
    Column Euclid on the first row leaves one entry, a unit exactly when
    the row is primitive; the same column operations on each later row,
    with that pivot column dropped, give its image in Z^(n-1).
    """
    # column operations (j, q, p), col j -= q * col p, in the order applied
    ops: list[tuple[int, int, int]] = []
    pivots: set[int] = set()
    for row in rows:
        # a copy of the row, carried into the quotient by the rows before
        head = dict(row)
        for j, q, p in ops:
            y = head.get(p)
            if y:
                head[j] = head.get(j, 0) - q * y
        head = {c: x for c, x in head.items() if x and c not in pivots}
        if gcd(*head.values()) != 1:
            return False
        while len(head) > 1:
            # column Euclid: reduce every other entry of head modulo its
            # smallest nonzero entry, until that entry is alone
            p = min((abs(x), c) for c, x in head.items())[1]
            pivot = head[p]
            for j, x in head.items():
                if j != p:
                    q = x // pivot
                    ops.append((j, q, p))
                    head[j] = x - q * pivot
            head = {j: x for j, x in head.items() if x}
        # head is now +-e_p, a basis vector, so the quotient by it drops
        # coordinate p
        pivots.update(head)
    return True


def spans_summand(vectors: list[list[int]]) -> bool:
    """True iff the span of the rows is a direct summand of Z^n of rank
    len(vectors), by primitive quotients (``_spans_summand_rows``)."""
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise ValueError("mixed lengths")
    return _spans_summand_rows(dict(enumerate(v)) for v in vectors)


def complete_basis(vectors: list[list[int]], n: int) -> Matrix:
    """Extend rows spanning a summand of Z^n to a basis of Z^n.

    The output is an n x n unimodular matrix whose first rows are the
    inputs, exactly.  From U A V = [I | 0] we get A V = [U^-1 | 0], so
    the input rows extended by the trailing rows of V^-1 have
    determinant det(U^-1) times det(V^-1), which is a unit.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = len(vectors)
    if k > n or any(len(v) != n for v in vectors):
        raise ValueError(f"need at most {n} vectors of length {n}")
    if k == 0:
        return identity(n)
    rows = [list(v) for v in vectors]
    _, d, _, vinv = _snf_raw(rows)
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("input rows do not span a summand")
    out = rows + [vinv[i][:] for i in range(k, n)]
    if abs(det(out)) != 1:
        raise AssertionError("completion is not unimodular")
    return out


# --- FS(Z^n): the complex of rank-1 summands, truncated -------------------

def fs_vertices(n: int, bound: int) -> list[tuple[int, ...]]:
    """Primitive vectors with max-norm <= bound, one per sign pair
    (first nonzero entry positive, i.e. above zero in lex), sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    zero = (0,) * n
    return [v for v in itertools.product(range(-bound, bound + 1), repeat=n)
            if v > zero and is_primitive(v)]


def fs_is_simplex(vertices: list[tuple[int, ...]]) -> bool:
    """A vertex family spans a simplex iff the vectors are distinct and
    their span is a summand of full rank.  Order-insensitive."""
    if len(set(vertices)) != len(vertices):
        return False
    return spans_summand([list(v) for v in vertices])


def _fs_minors(u: Vertex, size: int) -> list[tuple[int, ...]]:
    """The columns of the size x size minors that decide whether u and
    size - 1 further vectors span a summand: their gcd is 1 exactly when
    that of all the minors is.

    A minor vanishes on columns where u is all zero.  If u has an entry
    +-1 in column p, row operations by u clear column p of the other
    rows, so the minors through p are +-1 times those of their images in
    Z^n/<u>, which decide by the extension lemma; no other is read.
    """
    units = [p for p, x in enumerate(u) if x in (1, -1)]
    return [cols for cols in itertools.combinations(range(len(u)), size)
            if (units[0] in cols if units else any(u[c] for c in cols))]


def fs_graph(n: int, bound: int) -> tuple[list[Vertex], list[Edge]]:
    """Vertices and edges (u, v), u < v, in lexicographic order.

    {u, v} spans a summand of rank 2 exactly when its 2x2 minors have
    gcd 1.  For each u, the minors ``_fs_minors`` names are read with
    each later vertex v only until their gcd reaches 1.
    """
    verts = fs_vertices(n, bound)
    edges = []
    for i, u in enumerate(verts):
        terms = [(p, q, u[p], u[q]) for p, q in _fs_minors(u, 2)]
        for v in verts[i + 1:]:
            g = 0
            for p, q, a, b in terms:
                g = gcd(g, a * v[q] - b * v[p])
                if g == 1:
                    edges.append((u, v))
                    break
    return verts, edges


def fs_edges(n: int, bound: int) -> list[Edge]:
    return fs_graph(n, bound)[1]


def _root(parent: list[int], x: int) -> int:
    """The root of x in a union-find forest, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def fs_components(verts: list[Vertex], edges: list[Edge]) -> int:
    """Number of connected components of the graph."""
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))
    for u, v in edges:
        ru, rv = _root(parent, index[u]), _root(parent, index[v])
        if ru != rv:
            parent[ru] = rv
    return sum(parent[i] == i for i in range(len(verts)))


def fs_connected(n: int, bound: int) -> bool:
    return fs_components(*fs_graph(n, bound)) == 1


def _fs_order_key(v: Vertex) -> tuple[int, int, Vertex]:
    """Max-norm, then l1 norm, then lex: the unit vectors come first."""
    return max(map(abs, v)), sum(map(abs, v)), v


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _FsIndex(NamedTuple):
    """The vertices in ``_fs_order_key`` order, and as the bits of one
    int per vertex its lower neighbours.  The edge (j, k), j < k, has the
    index j * len(order) + k, the lexicographic order of positions."""
    order: list[Vertex]
    below: list[int]


def _fs_index(verts: Iterable[Vertex], edges: list[Edge]) -> _FsIndex:
    order = sorted(verts, key=_fs_order_key)
    index = {v: i for i, v in enumerate(order)}
    below = [0] * len(order)
    for u, v in edges:
        j, k = index[u], index[v]
        if j > k:
            j, k = k, j
        below[k] |= 1 << j
    return _FsIndex(order, below)


def _fs_vertex_test(order: list[Vertex],
                    k: int) -> Callable[[int, int], bool]:
    """The simplex test of (order[k], order[j], order[i]).

    The triple spans a summand of rank 3 exactly when its 3x3 minors
    have gcd 1.  The minors ``_fs_minors`` names for order[k] are
    expanded along it and read only until their gcd reaches 1.  A
    vertex that is not primitive divides every minor, so it is in no
    simplex.
    """
    u = order[k]
    terms = [(p, q, r, u[p], u[q], u[r]) for p, q, r in _fs_minors(u, 3)]

    def test(j: int, i: int) -> bool:
        v, w = order[j], order[i]
        g = 0
        for p, q, r, a, b, c in terms:
            g = gcd(g, a * (v[q] * w[r] - v[r] * w[q])
                    - b * (v[p] * w[r] - v[r] * w[p])
                    + c * (v[p] * w[q] - v[q] * w[p]))
            if g == 1:
                return True
        return False
    return test


def _fs_simplices(fs: _FsIndex) -> Iterator[tuple[int, int, int]]:
    """Every 2-simplex as positions (i, j, k), i < j < k, ordered by k,
    then j, then i: the common lower neighbours i of each edge (j, k)
    are tested by ``_fs_vertex_test`` for k, each candidate once."""
    below = fs.below
    for k, lower in enumerate(below):
        test = _fs_vertex_test(fs.order, k)
        for j in _bits(lower):
            for i in _bits(below[j] & lower):
                if test(j, i):
                    yield i, j, k


def fs_triangles(edges: list[Edge]) -> list[Triangle]:
    """The 2-simplices (u, v, w), u < v < w, in lexicographic order.

    Every 2-simplex is a triangle of the graph, so only the common lower
    neighbours of each edge are tested (``_fs_simplices``).  Each vertex
    keeps its lower neighbours as the bits of one int, so an edge's
    common lower neighbours are the AND of two ints.  The simplices come
    in ``_fs_order_key`` order, so each is sorted, and then the list.
    """
    fs = _fs_index({x for edge in edges for x in edge}, edges)
    order = fs.order
    return sorted(tuple(sorted((order[i], order[j], order[k])))
                  for i, j, k in _fs_simplices(fs))


def _fs_links_connected(fs: _FsIndex) -> bool:
    """Whether the lower link of every vertex is empty or connected.

    The lower link of vertex k has its lower neighbours as vertices, and
    (i, j) as an edge when (i, j, k) is a simplex.  A union-find over it
    grows one link vertex j at a time, lowest first: j tests its common
    lower neighbours i lowest first, up to the first simplex, and
    attaches there.  Then, only while the link so far has more than one
    component, j tests the rest whose root is not its own, and joins
    each simplex.  It stops at the first link left disconnected.
    """
    order, below = fs.order, fs.below
    for k, lower in enumerate(below):
        test = _fs_vertex_test(order, k)
        parent = list(range(lower.bit_length()))
        parts = 0
        # the bit loops are written out: with ``_bits`` this pass takes
        # about 15% longer on the benchmark's inputs
        rest = lower
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            common = below[j] & lower
            while common:
                bit = common & -common
                common ^= bit
                i = bit.bit_length() - 1
                if test(j, i):
                    parent[j] = i
                    break
            else:
                parts += 1  # no simplex below j: a new component
                continue
            # the search above looks up no root; one per candidate costs 9-20%
            if parts > 1:
                rj = _root(parent, j)
                for i in _bits(common):
                    ri = _root(parent, i)
                    if ri != rj and test(j, i):
                        parent[ri] = rj
                        parts -= 1
                        if parts == 1:
                            break
        if parts > 1:
            return False
    return True


def fs_h1(verts: list[Vertex], edges: list[Edge]) -> int:
    """Rank over Q of H_1 of the 2-skeleton on these vertices and edges.

    The vertices are added in ``_fs_order_key`` order, and X_k is the
    complex on the first k + 1 of them.  The lower link L_k of vertex k
    has its lower neighbours as vertices, and (i, j) as an edge when
    (i, j, k) is a simplex.  Then X_k = X_(k-1) u (v_k * L_k), glued
    along L_k, and by Mayer-Vietoris H_1(X_k; Z) is a quotient of
    H_1(X_(k-1); Z) when L_k is empty or connected.  So if every lower
    link is empty or connected, which ``_fs_links_connected`` decides
    with one union-find per link, grown as its vertices are added, then
    H_1(X; Z) = 0 with no elimination and no component count.

    Otherwise H_1 may be positive, as at n = 2 and in subcomplexes, or
    be torsion only, as for the 6-vertex RP^2.  Then every triangle is
    ranked exactly over Q by ``_sparse_rank``, which stops at dim ker
    d1 = |E| - |V| + #components, since rank d2 cannot exceed it; only
    this fallback counts the components (``fs_components``).  The edges
    are ordered lexicographically as positions in the vertex order, so
    a triangle i < j < k has largest edge (j, k).
    """
    fs = _fs_index(verts, edges)
    if _fs_links_connected(fs):
        return 0
    # dim ker d1: the graph's incidence matrix has rank |V| - #components
    cycles = len(edges) - len(verts) + fs_components(verts, edges)
    size = len(fs.order)
    d2 = ({j * size + k: 1, i * size + k: -1, i * size + j: 1}
          for i, j, k in _fs_simplices(fs))
    return cycles - _sparse_rank(d2, limit=cycles)


def fs_h1_rank(n: int, bound: int) -> int:
    """Rank of H_1 of the truncated 2-skeleton.

    This is a truncation statistic: evidence about the full complex,
    not a proof.
    """
    return fs_h1(*fs_graph(n, bound))


def fs_dot(verts: list[Vertex], edges: list[Edge]) -> str:
    """The 1-skeleton in DOT format."""
    lines = ["graph fs {"]
    for v in verts:
        label = ",".join(str(x) for x in v)
        lines.append(f'  "{label}";')
    for u, v in edges:
        lu = ",".join(str(x) for x in u)
        lv = ",".join(str(x) for x in v)
        lines.append(f'  "{lu}" -- "{lv}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
