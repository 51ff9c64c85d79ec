"""Exact integer-lattice algebra and the complex of rank-1 summands.

Matrices are plain lists of rows of Python ints, so all arithmetic is
arbitrary precision.  Smith normal form is computed by fraction-free
elimination pivoting on a minimal absolute value; every snf() call
verifies U A V = D and the unimodularity of U and V before returning.

Summand tests use no Smith form.  By the extension lemma, rows
v_1..v_k span a direct summand of Z^n exactly when v_1 is primitive and
the images of v_2..v_k span a summand of Z^n/<v_1>, which is Z^(n-1)
once column operations have turned v_1 into a unit vector.  The same
test decides the all-unit case of smith_invariants: k rows span a
summand of rank k exactly when their k invariants are all 1, and only
rows that fail it go through snf().

The elimination keeps its column operations and the columns it leaves
(``_summand_quotient``), which give coordinates on the quotient
Z^n/<rows>.  A quotient is built once and then tests any number of
further vectors w, each by the primitivity of its image there, which
is the lemma's next step.  The FS truncation builds Z^n/<u> once per
vertex u, both to find its edges and to find its triangles: (u, v, w)
is a simplex exactly when the images of v and w there have 2x2 minors
of gcd 1.

Ranks over Q come from one sparse fraction-free elimination.  The FS
homology orders the vertices unit vectors first and takes for each edge
its first triangle below it, the "apparent pairs" of Ripser: rows of d2
with distinct leading edges, independent with no elimination.  Only if
they fall short of dim ker d1 are the remaining triangles reduced over
GF(2), each pivot a tuple of edge indices: rank_Q d2 >= rank_GF(2) d2,
and rank d2 <= dim ker d1, so it stops as soon as the GF(2) rank
reaches dim ker d1, and H_1 = 0 is then exact.  Otherwise every row is
ranked over Q by the sparse elimination.  Common neighbours in the
graph are the AND of two ints whose bits mark neighbours.
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
# column operations (j, q, p), col j -= q * col p, and the columns left
Quotient = tuple[list[tuple[int, int, int]], list[int]]


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
    if k == 1:
        return a[0][0]
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
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


def _sparse_rank(rows: Iterable[SparseRow], limit: int | None = None,
                 unimodular: bool = False) -> int | None:
    """Rank over Q of integer rows given as {column: value}.

    Fraction-free elimination, each row divided by the gcd of its
    entries after every step.  A row is reduced on its largest column,
    the order of persistent-homology column reduction: on the FS
    boundary matrices it needs a small fraction of the row operations
    that pivoting on the smallest column does.

    With a limit that the caller knows the rank cannot exceed, no row
    is drawn once the rank reaches it, so a lazy row iterator is
    consumed only as far as needed.

    With ``unimodular``, every step keeps the lattice the rows span: a
    pivot needs a +-1 lead, and the result is None as soon as a row
    reduces to zero, to a non-unit lead or to a common factor.
    Otherwise the pivots are triangular with +-1 on their leads, so the
    rows span a summand of rank len(rows), which is returned, and every
    Smith invariant of the rows is 1.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if unimodular and abs(row[lead]) != 1:
                    return None
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
                if unimodular:
                    return None
                row = {c: x // g for c, x in row.items()}
        if unimodular and not row:
            return None
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


def is_primitive(v: list[int]) -> bool:
    return gcd(*v) == 1


def _summand_quotient(rows: list[list[int]], n: int) -> Quotient | None:
    """Coordinates on Z^n/<rows>, or None if the rows span no summand
    of Z^n of rank len(rows).

    By the extension lemma: the first row must be primitive, and the
    images of the other rows in Z^n/<first row> must span a summand.
    Column Euclid on the first row leaves one entry, a unit exactly when
    the row is primitive; the same column operations on the other rows,
    with that column dropped, give their images in the quotient Z^(n-1).

    Returns (ops, live): the column operations (j, q, p), meaning
    col j -= q * col p, in the order applied, and the columns left.
    Replaying ops on a vector and reading its live entries gives its
    image in Z^n/<rows> = Z^len(live) (``_primitive_image``).
    """
    rows = [list(v) for v in rows]
    ops: list[tuple[int, int, int]] = []
    live = list(range(n))
    for k, head in enumerate(rows):
        if gcd(*[head[c] for c in live]) != 1:
            return None
        rest = rows[k + 1:]
        while True:
            # column Euclid: reduce every other entry of head modulo its
            # smallest nonzero entry, until that entry is alone
            p, size = 0, 0
            for j in live:
                x = head[j]
                if x and (not size or abs(x) < size):
                    p, size = j, abs(x)
            pivot, alone = head[p], True
            for j in live:
                x = head[j]
                if x and j != p:
                    q = x // pivot
                    head[j] = x - q * pivot
                    ops.append((j, q, p))
                    for row in rest:
                        row[j] -= q * row[p]
                    alone = alone and not head[j]
            if alone:
                break
        # head is now +-e_p, a basis vector, so the quotient by it drops
        # coordinate p
        live.remove(p)
    return ops, live


def _image(quotient: Quotient, w: Iterable[int]) -> list[int]:
    """The coordinates of the image of w in Z^n/<rows>, for the quotient
    ``_summand_quotient(rows, n)``."""
    ops, live = quotient
    w = list(w)
    for j, q, p in ops:
        w[j] -= q * w[p]
    return [w[c] for c in live]


def _primitive_image(quotient: Quotient, w: Iterable[int]) -> bool:
    """Whether the image of w in Z^n/<rows> is primitive: by the
    extension lemma, exactly when rows + [w] span a summand."""
    return gcd(*_image(quotient, w)) == 1


def spans_summand(vectors: list[list[int]]) -> bool:
    """True iff the span of the rows is a direct summand of Z^n of rank
    len(vectors), by primitive quotients (``_summand_quotient``)."""
    if not vectors:
        return True
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("mixed lengths")
    if len(vectors) > n:
        return False
    return _summand_quotient(vectors, n) is not None


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
    (first nonzero entry positive), sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        first = next((x for x in v if x != 0), 0)
        if first > 0 and is_primitive(list(v)):
            out.append(v)
    return sorted(out)


def fs_is_simplex(vertices: list[tuple[int, ...]]) -> bool:
    """A vertex family spans a simplex iff the vectors are distinct and
    their span is a summand of full rank.  Order-insensitive."""
    if len(set(vertices)) != len(vertices):
        return False
    return spans_summand([list(v) for v in vertices])


def fs_graph(n: int, bound: int) -> tuple[list[Vertex], list[Edge]]:
    """Vertices and edges (u, v), u < v, in lexicographic order.

    The quotient Z^n/<u> is built once per vertex u, and each later
    vertex v is an edge exactly when its image there is primitive.
    """
    verts = fs_vertices(n, bound)
    edges = []
    for i, u in enumerate(verts):
        quotient = _summand_quotient([u], n)
        edges.extend((u, v) for v in verts[i + 1:]
                     if _primitive_image(quotient, v))
    return verts, edges


def fs_edges(n: int, bound: int) -> list[Edge]:
    return fs_graph(n, bound)[1]


def fs_components(verts: list[Vertex], edges: list[Edge]) -> int:
    """Number of connected components of the graph."""
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(index[u]), find(index[v])
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
    """Sorted vertices, and as bits of one int per vertex its lower and
    its higher neighbours.  The edge (j, k), j < k, has the index
    j * len(order) + k, so edge indices follow the lexicographic order
    of the edges."""
    order: list[Vertex]
    below: list[int]
    above: list[int]


def _fs_index(verts: Iterable[Vertex], edges: list[Edge],
              key: Callable[[Vertex], object] | None = None) -> _FsIndex:
    order = sorted(verts, key=key)
    index = {v: i for i, v in enumerate(order)}
    below = [0] * len(order)
    above = [0] * len(order)
    for u, v in edges:
        j, k = index[u], index[v]
        if j > k:
            j, k = k, j
        below[k] |= 1 << j
        above[j] |= 1 << k
    return _FsIndex(order, below, above)


def _fs_vertex_test(u: Vertex) -> Callable[[Vertex, Vertex], bool]:
    """The simplex test of (u, v, w) for further vertices v and w.

    Z^n/<u> is built once, and the image of each vertex there is cached.
    By the extension lemma (u, v, w) is a simplex exactly when those two
    images span a summand of rank 2 of Z^(n-1), that is when their 2x2
    minors have gcd 1.
    """
    quotient = _summand_quotient([u], len(u))
    if quotient is None:
        return lambda v, w: False
    pairs = list(itertools.combinations(range(len(quotient[1])), 2))
    images: dict[Vertex, list[int]] = {}

    def test(v: Vertex, w: Vertex) -> bool:
        a = images.get(v)
        if a is None:
            a = images[v] = _image(quotient, v)
        b = images.get(w)
        if b is None:
            b = images[w] = _image(quotient, w)
        return gcd(*[a[p] * b[q] - a[q] * b[p] for p, q in pairs]) == 1
    return test


def fs_triangles(edges: list[Edge]) -> list[Triangle]:
    """The 2-simplices (u, v, w), u < v < w, in lexicographic order.

    Every 2-simplex is a triangle of the graph, so only the common
    neighbours w > v of each edge (u, v) are tested, by
    ``_fs_vertex_test(u)``.  Each vertex keeps its higher neighbours as
    the bits of one int, so an edge's common neighbours are the AND of
    two ints, read from the lowest bit up.
    """
    verts, _, above = _fs_index({x for edge in edges for x in edge}, edges)
    out = []
    for a, u in enumerate(verts):
        test = _fs_vertex_test(u)
        for b in _bits(above[a]):
            v = verts[b]
            out.extend((u, v, verts[c]) for c in _bits(above[a] & above[b])
                       if test(v, verts[c]))
    return out


def _fs_apparent(fs: _FsIndex, cycles: int) -> tuple[list[int], int]:
    """Phase 1: for each edge (j, k), the lowest common lower neighbour
    i for which (i, j, k) is a simplex.

    Returns the table ``apex``, with apex[j * len(order) + k] = i + 1
    for such an i and 0 where there is none, and the number of rows
    found; it stops as soon as that number reaches ``cycles``.  The row
    of (i, j, k) leads on its largest edge (j, k), so these rows have
    distinct leading edges, each with entry 1: they are independent over
    Q and over GF(2) with no elimination.
    """
    order, below = fs.order, fs.below
    size = len(order)
    apex = [0] * (size * size)
    found = 0
    for j, lower in enumerate(below):
        if not lower:
            continue
        test = _fs_vertex_test(order[j])
        higher = fs.above[j]
        while higher:
            if found == cycles:
                return apex, found
            bit = higher & -higher
            higher ^= bit
            k = bit.bit_length() - 1
            common = lower & below[k]
            v = order[k]
            while common:
                low = common & -common
                i = low.bit_length() - 1
                if test(v, order[i]):
                    apex[j * size + k] = i + 1
                    found += 1
                    break
                common ^= low
    return apex, found


def _fs_row(lead: int, i: int, size: int) -> tuple[int, int, int]:
    """The edges (j, k), (i, k), (i, j) of the triangle i < j < k whose
    largest edge has index ``lead``."""
    j, k = divmod(lead, size)
    return lead, i * size + k, i * size + j


def fs_h1(verts: list[Vertex], edges: list[Edge]) -> int:
    """Rank of H_1 of the 2-skeleton on these vertices and edges, by
    boundary ranks over Q, certified over GF(2) where that suffices.

    rank d2 <= dim ker d1 = |E| - |V| + #components.  The vertices are
    ordered by ``_fs_order_key`` and the edges lexicographically in that
    order, so a triangle i < j < k has largest edge (j, k).

    - Phase 1 (``_fs_apparent``) takes for each edge (j, k) the first
      common lower neighbour i that makes a simplex.  These rows of d2
      have distinct leading edges, so they are independent; if their
      number reaches dim ker d1, H_1 = 0.
    - Phase 2 draws the remaining triangles in the same order, testing
      only the candidates above each edge's apex, and reduces each row
      over GF(2), seeded with the phase-1 pivots.  A pivot of phase 2
      is the tuple of its edge indices.  An odd minor is a nonzero
      integer, so rank_Q d2 >= rank_GF(2) d2: once the pivots number
      dim ker d1, H_1 = 0 exactly and no further candidate is tested.
    - If the triangles run out first (H_1 > 0, or 2-torsion as in RP^2),
      every row is ranked exactly over Q by ``_sparse_rank``.

    No candidate (edge, third vertex) is tested twice.
    """
    return _fs_h1(verts, edges, fs_components(verts, edges))


def _fs_h1(verts: list[Vertex], edges: list[Edge], components: int) -> int:
    """``fs_h1`` for a graph with this many connected components."""
    # dim ker d1: the graph's incidence matrix has rank |V| - #components
    cycles = len(edges) - len(verts) + components
    fs = _fs_index(verts, edges, _fs_order_key)
    apex, found = _fs_apparent(fs, cycles)
    if found == cycles:
        return 0
    size = len(fs.order)
    order, below = fs.order, fs.below
    pivots: dict[int, tuple[int, ...]] = {}
    drawn: list[int] = []
    for j, lower in enumerate(below):
        if not lower:
            continue
        test = _fs_vertex_test(order[j])
        higher = fs.above[j]
        while higher:
            bit = higher & -higher
            higher ^= bit
            k = bit.bit_length() - 1
            lead = j * size + k
            first = apex[lead]
            # the candidates above the apex; with no apex, every
            # candidate failed in phase 1
            common = lower & below[k] >> first << first if first else 0
            v = order[k]
            while common:
                low = common & -common
                common ^= low
                i = low.bit_length() - 1
                if not test(v, order[i]):
                    continue
                drawn.append(lead * size + i)
                row = set(_fs_row(lead, i, size))
                while row:
                    top = max(row)
                    if apex[top]:
                        row.symmetric_difference_update(
                            _fs_row(top, apex[top] - 1, size))
                    elif top in pivots:
                        row.symmetric_difference_update(pivots[top])
                    else:
                        pivots[top] = tuple(row)
                        found += 1
                        if found == cycles:
                            return 0
                        break
    rows = itertools.chain(
        (_fs_row(lead, first - 1, size)
         for lead, first in enumerate(apex) if first),
        (_fs_row(*divmod(code, size), size) for code in drawn))
    d2 = ({a: 1, b: -1, c: 1} for a, b, c in rows)
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
