import itertools
import random
import re

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from torelli import (
    complete_basis,
    flatten,
    fs_dot,
    fs_graph,
    fs_h1,
    fs_is_simplex,
    fs_triangles,
    fs_vertices,
    is_primitive,
    matrix_rank,
    reduced_generating_set,
    snf,
    spans_summand,
    standard_grid,
    tau_star,
)
from torelli import lattice
from torelli.lattice import det, identity, mat_mul

from .oracles import (
    components_by_union_find,
    fs_graph_per_pair,
    fs_triangles_per_candidate,
    minors_spans_summand,
)

small_int = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_det_and_rank_small_examples():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([]) == 1
    assert det([[5]]) == 5
    assert det(identity(4)) == 1
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([]) == 0


@given(matrices(3, 3))
def test_det_matches_sympy(m):
    assert det(m) == sympy.Matrix(m).det()


@given(matrices(3, 4))
def test_rank_matches_sympy(m):
    assert matrix_rank(m) == sympy.Matrix(m).rank()


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-20, 20))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@given(sparse_matrices())
@example([[0, 0, 0], [4, 0, 6], [0, 0, 0], [6, 0, 9]])
def test_sparse_rank_matches_sympy(m):
    expected = sympy.Matrix(m).rank() if m else 0
    assert matrix_rank(m) == expected


@st.composite
def unit_pivot_rows(draw):
    """(width, sparse rows): mostly +-1 entries on a few columns, as in
    the rank check's Johnson rows, mixed with rows that have no +-1
    entry, integer combinations of earlier rows and zero rows."""
    width = draw(st.integers(min_value=1, max_value=7))
    column = st.integers(min_value=0, max_value=width - 1)
    rows: list[dict[int, int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["unit", "unit", "no unit", "combination",
                                     "zero"]))
        if kind == "combination" and rows:
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2,
                                 max_size=2))
            p, q = draw(st.lists(st.integers(-2, 2), min_size=2,
                                 max_size=2))
            row = {c: p * a.get(c, 0) + q * b.get(c, 0)
                   for c in a.keys() | b.keys()}
            rows.append({c: x for c, x in row.items() if x})
        elif kind == "zero":
            rows.append({})
        else:
            values = [1, -1, 2] if kind == "unit" else [2, -2, 3, -4]
            rows.append(draw(st.dictionaries(column, st.sampled_from(values),
                                             min_size=1, max_size=3)))
    return width, rows


@given(unit_pivot_rows())
@example((2, [{0: 1}, {0: 1}]))
@example((2, [{0: 1}, {}]))
@example((2, [{0: 2, 1: 3}]))
@example((3, [{2: 1, 0: 1}, {2: 1, 1: 1}]))
@example((3, [{2: 1, 0: 2}, {2: 1, 1: 2}]))
def test_unit_pivot_decision_agrees_with_spans_summand(case):
    # the summand decision on sparse rows, as the rank check asks it,
    # agrees with spans_summand and the minors oracle on the dense rows,
    # leaves the rows as they were, and always finds a summand in rows
    # with one +-1 entry each on distinct columns, the shape of the rank
    # check's rows
    width, rows = case
    before = [dict(row) for row in rows]
    ok = lattice._spans_summand_rows(rows)
    assert rows == before
    dense = [[row.get(c, 0) for c in range(width)] for row in rows]
    assert ok == spans_summand(dense) == minors_spans_summand(dense)
    if ok:
        assert snf(dense).invariants() == [1] * len(rows)
    leads = [c for row in rows for c, x in row.items() if abs(x) == 1]
    if all(len(row) == 1 for row in rows) and len(set(leads)) == len(rows):
        assert ok


def _d2(triangles, edges):
    """Dense boundary matrix of oriented triangles u < v < w."""
    index = {e: i for i, e in enumerate(edges)}
    out = [[0] * len(edges) for _ in triangles]
    for row, (u, v, w) in zip(out, triangles):
        row[index[(v, w)]] = 1
        row[index[(u, w)]] = -1
        row[index[(u, v)]] = 1
    return out


def test_rank_is_over_q_not_mod_2():
    # the 6-vertex real projective plane: H_2 vanishes over Q, so d2 is
    # injective (rank 10), while over F_2 its rank is 9
    triangles = [tuple(sorted(t)) for t in
                 [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                  (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]]
    edges = sorted({e for u, v, w in triangles
                    for e in ((u, v), (u, w), (v, w))})
    assert len(edges) == 15
    d2 = _d2(triangles, edges)
    assert sympy.Matrix(d2).rank() == 10
    assert matrix_rank(d2) == 10


@pytest.mark.parametrize("call, message", [
    (lambda: mat_mul([[1, 2]], [[1, 2]]), "shape mismatch"),
    (lambda: det([[1, 2]]), "determinant needs a square matrix"),
    (lambda: det([[1, 2], [3]]), "determinant needs a square matrix"),
    (lambda: snf([[1, 2], [3]]), "ragged matrix"),
    (lambda: spans_summand([[1, 0], [1]]), "mixed lengths"),
], ids=["mat-mul", "det-wide", "det-ragged", "snf-ragged",
        "spans-summand-mixed"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _fake_snf_raw(monkeypatch, u, d, v, vinv):
    monkeypatch.setattr(lattice, "_snf_raw", lambda a: (u, d, v, vinv))


@pytest.mark.parametrize("a, raw, message", [
    # D is not U A V
    ([[2, 0], [0, 3]], ([[1, 0], [0, 1]], [[1, 0], [0, 6]],
                        [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
     "snf: U A V != D"),
    # U A V = D for the zero matrix whatever U and V are, so the
    # transforms' own checks decide: det U = 2, and V^-1 is not V's inverse
    ([[0, 0], [0, 0]], ([[2, 0], [0, 1]], [[0, 0], [0, 0]],
                        [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
     "snf: transform not unimodular"),
    ([[0, 0], [0, 0]], ([[1, 0], [0, 1]], [[0, 0], [0, 0]],
                        [[1, 1], [0, 1]], [[1, 0], [0, 1]]),
     "snf: transform not unimodular"),
    # identity transforms of a diagonal that is not a divisor chain
    ([[2, 0], [0, 3]], ([[1, 0], [0, 1]], [[2, 0], [0, 3]],
                        [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
     "snf: bad diagonal"),
], ids=["product", "det-u", "v-inverse", "diagonal"])
def test_snf_refuses_a_false_certificate(monkeypatch, a, raw, message):
    _fake_snf_raw(monkeypatch, *raw)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        snf(a)


@pytest.mark.parametrize("d, chain", [
    ([[1, 0], [0, 2]], True),
    ([[1, 0, 0], [0, 0, 0]], True),
    ([], True),
    ([[1, 1], [0, 1]], False),
    ([[0, 0], [1, 0]], False),
    ([[-1, 0], [0, 1]], False),
    ([[1, 0], [0, -2]], False),
    ([[2, 0], [0, 3]], False),
    ([[0, 0], [0, 1]], False),
], ids=["chain", "chain-zero-tail", "empty", "above-diagonal",
        "below-diagonal", "negative-first", "negative-second",
        "does-not-divide", "zero-before-unit"])
def test_is_diagonal_chain(d, chain):
    assert lattice._is_diagonal_chain(d) is chain


def test_complete_basis_refuses_a_completion_that_is_not_unimodular(
        monkeypatch):
    # the Smith form of [[1, 0]] is right, but the trailing row of the
    # false V^-1 doubles the determinant
    _fake_snf_raw(monkeypatch, [[1]], [[1, 0]], [[1, 0], [0, 1]],
                  [[1, 0], [0, 2]])
    with pytest.raises(AssertionError,
                       match="^completion is not unimodular$"):
        complete_basis([[1, 0]], 2)


def test_snf_diagonal_example():
    res = snf([[2, 0], [0, 3]])
    assert [res.D[0][0], res.D[1][1]] == [1, 6]
    assert res.invariants() == [1, 6]


def test_snf_transforms_verified():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    res = snf(a)
    assert mat_mul(mat_mul(res.U, a), res.V) == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1


@given(matrices(3, 3))
def test_snf_invariants_match_sympy(m):
    ours = snf(m).invariants()
    theirs = [abs(int(x)) for x in
              smith_normal_form(sympy.Matrix(m)).diagonal() if x != 0]
    assert ours == theirs


def test_snf_empty_and_zero():
    assert snf([[0, 0], [0, 0]]).invariants() == []
    res = snf([[0]])
    assert res.D == [[0]]


@pytest.mark.parametrize("a, expected, smith_forms", [
    # not a summand: the rank check's summand shortcut leaves one Smith
    # form to run
    ([[2, 0, 0], [0, 1, 0]], [1, 2], 1),
    ([[1, 2], [2, 4]], [1], 1),
    ([[0, 0, 0]], [], 1),
    ([[1, 0, 0], [0, 0, 0]], [1], 1),
    # a summand: all invariants are 1, and the shortcut runs none
    ([], [], 0),
    ([[1, 2, 3]], [1], 0),
    ([[2, 3], [1, 1]], [1, 1], 0),
])
def test_smith_invariants_pinned(a, expected, smith_forms):
    assert snf(a).invariants() == expected
    assert spans_summand(a) == (smith_forms == 0)


def test_smith_invariants_of_verify_grid_reduced_sets():
    # the rows of the rank check of `verify --all` on the 54 benchmark
    # configurations, n <= 4 and b <= 3
    for config in standard_grid(ns=(2, 3, 4)):
        rows = [list(flatten(tau_star(config, ((g, 1),))))
                for g in reduced_generating_set(config)]
        assert snf(rows).invariants() == [1] * len(rows)


def test_is_primitive():
    assert is_primitive([1, 0, 0])
    assert is_primitive([2, 3])
    assert not is_primitive([2, 4])
    assert not is_primitive([0, 0])


def test_spans_summand_examples():
    assert spans_summand([])
    assert spans_summand([[1, 0], [0, 1]])
    assert spans_summand([[2, 3]])
    assert not spans_summand([[2, 4]])
    assert not spans_summand([[1, 0], [0, 2]])
    assert not spans_summand([[1, 0], [0, 1], [1, 1]])  # too many rows
    # (1,1) and (1,-1) span an index-2 sublattice
    assert not spans_summand([[1, 1], [1, -1]])


def test_spans_summand_exhaustive_n2():
    vecs = list(itertools.product(range(-2, 3), repeat=2))
    for k in (1, 2):
        for subset in itertools.combinations(vecs, k):
            rows = [list(v) for v in subset]
            assert spans_summand(rows) == minors_spans_summand(rows)


@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_spans_summand_matches_minors_oracle(rows):
    assert spans_summand(rows) == minors_spans_summand(rows)


big_int = st.one_of(st.just(0), st.integers(-3, 3),
                    st.integers(-10**6, 10**6))


@st.composite
def summand_candidates(draw, max_n=4):
    """Row families of up to n + 1 rows in Z^n, n <= max_n, with entries
    up to 10^6, biased towards the cases the quotient recursion branches
    on: a zero, repeated or non-primitive first row, and summands of
    large entries (leading rows of a unimodular matrix)."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n + 1))
    rows = draw(st.lists(st.lists(big_int, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    kind = draw(st.sampled_from(
        ["random", "zero", "duplicate", "scaled", "unimodular"]))
    if kind == "zero":
        rows[0] = [0] * n
    elif kind == "duplicate" and k > 1:
        rows[draw(st.integers(1, k - 1))] = list(rows[0])
    elif kind == "scaled":
        factor = draw(st.integers(2, 1000))
        rows[0] = [factor * x for x in rows[0]]
    elif kind == "unimodular":
        rows = identity(n)
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                t = draw(st.integers(-30, 30))
                for row in rows:
                    row[j] += t * row[i]
        rows = rows[:min(k, n)]
    return rows


@given(summand_candidates())
@example([[0, 0]])
@example([[2, 4, 6]])
@example([[1, 0, 0], [1, 0, 0]])
@example([[999999, 1000000], [1000000, 999999]])
@example([[999999, 1000000], [1, 1]])
def test_spans_summand_matches_minors_oracle_large_entries(rows):
    assert spans_summand(rows) == minors_spans_summand(rows)


@given(summand_candidates(max_n=5))
@example([[0, 0, 0]])
@example([[1, 0], [0, 1], [1, 1]])
@example([[999999, 1000000], [1000000, 999999]])
@example([[999999, 1000000, 0], [0, 0, 1], [1, 1, 0]])
def test_extension_lemma_step_through_spans_summand(rows):
    # rows span a summand exactly when rows[:-1] do and the image of
    # rows[-1] in their quotient is primitive.  The quotient's
    # coordinates are those past len(rows) - 1 in a basis completing
    # rows[:-1].
    head, last = rows[:-1], rows[-1]
    ok = spans_summand(rows)
    assert ok == minors_spans_summand(rows)
    if not spans_summand(head):
        assert not ok
        return
    basis = sympy.Matrix(complete_basis(head, len(last)))
    coords = sympy.Matrix([last]) * basis.inv()
    assert ok == is_primitive(int(x) for x in coords[len(head):])


def _fs_row(rng, n):
    """A row of Z^n for the FS tests: random, zero, non-primitive, or
    with no entry +-1."""
    kind = rng.choice(["random", "random", "zero", "scaled", "no unit"])
    if kind == "zero":
        return (0,) * n
    if kind == "no unit":
        return tuple(rng.choice([0, 2, -2, 3, -3, 5]) for _ in range(n))
    scale = rng.randint(2, 4) if kind == "scaled" else 1
    return tuple(scale * rng.randint(-3, 3) for _ in range(n))


def test_fs_pair_and_triple_tests_match_the_summand_kernel(monkeypatch):
    # the edge test of fs_graph and the simplex test of _fs_vertex_test,
    # each from every end, decide as spans_summand and the minors oracle
    # do on seeded pairs and triples of length 2-5
    rng = random.Random(26)
    verts = []
    monkeypatch.setattr(lattice, "fs_vertices", lambda n, bound: verts)
    decided = {2: set(), 3: set()}
    for _ in range(1500):
        n = rng.randint(2, 5)
        pair = [_fs_row(rng, n) for _ in range(2)]
        expected = spans_summand([list(v) for v in pair])
        assert expected == minors_spans_summand(pair)
        for u, v in (pair, pair[::-1]):
            verts[:] = [u, v]
            assert fs_graph(n, 1)[1] == ([(u, v)] if expected else [])
        decided[2].add(expected)
        triple = [_fs_row(rng, n) for _ in range(3)]
        expected = spans_summand([list(v) for v in triple])
        assert expected == minors_spans_summand(triple)
        for k in range(3):
            j, i = (x for x in range(3) if x != k)
            assert lattice._fs_vertex_test(triple, k)(j, i) == expected
        decided[3].add(expected)
    assert decided == {2: {True, False}, 3: {True, False}}


@given(st.lists(st.lists(small_int, min_size=4, max_size=4),
                min_size=2, max_size=3))
def test_spans_summand_downward_closed(rows):
    if spans_summand(rows):
        assert spans_summand(rows[:-1])


def test_complete_basis_examples():
    assert complete_basis([], 3) == identity(3)
    out = complete_basis([[2, 3]], 2)
    assert out[0] == [2, 3]
    assert abs(det(out)) == 1
    out = complete_basis([[1, 0, 0], [0, 1, 0]], 3)
    assert out[0] == [1, 0, 0] and out[1] == [0, 1, 0]
    assert abs(det(out)) == 1


def test_complete_basis_rejects_non_summand():
    with pytest.raises(ValueError):
        complete_basis([[2, 4]], 2)
    with pytest.raises(ValueError):
        complete_basis([[1, 0], [0, 1], [1, 1]], 2)
    with pytest.raises(ValueError):
        complete_basis([[1, 0, 0]], 2)


@given(st.lists(st.lists(small_int, min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_complete_basis_postconditions(rows):
    if not spans_summand(rows):
        return
    out = complete_basis(rows, 4)
    assert out[:len(rows)] == rows
    assert abs(det(out)) == 1


def test_fs_vertices_n2():
    assert fs_vertices(2, 1) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(fs_vertices(3, 1)) == 13
    assert all(is_primitive(list(v)) for v in fs_vertices(3, 2))


def test_fs_edges_n2_bound1():
    edges = fs_graph(2, 1)[1]
    assert len(edges) == 5
    assert ((1, -1), (1, 1)) not in edges  # determinant 2, not a summand


def test_fs_is_simplex_order_insensitive():
    verts = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    for perm in itertools.permutations(verts):
        assert fs_is_simplex(list(perm))
    assert not fs_is_simplex([(1, 0, 0), (1, 0, 0)])
    # index-2 span: primitive vectors, but not a summand family
    assert not fs_is_simplex([(1, 0, 0), (0, 2, 1), (0, 0, 1)])


def test_fs_connected():
    for n in (2, 3):
        fs = lattice._fs_index(*fs_graph(n, 1))
        assert lattice._fs_components(fs) == 1


def test_fs_h1_small():
    # n = 2 has no triangles, so h1 is the cycle rank of the graph
    verts, edges = fs_graph(2, 1)
    assert fs_h1(verts, edges) == len(edges) - len(verts) + 1


@pytest.mark.parametrize("n, bound, counts, h1", [(3, 1, 0, 0), (2, 2, 1, 6)])
def test_fs_h1_counts_the_components_only_in_the_fallback(
        monkeypatch, n, bound, counts, h1):
    # connected lower links certify h1 = 0 with no component count; only
    # the exact rank needs dim ker d1
    verts, edges = fs_graph(n, bound)
    calls = []
    real = lattice._fs_components
    monkeypatch.setattr(lattice, "_fs_components",
                        lambda *args: calls.append(1) or real(*args))
    assert fs_h1(verts, edges) == h1
    assert len(calls) == counts


@pytest.mark.parametrize("n, bound", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_fs_components_match_a_union_find(n, bound):
    # seeded edge subsets, from the whole graph down to a few edges on
    # all the vertices, so that many components and isolated vertices
    # occur; vertex subsets too
    verts, all_edges = fs_graph(n, bound)
    rng = random.Random(10 * n + bound)
    counts = set()
    for case in range(24):
        keep = (1, 0.5, 0.2, 0.05, 0.01, 0)[case % 6]
        edges = [e for e in all_edges if rng.random() < keep]
        vs = verts
        if case >= 12:
            vs = [v for v in verts if rng.random() < 0.7]
            edges = [(u, v) for u, v in edges if u in vs and v in vs]
        got = lattice._fs_components(lattice._fs_index(vs, edges))
        assert got == components_by_union_find(vs, edges)
        counts.add(got)
    assert 1 in counts and len(counts) >= 4
    assert lattice._fs_components(lattice._fs_index([], [])) == 0
    assert lattice._fs_components(lattice._fs_index(verts[:1], [])) == 1
    assert lattice._fs_components(lattice._fs_index(verts, [])) == len(verts)


def _dense_h1(verts, edges):
    """H_1 rank with triangles from all C(V,3) triples, the minors
    summand test and dense sympy ranks."""
    edge_set = set(edges)
    triangles = [(u, v, w) for u, v, w in itertools.combinations(verts, 3)
                 if {(u, v), (u, w), (v, w)} <= edge_set
                 and minors_spans_summand([list(u), list(v), list(w)])]
    index = {v: i for i, v in enumerate(verts)}
    d1 = [[0] * len(verts) for _ in edges]
    for row, (u, v) in zip(d1, edges):
        row[index[u]], row[index[v]] = -1, 1
    rank_d1 = sympy.Matrix(d1).rank() if edges else 0
    rank_d2 = sympy.Matrix(_d2(triangles, edges)).rank() if triangles else 0
    return len(edges) - rank_d1 - rank_d2


@pytest.mark.parametrize("n,bound", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_fs_h1_matches_dense_oracle(n, bound):
    verts = fs_vertices(n, bound)
    edges = [e for e in itertools.combinations(verts, 2)
             if minors_spans_summand([list(x) for x in e])]
    assert fs_h1(*fs_graph(n, bound)) == _dense_h1(verts, edges)


def test_fs_h1_of_subcomplex_matches_dense_oracle():
    # dropping edges leaves cycles that the remaining triangles do not
    # fill, so the boundary ranks are tested where H_1 is not zero
    verts, edges = fs_graph(3, 1)
    for kept in (edges[::2], edges[::3], edges[1::4]):
        h1 = fs_h1(verts, kept)
        assert h1 == _dense_h1(verts, kept)
        assert h1 > 0


@pytest.mark.parametrize("n,bound", [(3, 1), (3, 2)])
def test_fs_triangles_match_all_triples(n, bound):
    verts, edges = fs_graph(n, bound)
    triples = {t for t in itertools.combinations(verts, 3)
               if fs_is_simplex(list(t))}
    triangles = fs_triangles(edges)
    assert len(set(triangles)) == len(triangles)
    assert set(triangles) == triples


@pytest.mark.parametrize("n,bound", [(2, 1), (2, 2), (2, 3), (3, 1),
                                     (3, 2), (4, 1)])
def test_fs_graph_and_triangles_match_per_candidate_tests(n, bound):
    # one quotient per vertex and per edge gives the same edges and
    # triangles, in the same order, as a whole summand test per pair
    # and per common neighbour
    verts, edges = fs_graph(n, bound)
    assert (verts, edges) == fs_graph_per_pair(n, bound)
    assert fs_triangles(edges) == fs_triangles_per_candidate(edges)


def test_fs_h1_n4_bound1():
    assert fs_h1(*fs_graph(4, 1)) == 0


@pytest.mark.parametrize("n,bound", [(5, 1), (3, 3)])
def test_fs_h1_larger_truncations(n, bound):
    # 6930 edges and 240,090 triangles at (5, 1), 7725 edges and 26,701
    # triangles at (3, 3); the full-rank path gives 0 at both
    assert fs_h1(*fs_graph(n, bound)) == 0


@pytest.mark.slow
def test_fs_h1_n4_bound2():
    # 272 vertices, 32,914 edges, 1,959,784 triangles
    assert fs_h1(*fs_graph(4, 2)) == 0


@pytest.mark.slow
def test_fs_h1_n3_bound4():
    # 729 candidate vectors, the most that FS_MAX_CANDIDATES admits
    assert fs_h1(*fs_graph(3, 4)) == 0


@pytest.mark.slow
@pytest.mark.parametrize("n,bound", [(7, 1), (5, 2), (3, 5)])
def test_fs_h1_beyond_the_cli_cap(n, bound):
    # library calls: `fs` refuses (7, 1) and (5, 2), and would print
    # 587,559 edges at (7, 1); 986,010 edges at (5, 2), 121,317 at (3, 5)
    assert fs_h1(*fs_graph(n, bound)) == 0


def _record_fs_h1(monkeypatch, vertex_test=None):
    """Wrap the seams of fs_h1.  Every simplex test is recorded in order
    as (k, j, i, ok) in vertex-order positions: the triple i, j, k,
    tested by the test of vertex k.  The link pass leaves its index,
    its result and the number of tests made by then; every exact rank
    leaves its limit and its rows.  ``vertex_test(u)``, if given,
    replaces the simplex test by one on vertices."""
    real_test = lattice._fs_vertex_test
    real_links = lattice._fs_links_connected
    real_rank = lattice._sparse_rank
    seen = {"tests": [], "ranks": []}

    def recording_vertex_test(order, k):
        if vertex_test is None:
            test = real_test(order, k)
        else:
            on_vertices = vertex_test(order[k])

            def test(j, i):
                return on_vertices(order[j], order[i])

        def recording(j, i):
            ok = test(j, i)
            seen["tests"].append((k, j, i, ok))
            return ok
        return recording

    def recording_links(fs):
        connected = real_links(fs)
        seen.update(fs=fs, connected=connected, passed=len(seen["tests"]))
        return connected

    def recording_rank(rows, limit=None):
        rows = list(rows)
        seen["ranks"].append((limit, rows))
        return real_rank(rows, limit)

    monkeypatch.setattr(lattice, "_fs_vertex_test", recording_vertex_test)
    monkeypatch.setattr(lattice, "_fs_links_connected", recording_links)
    monkeypatch.setattr(lattice, "_sparse_rank", recording_rank)
    return seen


def _cycle_rank(verts, edges):
    return len(edges) - len(verts) + lattice._fs_components(
        lattice._fs_index(verts, edges))


def _common_lower(fs, j, k):
    both = fs.below[j] & fs.below[k]
    return [i for i in range(j) if both >> i & 1]


def _root(parent, x):
    while parent.setdefault(x, x) != x:
        x = parent[x]
    return x


def _check_candidates(seen):
    """Replay the link pass on the recorded outcomes and assert that it
    makes exactly the recorded tests, in the recorded order.  Return the
    triangles found, in order, as sorted vertex triples, and, for each
    link that made any, the number of tests made after a link vertex's
    first simplex.

    - No candidate (i, j, k) is tested twice within the link pass, and
      vertex k tests only triples with k on top, k in ascending order.
    - One union-find per vertex k grows with its link, one link vertex j
      at a time, lowest first.  j tests its common lower neighbours i
      with k lowest first, up to the first simplex, and attaches to it;
      with none, j is a new component.  Then, only while the link so
      far has more than one component, j tests the rest of them whose
      root is not its own, and joins each simplex.
    - The pass visits every vertex, or stops at the first link left with
      more than one component.  There every pair that would join two
      components was tested.
    """
    fs, tests = seen["fs"], seen["tests"][:seen["passed"]]
    candidates = [(k, j, i) for k, j, i, _ in tests]
    assert len(set(candidates)) == len(candidates)
    assert all(i < j < k for k, j, i in candidates)
    assert [k for k, *_ in candidates] == sorted(k for k, *_ in candidates)
    replayed = []

    def test(k, j, i):
        # the replay asks for the recorded tests in the recorded order
        t = len(replayed)
        assert t < len(tests) and tests[t][:3] == (k, j, i)
        replayed.append((k, j, i))
        return tests[t][3]

    closing, connected = {}, True
    for k in range(len(fs.order)):
        lower = [j for j in range(k) if fs.below[k] >> j & 1]
        parent, parts = {}, 0
        for j in lower:
            common = _common_lower(fs, j, k)
            hit = next((t for t, i in enumerate(common) if test(k, j, i)),
                       None)
            if hit is None:
                parts += 1
                continue
            parent[j] = common[hit]
            start = len(replayed)
            for i in common[hit + 1:]:
                if parts == 1:
                    break
                ri, rj = _root(parent, i), _root(parent, j)
                if ri != rj and test(k, j, i):
                    parent[ri] = rj
                    parts -= 1
            if len(replayed) > start:
                closing[k] = closing.get(k, 0) + len(replayed) - start
        if parts > 1:
            connected = False
            tried = {(j, i) for k2, j, i in replayed if k2 == k}
            assert all((j, i) in tried for j in lower
                       for i in _common_lower(fs, j, k)
                       if _root(parent, i) != _root(parent, j))
            break
    assert replayed == candidates
    assert connected == seen["connected"]
    order = fs.order
    drawn = [tuple(sorted((order[i], order[j], order[k])))
             for k, j, i, ok in tests if ok]
    return drawn, closing


def _every_candidate(fs):
    return {(j, k, i) for k in range(len(fs.order))
            for j in range(k) if fs.below[k] >> j & 1
            for i in _common_lower(fs, j, k)}


def _assert_exit_at_the_cycle_rank(triangles, edges, cycles):
    # the triangles found fill the cycle space exactly: rank d2 reaches
    # dim ker d1 with the last of them, and not one row earlier
    assert matrix_rank(_d2(triangles, edges)) == cycles
    assert matrix_rank(_d2(triangles[:-1], edges)) == cycles - 1


def test_fs_h1_stops_once_the_cycle_space_is_filled(monkeypatch):
    verts, edges = fs_graph(4, 1)
    triangles = fs_triangles(edges)
    cycles = _cycle_rank(verts, edges)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == 0
    drawn, closing = _check_candidates(seen)
    # two links have two components when a link vertex finds its first
    # simplex; one test after it joins each
    assert seen["connected"] and seen["passed"] == len(seen["tests"])
    assert list(closing.values()) == [1, 1]
    assert len(seen["tests"]) == 743 + 2
    assert len(seen["tests"]) < len(_every_candidate(seen["fs"]))
    assert len(drawn) == cycles == 683
    assert len(drawn) < len(triangles) == 7040
    assert set(drawn) <= set(triangles)
    assert seen["ranks"] == []
    _assert_exit_at_the_cycle_rank(drawn, edges, cycles)


def test_fs_h1_of_a_cone_stops_in_phase_1(monkeypatch):
    # the star of the first vertex o in the norm order, keeping only the
    # link edges that span a simplex with o: o is the lowest candidate
    # of every link edge, so each link vertex's first test joins it to
    # o, and no link needs closing
    all_verts, all_edges = fs_graph(3, 2)
    o = min(all_verts, key=lattice._fs_order_key)
    link = sorted({x for e in all_edges if o in e for x in e} - {o})
    verts = sorted([o, *link])
    edges = [(u, v) for u, v in all_edges
             if o in (u, v) or (u in link and v in link
                                and fs_is_simplex([o, u, v]))]
    cycles = _cycle_rank(verts, edges)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == 0
    drawn, closing = _check_candidates(seen)
    assert closing == {}
    assert seen["passed"] == len(seen["tests"]) == len(drawn) == cycles > 0
    assert seen["ranks"] == []
    _assert_exit_at_the_cycle_rank(drawn, edges, cycles)


def _assert_every_triangle_ranked_once(seen, triangles, cycles):
    """A lower link stayed disconnected: the fallback tested every
    candidate exactly once, drew every triangle once, and the exact
    rank got every row with limit dim ker d1."""
    _check_candidates(seen)
    assert not seen["connected"]
    fallback = seen["tests"][seen["passed"]:]
    order = seen["fs"].order
    assert ({(j, k, i) for k, j, i, _ in fallback}
            == _every_candidate(seen["fs"]))
    assert len(fallback) == len(_every_candidate(seen["fs"]))
    drawn = [tuple(sorted((order[i], order[j], order[k])))
             for k, j, i, ok in fallback if ok]
    assert sorted(drawn) == sorted(triangles)
    [(limit, rows)] = seen["ranks"]
    assert limit == cycles
    assert len(rows) == len(triangles)


def test_fs_h1_ranks_every_triangle_when_h1_is_not_zero(monkeypatch):
    for n, bound, slices in [(3, 1, ((0, 2), (0, 3), (1, 4))),
                             (3, 2, ((0, 3), (1, 4), (2, 5)))]:
        verts, all_edges = fs_graph(n, bound)
        for start, step in slices:
            edges = all_edges[start::step]
            triangles = fs_triangles(edges)
            with monkeypatch.context() as patch:
                seen = _record_fs_h1(patch)
                assert fs_h1(verts, edges) > 0
            _assert_every_triangle_ranked_once(
                seen, triangles, _cycle_rank(verts, edges))


RP2_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def _rp2():
    """The 6-vertex RP^2 on six vectors, every pair an edge, and a
    vertex test that accepts exactly its ten faces."""
    labels = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1),
              (1, 1, 0)]
    faces = [tuple(sorted(labels[x] for x in face)) for face in RP2_FACES]
    verts = sorted(labels)
    edges = list(itertools.combinations(verts, 2))

    def vertex_test(u):
        return lambda v, w: tuple(sorted((u, v, w))) in faces
    return verts, edges, sorted(faces), vertex_test


def test_fs_h1_of_rp2_consumes_every_face(monkeypatch):
    # H_1(RP^2; Q) = 0 with d2 injective, so every face is needed
    verts, edges, faces, vertex_test = _rp2()
    assert _cycle_rank(verts, edges) == 10
    seen = _record_fs_h1(monkeypatch, vertex_test)
    assert fs_h1(verts, edges) == 0
    _assert_every_triangle_ranked_once(seen, faces, 10)


def test_fs_h1_of_rp2_falls_back_to_the_exact_rank(monkeypatch):
    # H_1(RP^2; Z) = Z/2: over GF(2) the ten faces have rank 9 against
    # 10 cycles, so only the exact rank over Q shows H_1(RP^2; Q) = 0
    verts, edges, faces, vertex_test = _rp2()
    d2 = DomainMatrix.from_Matrix(sympy.Matrix(_d2(faces, edges)))
    assert d2.convert_to(sympy.GF(2)).rank() == 9
    seen = _record_fs_h1(monkeypatch, vertex_test)
    assert fs_h1(verts, edges) == 0
    [(limit, rows)] = seen["ranks"]
    assert limit == _cycle_rank(verts, edges) == 10
    # the rows ranked are the faces' boundaries, each once, in the
    # edge indices of the norm order
    size = len(verts)
    pos = {v: i for i, v in enumerate(seen["fs"].order)}

    def row(face):
        i, j, k = sorted(pos[x] for x in face)
        return {j * size + k: 1, i * size + k: -1, i * size + j: 1}
    assert sorted(map(sorted, (r.items() for r in rows))) == sorted(
        sorted(row(face).items()) for face in faces)


@pytest.mark.parametrize("n,bound,step", [(3, 1, 1), (4, 1, 1), (3, 1, 3)])
def test_fs_h1_does_not_depend_on_the_input_order(n, bound, step):
    # fs_h1 sorts the vertices by its own order and orients each edge in
    # it, so shuffled lists and flipped edges give the same rank
    verts, edges = fs_graph(n, bound)
    edges = edges[::step]
    expected = fs_h1(verts, edges)
    assert expected == (0 if step == 1 else _dense_h1(verts, edges))
    rng = random.Random(10 * n + bound)
    for _ in range(3):
        shuffled = rng.sample(verts, len(verts))
        flipped = [e[::-1] if rng.random() < 0.5 else e
                   for e in rng.sample(edges, len(edges))]
        assert fs_h1(shuffled, flipped) == expected


@pytest.mark.parametrize("n,bound", [(4, 1), (3, 2), (5, 1)])
def test_fs_h1_zero_is_certified_by_connected_links(monkeypatch, n, bound):
    # every lower link is empty or connected, so H_1 = 0 over Z, and
    # neither the fallback's tests nor the exact kernel ever run
    verts, edges = fs_graph(n, bound)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == 0
    _check_candidates(seen)
    assert seen["connected"]
    assert seen["passed"] == len(seen["tests"])
    assert seen["ranks"] == []


def test_fs_h1_closes_links_with_several_roots_at_n3_bound2(monkeypatch):
    # 14 links make tests after a link vertex's first simplex, 18 in
    # all, and each ends connected; no exact rank runs
    verts, edges = fs_graph(3, 2)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == 0
    drawn, closing = _check_candidates(seen)
    assert seen["connected"] and len(closing) == 14
    assert (len(seen["tests"]) - sum(closing.values()),
            sum(closing.values())) == (1528, 18)
    assert seen["ranks"] == []
    _assert_exit_at_the_cycle_rank(drawn, edges, _cycle_rank(verts, edges))


@pytest.mark.parametrize("n,bound", [(4, 1), (3, 2)])
def test_fs_link_vertex_tests_are_contiguous(monkeypatch, n, bound):
    # each link vertex makes its search and then any tests that join
    # components before the next link vertex starts: within each
    # vertex k, the link vertex j of the tests never decreases
    verts, edges = fs_graph(n, bound)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == 0
    tests = seen["tests"]
    assert [(k, j, i) for (k0, j0, _, _), (k, j, i, _) in zip(tests, tests[1:])
            if k == k0 and j < j0] == []


def _links_connected_by_search(verts, edges, simplex):
    """Whether every lower link in the norm order is empty or connected,
    by a search over each link: its vertices are k's lower neighbours,
    its edges the graph's edges (i, j) with simplex(i, j, k)."""
    pos = {v: t for t, v in enumerate(sorted(verts,
                                             key=lattice._fs_order_key))}
    near = {v: set() for v in verts}
    for u, v in edges:
        near[u].add(v)
        near[v].add(u)
    for k in verts:
        link = {v for v in near[k] if pos[v] < pos[k]}
        reached = set(itertools.islice(link, 1))
        todo = list(reached)
        while todo:
            x = todo.pop()
            for y in near[x] & link - reached:
                if simplex(x, y, k):
                    reached.add(y)
                    todo.append(y)
        if reached != link:
            return False
    return True


def test_fs_links_connected_matches_a_search_over_each_link():
    # seeded edge subsets, from the whole graph to 60% of edges dropped:
    # the link pass agrees with a search whose link edges come from
    # fs_is_simplex, on links that end connected and on links that do not
    verdicts = []
    for n, bound in [(3, 1), (4, 1), (3, 2)]:
        verts, all_edges = fs_graph(n, bound)
        simplices = {}

        def simplex(*triple):
            key = frozenset(triple)
            if key not in simplices:
                simplices[key] = fs_is_simplex(list(triple))
            return simplices[key]
        rng = random.Random(100 * n + bound)
        for case in range(14):
            drop = case % 7 / 10
            edges = [e for e in all_edges if rng.random() >= drop]
            verdict = lattice._fs_links_connected(
                lattice._fs_index(verts, edges))
            assert verdict == _links_connected_by_search(verts, edges,
                                                         simplex)
            verdicts.append(verdict)
    assert len(verdicts) == 42
    assert 5 <= sum(verdicts) <= 37


def test_fs_h1_falls_back_when_a_lower_link_stays_disconnected(monkeypatch):
    # in lexicographic order some lower link of (3, 1) stays
    # disconnected, though H_1 = 0: the exact rank runs once, over every
    # triangle, and agrees with the dense oracle
    verts, edges = fs_graph(3, 1)
    triangles = fs_triangles(edges)
    monkeypatch.setattr(lattice, "_fs_order_key", lambda v: v)
    seen = _record_fs_h1(monkeypatch)
    assert fs_h1(verts, edges) == _dense_h1(verts, edges) == 0
    assert seen["fs"].order == sorted(verts)
    _assert_every_triangle_ranked_once(seen, triangles,
                                       _cycle_rank(verts, edges))


def test_fs_h1_with_h1_positive_matches_dense_oracle_at_n3_bound2(
        monkeypatch):
    verts, edges = fs_graph(3, 2)
    seen = _record_fs_h1(monkeypatch)
    kept = (edges[::3], edges[1::4], edges[2::5])
    for edges in kept:
        h1 = fs_h1(verts, edges)
        assert h1 == _dense_h1(verts, edges)
        assert h1 > 0
    assert [limit for limit, _ in seen["ranks"]] == [
        _cycle_rank(verts, edges) for edges in kept]


def test_fs_dot_output():
    text = fs_dot(*fs_graph(2, 1))
    assert text.startswith("graph fs {")
    assert '"0,1" -- "1,-1";' in text
    assert text.strip().endswith("}")
