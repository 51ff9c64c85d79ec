import itertools

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from torelli import (
    complete_basis,
    fs_connected,
    fs_dot,
    fs_edges,
    fs_graph,
    fs_h1,
    fs_h1_rank,
    fs_is_simplex,
    fs_triangles,
    fs_vertices,
    is_primitive,
    matrix_rank,
    smith_invariants,
    snf,
    spans_summand,
)
from torelli.lattice import det, identity, mat_mul

from .oracles import minors_spans_summand

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


def test_snf_diagonal_example():
    res = snf([[2, 0], [0, 3]])
    assert [res.D[0][0], res.D[1][1]] == [1, 6]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]


def test_snf_transforms_verified():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    res = snf(a)
    assert mat_mul(mat_mul(res.U, a), res.V) == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1


@given(matrices(3, 3))
def test_snf_invariants_match_sympy(m):
    ours = smith_invariants(m)
    theirs = [abs(int(x)) for x in
              smith_normal_form(sympy.Matrix(m)).diagonal() if x != 0]
    assert ours == theirs


def test_snf_empty_and_zero():
    assert smith_invariants([[0, 0], [0, 0]]) == []
    res = snf([[0]])
    assert res.D == [[0]]


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
    edges = fs_edges(2, 1)
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
    assert fs_connected(2, 1)
    assert fs_connected(3, 1)


def test_fs_h1_small():
    # n = 2 has no triangles, so h1 is the cycle rank of the graph
    assert fs_h1_rank(2, 1) == len(fs_edges(2, 1)) - len(fs_vertices(2, 1)) + 1


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
    assert fs_h1_rank(n, bound) == _dense_h1(verts, edges)


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


def test_fs_h1_n4_bound1():
    assert fs_h1_rank(4, 1) == 0


def test_fs_dot_output():
    text = fs_dot(*fs_graph(2, 1))
    assert text.startswith("graph fs {")
    assert '"0,1" -- "1,-1";' in text
    assert text.strip().endswith("}")
