"""End-to-end acceptance checks, one test per criterion.

Every check is exact (integer arithmetic throughout, tolerance zero).
Each test prints one `criterion N: PASS|FAIL` line; stated per-criterion
time budgets are asserted as well.  Criteria 1-4 read their verdicts
from the library verifier, ``verify_config(config, "all")``, run once
per grid configuration, and assert how many checks of each name it
returns against closed forms, so a check it drops fails the gate.
"""

import collections
import functools
import itertools
import json
import pathlib
import random
import time

import pytest

import torelli as T
from torelli.johnson import ext_vector
from torelli.lattice import det

from .oracles import minors_spans_summand

GOLDEN = pathlib.Path(__file__).parent / "golden"
GRID = T.standard_grid()
SEED = 20260814


def _criterion(num, label, body, budget=None):
    start = time.time()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    elapsed = time.time() - start
    print(f"criterion {num}: PASS - {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} took {elapsed:.2f}s, budget {budget}s")


def _random_word(rng, n, length):
    letters = [x for x in range(-n, n + 1) if x != 0]
    return T.reduce([rng.choice(letters) for _ in range(length)], n)


def _random_commutator_word(rng, n, max_len=24):
    while True:
        w = T.Word(n)
        for _ in range(rng.randint(1, 3)):
            a = _random_word(rng, n, rng.randint(1, 5))
            b = _random_word(rng, n, rng.randint(1, 5))
            w = T.mul(w, T.comm(a, b))
        if len(w.letters) <= max_len:
            return w


def _boundaries(config):
    return [(r, s) for r in range(1, config.num_blocks + 1)
            for s in range(1, len(config.block(r)) + 1)]


def _tau_sum(tables):
    """The sum of Johnson tables of one rank, in the coordinates of
    ``flatten``, which are injective at a fixed rank."""
    return tuple(map(sum, zip(*map(T.flatten, tables), strict=True)))


def _closed_form_counts(config):
    """How many checks of each name ``verify_config`` makes on config:
    one membership and one tau_table check per generator, one PD
    relation per loop, one BCD relation per block and pair of loops,
    one CD identity per CD- generator, and one rank check."""
    n, b, p = config.n, config.b, config.num_blocks
    c2 = n * (n - 1) // 2
    generators = n * (n - 1) + n * (n - 1) * (n - 2) + b * c2 + p * n
    return {"membership": generators, "tau_table": generators,
            "pd_relation": n, "bcd_relation": p * c2,
            "cd_identity": n * (n - 1) * (n - 2) // 2, "rank": 1}


@functools.cache
def _grid_checks(config):
    checks = T.verify_config(config, "all")
    counts = collections.Counter(check.name for check in checks)
    expected = _closed_form_counts(config)
    assert counts == {k: v for k, v in expected.items() if v}, \
        (config, counts, expected)
    return checks


@pytest.mark.slow
@pytest.mark.parametrize("n, partition", [
    (7, [[1], [2], [3], [4], [5], [6]]),
    (8, [[1], [2], [3], [4], [5], [6], [7], [8]]),
    (10, [[1, 2]]),
])
def test_verify_config_past_the_composition_sweep(n, partition):
    # single configurations at the edge of the slow sweep's n <= 7,
    # b <= 6 and beyond it, with the closed-form count of each check name
    config = T.partition_config(n, sum(map(len, partition)), partition)
    failed = [check for check in _grid_checks(config) if not check.ok]
    assert not failed, failed


@pytest.mark.slow
@pytest.mark.parametrize("n, counts", [
    (16, {"membership": 3600, "pd_relation": 16, "cd_identity": 1680,
          "tau_table": 3600, "rank": 1}),
    (20, {"membership": 7220, "pd_relation": 20, "cd_identity": 3420,
          "tau_table": 7220, "rank": 1}),
])
def test_verify_config_anchors_past_the_cli_cap(n, counts):
    # b = 0 at capped ranks 16 and 20, past VERIFY_MAX_RANK, as library
    # calls; each count is the closed form written out
    config = T.partition_config(n, 0, [])
    assert _closed_form_counts(config) == {"bcd_relation": 0, **counts}
    failed = [check for check in _grid_checks(config) if not check.ok]
    assert not failed, failed


def _verdicts(name):
    """(config, check) for every check of the given name on the grid."""
    return [(config, check) for config in GRID
            for check in _grid_checks(config) if check.name == name]


def test_criterion_1_generator_membership():
    def body():
        for config, check in _verdicts("membership"):
            assert check.ok, (config, check.detail)

    _criterion(1, "every drag generator is a certified homology-trivial "
                  "automorphism on all 36 grid configs", body, budget=5)


def test_criterion_2_tau_table():
    def body():
        for config, check in _verdicts("tau_table"):
            assert check.ok, (config, check.detail)

    _criterion(2, "tau of every realized generator equals its closed-form "
                  "table row", body, budget=10)


def test_criterion_3_relations_and_tau_sums():
    def body():
        # PD relations (in the outer group for b = 0) and BCD relations
        for name in ("pd_relation", "bcd_relation"):
            for config, check in _verdicts(name):
                assert check.ok, (config, name, check.detail)
        for config in GRID:
            n, m = config.n, T.capped_rank(config)
            # boundary-drag columns of one block sum to zero
            for r in range(1, config.num_blocks + 1):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        total = _tau_sum(
                            T.tau_star_formula(config, T.bcd(r, s, i, j))
                            for s in range(1, len(config.block(r)) + 1))
                        assert not any(total), (config, r, i, j)
            # block drags against handle drags; for b = 0 the identity
            # lives in the outer group, i.e. holds up to an inner image
            for j in range(1, n + 1):
                total = _tau_sum(
                    [T.tau_star_formula(config, T.pd(r, j))
                     for r in range(1, config.num_blocks + 1)]
                    + [T.tau_star_formula(config, T.hd(i, j))
                       for i in range(1, n + 1) if i != j])
                if config.b >= 1:
                    assert not any(total), (config, j)
                else:
                    inner = T.tau(T.inner_automorphism(m, T.gen(m, j)))
                    assert total == T.flatten(inner), (config, j)

    _criterion(3, "block/boundary drag relations hold (block drags in the "
                  "outer group for b = 0) and the tau-level sum identities "
                  "hold on the whole grid", body)


def test_criterion_4_cd_identity():
    def body():
        golden = json.loads((GOLDEN / "cd_identity.json").read_text())
        seen = {}
        for config, check in _verdicts("cd_identity"):
            assert check.ok, (config, check.detail)
            indices, _, expr = check.detail.partition(" -> ")
            if config.n == 3:
                key = ",".join(part.split("=")[1]
                               for part in indices.split(","))
                assert golden[key] == expr, (key, expr)
                seen[key] = expr
        assert set(seen) == set(golden)

    _criterion(4, "one-sided commutator drags equal a commutator of handle "
                  "drags, with the golden expression", body)


def test_criterion_5_abelianization_ranks():
    def body():
        anchors = {(3, 1, ((1,),)): 9, (3, 0, ()): 6}
        for config in GRID:
            computed, formula, invariants = T.abelianization_rank(config)
            assert computed == formula, (config, computed, formula)
            reduced = T.reduced_generating_set(config)
            assert len(reduced) == formula, (config, len(reduced), formula)
            assert invariants == [1] * formula, (config, invariants)
            key = (config.n, config.b, config.partition)
            if key in anchors:
                assert computed == anchors.pop(key)
        assert not anchors

    _criterion(5, "computed abelianization rank equals the formula on the "
                  "whole grid (anchors 9 and 6) and the reduced set has R "
                  "elements with unit invariant factors", body, budget=30)


def test_criterion_6_tomaszewski_round_trip():
    def body():
        rng = random.Random(SEED)
        for n in (2, 3):
            for _ in range(500):
                w = _random_commutator_word(rng, n)
                fact = T.tomaszewski_factor(w)
                assert fact.multiply_back() == w, T.word_text(w)
                table = {}
                for f, e in fact.factors:
                    table[(f.i, f.j)] = table.get((f.i, f.j), 0) + e
                assert ext_vector(n, table) == T.rho(w), T.word_text(w)

    _criterion(6, "500 seeded commutator words per rank factor, multiply "
                  "back exactly, and reproduce rho from factor exponents",
               body, budget=20)


def _expected_push_homology(config, boundary, gamma):
    basis = T.build_basis(config)
    m, n = basis.m, config.n
    r, s = boundary
    cls = T.abelianization_vector(gamma)
    matrix = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def add(col, sign):
        for i in range(n):
            matrix[i][col - 1] += sign * cls[i]

    block = basis.block_indices(r)
    singleton = config.is_singleton(r)
    if s >= 2:
        add(block[s - 2], 1 if r > 1 else -1)
    elif not singleton:
        for a in block:
            add(a, -1 if r > 1 else 1)
    return matrix


def test_criterion_7_birman_push():
    def body():
        rng = random.Random(SEED + 1)
        for config in (c for c in GRID if c.b >= 1):
            n = config.n
            boundaries = _boundaries(config)
            # homomorphism on 50 word pairs
            for idx in range(50):
                boundary = boundaries[idx % len(boundaries)]
                u = _random_word(rng, n, 6)
                v = _random_word(rng, n, 6)
                lhs = T.push_boundary(config, boundary, T.mul(u, v))
                rhs = T.compose(T.push_boundary(config, boundary, u),
                                T.push_boundary(config, boundary, v))
                assert T.same_map(lhs, rhs), (config, boundary)
            # membership iff the loop is null-homologous or the block is
            # a singleton; homology action is identity plus the loop class
            # on the dragged arc column(s), side and sign per case
            for idx in range(30):
                boundary = boundaries[idx % len(boundaries)]
                gamma = (_random_commutator_word(rng, n, 16) if idx % 3 == 0
                         else _random_word(rng, n, rng.randint(1, 6)))
                f = T.push_boundary(config, boundary, gamma)
                null = not any(T.abelianization_vector(gamma))
                singleton = config.is_singleton(boundary[0])
                assert T.membership_IOP(config, f) == (null or singleton), \
                    (config, boundary, T.word_text(gamma))
                assert (T.abelianization_matrix(f)
                        == _expected_push_homology(config, boundary, gamma)), \
                    (config, boundary, T.word_text(gamma))
            # drag-word factorization realizes the push exactly
            for idx in range(100):
                boundary = boundaries[idx % len(boundaries)]
                w = _random_commutator_word(rng, n, 12)
                dw = T.push_factorization(config, boundary, w)
                assert T.same_map(T.realize_word(config, dw),
                                  T.push_boundary(config, boundary, w)), \
                    (config, boundary, T.word_text(w))

    _criterion(7, "pushes are homomorphisms, membership matches the "
                  "null-homologous/singleton dichotomy, the homology action "
                  "adds the loop class on the dragged arcs, and "
                  "factorizations realize pushes exactly", body)


def test_criterion_8_fs_complex():
    def body():
        assert len(T.fs_vertices(2, 1)) == 4
        assert len(T.fs_edges(2, 1)) == 5
        assert T.fs_connected(2, 1)
        assert T.fs_connected(3, 1)
        golden_h1 = int((GOLDEN / "fs_h1_n3_b1.txt").read_text().strip())
        assert T.fs_h1_rank(3, 1) == golden_h1 == 0
        for n in (1, 2, 3):
            vecs = [list(v) for v in
                    itertools.product(range(-2, 3), repeat=n)]
            for k in (1, 2, 3):
                for subset in itertools.combinations(vecs, k):
                    rows = [list(v) for v in subset]
                    assert (T.spans_summand(rows)
                            == minors_spans_summand(rows)), rows

    _criterion(8, "FS truncation anchors (4 vertices / 5 edges / connected; "
                  "n=3 connected with golden h1 = 0) and spans_summand "
                  "matches the minors oracle exhaustively", body)


def test_criterion_9_lattice_and_nielsen():
    def body():
        rng = random.Random(SEED + 2)
        done = 0
        while done < 200:
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            rows = [[rng.randint(-10, 10) for _ in range(n)]
                    for _ in range(k)]
            if not T.spans_summand(rows):
                continue
            out = T.complete_basis(rows, n)
            assert out[:k] == rows
            assert det(out) in (1, -1)
            done += 1

        for n in range(1, 5):
            gens = T.nielsen_generators(n)
            mats = [T.abelianization_matrix(f) for f in gens]
            if n == 1:
                assert mats == [[[-1]]]
                continue
            transvection = [[1 if i == j else 0 for j in range(n)]
                            for i in range(n)]
            transvection[1][0] = 1
            inversion = [[(-1 if i == j == 0 else 1 if i == j else 0)
                          for j in range(n)] for i in range(n)]
            cycle = [[1 if i == (j + 1) % n else 0 for j in range(n)]
                     for i in range(n)]
            swap = [[1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1)
                     else 0 for j in range(n)] for i in range(n)]
            assert mats == [transvection, inversion, cycle, swap], n

    _criterion(9, "200 seeded basis completions are unimodular and keep "
                  "their prefix; Nielsen homology images are the standard "
                  "GL_n(Z) generators up to n = 4", body)
