import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torelli import (
    GroupMap,
    ParseError,
    PreconditionError,
    Word,
    abelianization_matrix,
    all_generators,
    bcd,
    build_basis,
    capped_rank,
    cd_minus,
    cd_plus,
    comm,
    compose,
    drag_word,
    drag_word_inv,
    drag_word_text,
    ext_vector,
    flatten,
    formula_rank,
    gen,
    hd,
    identity_map,
    inner_automorphism,
    inv,
    inverse,
    is_homology_trivial,
    matrix_rank,
    membership_IOP,
    parse_drag_word,
    parse_word,
    partition_config,
    pd,
    push_boundary,
    realize,
    realize_images,
    realize_word,
    reduce,
    reduced_generating_set,
    same_map,
    smith_invariants,
    snf,
    spans_summand,
    standard_grid,
    tau,
    tau_star,
    tau_star_formula,
    verify_bcd_relation,
    verify_cd_identity,
    verify_certificate,
    verify_config,
    verify_pd_relation,
    word_text,
)
from torelli import drags, lattice
from torelli.drags import (
    Action,
    DragGenerator,
    _drag_action,
    _moved_images,
    _moved_word_images,
    _push_action,
    _rank_from_taus,
    _realize_images,
)
from torelli.johnson import _hom_table, _tau_columns
from torelli.words import _certified, _homology_trivial

from .oracles import (
    drag_action_words,
    drag_words_strategy,
    drag_words_toward_strategy,
    fold_actions_eagerly,
    push_action_words,
    push_boundary_words,
    reduced_generating_set_direct,
    words_strategy,
)

CFG21 = partition_config(2, 1, [[1]])
CFG30 = partition_config(3, 0, [])
CFG22 = partition_config(2, 2, [[1, 2]])
CFG23 = partition_config(2, 3, [[1, 2], [3]])
CFG243 = partition_config(2, 4, [[1, 2], [3], [4]])

# b = 0, a singleton block, and three blocks of which one has two labels
FOLD_CONFIGS = (CFG30, CFG21, CFG243)


def test_token_round_trip():
    w = drag_word(hd(1, 2), (cd_minus(1, 2, 3), -1), bcd(1, 1, 1, 2),
                  (pd(2, 1), -1), cd_plus(3, 1, 2))
    text = drag_word_text(w)
    assert text == "HD:1,2 CD-:1,2,3^-1 BCD:1,1,1,2 PD:2,1^-1 CD+:3,1,2"
    assert parse_drag_word(text) == w


def test_parse_drag_word_errors():
    with pytest.raises(ParseError, match="token 1"):
        parse_drag_word("XX:1,2")
    with pytest.raises(ParseError, match="token 2"):
        parse_drag_word("HD:1,2 HD:1,a")
    with pytest.raises(ParseError, match="token 1"):
        parse_drag_word("HD:1,2,3")
    # indices are read as `parse_word` reads them (a ParseError is the
    # CLI's exit 2)
    for text in ("HD:\u0661,\u0662", "HD:01,2", "HD:+1,2", "HD:1_0,2"):
        with pytest.raises(ParseError, match="bad indices"):
            parse_drag_word(text)


def test_generator_shape_validation():
    with pytest.raises(ValueError):
        DragGenerator("HD", (1, 2, 3))
    with pytest.raises(ValueError):
        DragGenerator("XY", (1, 2))


def test_bare_generator_in_a_token_position_is_refused():
    # a generator is a 2-tuple (kind, indices): in a token position it
    # unpacks with its indices as the exponent, which is refused
    g = hd(1, 2)
    for w in ((g,), ((hd(2, 1), 1), g)):
        with pytest.raises(PreconditionError, match="exponents must be"):
            realize_word(CFG21, w)
    # drag_word takes a bare generator as a token of exponent 1, and
    # refuses a generator's fields or a generator as an exponent
    assert drag_word(g) == ((g, 1),)
    for token in (tuple(g), (g, hd(2, 1))):
        with pytest.raises(ValueError, match="exponents must be"):
            drag_word(token)


def test_generator_domain_validation():
    with pytest.raises(PreconditionError):
        realize(CFG21, hd(1, 1))
    with pytest.raises(PreconditionError):
        realize(CFG21, hd(1, 3))           # 3 is not a loop index
    with pytest.raises(PreconditionError):
        realize(CFG30, cd_minus(1, 1, 2))  # indices not distinct
    with pytest.raises(PreconditionError):
        realize(CFG30, cd_minus(1, 3, 2))  # j >= k
    with pytest.raises(PreconditionError):
        realize(CFG21, bcd(1, 2, 1, 2))    # boundary (1,2) absent
    with pytest.raises(PreconditionError):
        realize(CFG21, bcd(1, 1, 2, 1))    # i >= j
    with pytest.raises(PreconditionError):
        realize(CFG21, pd(2, 1))           # block 2 absent


def test_realized_images_hd_cd():
    f = realize(CFG21, hd(1, 2))
    assert [word_text(w) for w in f.images] == ["x2 x1 x2^-1", "x2", "x3"]
    g = realize(CFG30, cd_minus(1, 2, 3))
    assert word_text(g.images[0]) == "x2 x3 x2^-1 x3^-1 x1"
    h = realize(CFG30, cd_plus(1, 2, 3))
    assert word_text(h.images[0]) == "x1 x3 x2 x3^-1 x2^-1"


def test_realized_images_pd():
    config = partition_config(2, 2, [[1], [2]])  # basis: y1 y2 h1 h2
    f = realize(config, pd(2, 1))
    assert [word_text(w) for w in f.images] == [
        "x1", "x2", "x3", "x1 x4 x1^-1"]
    g = realize(config, pd(1, 1))
    assert [word_text(w) for w in g.images] == [
        "x1", "x1^-1 x2 x1", "x3", "x1^-1 x4 x1"]


def test_realize_word_composes_rightmost_first():
    w = drag_word(hd(1, 2), hd(1, 2))
    f = realize_word(CFG21, w)
    assert word_text(f.images[0]) == "x2 x2 x1 x2^-1 x2^-1"
    manual = compose(realize(CFG21, hd(1, 2)), realize(CFG21, hd(1, 2)))
    assert same_map(f, manual)


def test_realize_word_inverse_word_gives_inverse_map():
    config = partition_config(3, 1, [[1]])
    w = drag_word(hd(1, 2), (cd_minus(1, 2, 3), -1), pd(1, 3))
    f = realize_word(config, w)
    g = realize_word(config, drag_word_inv(w))
    assert same_map(compose(f, g), identity_map(f.rank))
    assert same_map(compose(g, f), identity_map(f.rank))


def test_realize_empty_word_is_identity():
    f = realize_word(CFG23, ())
    expected = identity_map(capped_rank(CFG23))
    assert f.images == expected.images
    assert f.inverse_images == expected.inverse_images


def test_all_generator_counts():
    # n loops: n(n-1) HD, 2 * n*(n-1)(n-2)/2 CD, C(n,2) BCD per boundary,
    # n PD per block
    for config, expected in ((CFG21, 2 + 0 + 1 + 2),
                             (CFG30, 6 + 6 + 0 + 0),
                             (CFG23, 2 + 0 + 3 + 4)):
        assert len(all_generators(config)) == expected


def test_reduced_set_size_matches_formula_rank():
    for config in standard_grid():
        assert len(reduced_generating_set(config)) == formula_rank(config)


def test_reduced_set_equals_the_direct_enumeration():
    # the filter of all_generators keeps the list, and its order, of an
    # enumeration family by family
    for config in standard_grid(ns=(1, 2, 3, 4, 5), bs=(0, 1, 2, 3, 4)):
        assert (reduced_generating_set(config)
                == reduced_generating_set_direct(config)), config


def test_reduced_set_is_subset_of_full():
    for config in (CFG21, CFG30, CFG22, CFG23):
        full = set(g.token() for g in all_generators(config))
        assert all(g.token() in full for g in reduced_generating_set(config))


def test_membership_and_certificates_sample():
    for config in (CFG21, CFG30, CFG23):
        for g in all_generators(config):
            f = realize(config, g)
            assert membership_IOP(config, f)
            assert verify_certificate(f)
            assert same_map(compose(f, inverse(f)), identity_map(f.rank))


def test_membership_rejects_wrong_rank():
    with pytest.raises(PreconditionError):
        membership_IOP(CFG21, identity_map(5))


def test_membership_false_for_homology_nontrivial():
    f = push_boundary(CFG22, (1, 2), gen(2, 1))
    assert not membership_IOP(CFG22, f)


def test_pd_relation_samples():
    assert verify_pd_relation(CFG21, 1)
    assert verify_pd_relation(CFG21, 2)
    assert verify_pd_relation(CFG30, 3)      # b = 0: identity in Out
    assert verify_pd_relation(CFG23, 1)
    with pytest.raises(PreconditionError):
        verify_pd_relation(CFG21, 3)


def test_bcd_relation_samples():
    assert verify_bcd_relation(CFG22, 1, 1, 2)
    assert verify_bcd_relation(CFG23, 1, 1, 2)
    assert verify_bcd_relation(CFG23, 2, 1, 2)
    with pytest.raises(PreconditionError):
        verify_bcd_relation(CFG22, 1, 2, 1)


def test_cd_identity_expression():
    ok, expr = verify_cd_identity(CFG30, 1, 2, 3)
    assert ok
    assert expr == "HD:1,3^-1 HD:1,2^-1 HD:1,3 HD:1,2"


def test_bcd_is_push_of_inverse_commutator():
    for config in (CFG21, CFG22, CFG23):
        n = config.n
        for r in range(1, config.num_blocks + 1):
            for s in range(1, len(config.block(r)) + 1):
                gamma = inv(comm(gen(n, 1), gen(n, 2)))
                assert same_map(realize(config, bcd(r, s, 1, 2)),
                                push_boundary(config, (r, s), gamma))


def test_push_boundary_validation():
    with pytest.raises(PreconditionError):
        push_boundary(CFG21, (2, 1), gen(2, 1))
    with pytest.raises(PreconditionError):
        push_boundary(CFG21, (1, 2), gen(2, 1))
    with pytest.raises(PreconditionError):
        push_boundary(CFG21, (1, 1), gen(3, 1))  # wrong rank


@given(words_strategy(2, 6), words_strategy(2, 6))
def test_push_boundary_homomorphism(u, v):
    from torelli import mul
    lhs = push_boundary(CFG22, (1, 2), mul(u, v))
    rhs = compose(push_boundary(CFG22, (1, 2), u),
                  push_boundary(CFG22, (1, 2), v))
    assert same_map(lhs, rhs)


@given(words_strategy(2, 6))
def test_push_boundary_certificate(gamma):
    for boundary in ((1, 1), (1, 2)):
        assert verify_certificate(push_boundary(CFG22, boundary, gamma))


def test_push_sides_by_case():
    # the four multi-block cases and both singleton cases, pinned
    gamma = gen(2, 1)
    f = push_boundary(CFG23, (1, 2), gamma)        # r=1, s=2: gamma^-1 . arc
    assert word_text(f.images[2]) == "x1^-1 x3"
    g = push_boundary(CFG23, (2, 1), gamma)        # singleton: conjugation
    assert word_text(g.images[3]) == "x1^-1 x4 x1"
    two = partition_config(2, 2, [[1], [2]])
    h = push_boundary(two, (2, 1), gamma)          # r=2 singleton
    assert word_text(h.images[3]) == "x1^-1 x4 x1"
    big = partition_config(2, 4, [[1, 2], [3, 4]])  # arcs: 3 (blk1), 4 (blk2)
    k = push_boundary(big, (2, 2), gamma)          # r=2, s=2: arc . gamma
    assert word_text(k.images[3]) == "x4 x1"
    p = push_boundary(big, (2, 1), gamma)          # r=2, s=1: gamma^-1 . arc
    assert word_text(p.images[3]) == "x1^-1 x4"
    q = push_boundary(big, (1, 1), gamma)          # r=1, s=1: conj + gamma.arc
    assert word_text(q.images[2]) == "x1 x3"
    assert word_text(q.images[1]) == "x1 x2 x1^-1"
    assert word_text(q.images[3]) == "x1 x4 x1^-1"


def test_drag_actions_are_reduced_letters_matching_word_oracle():
    # every generator of every configuration of the verify grid (n <= 4,
    # b <= 3), both signs: the expanded action is the oracle's on every
    # generator, fixed ones included
    for config in standard_grid(ns=(2, 3, 4), bs=(0, 1, 2, 3)):
        basis = build_basis(config)
        m = basis.m
        for g in all_generators(config):
            for sigma in (1, -1):
                action = _drag_action(basis, g, sigma)
                for letters in (action.inner, *action.table.values()):
                    assert type(letters) is tuple
                    assert reduce(letters, m).letters == letters
                if action.inner:
                    # only the two inner cases, correcting block 1 alone
                    assert (g.kind, g.indices[0]) in (("BCD", 1), ("PD", 1))
                    assert g.kind == "PD" or g.indices[1] == 1
                    assert set(action.table) == set(basis.block_indices(1))
                want = drag_action_words(basis, g, sigma)
                assert _realize_images(m, (action,)) == tuple(
                    want.get(k, gen(m, k)) for k in range(1, m + 1))
                assert _moved_images(m, (action,)) == {
                    k: list(x.letters) for k, x in want.items()
                    if x != gen(m, k)}


@given(st.data())
def test_push_actions_are_reduced_letters_matching_word_oracle(data):
    # every boundary of every configuration of the verify grid (n <= 4,
    # b <= 3), around a random reduced loop of each rank n: every image
    # is reduced as written, and the action is the oracle's
    loops = {n: data.draw(words_strategy(n)) for n in (2, 3, 4)}
    for config in standard_grid(ns=(2, 3, 4)):
        basis, gamma = build_basis(config), loops[config.n]
        m = basis.m
        for r, s in map(config.boundary_address, range(1, config.b + 1)):
            action = _push_action(basis, r, s, gamma.letters)
            for letters in (action.inner, *action.table.values()):
                assert type(letters) is tuple
                assert reduce(letters, m).letters == letters
            if (r, s) == (1, 1):
                # the conjugator branch: compare the whole maps
                assert action.inner == gamma.letters
                assert _realize_images(m, (action,)) == \
                    push_boundary_words(config, (1, 1), gamma)[0]
                continue
            want = push_action_words(basis, r, s, Word(m, gamma.letters))
            assert action.inner == ()
            assert {k: Word(m, x) for k, x in action.table.items()} == want


@pytest.mark.parametrize("config", (CFG21, CFG22))
@pytest.mark.parametrize("gamma_text", (
    "x1 x2", "x2 x1", "x1^-1 x2 x1", "x2 x1^-1", "x1 x2 x1^-1 x2^-1"))
def test_push_at_first_boundary_cancels_inside_images(config, gamma_text):
    # gamma begins or ends with a loop letter it conjugates, so the
    # images of the push (ends) or of its inverse (begins) lose letters
    gamma = parse_word(gamma_text, 2)
    f = push_boundary(config, (1, 1), gamma)
    images, inverse_images = push_boundary_words(config, (1, 1), gamma)
    assert f.images == images
    assert f.inverse_images == inverse_images
    raw = 2 * len(gamma) + 1
    assert len(f.images[abs(gamma.letters[-1]) - 1]) < raw
    assert len(f.inverse_images[abs(gamma.letters[0]) - 1]) < raw


def test_tau_star_matches_formula_samples():
    for config in (CFG21, CFG30, CFG23):
        for g in all_generators(config):
            assert tau_star(config, drag_word(g)) == tau_star_formula(config, g)


def test_tau_star_formula_rejects_bad_generator():
    with pytest.raises(PreconditionError):
        tau_star_formula(CFG21, pd(2, 1))


def test_realize_word_rejects_bad_generator():
    with pytest.raises(PreconditionError):
        realize_word(CFG21, drag_word(hd(1, 3)))


@pytest.mark.parametrize("exponent", [2, 0, -2])
def test_realize_word_rejects_exponent_not_unit(exponent):
    w = ((hd(1, 2), exponent),)
    with pytest.raises(PreconditionError, match="exponents must be"):
        realize_word(CFG21, w)
    with pytest.raises(PreconditionError, match="exponents must be"):
        tau_star(CFG21, w)


def test_realize_word_first_bad_token_raises():
    with pytest.raises(PreconditionError, match="HD:1,3"):
        realize_word(CFG21, ((hd(1, 2), 1), (hd(1, 3), 1), (hd(1, 2), 5)))
    with pytest.raises(PreconditionError, match="exponents must be"):
        realize_word(CFG21, ((hd(1, 2), 5), (hd(1, 3), 1)))


def _fold(config, w):
    """The realization by the definition: compose the single drags."""
    acc = identity_map(capped_rank(config))
    for g, e in w:
        f = realize(config, g)
        acc = compose(acc, f if e == 1 else inverse(f))
    return acc


@given(st.data())
def test_realize_word_matches_compose_fold(data):
    config = data.draw(st.sampled_from(FOLD_CONFIGS))
    w = data.draw(drag_words_strategy(all_generators(config)))
    got = realize_word(config, w)
    want = _fold(config, w)
    assert got.images == want.images
    assert got.inverse_images == want.inverse_images
    assert verify_certificate(got)


# a singleton block 1, a block 1 of two labels, and one of three
INNER_CONFIGS = (CFG21, CFG243, partition_config(3, 3, [[1, 2, 3]]))


@given(st.data())
def test_realize_word_matches_compose_fold_on_block_one_drags(data):
    # BCD(1,1,i,j) and PD(1,j) conjugate everything off block 1, so the
    # loop keeps their conjugator apart; words of up to 40 tokens, most
    # of them those drags
    config = data.draw(st.sampled_from(INNER_CONFIGS))
    gens = all_generators(config)
    favoured = [g for g in gens if g.indices[0] == 1 and (
        g.kind == "PD" or g.kind == "BCD" and g.indices[1] == 1)]
    w = data.draw(drag_words_toward_strategy(favoured, gens))
    got = realize_word(config, w)
    want = _fold(config, w)
    assert got.images == want.images
    assert got.inverse_images == want.inverse_images
    assert realize_images(config, w) == want.images


@pytest.mark.parametrize("config", FOLD_CONFIGS)
def test_realize_word_cancelling_pairs(config):
    identity = identity_map(capped_rank(config))
    for g in all_generators(config):
        for e in (1, -1):
            f = realize_word(config, ((g, e), (g, -e)))
            assert f.images == identity.images
            assert f.inverse_images == identity.inverse_images
            assert realize_images(config, ((g, e), (g, -e))) == f.images
            h = realize_word(config, ((g, e), (g, -e), (g, e)))
            want = _fold(config, ((g, e),))
            assert h.images == want.images
            assert h.inverse_images == want.inverse_images
            assert realize_images(config, ((g, e), (g, -e), (g, e))) == \
                want.images


@given(st.data())
def test_realize_images_are_the_images_of_realize_word(data):
    config = data.draw(st.sampled_from(FOLD_CONFIGS))
    w = data.draw(drag_words_strategy(all_generators(config)))
    assert realize_images(config, w) == realize_word(config, w).images


@pytest.mark.parametrize("w", [
    ((hd(1, 2), 2),),
    ((hd(1, 2), 0),),
    ((hd(1, 2), -2),),
    ((hd(1, 2), 1), (hd(1, 3), 1), (hd(1, 2), 5)),
    ((hd(1, 2), 5), (hd(1, 3), 1)),
])
def test_realize_images_rejects_as_realize_word(w):
    # the same validation, so the same first bad token and message
    with pytest.raises(PreconditionError) as want:
        realize_word(CFG21, w)
    with pytest.raises(PreconditionError) as got:
        realize_images(CFG21, w)
    assert str(got.value) == str(want.value)


def test_verify_config_depends_only_on_n_and_block_sizes():
    # build_basis and all_generators read only len(block), so two configs
    # with the same n and sequence of block sizes get the same checks
    classes: dict = {}
    for config in standard_grid():
        key = (config.n, tuple(len(block) for block in config.partition))
        classes.setdefault(key, []).append(verify_config(config))
    assert len(classes) == 16
    for key, lists in classes.items():
        assert all(checks == lists[0] for checks in lists), key


def test_verify_config_modes_split_the_checks():
    checks = verify_config(CFG23)
    membership = verify_config(CFG23, "membership")
    relations = verify_config(CFG23, "relations")
    assert checks[:len(membership) + len(relations)] == membership + relations
    assert {c.name for c in checks} == {
        "membership", "pd_relation", "bcd_relation", "tau_table", "rank"}
    assert all(c.ok for c in checks)
    with pytest.raises(ValueError):
        verify_config(CFG23, "relation")


def test_verify_config_reports_a_generator_outside_torelli(
        hd12_transvection):
    # its membership, its tau_table and the rank check fail, and nothing
    # raises (the parent raised PreconditionError out of tau)
    checks = verify_config(CFG23, "all")
    count = len(all_generators(CFG23))
    assert [c for c in checks if c.name in ("membership", "tau_table",
                                             "rank") and not c.ok] == [
        ("membership", "HD:1,2", False), ("tau_table", "HD:1,2", False),
        ("rank", f"not computed: 1/{count} generators failed membership",
         False)]


def _dense_rank_from_taus(config, taus):
    """The dense route: every Johnson image flattened to a full row."""
    m = capped_rank(config)
    rows = [list(flatten(t)) for t in taus.values()]
    if config.b == 0:
        inner_rows = [list(flatten(tau(inner_automorphism(m, gen(m, j)))))
                      for j in range(1, config.n + 1)]
        computed = matrix_rank(rows + inner_rows) - matrix_rank(inner_rows)
    else:
        computed = matrix_rank(rows)
    reduced_rows = [list(flatten(taus[g]))
                    for g in reduced_generating_set(config)]
    return computed, formula_rank(config), smith_invariants(reduced_rows)


def test_sparse_rank_route_equals_the_dense_route():
    configs = standard_grid(ns=(2, 3, 4))
    assert any(config.b == 0 for config in configs)
    for config in configs:
        m, gens = capped_rank(config), all_generators(config)
        sparse = {g: _tau_columns(m, _moved_word_images(config, ((g, 1),)))
                  for g in gens}
        dense = {g: tau_star(config, ((g, 1),)) for g in gens}
        assert _rank_from_taus(config, sparse) == \
            _dense_rank_from_taus(config, dense), config


def test_rank_check_falls_back_to_the_dense_smith_form(monkeypatch):
    # Johnson rows of the reduced set that span no summand, one row
    # doubled (a non-primitive row) or repeated (a row with zero image
    # in the quotient by the others), go through snf on the dense rows;
    # the real rows span a summand and never do.  The summand question
    # is asked once, on the sparse rows, and not again on the dense ones
    dense_calls = []
    real_snf = drags.snf
    monkeypatch.setattr(drags, "snf",
                        lambda a: dense_calls.append(a) or real_snf(a))
    summand_calls = []
    real_spans = lattice._spans_summand_rows

    def spans(rows):
        summand_calls.append(rows)
        return real_spans(rows)
    monkeypatch.setattr(drags, "_spans_summand_rows", spans)
    monkeypatch.setattr(lattice, "_spans_summand_rows", spans)
    for config in (CFG30, CFG23):
        m, gens = capped_rank(config), all_generators(config)
        taus = {g: _tau_columns(m, _moved_word_images(config, ((g, 1),)))
                for g in gens}
        first, second = reduced_generating_set(config)[:2]
        assert _rank_from_taus(config, taus)[2] == [1] * len(
            reduced_generating_set(config))
        assert not dense_calls
        doubled = {k: {key: 2 * c for key, c in col.items()}
                   for k, col in taus[first].items()}
        for forced in ({**taus, first: doubled},
                       {**taus, second: taus[first]}):
            dense = [list(flatten(_hom_table(m, forced[g])))
                     for g in reduced_generating_set(config)]
            summand_calls.clear()
            invariants = _rank_from_taus(config, forced)[2]
            assert len(summand_calls) == 1
            assert dense_calls.pop() and not dense_calls
            assert invariants == smith_invariants(dense) == \
                snf(dense).invariants()
            assert invariants != [1] * len(dense)


def test_verify_config_leaves_the_action_table_unchanged(monkeypatch):
    # the first action of every realization seeds its image table with
    # copies, so no check writes into the shared table of actions
    tables = []
    real = drags._word_actions

    def recorded(config, w):
        m, actions = real(config, w)
        tables.append((actions, copy.deepcopy(actions)))
        return m, actions

    monkeypatch.setattr(drags, "_word_actions", recorded)
    for config in (*FOLD_CONFIGS, *INNER_CONFIGS):
        assert all(check.ok for check in verify_config(config))
    assert len(tables) == len(FOLD_CONFIGS) + len(INNER_CONFIGS)
    for actions, snapshot in tables:
        assert actions == snapshot


def _materialized(m: int, moved: dict) -> tuple:
    """The full image tuple of the map with these moved images."""
    return tuple(Word(m, tuple(moved.get(k, [k]))) for k in range(1, m + 1))


def test_sparse_membership_and_tau_equal_the_dense_checks():
    # every generator of the verify grid, the inner cases PD(1, j) and
    # BCD(1, 1, i, j) among them: the checks on moved images give the
    # verdicts and tau columns of the checks on whole maps
    inner = 0
    for config in standard_grid(ns=(2, 3, 4)):
        m = capped_rank(config)
        for g in all_generators(config):
            f = realize_word(config, ((g, 1),))
            moved = _moved_word_images(config, ((g, 1),))
            moved_inv = _moved_word_images(config, ((g, -1),))
            assert _materialized(m, moved) == f.images
            assert _materialized(m, moved_inv) == f.inverse_images
            assert (_homology_trivial(moved)
                    and _certified(moved, moved_inv)) == \
                (is_homology_trivial(f) and verify_certificate(f))
            # the dense checks wrap the same kernels; the matrix is the
            # oracle that does not
            assert _homology_trivial(moved) == (abelianization_matrix(f) == [
                [int(a == b) for b in range(m)] for a in range(m)])
            columns = _tau_columns(m, moved)
            full = tuple(ext_vector(m, columns.get(k, {}))
                         for k in range(1, m + 1))
            assert full == tau(f).columns == \
                tau_star_formula(config, g).columns
            inner += g.indices[0] == 1 and (
                g.kind == "PD" or g.kind == "BCD" and g.indices[1] == 1)
    assert inner > 0


def test_sparse_membership_fails_as_the_dense_one(hd12_transvection):
    # a transvection fails the homology check on both routes, and a
    # wrong inverse family fails both certificate checks
    f = realize_word(CFG23, ((hd(1, 2), 1),))
    moved = _moved_word_images(CFG23, ((hd(1, 2), 1),))
    assert not is_homology_trivial(f) and not _homology_trivial(moved)
    assert verify_certificate(f) and _certified(
        moved, _moved_word_images(CFG23, ((hd(1, 2), -1),)))
    assert not verify_certificate(GroupMap(f.rank, f.images, f.images))
    assert not _certified(moved, moved)


@given(st.data())
def test_sparse_images_materialize_to_realize_images(data):
    # words of up to 40 tokens, most of them the inner drags BCD(1,1,i,j)
    # and PD(1,j), on configurations with a conjugator and without
    config = data.draw(st.sampled_from(INNER_CONFIGS + FOLD_CONFIGS))
    gens = all_generators(config)
    favoured = [g for g in gens if g.indices[0] == 1 and (
        g.kind == "PD" or g.kind == "BCD" and g.indices[1] == 1)] or gens
    w = data.draw(drag_words_toward_strategy(favoured, gens))
    moved = _moved_word_images(config, w)
    m = capped_rank(config)
    assert all(x != [k] for k, x in moved.items())
    assert _materialized(m, moved) == realize_images(config, w)


@given(st.data())
def test_fold_equals_a_fold_with_inverses_built_up_front(data):
    # random actions, with a conjugator and without, moving one generator
    # or several: the fold that builds an inverse image only when it is
    # read gives every image, and the moved ones, of the eager fold
    m = data.draw(st.integers(1, 5))
    actions = []
    for _ in range(data.draw(st.integers(0, 8))):
        inner = data.draw(st.just(Word(m)) | words_strategy(m, 4))
        moved = data.draw(st.lists(st.integers(1, m), min_size=1,
                                   max_size=3, unique=True))
        actions.append(Action(inner.letters, {
            k: data.draw(words_strategy(m, 5)).letters for k in moved}))
    want = fold_actions_eagerly(m, actions)
    assert _realize_images(m, actions) == want
    assert _moved_images(m, actions) == {
        k: list(w.letters) for k, w in enumerate(want, 1) if w.letters != (k,)}


@given(st.data())
def test_sparse_certificate_equals_the_dense_one(data):
    # two drag words, the second often the inverse of the first
    config = data.draw(st.sampled_from(FOLD_CONFIGS))
    gens = all_generators(config)
    w = data.draw(drag_words_strategy(gens))
    v = data.draw(st.just(drag_word_inv(w)) | drag_words_strategy(gens))
    m = capped_rank(config)
    f = GroupMap(m, realize_images(config, w), realize_images(config, v))
    assert _certified(_moved_word_images(config, w),
                      _moved_word_images(config, v)) == verify_certificate(f)


def test_zero_columns_change_no_summand_or_invariant():
    # rows supported on S span a summand of Z^N exactly when they span
    # one of Z^S, and the zero columns outside S add no invariant
    rng = random.Random(17)
    verdicts = set()
    for _ in range(300):
        k, width = rng.randint(1, 4), rng.randint(1, 5)
        core = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(k)]
        zeros = sorted(rng.sample(range(width + 4), rng.randint(0, 4)))
        padded = [row[:] for row in core]
        for c in zeros:
            for row in padded:
                row.insert(c, 0)
        support = [c for c in range(len(padded[0]))
                   if any(row[c] for row in padded)]
        restricted = [[row[c] for c in support] for row in padded]
        summand = spans_summand(padded)
        verdicts.add(summand)
        assert spans_summand(restricted) == summand
        assert snf(padded).invariants() == snf(restricted).invariants()
    assert verdicts == {True, False}


def _compositions(b: int) -> list[tuple[int, ...]]:
    """Every sequence of positive block sizes with sum b."""
    if b == 0:
        return [()]
    return [(first, *rest) for first in range(1, b + 1)
            for rest in _compositions(b - first)]


def _composition_config(n: int, sizes: tuple[int, ...]):
    labels = iter(range(1, sum(sizes) + 1))
    return partition_config(n, sum(sizes), [[next(labels) for _ in range(k)]
                                            for k in sizes])


@pytest.mark.slow
def test_verify_sweep_one_config_per_composition_n2_to_7_b_up_to_6():
    # the checks depend only on n and the block sizes (see the label
    # invariance test), so one configuration per composition of b covers
    # every partition; every failing check is reported
    configs = [_composition_config(n, sizes) for n in range(2, 8)
               for b in range(7) for sizes in _compositions(b)]
    assert len(configs) == 6 * 64
    total, failures = 0, []
    for config in configs:
        checks = verify_config(config)
        total += len(checks)
        failures.extend((config, c) for c in checks if not c.ok)
    print(f"composition sweep: {len(configs)} configs, {total} checks, "
          f"{len(failures)} failed")
    # 81,030 checks for n <= 6 and 59,690 for n = 7
    assert total == 140720
    assert not failures, failures
