import pytest
from hypothesis import given
from hypothesis import strategies as st

from torelli import (
    ParseError,
    PreconditionError,
    all_generators,
    bcd,
    capped_rank,
    cd_minus,
    cd_plus,
    comm,
    compose,
    drag_word,
    drag_word_inv,
    drag_word_text,
    formula_rank,
    gen,
    hd,
    identity_map,
    inv,
    inverse,
    membership_IOP,
    parse_drag_word,
    partition_config,
    pd,
    push_boundary,
    realize,
    realize_word,
    reduced_generating_set,
    same_map,
    standard_grid,
    tau_star,
    tau_star_formula,
    verify_bcd_relation,
    verify_cd_identity,
    verify_certificate,
    verify_pd_relation,
    word_text,
)
from torelli.drags import DragGenerator

from .oracles import drag_words_strategy, words_strategy

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


def test_generator_shape_validation():
    with pytest.raises(ValueError):
        DragGenerator("HD", (1, 2, 3))
    with pytest.raises(ValueError):
        DragGenerator("XY", (1, 2))


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


@pytest.mark.parametrize("config", FOLD_CONFIGS)
def test_realize_word_cancelling_pairs(config):
    identity = identity_map(capped_rank(config))
    for g in all_generators(config):
        for e in (1, -1):
            f = realize_word(config, ((g, e), (g, -e)))
            assert f.images == identity.images
            assert f.inverse_images == identity.inverse_images
            h = realize_word(config, ((g, e), (g, -e), (g, e)))
            want = _fold(config, ((g, e),))
            assert h.images == want.images
            assert h.inverse_images == want.inverse_images
