import pytest
from hypothesis import given

from torelli import (
    ParseError,
    PreconditionError,
    TomaszewskiFactor,
    Word,
    comm,
    conj,
    factor_word,
    gen,
    in_commutator_subgroup,
    inv,
    mul,
    parse_factor,
    partition_config,
    power,
    push_boundary,
    push_factorization,
    realize_word,
    rho,
    same_map,
    tomaszewski_factor,
    wedge,
    word_text,
)
from torelli.johnson import ext_vector

from .oracles import commutator_words_strategy, words_strategy


def test_factor_validation_and_rank():
    f = TomaszewskiFactor(1, 2, (0, 1, -2))
    assert f.rank == 3
    with pytest.raises(ValueError):
        TomaszewskiFactor(2, 1, (0, 0))
    with pytest.raises(ValueError):
        TomaszewskiFactor(1, 3, (0, 0))  # rank 2 cannot contain x_3


def test_factor_text_round_trip():
    f = TomaszewskiFactor(2, 3, (4, -1))
    assert f.text() == "T:2,3:[4,-1]"
    assert parse_factor(f.text()) == f
    with pytest.raises(ParseError):
        parse_factor("T:2,3:(4)")
    with pytest.raises(ParseError):
        parse_factor("S:2,3:[4,-1]")


def test_factor_word_examples():
    assert word_text(factor_word(TomaszewskiFactor(1, 2, (0, 0)))) == \
        "x1 x2 x1^-1 x2^-1"
    assert word_text(factor_word(TomaszewskiFactor(1, 2, (1, 0)))) == \
        "x1 x1 x2 x1^-1 x2^-1 x1^-1"
    assert word_text(factor_word(TomaszewskiFactor(1, 2, (0, 1)))) == \
        "x2 x1 x2 x1^-1 x2^-1 x2^-1"
    # conjugator letters come in descending index order
    w = factor_word(TomaszewskiFactor(1, 3, (1, 1, 0)))
    assert w == conj(mul(gen(3, 2), gen(3, 1)),
                     comm(gen(3, 1), gen(3, 3)))


def test_in_commutator_subgroup():
    assert in_commutator_subgroup(comm(gen(2, 1), gen(2, 2)))
    assert in_commutator_subgroup(Word(2))
    assert not in_commutator_subgroup(gen(2, 1))


def test_factorization_of_basic_commutators():
    got = tomaszewski_factor(comm(gen(2, 1), gen(2, 2)))
    assert [(f.text(), e) for f, e in got.factors] == [("T:1,2:[0,0]", 1)]

    got = tomaszewski_factor(conj(gen(2, 2), comm(gen(2, 1), gen(2, 2))))
    assert [(f.text(), e) for f, e in got.factors] == [("T:1,2:[0,1]", 1)]

    got = tomaszewski_factor(comm(gen(2, 1), power(gen(2, 2), 2)))
    assert [(f.text(), e) for f, e in got.factors] == [
        ("T:1,2:[0,0]", 1), ("T:1,2:[0,1]", 1)]


def test_factorization_of_inverse_commutator():
    got = tomaszewski_factor(inv(comm(gen(2, 1), gen(2, 2))))
    assert [(f.text(), e) for f, e in got.factors] == [("T:1,2:[0,0]", -1)]


def test_factorization_of_identity_is_empty():
    assert tomaszewski_factor(Word(3)).factors == ()


def test_factorization_requires_commutator_subgroup():
    with pytest.raises(PreconditionError):
        tomaszewski_factor(gen(2, 1))


def test_factorization_is_deterministic():
    w = mul(conj(gen(2, 2), comm(gen(2, 1), gen(2, 2))),
            comm(gen(2, 2), gen(2, 1)))
    a = tomaszewski_factor(w)
    b = tomaszewski_factor(w)
    assert a.factors == b.factors
    assert a.multiply_back() == w


@given(commutator_words_strategy(2))
def test_round_trip_rank2(w):
    fact = tomaszewski_factor(w)
    assert fact.multiply_back() == w


@given(commutator_words_strategy(3))
def test_round_trip_rank3(w):
    fact = tomaszewski_factor(w)
    assert fact.multiply_back() == w
    for f, e in fact.factors:
        assert f.rank == 3
        assert e in (1, -1)


@given(commutator_words_strategy(3))
def test_rho_from_factor_exponents(w):
    table = {}
    for f, e in tomaszewski_factor(w).factors:
        table[(f.i, f.j)] = table.get((f.i, f.j), 0) + e
    assert ext_vector(3, table) == rho(w)


def test_rho_of_single_factor_is_wedge():
    f = TomaszewskiFactor(1, 3, (2, -1, 1))
    assert rho(factor_word(f)) == wedge(3, 1, 3)


CFG22 = partition_config(2, 2, [[1, 2]])
CFG31 = partition_config(3, 1, [[1]])
CFG33 = partition_config(3, 3, [[1], [2, 3]])


def _has_cancelling_pair(dw) -> bool:
    return any(g == h and e == -f for (g, e), (h, f) in zip(dw, dw[1:]))


def test_push_factorization_matches_push_boundary_example():
    w = comm(gen(2, 1), gen(2, 2))
    dw = push_factorization(CFG22, (1, 2), w)
    assert same_map(realize_word(CFG22, dw), push_boundary(CFG22, (1, 2), w))


def test_push_factorization_structure():
    # conjugated factors become HD-conjugated single BCD letters
    w = conj(gen(2, 2), comm(gen(2, 1), gen(2, 2)))
    dw = push_factorization(CFG22, (1, 1), w)
    kinds = [g.kind for g, _ in dw]
    assert kinds == ["HD", "BCD", "HD"]
    assert dw[0][0].token() == "HD:1,2" and dw[0][1] == 1
    assert dw[2][0].token() == "HD:1,2" and dw[2][1] == -1
    assert dw[1][0].token() == "BCD:1,1,1,2" and dw[1][1] == -1


@given(words_strategy(2, 5), words_strategy(2, 5))
def test_push_factorization_matches_push_boundary(a, b):
    w = comm(a, b)
    for boundary in ((1, 1), (1, 2)):
        dw = push_factorization(CFG22, boundary, w)
        assert same_map(realize_word(CFG22, dw),
                        push_boundary(CFG22, boundary, w))


def test_push_factorization_requires_commutator_word():
    with pytest.raises(PreconditionError):
        push_factorization(CFG22, (1, 1), gen(2, 1))
    with pytest.raises(PreconditionError):
        push_factorization(CFG22, (1, 1), gen(3, 1))


def test_push_factorization_is_freely_reduced_example():
    # two equal conjugated factors: ... HD:1,2^-1 | HD:1,2 ... meet and cancel
    c = conj(gen(2, 2), comm(gen(2, 1), gen(2, 2)))
    dw = push_factorization(CFG22, (1, 1), mul(c, c))
    assert [(g.token(), e) for g, e in dw] == [
        ("HD:1,2", 1), ("BCD:1,1,1,2", -1), ("BCD:1,1,1,2", -1),
        ("HD:1,2", -1)]
    assert same_map(realize_word(CFG22, dw),
                    push_boundary(CFG22, (1, 1), mul(c, c)))


@given(commutator_words_strategy(3))
def test_push_factorization_reduced_and_realizes_push(w):
    for config in (CFG31, CFG33):
        for r in range(1, config.num_blocks + 1):
            for s in range(1, len(config.block(r)) + 1):
                dw = push_factorization(config, (r, s), w)
                assert not _has_cancelling_pair(dw)
                assert same_map(realize_word(config, dw),
                                push_boundary(config, (r, s), w))
