import pytest
from hypothesis import given
from hypothesis import strategies as st

from torelli import (
    Factorization,
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
    partition_config,
    power,
    push_boundary,
    push_factorization,
    realize_word,
    rho,
    same_map,
    standard_grid,
    tomaszewski_factor,
    wedge,
    word_text,
)
from torelli import drags, rewriter
from torelli.johnson import ext_vector

from .oracles import (
    commutator_words_strategy,
    expansion_size_per_letter_sum,
    push_factorization_tokens,
    factor_word_words,
    mul_fold,
    words_strategy,
)


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


@st.composite
def _factors(draw):
    """Factors of rank 2..5 with exponents in [-3, 3]."""
    rank = draw(st.integers(2, 5))
    i = draw(st.integers(1, rank - 1))
    j = draw(st.integers(i + 1, rank))
    d = draw(st.lists(st.integers(-3, 3), min_size=rank - i + 1,
                      max_size=rank - i + 1))
    return TomaszewskiFactor(i, j, tuple(d))


@given(_factors())
def test_factor_word_matches_word_oracle(f):
    assert factor_word(f) == factor_word_words(f)


def test_factor_word_conjugator_cancels_into_commutator():
    # d_i < 0 ends the conjugator with x_i^-1, which meets the leading
    # x_i of the commutator; with d_i = -1 and d_j < 0, x_j^-1 then
    # meets x_j as well, leaving [x_1^-1, x_2^-1]
    f = TomaszewskiFactor(1, 2, (-1, -1))
    assert factor_word(f) == factor_word_words(f)
    assert word_text(factor_word(f)) == "x1^-1 x2^-1 x1 x2"
    f = TomaszewskiFactor(1, 3, (-2, 0, 1))
    assert factor_word(f) == factor_word_words(f)
    assert len(factor_word(f)) < 2 * 3 + 4


def _rank3_factors():
    def factor(i, j, d):
        return TomaszewskiFactor(i, j, tuple(d[:4 - i]))

    pick = st.tuples(st.sampled_from(((1, 2), (1, 3), (2, 3))),
                     st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    return st.tuples(pick.map(lambda p: factor(*p[0], p[1])),
                     st.sampled_from((1, -1)))


@given(st.lists(_rank3_factors(), max_size=6), st.data())
def test_multiply_back_matches_mul_fold(head, data):
    # the head is followed by the inverses of its last k factors, so
    # whole factors cancel and the cancellation spans several of them
    k = data.draw(st.integers(0, len(head)))
    tail = data.draw(st.lists(_rank3_factors(), max_size=3))
    factors = head + [(f, -e) for f, e in reversed(head)][:k] + tail
    want = mul_fold([factor_word_words(f) if e == 1
                     else inv(factor_word_words(f)) for f, e in factors], 3)
    assert Factorization(want, tuple(factors)).multiply_back() == want


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


@given(st.data())
def test_push_factorization_equals_whole_conjugators_cancelled(data):
    # emitting only the conjugator differences between factors gives the
    # word of a whole W . BCD . W^-1 per factor, at every boundary
    config = data.draw(st.sampled_from(
        standard_grid(ns=(2, 3, 4, 5), bs=(1, 2, 3))))
    w = data.draw(commutator_words_strategy(config.n))
    for r, block in enumerate(config.partition, start=1):
        for s in range(1, len(block) + 1):
            assert push_factorization(config, (r, s), w) == \
                push_factorization_tokens(config, (r, s), w)


@pytest.mark.slow
@pytest.mark.parametrize("n, k", [(999, 8), (3, 64)])
def test_push_factorization_equals_whole_conjugators_at_the_cap(n, k):
    # the two inputs at PUSH_MAX_TOKENS: 894,272 and 1,036,288 raw tokens
    w = comm(power(gen(n, 1), k), power(gen(n, 2), k))
    config = partition_config(n, 1, [[1]])
    assert push_factorization(config, (1, 1), w) == \
        push_factorization_tokens(config, (1, 1), w)


@given(st.data())
def test_moved_image_match_agrees_with_whole_images(data):
    # push-factor compares the moved images of the drag word with those
    # of the push's one action: the same verdict as comparing every
    # validated image, for the push's drag word and for one that lacks
    # its last token
    config = data.draw(st.sampled_from(
        standard_grid(ns=(2, 3, 4), bs=(1, 2, 3))))
    w = data.draw(commutator_words_strategy(config.n))
    for r, block in enumerate(config.partition, start=1):
        for s in range(1, len(block) + 1):
            m, action = drags._checked_push(config, (r, s), w)
            pushed = drags._moved_images(m, (action,))
            images = drags._realize_images(m, (action,))
            dw = push_factorization(config, (r, s), w)
            for word in (dw, dw[:-1]):
                assert (drags._moved_word_images(config, word) == pushed) \
                    == (drags.realize_images(config, word) == images)


def _counted_conjugators(monkeypatch) -> list:
    built: list = []
    real = rewriter._conjugator

    def counted(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(rewriter, "_conjugator", counted)
    return built


def test_conjugator_built_once_per_distinct_factor(monkeypatch):
    # w repeats every factor of its square root, so each call meets each
    # distinct factor twice; its conjugator is built once per call
    c = comm(power(gen(3, 1), 3), power(gen(3, 2), -2))
    w = mul(conj(gen(3, 3), c), c)
    w = mul(w, w)
    fact = tomaszewski_factor(w)
    factors = [f for f, _ in fact.factors]
    distinct = list(dict.fromkeys(factors))
    assert len(factors) > len(distinct)
    built = _counted_conjugators(monkeypatch)
    for call in (lambda: tomaszewski_factor(w),
                 lambda: push_factorization(CFG31, (1, 1), w),
                 fact.multiply_back):
        built.clear()
        call()
        assert built == distinct


@pytest.mark.parametrize("corrupt", ["drop", "flip"])
def test_multiply_back_refuses_a_corrupted_factorization(monkeypatch,
                                                         corrupt):
    # the first nonempty expansion of each scan loses its last factor or
    # has that factor's exponent flipped
    real = rewriter._expand_gamma
    seen: list = []

    def corrupted(a, k):
        out = real(a, k)
        if out and not seen:
            seen.append(k)
            f, e = out.pop()
            if corrupt == "flip":
                out.append((f, -e))
        return out

    monkeypatch.setattr(rewriter, "_expand_gamma", corrupted)
    w = comm(power(gen(3, 1), 2), mul(gen(3, 2), gen(3, 3)))
    for call in (lambda: tomaszewski_factor(w),
                 lambda: push_factorization(CFG31, (1, 1), w)):
        seen.clear()
        with pytest.raises(AssertionError, match="multiply-back check"):
            call()
        assert seen


def _raw_factors(w):
    """Factors emitted by the Schreier scan of tomaszewski_factor before
    cancellation, taken from ``_expand_gamma`` itself."""
    a = [0] * w.rank
    out = []
    for letter in w.letters:
        k = abs(letter)
        if letter > 0:
            out.extend(rewriter._expand_gamma(a, k))
            a[k - 1] += 1
        else:
            a[k - 1] -= 1
            out.extend(rewriter._expand_gamma(a, k))
    return out


def _raw_factor_count(w):
    return len(_raw_factors(w))


def _raw_push_tokens(w):
    """Drag tokens push_factorization would build from the raw factors:
    n - 1 handle drags per conjugator letter on each side, and one BCD."""
    return sum(2 * (w.rank - 1) * sum(abs(x) for x in f.d) + 1
               for f, _ in _raw_factors(w))


@given(commutator_words_strategy(3))
def test_schreier_size_counts_the_raw_expansion(w):
    size = rewriter._expansion_size(w)[0]
    assert size == _raw_factor_count(w)
    assert size >= len(tomaszewski_factor(w).factors)


@given(words_strategy(4, 20))
def test_schreier_size_needs_no_commutator_word(w):
    assert rewriter._expansion_size(w)[0] == _raw_factor_count(w)


def test_schreier_size_of_square_commutators():
    for k in (1, 5, 40):
        w = comm(power(gen(3, 1), k), power(gen(3, 2), k))
        assert rewriter._expansion_size(w)[0] == k * k
        assert len(tomaszewski_factor(w).factors) == k * k


@given(commutator_words_strategy(3))
def test_push_tokens_count_the_raw_drag_word(w):
    tokens = rewriter._expansion_size(w)[1]
    assert tokens == _raw_push_tokens(w)
    assert tokens >= len(push_factorization(CFG31, (1, 1), w))


@given(words_strategy(4, 20))
def test_push_tokens_need_no_commutator_word(w):
    assert rewriter._expansion_size(w)[1] == _raw_push_tokens(w)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: words_strategy(n, 40)))
def test_expansion_size_agrees_with_the_per_letter_sum(w):
    assert rewriter._expansion_size(w) == expansion_size_per_letter_sum(w)


def test_push_tokens_of_square_commutators():
    for n, k, tokens in ((3, 64, 1_036_288), (1000, 8, 895_168),
                         (300, 16, 2_296_576), (1000, 64, 515_584_000)):
        w = comm(power(gen(n, 1), k), power(gen(n, 2), k))
        assert rewriter._expansion_size(w)[1] == tokens
