import pytest
from hypothesis import given
from hypothesis import strategies as st

from torelli import (
    GroupMap,
    ParseError,
    PreconditionError,
    Word,
    abelianization_matrix,
    abelianization_vector,
    apply,
    comm,
    compose,
    conj,
    gen,
    identity_map,
    inner_automorphism,
    inv,
    inverse,
    is_homology_trivial,
    mul,
    nielsen_generators,
    parse_word,
    power,
    reduce,
    same_map,
    verify_certificate,
    word_text,
)

from .oracles import (
    letters_strategy,
    mul_fold,
    parse_word_per_token,
    substitute_then_reduce,
    words_strategy,
)


def test_reduce_cancels_adjacent_inverses():
    assert reduce([1, 2, -2, 1], 3).letters == (1, 1)
    assert reduce([1, -1], 2).letters == ()
    assert reduce([1, 2, -2, -1], 2).letters == ()


@given(letters_strategy(3))
def test_reduce_idempotent(letters):
    w = reduce(letters, 3)
    assert reduce(w.letters, 3) == w


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word(2, (3,))
    with pytest.raises(ValueError):
        Word(2, (1, -1))
    with pytest.raises(ValueError):
        Word(0)


@given(words_strategy(3), words_strategy(3), words_strategy(3))
def test_mul_associative(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))


@given(words_strategy(3))
def test_inv_is_inverse(w):
    assert mul(w, inv(w)).is_identity()
    assert mul(inv(w), w).is_identity()


@given(st.data())
def test_mul_cancels_deeply_through_the_junction(data):
    # v is the inverse of a random suffix of u, or of all of u, times a
    # random word, so the junction of u and v cancels deep into u
    u = data.draw(words_strategy(3, 16))
    k = data.draw(st.integers(0, len(u)))
    rest = data.draw(words_strategy(3))
    for suffix in (u.letters[len(u) - k:], u.letters):
        v = reduce(inv(Word(3, suffix)).letters + rest.letters, 3)
        assert mul(u, v) == reduce(u.letters + v.letters, 3)


def test_conj_and_comm_conventions():
    # conj(g, w) = g w g^-1 and comm(u, v) = u v u^-1 v^-1, spelled out
    g, w = gen(2, 2), gen(2, 1)
    assert conj(g, w).letters == (2, 1, -2)
    assert comm(gen(2, 1), gen(2, 2)).letters == (1, 2, -1, -2)


def test_power():
    assert power(gen(2, 1), 3).letters == (1, 1, 1)
    assert power(gen(2, 1), -2).letters == (-1, -1)
    assert power(gen(2, 1), 0).is_identity()


@given(words_strategy(3), st.integers(-5, 5))
def test_power_matches_mul_fold(u, k):
    assert power(u, k) == mul_fold([u if k >= 0 else inv(u)] * abs(k), 3)


def test_parse_word_round_trip_examples():
    w = parse_word("x1 x2^-1 x1", 2)
    assert w.letters == (1, -2, 1)
    assert word_text(w) == "x1 x2^-1 x1"
    assert parse_word("e", 5).is_identity()
    assert word_text(Word(4)) == "e"


@given(words_strategy(3))
def test_parse_word_round_trip(w):
    assert parse_word(word_text(w), 3) == w


def test_parse_word_reports_token_position():
    with pytest.raises(ParseError, match="token 2"):
        parse_word("x1 y2", 3)
    with pytest.raises(ParseError, match="token 3"):
        parse_word("x1 x2 x9", 3)
    with pytest.raises(ParseError):
        parse_word("   ", 3)


def test_parse_word_names_the_first_bad_token_of_a_repeat():
    # a token that cannot be read is never stored, so its repeats do not
    # move the position the error names
    with pytest.raises(ParseError, match="^token 2: index 9 out of range"):
        parse_word("x1 x9 x9", 2)
    with pytest.raises(ParseError, match="^token 2: cannot read 'y'$"):
        parse_word("x1 y x1 y", 2)


_GOOD_TOKENS = st.sampled_from(["x1", "x2", "x3", "x4", "x1^-1", "x2^-1",
                                 "x3^-1", "x4^-1"])
_BAD_TOKENS = st.one_of(
    st.sampled_from(["x9", "x0", "x01", "e", "y", "x", "x1^-2", "x1^-1^-1",
                     "x\u0663", "^-1"]),
    st.text(alphabet="x1209^-e", min_size=1, max_size=5))


@given(st.lists(_GOOD_TOKENS, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), _BAD_TOKENS), max_size=3),
       st.integers(-1, 4), st.sampled_from([" ", "  ", "\t", "\n "]))
def test_parse_word_agrees_with_the_per_token_oracle(tokens, bad, rank, sep):
    # the same Word, or the same exception type and message, as a parser
    # that reads every token from scratch, repeats included; x4 is out of
    # range below rank 4, and each other bad token is inserted at a
    # position of its own
    for pos, token in bad:
        tokens.insert(pos, token)
    outcomes = []
    for parse in (parse_word, parse_word_per_token):
        try:
            outcomes.append(parse(sep.join(tokens), rank))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text", ["x\u0663", "x01", "x1 x02^-1", "x\uff11"])
def test_parse_word_rejects_non_ascii_and_zero_padded_indices(text):
    with pytest.raises(ParseError, match="cannot read"):
        parse_word(text, 3)


def test_apply_substitutes_and_reduces():
    f = GroupMap(2, (conj(gen(2, 2), gen(2, 1)), gen(2, 2)))
    image = apply(f, comm(gen(2, 1), gen(2, 2)))
    assert word_text(image) == "x2 x1 x2 x1^-1 x2^-1 x2^-1"


def test_compose_applies_right_argument_first():
    h = GroupMap(2, (conj(gen(2, 2), gen(2, 1)), gen(2, 2)))
    hh = compose(h, h)
    assert word_text(hh.images[0]) == "x2 x2 x1 x2^-1 x2^-1"


@given(words_strategy(2, 8))
def test_compose_agrees_with_apply(w):
    f = GroupMap(2, (mul(gen(2, 1), gen(2, 2)), gen(2, 2)))
    g = GroupMap(2, (inv(gen(2, 1)), conj(gen(2, 1), gen(2, 2))))
    assert apply(compose(f, g), w) == apply(f, apply(g, w))


@given(st.lists(words_strategy(3, 6), min_size=3, max_size=3),
       st.lists(words_strategy(3, 6), min_size=3, max_size=3),
       words_strategy(3))
def test_apply_and_compose_match_concatenation(f_images, g_images, w):
    # endomorphisms with arbitrary images: cancellation may reach deep
    # into the output and consume whole images
    f = GroupMap(3, tuple(f_images))
    g = GroupMap(3, tuple(g_images))
    assert apply(f, w) == substitute_then_reduce(f_images, w)
    assert compose(f, g).images == tuple(
        substitute_then_reduce(f_images, x) for x in g_images)


def test_inverse_and_certificate():
    f = inner_automorphism(3, parse_word("x1 x2", 3))
    assert verify_certificate(f)
    assert same_map(compose(f, inverse(f)), identity_map(3))
    assert same_map(compose(inverse(f), f), identity_map(3))
    # a non-injective map with a bogus certificate must fail the check
    broken = GroupMap(2, (gen(2, 1), gen(2, 1)), (gen(2, 1), gen(2, 2)))
    assert not verify_certificate(broken)


def test_inverse_requires_certificate():
    with pytest.raises(PreconditionError):
        inverse(GroupMap(2, (gen(2, 1), gen(2, 2))))


@given(words_strategy(3), words_strategy(3))
def test_abelianization_additive(u, v):
    a = abelianization_vector(u)
    b = abelianization_vector(v)
    assert abelianization_vector(mul(u, v)) == tuple(x + y
                                                     for x, y in zip(a, b))


def test_abelianization_matrix_layout():
    f = GroupMap(2, (mul(gen(2, 1), gen(2, 2)), gen(2, 2)))
    # column j = abelianization of f(x_j)
    assert abelianization_matrix(f) == [[1, 0], [1, 1]]
    assert not is_homology_trivial(f)
    assert is_homology_trivial(inner_automorphism(2, gen(2, 1)))


def test_nielsen_generators_certificates_and_count():
    assert len(nielsen_generators(1)) == 1
    for n in (1, 2, 3, 4):
        for f in nielsen_generators(n):
            assert verify_certificate(f)


def test_nielsen_homology_images_n2():
    t, i, c, s = nielsen_generators(2)
    assert abelianization_matrix(t) == [[1, 0], [1, 1]]
    assert abelianization_matrix(i) == [[-1, 0], [0, 1]]
    assert abelianization_matrix(c) == [[0, 1], [1, 0]]
    assert abelianization_matrix(s) == [[0, 1], [1, 0]]
