import collections
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torelli import (
    ExtVector,
    PreconditionError,
    gen,
    comm,
    compose,
    conj,
    ext_vector,
    flatten,
    inner_automorphism,
    inverse,
    mul,
    reduce,
    rho,
    tau,
    wedge,
)
from torelli.config import partition_config
from torelli.drags import all_generators, realize, realize_word
from torelli.johnson import HomTable, _rho_letters

from .oracles import (
    commutator_words_strategy,
    drag_words_strategy,
    letters_strategy,
    magnus_rho_coeffs,
    tau_words,
)


def test_rho_of_basic_commutator():
    assert rho(comm(gen(2, 1), gen(2, 2))) == wedge(2, 1, 2)
    assert rho(comm(gen(3, 2), gen(3, 3))) == wedge(3, 2, 3)
    assert rho(comm(gen(2, 2), gen(2, 1))) == wedge(2, 1, 2, -1)


def test_rho_requires_zero_abelianization():
    with pytest.raises(PreconditionError):
        rho(gen(2, 1))
    with pytest.raises(PreconditionError):
        rho(mul(gen(2, 1), gen(2, 2)))


@given(commutator_words_strategy(3))
def test_rho_matches_magnus_series(w):
    assert rho(w) == ext_vector(3, magnus_rho_coeffs(w))


@given(commutator_words_strategy(3), commutator_words_strategy(3))
def test_rho_homomorphism(u, v):
    total = collections.Counter()
    for t in (rho(u), rho(v)):
        total.update({(i, j): c for i, j, c in t.coeffs})
    assert rho(mul(u, v)) == ext_vector(3, total)


@given(commutator_words_strategy(3))
def test_rho_conjugation_invariant(w):
    for g in (gen(3, 1), mul(gen(3, 2), gen(3, 3))):
        assert rho(conj(g, w)) == rho(w)


@given(letters_strategy(3, 8), letters_strategy(3, 8))
def test_rho_letter_kernel_ignores_free_reduction(a, b):
    # the unreduced letters of a b a^-1 b^-1 have zero abelianization
    letters = [*a, *b, *(-x for x in reversed(a)), *(-x for x in reversed(b))]
    assert ext_vector(3, _rho_letters(3, letters)) == rho(reduce(letters, 3))


def test_ext_vector_normalizes_and_validates():
    v = ext_vector(3, {(2, 1): 5, (1, 3): 2})
    assert v.coeffs == ((1, 2, -5), (1, 3, 2))
    assert v.coefficient(2, 1) == 5
    assert v.coefficient(1, 2) == -5
    assert v.coefficient(2, 3) == 0
    assert ext_vector(3, {(1, 2): 0}) == ExtVector(3)
    with pytest.raises(ValueError):
        ExtVector(2, ((1, 2, 0),))
    with pytest.raises(ValueError):
        ExtVector(2, ((2, 1, 1),))


@pytest.mark.parametrize("coeffs, message", [
    (((1, 3, 1), (1, 2, 1)), "coefficients must be sorted by (i, j)"),
    (((1, 2, 1), (1, 2, 4)), "coefficients must be sorted by (i, j)"),
    (((1, 2, 0),), "zero coefficients must be omitted"),
    (((2, 1, 1),), "bad index pair (2, 1) at rank 3"),
    (((1, 4, 1),), "bad index pair (1, 4) at rank 3"),
], ids=["unsorted", "repeated", "zero", "reversed-pair", "index-high"])
def test_ext_vector_input_checks(coeffs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExtVector(3, coeffs)


def test_ext_vector_drops_diagonal_entries():
    # e_i ^ e_i = 0, so an (i, i) entry contributes nothing
    assert ext_vector(3, {(2, 2): 5, (1, 2): 1}) == ExtVector(3, ((1, 2, 1),))
    assert ext_vector(3, {(3, 3): -1}) == ExtVector(3)


def test_tau_requires_homology_trivial():
    from torelli import GroupMap
    with pytest.raises(PreconditionError):
        tau(GroupMap(2, (mul(gen(2, 1), gen(2, 2)), gen(2, 2))))


def test_tau_of_inner_automorphism():
    # conjugation by x_j sends x_i to [x_j, x_i] x_i, so column i is e_j ^ e_i
    t = tau(inner_automorphism(3, gen(3, 3)))
    assert t.columns[0] == wedge(3, 1, 3, -1)
    assert t.columns[1] == wedge(3, 2, 3, -1)
    assert t.columns[2].is_zero()


def _drag_maps(config):
    return [realize(config, g) for g in all_generators(config)]


_TAU_CONFIGS = (partition_config(3, 2, [[1], [2]]),
                partition_config(2, 3, [[1, 2], [3]]),
                partition_config(3, 0, []))


@given(st.sampled_from(_TAU_CONFIGS).flatmap(
    lambda c: drag_words_strategy(all_generators(c)).map(lambda w: (c, w))))
def test_tau_matches_product_word_oracle(case):
    # the letter kernel against rho of each reduced word f(x_i) x_i^-1
    config, w = case
    f = realize_word(config, w)
    assert tau(f) == tau_words(f)


def test_tau_additive_under_composition():
    config = partition_config(2, 2, [[1], [2]])
    maps = _drag_maps(config)
    for f in maps[:4]:
        for g in maps[2:6]:
            # flatten is injective at a fixed rank
            assert flatten(tau(compose(f, g))) == tuple(
                a + b for a, b in zip(flatten(tau(f)), flatten(tau(g)),
                                      strict=True))


def test_tau_of_inverse_is_negation():
    config = partition_config(3, 1, [[1]])
    for f in _drag_maps(config):
        assert flatten(tau(inverse(f))) == tuple(-a for a in flatten(tau(f)))


def test_hom_table_shape_checks():
    with pytest.raises(ValueError):
        HomTable(2, (ExtVector(2),))
    with pytest.raises(ValueError):
        HomTable(2, (ExtVector(2), ExtVector(3)))
    assert HomTable(2, (ExtVector(2), ExtVector(2))).is_zero()
    assert HomTable(4, (ExtVector(4),) * 4).is_zero()


def test_flatten_layout():
    # column-major, (i, j) lexicographic within a column
    t = HomTable(3, (wedge(3, 1, 3, 2),
                     ext_vector(3, {(1, 2): 1, (2, 3): -1}), ExtVector(3)))
    assert flatten(t) == (0, 2, 0, 1, 0, -1, 0, 0, 0)
    assert len(flatten(HomTable(4, (ExtVector(4),) * 4))) == 4 * 6
