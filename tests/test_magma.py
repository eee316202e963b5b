import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.algebra import ideal_closure
from gradix.catalog import octonions, random_unital_algebra
from gradix.errors import ParseError
from gradix.fields import prime_field
from gradix.magma import (Word, parse_word, specialize, tree_shapes,
                          word_ideal_span)

F2 = prime_field(2)
F3 = prime_field(3)


def linearize(word, args):
    """Relabel leaves 0..n-1 left to right, repeating arguments as needed;
    the result is a linear word with the same value under specialization."""
    args = list(args)
    new_args = []

    def walk(t):
        if isinstance(t, int):
            new_args.append(args[t])
            return len(new_args) - 1
        return (walk(t[0]), walk(t[1]))

    tree = walk(word.tree)
    return Word(tree), tuple(new_args)


def catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


# recursive strategy for word trees over at most 3 slots
trees = st.recursive(st.integers(min_value=0, max_value=2),
                     lambda sub: st.tuples(sub, sub), max_leaves=6)


def test_parse_format_examples():
    w = parse_word("((x1 x2)(x3 x4))")
    assert w.slots == (0, 1, 2, 3) and w.is_linear
    assert parse_word(str(w)).tree == w.tree
    assert parse_word("x1").length == 1
    assert not parse_word("(x1 x1)").is_linear
    for bad in ("", "x0", "(x1", "(x1 x2))", "y1"):
        with pytest.raises(ParseError):
            parse_word(bad)


@given(trees)
def test_parse_format_roundtrip(tree):
    w = Word(tree)
    assert parse_word(str(w)).tree == w.tree


def test_tree_shape_counts():
    for n in range(1, 6):
        shapes = tree_shapes(n)
        assert len(shapes) == catalan(n - 1)
        for w in shapes:
            assert w.slots == tuple(range(n)) and w.is_linear


@settings(max_examples=60, deadline=None)
@given(trees, st.randoms(use_true_random=False))
def test_linearize_preserves_value(tree, pyrandom):
    alg = random_unital_algebra(F3, 3, pyrandom)
    word = Word(tree)
    args = [tuple(pyrandom.randrange(3) for _ in range(3)) for _ in range(3)]
    linear, new_args = linearize(word, args)
    assert linear.is_linear
    assert linear.slots == tuple(range(linear.length))
    assert specialize(word, args, alg) == specialize(linear, new_args, alg)


def test_specialize_checks_arity():
    from gradix.errors import DimensionMismatch
    alg = random_unital_algebra(F2, 2, random.Random(0))
    with pytest.raises(DimensionMismatch):
        specialize(parse_word("(x1 x2)"), [alg.unit], alg)


def test_word_span_equals_closure_randomized():
    rng = random.Random(42)
    for _ in range(60):
        alg = random_unital_algebra(F2, rng.randint(1, 4), rng)
        seed = tuple(rng.randrange(2) for _ in range(alg.dim))
        if not any(seed):
            continue
        assert (word_ideal_span(alg, [seed]).basis
                == ideal_closure(alg, [seed]).basis)


def test_word_span_equals_closure_nonassociative():
    alg = octonions(F3)[0]
    for i in range(alg.dim):
        seed = alg.basis_vector(i)
        assert (word_ideal_span(alg, [seed]).basis
                == ideal_closure(alg, [seed]).basis)


def test_word_span_respects_maxlen_budget():
    # with only length-1 words the span is just the seed line
    alg = octonions(F3)[0]
    seed = alg.basis_vector(1)
    short = word_ideal_span(alg, [seed], max_len=1)
    assert short.rank == 1
    full = word_ideal_span(alg, [seed], max_len=5)
    assert full.is_full


def test_graded_word_span_rejects_inhomogeneous():
    from gradix.errors import NotHomogeneous
    alg, grad = octonions(F3)
    mixed = alg.add_vec(alg.basis_vector(0), alg.basis_vector(1))
    with pytest.raises(NotHomogeneous):
        word_ideal_span(alg, [mixed], grad=grad)
    # homogeneous generators work and give the graded closure
    from gradix.graded import graded_ideal_closure
    for i in (1, 3, 5):
        seed = alg.basis_vector(i)
        assert (word_ideal_span(alg, [seed], grad=grad).basis
                == graded_ideal_closure(alg, grad, [seed]).basis)
