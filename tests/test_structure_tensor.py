"""An algebra is its structure tensor: every constructor against the entry
loop of `helpers.make_algebra_loop`, the products against
`helpers.multiply_loop`, the gradation check against the entry loop, and
a pin on the scalar coercions of the array-built constructors."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import algebra, crossed, fields
from gradix.algebra import (Algebra, associator, commutator, make_algebra,
                            multiply)
from gradix.catalog import quadratic_field_extension
from gradix.cayley import cayley_double, tower_stages
from gradix.crossed import build_crossed_product, validate_crossed_system
from gradix.errors import GradixError, IncompatibleTensor
from gradix.fields import prime_field, rationals
from gradix.graded import validate_gradation
from gradix.groups import cyclic, elementary_abelian_two
from gradix.jsonio import parse_algebra
from gradix.linalg import identity_matrix
from helpers import (cayley_double_loop, entries, make_algebra_loop,
                     multiply_loop, product_entries_loop, product_table,
                     product_table_loop, random_unital_algebra)
from test_crossed import BLOCK_FIELDS, BLOCK_SYSTEMS, non_nuclear_alpha_system

F3 = prime_field(3)
Q = rationals()
# F_2, F_3, F_5, a prime past the int64 bound (object tensors) and Q
FIELDS = [prime_field(2), F3, prime_field(5), prime_field(4294967311), Q]


def outcome(build):
    """The algebra that `build` returns, or the class and message of the
    error it raises."""
    try:
        return build()
    except (GradixError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_same(fast, slow):
    """The same error, or equal algebras with equal hashes, the tensor
    read-only and in the same dtype."""
    if not isinstance(slow, Algebra):
        assert fast == slow
        return
    assert isinstance(fast, Algebra), fast
    assert fast == slow and hash(fast) == hash(slow)
    assert fast._np_tensor.dtype == slow._np_tensor.dtype
    assert not fast._np_tensor.flags.writeable
    with pytest.raises(ValueError):
        fast._np_tensor[(0,) * 3] = 1


def scalars(f):
    if f.is_finite:
        # a denominator divisible by p raises ZeroDivisionError both ways
        return (st.integers(-f.p, 2 * f.p) | st.integers(2 ** 63, 2 ** 70)
                | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def entry_cases(draw):
    """(field, dim, entries, unit, involution): a unital algebra on the
    unit e_0 whose entries are split into repeats, with pairs that cancel
    at any index, shuffled; then mostly intact, sometimes with a bad index,
    a bad scalar, or a nudged unit; and an involution that may fail any of
    its checks."""
    f = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 4))
    c = scalars(f)
    items = [(0, 0, 0, 1)] + [e for j in range(1, d)
                              for e in ((0, j, j, 1), (j, 0, j, 1))]
    for i in range(1, d):
        for j in range(1, d):
            for k in range(d):
                if draw(st.booleans()):
                    x, y = draw(c), draw(c)
                    items += [(i, j, k, x), (i, j, k, y)]
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        x = draw(c)
        items += [(i, j, k, x), (i, j, k, -x)]
    items = draw(st.permutations(items))
    unit = [1] + [0] * (d - 1)
    fault = draw(st.sampled_from(["none"] * 4 + ["index", "scalar", "unit"]))
    at = draw(st.integers(0, len(items)))
    if fault == "index":
        bad = draw(st.sampled_from([(d, 0, 0), (0, -1, 0), (0, 0, d + 2)]))
        items.insert(at, bad + (1,))
    elif fault == "scalar":
        items.insert(at, (0, 0, 0, draw(st.sampled_from([1.5, "x", True]))))
    elif fault == "unit":
        unit[draw(st.integers(0, d - 1))] += draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["none", "identity", "signs", "random"]))
    invol = None
    if kind == "identity":
        invol = identity_matrix(f, d)
    elif kind == "signs":
        invol = [[draw(st.sampled_from([1, -1])) if r == s else 0
                  for s in range(d)] for r in range(d)]
    elif kind == "random":
        invol = [[draw(st.integers(-1, 1)) for _ in range(d)] for _ in range(d)]
    return f, d, items, unit, invol


@settings(max_examples=300, deadline=None)
@given(entry_cases())
def test_make_algebra_is_the_entry_loop(case):
    f, d, items, unit, invol = case
    labels = [f"b{i}" for i in range(d)]
    assert_same(outcome(lambda: make_algebra(f, d, items, unit, invol, labels)),
                outcome(lambda: make_algebra_loop(f, d, items, unit, invol,
                                                  labels)))


@settings(max_examples=100, deadline=None)
@given(entry_cases())
def test_parse_algebra_is_the_entry_loop(case):
    f, d, items, unit, invol = case
    field = {"kind": "Q"} if f.p is None else {"kind": "Fp", "p": f.p}
    text = [(i, j, k, c if isinstance(c, (bool, float)) else str(c))
            for i, j, k, c in items]
    doc = {"field": field, "dim": d, "unit": [str(c) for c in unit],
           "mult": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in text]}
    if invol is not None:
        doc["involution"] = [[str(c) for c in row] for row in invol]
    assert_same(outcome(lambda: parse_algebra(doc)),
                outcome(lambda: make_algebra_loop(f, d, text, [str(c) for c in unit],
                                                  doc.get("involution"))))


@settings(max_examples=60, deadline=None)
@given(entry_cases())
def test_reduction_is_the_entry_loop_mod_P(case):
    f, d, items, unit, invol = case
    alg = outcome(lambda: make_algebra(Q, d, items, unit))
    if f.is_finite or not isinstance(alg, Algebra) or alg._reduced is None:
        return
    red = alg._reduced
    assert_same(red, make_algebra_loop(algebra.REDUCTION_FIELD, d,
                                       entries(alg), alg.unit))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_cayley_doubles_are_the_entry_loop(f):
    rng = random.Random(f.p or 0)
    base = [stage for stage, _ in tower_stages(f, [-1, -1])]
    if f.is_finite:
        base.append(quadratic_field_extension(f))
        mus = [-1, rng.randrange(1, f.p)]
    else:
        mus = [Fraction(-2, 3), 5]
    for alg in base:
        for mu in mus:
            dbl, _ = cayley_double(alg, mu, adjoined="t")
            items, unit = cayley_double_loop(alg, mu)
            d = alg.dim
            invol = [list(row) + [0] * d for row in alg.involution]
            invol += [[0] * (d + i) + [-1] + [0] * (d - 1 - i) for i in range(d)]
            labels = None if alg.labels is None else alg.labels + tuple(
                "t" if s == "1" else s + "t" for s in alg.labels)
            assert_same(dbl, make_algebra_loop(f, 2 * d, items, unit, invol,
                                               labels))


@pytest.mark.parametrize("mk, f", [
    pytest.param(mk, f, id=f"{sname}-{fname}")
    for sname, mk in BLOCK_SYSTEMS.items()
    for fname, f in BLOCK_FIELDS.items()
    if mk is not non_nuclear_alpha_system
    and (f.is_finite or sname != "frobenius")])
def test_crossed_products_are_the_entry_loop(mk, f):
    sys = mk(f)
    prod, _ = build_crossed_product(sys)
    assert isinstance(prod, crossed.CrossedProduct)
    loop = make_algebra_loop(f, sys.dim, product_entries_loop(sys), prod.unit,
                             labels=prod.labels)
    assert_same(prod, loop)


# -- products on the tensor --------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_products_are_the_entry_loop_on_tower_stages(p):
    f, rng = prime_field(p), random.Random(p)
    for alg, _ in tower_stages(f, [-1, rng.randrange(1, p), -1,
                                   rng.randrange(1, p)]):
        assert product_table(alg) == product_table_loop(alg)
        for _ in range(10):
            x, y, z = (tuple(rng.randrange(p) for _ in range(alg.dim))
                       for _ in range(3))
            xy = multiply_loop(alg, x, y)
            assert multiply(alg, x, y) == xy
            assert commutator(alg, x, y) == alg.sub_vec(
                xy, multiply_loop(alg, y, x))
            assert associator(alg, x, y, z) == alg.sub_vec(
                multiply_loop(alg, xy, z),
                multiply_loop(alg, x, multiply_loop(alg, y, z)))


def test_products_over_q_are_fractions():
    alg, _ = list(tower_stages(Q, [Fraction(-1, 2), 3]))[-1]
    x = tuple(Fraction(i + 1, 3) for i in range(alg.dim))
    y = tuple(Fraction(2, i + 1) for i in range(alg.dim))
    xy = multiply(alg, x, y)
    assert xy == multiply_loop(alg, x, y)
    assert all(type(c) is Fraction for c in xy)


# -- the gradation check --------------------------------------------------------------

def validate_gradation_loop(alg, group, degrees):
    """The compatibility check of `validate_gradation`, entry by entry in
    sorted order."""
    for i, j, k, _ in entries(alg):
        if degrees[k] != group.mul(degrees[i], degrees[j]):
            raise IncompatibleTensor(
                f"entry {(i, j, k)} maps degrees "
                f"{(degrees[i], degrees[j])} outside {degrees[k]}")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6), st.data())
def test_an_incompatible_entry_is_named_as_the_loop_names_it(dim, seed, data):
    """Random degree lists against the sorted entries; an input entry that
    cancels to zero is no entry and is never named."""
    f = prime_field(data.draw(st.sampled_from([2, 3, 5])))
    base = random_unital_algebra(f, dim, random.Random(seed))
    k = data.draw(st.integers(1, dim - 1))
    cancelled = [(k, k, 0, 1), (k, k, 0, -1)]
    alg = make_algebra(f, dim, list(entries(base)) + cancelled, base.unit)
    assert alg == base
    group = data.draw(st.sampled_from([cyclic(2), cyclic(3),
                                       elementary_abelian_two(2)]))
    degrees = [0] + [data.draw(st.integers(0, group.order - 1))
                     for _ in range(dim - 1)]
    want = outcome(lambda: validate_gradation_loop(alg, group, degrees))
    got = outcome(lambda: validate_gradation(alg, group, degrees))
    if want is None:
        assert not isinstance(got, tuple)
    else:
        assert got == want


# -- work counts -----------------------------------------------------------------------

@pytest.fixture
def coerce_calls(monkeypatch):
    """The scalars `FieldSpec.coerce` is called on, while the test runs."""
    calls = []
    real = fields.FieldSpec.coerce

    def spy(self, x):
        calls.append(x)
        return real(self, x)
    monkeypatch.setattr(fields.FieldSpec, "coerce", spy)
    return calls


@pytest.mark.parametrize("f", [F3, Q], ids=repr)
def test_array_built_constructors_coerce_at_most_mu(f, coerce_calls):
    """A crossed product from a validated system and a Cayley double from
    a built T coerce no scalar but mu: their tensors, units and
    involutions are handed over already in the field."""
    t, _ = list(tower_stages(f, [-1, -1]))[-1]
    sys = validate_crossed_system(t, cyclic(2), [identity_matrix(f, 4)] * 2,
                                  [[t.unit] * 2] * 2)
    coerce_calls.clear()
    build_crossed_product(sys)
    assert coerce_calls == []
    cayley_double(t, -1)
    assert coerce_calls == [-1]
