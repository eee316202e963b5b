"""The builders check nothing they build: only input from outside is
checked, once, by `make_algebra`, `validate_gradation`, `validate_group` and
`validate_crossed_system`.  Here every family of built values passes the
checks its builder leaves out: the doubles and tower stages their unit,
their involution and both gradings, the stock groups `validate_group`, and
the group algebras their gradation (the crossed products are in
tests/test_crossed.py, `assert_crossed_product_checks`).  A spy over the
golden requests and one round of every benchmark workload shows the checks
running at the boundary only."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradix
from gradix import algebra, crossed, graded, groups, jsonio
from gradix.algebra import _check_unit_and_involution
from gradix.catalog import (field_algebra, group_algebra, named_group,
                            quadratic_field_extension, quaternions)
from gradix.cayley import cayley_double, tower_stages
from gradix.fields import prime_field, rationals
from gradix.graded import validate_gradation
from gradix.groups import (cyclic, dihedral, direct_product,
                           elementary_abelian_two, symmetric, trivial_group,
                           validate_group)
from helpers import NONZERO_Q, product_with_swap, rescaled
from test_cayley import exchange_algebra
from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent
Q = rationals()


def assert_graded(alg, grad):
    assert validate_gradation(alg, grad.group, grad.degrees) == grad


@pytest.mark.parametrize("f, top", [(prime_field(p), 16) for p in (2, 3, 5, 7)]
                         + [(Q, 8)])
def test_tower_stages_pass_the_unit_involution_and_grading_checks(f, top):
    """Every stage up to dimension `top`, along random nonzero parameters:
    the unit, the involution, the accumulated (Z/2)^k-gradation and the C2
    gradation of the double that built it."""
    rng = random.Random(f.p or 0)
    mus = [rng.randrange(1, f.p) if f.is_finite else rng.choice([-2, -1, 3])
           for _ in range(top.bit_length() - 1)]
    stages = list(tower_stages(f, mus))
    assert [alg.dim for alg, _ in stages][-1] == top
    for (alg, grad), (base, _), mu in zip(stages[1:], stages, mus):
        _check_unit_and_involution(alg)
        assert_graded(alg, grad)
        double, c2 = cayley_double(base, mu, adjoined=alg.labels[base.dim])
        assert double == alg
        assert_graded(alg, c2)
    _check_unit_and_involution(stages[0][0])
    assert_graded(*stages[0])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([prime_field(2), prime_field(3), prime_field(5), Q]),
       st.sampled_from(["catalog", "exchange", "double"]),
       st.randoms(use_true_random=False), st.data())
def test_doubles_pass_the_unit_involution_and_grading_checks(f, kind, rng, data):
    """The double of a random involutive algebra (B x B^op with the
    exchange involution, a catalog algebra or a double of one; over Q on
    a basis rescaled by rationals) at a random nonzero mu."""
    nonzero = (lambda: rng.randrange(1, f.p)) if f.is_finite else \
        (lambda: data.draw(NONZERO_Q))
    if kind == "exchange":
        alg = exchange_algebra(f, rng)
    else:
        bases = [field_algebra, product_with_swap, lambda f: quaternions(f)[0]]
        if f.is_finite:
            bases.append(quadratic_field_extension)
        alg = rng.choice(bases)(f)
        if kind == "double":
            alg, _ = cayley_double(alg, nonzero())
    if not f.is_finite:
        alg = rescaled(alg, [nonzero() for _ in range(alg.dim)])
    double, c2 = cayley_double(alg, nonzero())
    _check_unit_and_involution(double)
    assert_graded(double, c2)


STOCK = ([cyclic(n) for n in range(1, 13)] + [dihedral(n) for n in range(1, 9)]
         + [symmetric(n) for n in range(1, 5)]
         + [elementary_abelian_two(k) for k in range(7)] + [trivial_group()])
SMALL = [cyclic(2), cyclic(3), cyclic(4), dihedral(3), dihedral(4),
         elementary_abelian_two(2)]
PRODUCTS = [direct_product(a, b) for a, b in itertools.product(SMALL, repeat=2)]
PRODUCTS += [direct_product(direct_product(cyclic(2), dihedral(4)), cyclic(4)),
             named_group("E2xS3xC2"), named_group("1xD4x1")]


@pytest.mark.parametrize("g", STOCK + PRODUCTS,
                         ids=lambda g: f"order{g.order}")
def test_stock_groups_pass_validate_group(g):
    assert g.order <= 64
    assert validate_group(g.table, g.identity, g.labels) == g


@pytest.mark.parametrize("f", [prime_field(2), prime_field(3), Q])
def test_group_algebras_pass_validate_gradation(f):
    for g in [cyclic(1), cyclic(5), dihedral(3), symmetric(3),
              elementary_abelian_two(3), direct_product(cyclic(2), cyclic(4))]:
        assert_graded(*group_algebra(f, g))


# -- the checks run at the boundary only ----------------------------------------

def _workload_requests():
    """The warm-up requests and one round of every benchmark workload at
    seed 1, as scripts/report_digests.py builds them."""
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    out = []
    for workload in digests.ROUNDS:
        warm, timed = digests.gen.generate(workload, 1, str(ROOT), 1)
        out += list(warm) + [t for rnd in timed for t in rnd]
    return out


def _spy(monkeypatch, module, name):
    """The name of the function that makes each call to `module.name`,
    through every module of the package that binds it."""
    real, callers = getattr(module, name), []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)
    mods = [m for m in vars(gradix).values() if type(m) is type(gradix)]
    for mod in mods:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return callers


def test_checks_run_only_on_input_from_outside(monkeypatch):
    gradations = _spy(monkeypatch, graded, "validate_gradation")
    tables = _spy(monkeypatch, groups, "validate_group")
    units = _spy(monkeypatch, algebra, "_check_unit_and_involution")
    requests = ([jsonio.wrap_bare_payload(text, kind) for kind, text in CASES.values()]
                + [jsonio.parse_request(text) for text in _workload_requests()])
    for doc in requests:
        jsonio.run_request(doc)
    assert gradations and set(gradations) == {"parse_gradation"}
    assert tables and set(tables) == {"parse_group"}
    assert units and set(units) == {"make_algebra"}
    assert not hasattr(crossed, "_inverse_pairs")
