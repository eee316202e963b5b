"""Built-in property battery.

Runs quick randomized and exact checks over the example constructions and
prints one PASS/FAIL line per property.  Returns the number of failures so
the CLI can exit nonzero on any violation.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

from . import jsonio
from .algebra import (REDUCTION_FIELD, associator, center_is_field,
                      ideal_closure, is_associative, is_simple, make_algebra,
                      multiply, nucleus_and_center, sample_simple)
from .catalog import (field_algebra, group_algebra, matrix_algebra,
                      named_group, octonions, product_algebra,
                      product_with_swap, quadratic_field_extension,
                      quaternions, random_graded_algebra,
                      random_unital_algebra, swap_matrix, truncated_dual,
                      upper_triangular)
from .cayley import cayley_double, doubling_report
from .crossed import (build_crossed_product, canonical_units,
                      crossed_center, recognize_crossed_system,
                      trivial_system)
from .fields import prime_field, rationals
from .groups import central_series, cyclic
from .laurent import (laurent_simplicity_verdict, make_laurent_ring,
                      verify_central)
from .linalg import kernel, mat_vec, projective_walk
from .magma import word_ideal_span

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


@check("field arithmetic")
def _fields(rng, trials, maxlen):
    for f in (prime_field(2), prime_field(5), rationals()):
        pool = ([f.coerce(k) for k in range(5)] if f.is_finite
                else [f.coerce(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")
                      for _ in range(8)])
        for _ in range(trials):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.parse(f.format(a)) == a


@check("kernel rows annihilate")
def _linalg(rng, trials, maxlen):
    f = prime_field(3)
    for _ in range(trials):
        rows = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        for v in kernel(f, rows, 4).basis:
            for row in rows:
                assert sum(r * x for r, x in zip(row, v)) % 3 == 0


@check("central series classification")
def _groups(rng, trials, maxlen):
    assert not central_series(named_group("S3")).hypercentral
    assert central_series(named_group("D4")).hypercentral
    assert central_series(named_group("C6")).hypercentral


@check("matrix algebra structure")
def _matrix(rng, trials, maxlen):
    a = matrix_algebra(prime_field(3), 2)
    central = nucleus_and_center(a)
    assert central.center.rank == 1
    assert center_is_field(a, central)
    assert is_simple(a).simple


@check("density test agrees with sweep")
def _density(rng, trials, maxlen):
    from .algebra import _density_irreducible, _np_generators
    from .linalg import projective_points
    f3 = prime_field(3)
    cases = [(a, ()) for a in (matrix_algebra(f3, 2), product_algebra(f3, 3),
                               quadratic_field_extension(f3))]
    cases += [(random_unital_algebra(f3, rng.randint(2, 4), rng), ())
              for _ in range(max(trials // 3, 4))]
    a, _ = octonions(f3)
    cases.append((a, (a.involution,)))
    cases.append((product_algebra(f3, 2), (swap_matrix(f3),)))
    for a, maps in cases:
        sweep = all(ideal_closure(a, [pt], maps).is_full
                    for pt in projective_points(a.field.p, a.dim))
        assert _density_irreducible(a, _np_generators(a, maps)) == sweep, \
            (a.dim, maps)


@check("Norton's test agrees with the sweep")
def _norton(rng, trials, maxlen):
    from .algebra import _norton_irreducible, _np_generators
    from .graded import component_spaces
    from .linalg import projective_points
    f3 = prime_field(3)
    h, o = quaternions(f3)[0], octonions(f3)[0]
    cases = [(a, maps, list(projective_points(3, a.dim)))
             for a, maps in ((h, ()), (o, ()), (o, (o.involution,)),
                             (quadratic_field_extension(f3), ()),
                             (matrix_algebra(f3, 2), ()),
                             (upper_triangular(f3, 3), ()))]
    # graded: the projections onto the components are the extra maps
    prod, grad = build_crossed_product(trivial_system(h, cyclic(2)))
    blocks = [grad.indices_of(g) for g in grad.support]
    proj = [[[int(r == c and r in block) for c in range(prod.dim)]
             for r in range(prod.dim)] for block in blocks]
    walk = projective_walk(component_spaces(prod, grad), 10 ** 6, "points")
    cases.append((prod, proj, list(walk[1])))
    for a, maps, points in cases:
        sweep = all(ideal_closure(a, [pt], maps).is_full for pt in points)
        assert _norton_irreducible(a, _np_generators(a, maps)) == sweep, \
            (a.dim, len(maps))


@check("graded density agrees with homogeneous sweep")
def _graded_density(rng, trials, maxlen):
    from .graded import component_spaces, is_graded_simple, validate_gradation
    f3 = prime_field(3)
    cases = [(a, validate_gradation(a, cyclic(1), [0] * a.dim))
             for a in (matrix_algebra(f3, 2), product_algebra(f3, 3))]
    dbl, _ = cayley_double(quadratic_field_extension(f3), 1)
    cases.append(cayley_double(dbl, 1))
    # graded simple but not simple: only the projections make it irreducible
    cases.append(build_crossed_product(trivial_system(matrix_algebra(f3, 2),
                                                      cyclic(2))))
    for _ in range(max(trials // 5, 3)):
        tail = [rng.randrange(2) for _ in range(rng.randint(0, 2))]
        cases.append(random_graded_algebra(f3, cyclic(2), [0] * 4 + tail, rng))
    for a, grad in cases:
        total, points = projective_walk(component_spaces(a, grad), 10 ** 6,
                                        "points")
        # past d^2 points: the density test decides at d <= 4, Norton's
        # test above
        assert total > a.dim ** 2
        sweep = all(ideal_closure(a, [r]).is_full for r in points)
        assert is_graded_simple(a, grad).simple == sweep, (a.dim, grad.degrees)


@check("reduction mod p agrees with the solve over Q")
def _reduction(rng, trials, maxlen):
    q = rationals()
    big = REDUCTION_FIELD.p

    def quadratic(c):
        return make_algebra(q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                   (1, 1, 0, c)], (1, 0))

    def answers(a):
        maps = (a.involution,) if a.involution is not None else ()
        return (nucleus_and_center(a), is_associative(a),
                sample_simple(a, trials=100, seed=0),
                sample_simple(a, maps, trials=100, seed=1))

    cases = [product_algebra(q, 2), truncated_dual(q), matrix_algebra(q, 2),
             quadratic(Fraction(1, big)), quadratic(big)]
    cases += [random_unital_algebra(q, rng.randint(1, 5), rng)
              for _ in range(max(trials // 3, 4))]
    for base in (field_algebra(q), truncated_dual(q), product_with_swap(q)):
        a = cayley_double(base, rng.choice((-1, 2, Fraction(1, 2))))[0]
        cases.append(cayley_double(a, -1)[0] if a.dim == 2 else a)
    for a in cases:
        ref = dataclasses.replace(a)
        vars(ref)["_reduced"] = None    # every answer solved over Q
        assert answers(a) == answers(ref), a.mult


@check("associator linearity identity")
def _assoc_identity(rng, trials, maxlen):
    a, _ = octonions(prime_field(3))
    f = a.field
    for _ in range(trials):
        u, r, s, t = (tuple(rng.randrange(3) for _ in range(a.dim))
                      for _ in range(4))
        lhs = a.add_vec(
            a.add_vec(multiply(a, u, associator(a, r, s, t)),
                      multiply(a, associator(a, u, r, s), t)),
            associator(a, u, multiply(a, r, s), t))
        rhs = a.add_vec(associator(a, multiply(a, u, r), s, t),
                        associator(a, u, r, multiply(a, s, t)))
        assert lhs == rhs


@check("center as triple intersection")
def _intersection(rng, trials, maxlen):
    f2 = prime_field(2)
    for _ in range(max(trials // 3, 4)):
        a = random_unital_algebra(f2, rng.randint(1, 4), rng)
        c = nucleus_and_center(a)
        for pair in ((c.left, c.middle), (c.left, c.right), (c.middle, c.right)):
            got = c.commuter.intersect(pair[0]).intersect(pair[1])
            assert got.basis == c.center.basis


@check("word oracle matches closure")
def _oracle(rng, trials, maxlen):
    f2 = prime_field(2)
    for _ in range(max(trials // 2, 5)):
        a = random_unital_algebra(f2, rng.randint(1, 4), rng)
        seed = tuple(rng.randrange(2) for _ in range(a.dim))
        if not any(seed):
            seed = a.basis_vector(0)
        assert (word_ideal_span(a, [seed], max_len=maxlen).basis
                == ideal_closure(a, [seed]).basis)


@check("graded simplicity equivalence")
def _graded(rng, trials, maxlen):
    from .graded import simplicity_equivalence
    f2, f3 = prime_field(2), prime_field(3)
    ga, grad = group_algebra(f2, cyclic(2))
    eq = simplicity_equivalence(ga, grad)
    assert eq.graded_simple.simple and not eq.center_field \
        and not eq.simple.simple and eq.consistent
    qa, qgrad = quaternions(f3)
    eq = simplicity_equivalence(qa, qgrad)
    assert eq.simple.simple and eq.consistent


@check("crossed product roundtrip")
def _crossed(rng, trials, maxlen):
    f9 = quadratic_field_extension(prime_field(3))
    sys = trivial_system(f9, cyclic(2))
    prod, grad = build_crossed_product(sys)
    back = recognize_crossed_system(prod, grad, units=canonical_units(sys))
    prod2, _ = build_crossed_product(back)
    assert prod2.product_table == prod.product_table
    z, _ = crossed_center(sys)
    assert z.basis == nucleus_and_center(prod).center.basis


@check("laurent central witness")
def _laurent(rng, trials, maxlen):
    f2, f3 = prime_field(2), prime_field(3)
    f4 = quadratic_field_extension(f2)
    ring = make_laurent_ring(f4, [f4.involution])
    v = laurent_simplicity_verdict(ring)
    assert v.sigma_simple and not v.simple and v.witness is not None
    assert verify_central(ring, v.central_witness)
    ring2 = make_laurent_ring(product_algebra(f3, 2), [swap_matrix(f3)])
    v2 = laurent_simplicity_verdict(ring2)
    assert v2.witness is not None and list(v2.witness[1]) == [2]


@check("doubling criterion agrees with enumeration")
def _cayley(rng, trials, maxlen):
    f3 = prime_field(3)
    base = field_algebra(f3)
    for mu in (f3.coerce(1), f3.coerce(2)):
        rep = doubling_report(base, mu, cayley_double(base, mu)[0])
        assert rep.consistent and rep.criterion_simple == rep.brute_simple
    ext = quadratic_field_extension(f3)
    rep = doubling_report(ext, 1, cayley_double(ext, 1)[0])
    assert rep.consistent


@check("reports are deterministic")
def _deterministic(rng, trials, maxlen):
    req = json.dumps({"kind": "algebra",
                      "payload": {"field": {"kind": "Fp", "p": 2}, "dim": 2,
                                  "unit": ["1", "0"],
                                  "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                                           {"i": 0, "j": 1, "k": 1, "c": "1"},
                                           {"i": 1, "j": 0, "k": 1, "c": "1"}]}})
    one = jsonio.render_report(jsonio.run_request(jsonio.parse_request(req)))
    two = jsonio.render_report(jsonio.run_request(jsonio.parse_request(req)))
    assert one == two


def run(trials: int = 25, seed: int = 0, oracle_maxlen: int = 5) -> int:
    failures = 0
    for name, fn in CHECKS:
        rng = random.Random(seed)
        try:
            fn(rng, trials, oracle_maxlen)
        except AssertionError as e:
            failures += 1
            detail = f": {e}" if str(e) else ""
            print(f"[FAIL] {name}{detail}")
        except Exception as e:
            failures += 1
            print(f"[FAIL] {name}: {type(e).__name__}: {e}")
        else:
            print(f"[PASS] {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} properties hold")
    return failures
