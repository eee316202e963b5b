"""Constructions, references and patches shared by several test modules,
which the library itself never needs."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from gradix import algebra, crossed
from gradix.algebra import Algebra, make_algebra, two_sided_inverse
from gradix.catalog import named_group, swap_matrix
from gradix.cayley import tower_stages
from gradix.errors import (DimensionMismatch, N1Violation, N2Violation,
                           ValidationError)
from gradix.graded import validate_gradation
from gradix.groups import (CentralSeries, Subgroup, cyclic, dihedral,
                           direct_product, elementary_abelian_two, symmetric,
                           validate_group)
from gradix.laurent import LaurentElement, laurent_element, sigma_power
from gradix.linalg import (Echelon, Subspace, identity_matrix, kernel,
                           mat_inverse, np_dtype, np_kernel, np_mat_pow,
                           np_matmul, np_rref, projective_walk, rref)


def fixed_rows_loop(alg, maps):
    """The nonzero rows of every M - I, entry by entry: their kernel is the
    common fixed space of the maps."""
    f = alg.field
    ident = identity_matrix(f, alg.dim)
    rows = (tuple(f.sub(f.coerce(x), y) for x, y in zip(mrow, irow))
            for m in maps for mrow, irow in zip(m, ident))
    return [row for row in rows if any(row)]


def fixed_subspace(alg, maps):
    """Common fixed space of the linear maps."""
    return kernel(alg.field, fixed_rows_loop(alg, maps), alg.dim)


def intersect(a, b):
    """a meet b, by the kernel trick: the relations x.A - y.B = 0 between
    the basis rows give the common vectors x.A.  The reference of every
    center that the library cuts down by restriction."""
    f, n = a.field, a.ambient
    if a.is_zero or b.is_zero:
        return Subspace.span(f, n)
    cols = [list(r) for r in a.basis] + [[f.neg(c) for c in r] for r in b.basis]
    eqs = [tuple(col[k] for col in cols) for k in range(n)]
    vecs = []
    for lam in kernel(f, eqs, len(cols)).basis:
        w = [f.zero] * n
        for x, row in zip(lam[:a.rank], a.basis):
            if x:
                for j in range(n):
                    w[j] = f.add(w[j], f.mul(x, row[j]))
        vecs.append(w)
    return Subspace.span(f, n, vecs)


def conjugation_matrix(alg, u):
    """Matrix of x -> (u x) u^{-1}; needs u two-sided invertible."""
    uinv = two_sided_inverse(alg, u)
    if uinv is None:
        raise ValidationError("conjugation by a non-invertible element")
    cols = [multiply_loop(alg, multiply_loop(alg, u, alg.basis_vector(j)), uinv)
            for j in range(alg.dim)]
    return tuple(tuple(cols[j][k] for j in range(alg.dim)) for k in range(alg.dim))


def tensor_algebra(a, b):
    """A (x) B on the basis a_i (x) b_j, ordered i-major."""
    f, db = a.field, b.dim
    items = [(i1 * db + j1, i2 * db + j2, k1 * db + k2, f.mul(c1, c2))
             for i1, i2, k1, c1 in entries(a) for j1, j2, k2, c2 in entries(b)]
    unit = tuple(f.mul(x, y) for x in a.unit for y in b.unit)
    return make_algebra(f, a.dim * db, items, unit)


BIG = 2 ** 70
# nonzero rationals: small ones, and numerators or denominators past 2^63
NONZERO_Q = st.one_of(
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
    st.builds(Fraction, st.integers(2 ** 63, BIG) | st.integers(-BIG, -2 ** 63),
              st.integers(1, BIG)),
    st.builds(Fraction, st.integers(-BIG, BIG).filter(bool),
              st.integers(2 ** 63, BIG)))


def rescaled_matrix(m, scales):
    """The matrix of the map m on the basis scales[i] e_i (over Q)."""
    n = len(scales)
    return tuple(tuple(Fraction(m[k][i]) * scales[i] / scales[k]
                       for i in range(n)) for k in range(n))


def rescaled(alg, scales):
    """The algebra over Q on the basis scales[i] e_i: an isomorphic copy whose
    structure constants, unit and involution carry the scales'
    denominators and numerators."""
    items = [(i, j, k, c * scales[i] * scales[j] / scales[k])
             for i, j, k, c in entries(alg)]
    invol = (None if alg.involution is None
             else rescaled_matrix(alg.involution, scales))
    unit = tuple(Fraction(x) / s for x, s in zip(alg.unit, scales))
    return make_algebra(alg.field, alg.dim, items, unit, involution=invol)


def _has_factor(p, poly):
    """Whether X^n + sum_i poly[i] X^i has a monic factor of degree at most
    n / 2 over F_p, by trial division."""
    n = len(poly)
    for deg in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            rem = list(poly) + [1]
            for t in range(n, deg - 1, -1):
                c = rem[t]
                for s in range(deg):
                    rem[t - deg + s] = (rem[t - deg + s] - c * tail[s]) % p
                rem[t] = 0
            if not any(rem[:deg]):
                return True
    return False


def extension_field(f, n, rng):
    """F_{p^n} as F_p[X] / (q) on the basis 1, X, ..., X^{n-1}, for a random
    monic irreducible q of degree n."""
    p = f.p
    poly = [rng.randrange(p) for _ in range(n)]
    while _has_factor(p, poly):
        poly = [rng.randrange(p) for _ in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            v = [0] * (2 * n)
            v[i + j] = 1
            for t in range(2 * n - 1, n - 1, -1):   # X^t = -sum poly X^(t-n+s)
                c, v[t] = v[t], 0
                for s in range(n):
                    v[t - n + s] = (v[t - n + s] - c * poly[s]) % p
            entries += [(i, j, k, v[k]) for k in range(n) if v[k]]
    return make_algebra(f, n, entries, (1,) + (0,) * (n - 1))


def scale_vec(alg, c, x):
    """c x, for a scalar c and a vector x of the algebra."""
    return tuple(alg.field.mul(c, a) for a in x)


def star_vec(alg, v):
    """The involution of the algebra applied to v."""
    if alg.involution is None:
        raise ValidationError("algebra has no involution")
    return mat_vec(alg.field, alg.involution, v)


def scalar_vec(alg, c):
    """c times the unit of the algebra."""
    return scale_vec(alg, alg.field.coerce(c), alg.unit)


def degree_of(grad, v):
    """The degree of a homogeneous vector; None for zero or mixed vectors."""
    degs = {grad.degrees[i] for i, c in enumerate(v) if c}
    return degs.pop() if len(degs) == 1 else None


def conj(g, a, h):
    """h a h^-1 in the group g."""
    return g.mul(g.mul(h, a), g.inv(h))


def group_commutator(g, a, b):
    """a b a^-1 b^-1 in the group g."""
    return g.mul(g.mul(g.mul(a, b), g.inv(a)), g.inv(b))


def trivial_group():
    """The group of order 1."""
    return validate_group([[0]], labels=["e"])


def subgroup(g, members):
    """The subgroup of g on the members, each group axiom checked."""
    mem = frozenset(members)
    if g.identity not in mem:
        raise ValidationError("subgroup misses the identity")
    for a in mem:
        if g.inv(a) not in mem:
            raise ValidationError(f"subgroup not closed under inverse of {a}")
        for b in mem:
            if g.mul(a, b) not in mem:
                raise ValidationError(f"subgroup not closed at {(a, b)}")
    return Subgroup(g, tuple(sorted(mem)))


def group_center(g):
    """Z(G), by all products."""
    members = [a for a in g.elements()
               if all(g.mul(a, b) == g.mul(b, a) for b in g.elements())]
    return Subgroup(g, tuple(members))


class NotNormal(ValidationError):
    """The subgroup of a quotient is not normal."""


def is_normal(n):
    """Whether the subgroup n is closed under conjugation in its group."""
    g = n.group
    return all(conj(g, a, h) in n for a in n.members for h in g.elements())


def quotient_group(g, n):
    """G/N plus the projection map; N must be normal."""
    if n.group is not g and n.group != g:
        raise ValidationError("subgroup belongs to a different group")
    if not is_normal(n):
        raise NotNormal(f"subgroup {n.members} is not normal")
    coset_of = {}
    reps = []  # cosets ordered by minimal member
    for a in g.elements():
        if a in coset_of:
            continue
        idx = len(reps)
        reps.append(a)
        for h in n.members:
            coset_of[g.mul(a, h)] = idx
    proj = tuple(coset_of[a] for a in g.elements())
    table = tuple(tuple(proj[g.mul(reps[i], reps[j])] for j in range(len(reps)))
                  for i in range(len(reps)))
    labels = None
    if g.labels:
        labels = tuple("{" + ",".join(g.label(a) for a in sorted(g.elements())
                                      if proj[a] == i) + "}"
                       for i in range(len(reps)))
    return validate_group(table, identity=proj[g.identity], labels=labels), proj


def central_series_loop(g):
    """The ascending central series by commutators one at a time, each Z_i
    checked as a subgroup."""
    chain = [subgroup(g, [g.identity])]
    while True:
        current = chain[-1]._memberset
        nxt = frozenset(a for a in g.elements()
                        if all(group_commutator(g, a, h) in current
                               for h in g.elements()))
        if nxt == current:
            break
        chain.append(subgroup(g, nxt))
    return CentralSeries(tuple(chain), chain[-1].order == g.order)


# every stock construction up to order 64: C1-C12, D1-D8, S1-S4, E0-E6, the
# trivial group and 39 direct products
STOCK_GROUPS = ([cyclic(n) for n in range(1, 13)]
                + [dihedral(n) for n in range(1, 9)]
                + [symmetric(n) for n in range(1, 5)]
                + [elementary_abelian_two(k) for k in range(7)] + [trivial_group()])
_SMALL_GROUPS = [cyclic(2), cyclic(3), cyclic(4), dihedral(3), dihedral(4),
                 elementary_abelian_two(2)]
STOCK_GROUPS += [direct_product(a, b)
                 for a, b in itertools.product(_SMALL_GROUPS, repeat=2)]
STOCK_GROUPS += [direct_product(direct_product(cyclic(2), dihedral(4)), cyclic(4)),
                 named_group("E2xS3xC2"), named_group("1xD4x1")]


def points(space):
    """The projective points of one subspace, in `projective_walk` order."""
    return projective_walk([space], 10 ** 6, "projective points")[1]


def homogeneous_points(alg, grad, g):
    """The projective points of R_g, in the order of the graded sweep."""
    return points(Subspace.span(alg.field, alg.dim,
                                [alg.basis_vector(i) for i in grad.indices_of(g)]))


def walk_without_points(walk):
    """`projective_walk` that counts and refuses as before, but fails the
    test at its first point."""
    def counted(spaces, budget, what):
        total, points = walk(spaces, budget, what)

        def refuse():
            for _ in points:
                raise AssertionError(f"visited one of the {what}")
            yield from ()
        return total, refuse()
    return counted


def mu_square_by_vectors(alg, center, mu):
    """Whether v^2 = mu.1 for some v of `center`, over all p^r vectors v:
    the oracle of `cayley.mu_square_in_center` over F_p."""
    f = alg.field
    target = scalar_vec(alg, f.coerce(mu))
    for coeffs in itertools.product(range(f.p), repeat=center.rank):
        v = scalar_vec(alg, 0)
        for c, row in zip(coeffs, center.basis):
            if c:
                v = alg.add_vec(v, scale_vec(alg, c, row))
        if multiply_loop(alg, v, v) == target:
            return True
    return False


# -- algebras beyond `gradix.catalog` ------------------------------------------

def first_nonsquare_by_squares(p):
    """`catalog._first_nonsquare` by the set of all p - 1 squares."""
    squares = {(a * a) % p for a in range(1, p)}
    for c in range(2, p):
        if c not in squares:
            return c
    raise ValidationError(f"every element of F_{p} is a square")


def product_with_swap(field):
    """F x F carrying the coordinate swap as involution."""
    entries = [(0, 0, 0, field.one), (1, 1, 1, field.one)]
    return make_algebra(field, 2, entries, (field.one, field.one),
                        involution=swap_matrix(field), labels=("e1", "e2"))


def upper_triangular(field, n):
    """T_n(F), the upper-triangular n x n matrices on the e_{rc}, r <= c,
    row-major: not simple (the strictly upper part is an ideal), though its
    center is F."""
    idx = [(r, c) for r in range(n) for c in range(r, n)]
    pos = {rc: i for i, rc in enumerate(idx)}
    entries = [(pos[r, c], pos[c, s], pos[r, s], field.one)
               for r, c in idx for s in range(c, n)]
    unit = tuple(field.one if r == c else field.zero for r, c in idx)
    labels = tuple(f"e{r + 1}{c + 1}" for r, c in idx)
    return make_algebra(field, len(idx), entries, unit, labels=labels)


def sedenions(field):
    """The fourth doubling stage at mu = -1, with its Z_2^4 gradation."""
    *_, last = tower_stages(field, [-1, -1, -1, -1])
    return last


def random_unital_algebra(field, dim, rng):
    """Basis vector 0 is the unit; the remaining products are uniform (over
    Q, fractions with numerators -3..3 and denominators 1..5)."""
    def scalar():
        if field.is_finite:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 5))

    entries = []
    for j in range(1, dim):
        entries.append((0, j, j, field.one))
        entries.append((j, 0, j, field.one))
    entries.append((0, 0, 0, field.one))
    for i in range(1, dim):
        for j in range(1, dim):
            for k in range(dim):
                c = scalar()
                if c:
                    entries.append((i, j, k, c))
    unit = (field.one,) + (field.zero,) * (dim - 1)
    return make_algebra(field, dim, entries, unit)


def random_graded_algebra(field, group, degrees, rng):
    """Basis vector 0 is the unit and degrees[0] the identity; every other
    product e_i e_j is uniform over the component of degree deg_i deg_j
    (F_p only)."""
    d = len(degrees)
    entries = [(0, 0, 0, field.one)]
    for j in range(1, d):
        entries += [(0, j, j, field.one), (j, 0, j, field.one)]
    for i in range(1, d):
        for j in range(1, d):
            gh = group.mul(degrees[i], degrees[j])
            entries += [(i, j, k, rng.randrange(field.p))
                        for k in range(d) if degrees[k] == gh]
    alg = make_algebra(field, d, entries, (field.one,) + (field.zero,) * (d - 1))
    return alg, validate_gradation(alg, group, degrees)


# -- the word-span oracle of ideals --------------------------------------------
#
# A word is a binary tree whose leaves carry slot indices.  Substituting ring
# elements for the slots evaluates the word; the oracle spans all
# specializations of linear words (each slot used once) with at least one
# slot taken from a generator set.  By multilinearity it is enough to put one
# designated generator in a single slot and run the remaining slots over the
# basis, and to take one canonical leaf labelling per tree shape.  It shares
# nothing with the fixpoint of `ideal_closure`, which it checks.

@dataclass(frozen=True)
class Word:
    tree: object                    # an int leaf or a (tree, tree) pair

    @property
    def length(self):
        return len(self.slots)

    @property
    def slots(self):
        """Leaf slot indices in left-to-right order."""
        out, stack = [], [self.tree]
        while stack:
            t = stack.pop()
            if isinstance(t, int):
                out.append(t)
            else:
                stack += [t[1], t[0]]
        return tuple(out)

    @property
    def is_linear(self):
        return len(set(self.slots)) == len(self.slots)


def specialize(word, args, alg):
    """Evaluate the word with args[slot] substituted for each leaf."""
    args = [alg.element(a) for a in args]
    top = max(word.slots)
    if top >= len(args):
        raise DimensionMismatch(f"word uses slot x{top + 1} but got "
                                f"{len(args)} arguments")

    def ev(t):
        if isinstance(t, int):
            return args[t]
        return multiply_loop(alg, ev(t[0]), ev(t[1]))
    return ev(word.tree)


@functools.lru_cache(maxsize=None)
def tree_shapes(length):
    """All binary tree shapes with the given leaf count, leaves labelled
    0..length-1 left to right (one canonical linear word per shape)."""
    def shapes(lo, n):
        if n == 1:
            return [lo]
        return [(left, right) for k in range(1, n)
                for left in shapes(lo, k) for right in shapes(lo + k, n - k)]
    return tuple(Word(t) for t in shapes(0, length))


def word_ideal_span(alg, generators, max_len=5):
    """Span of all linear-word specializations of length <= max_len with at
    least one slot from the generator set and the rest over the basis.
    Stops early once two consecutive lengths give the same span: it is then
    closed under one-step products, hence already the whole ideal."""
    gens = [alg.element(v) for v in generators]
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    ech = Echelon(alg.field, alg.dim)
    prev_rank = -1
    for length in range(1, max_len + 1):
        for shape in tree_shapes(length):
            for designated in range(length):
                free = [s for s in range(length) if s != designated]
                for a in gens:
                    rows = []
                    for combo in itertools.product(basis, repeat=len(free)):
                        args = [a] * length
                        for slot, b in zip(free, combo):
                            args[slot] = b
                        rows.append(specialize(shape, args, alg))
                    ech.extend(rows)
        if ech.rank == prev_rank or ech.rank == alg.dim:
            break
        prev_rank = ech.rank
    return ech.to_subspace()


# -- crossed systems read back off their products ------------------------------

class NoNuclearUnit(ValidationError):
    """A graded component holds no invertible nuclear element."""


def recognize_crossed_system(alg, grad, units=None):
    """(T, G, sigma, alpha) of a graded algebra with a nuclear unit u_g in
    every component: T is the identity component, u_e the algebra unit,
    sigma_g conjugation by u_g and alpha(g, h) = u_g u_h u_{gh}^-1.  Without
    supplied units, u_g is the `first_unit` of the nuclear part of R_g."""
    g, f = grad.group, alg.field
    e = g.identity
    idx = grad.indices_of(e)
    pos = {i: n for n, i in enumerate(idx)}

    def restrict(vec):
        assert not any(c for i, c in enumerate(vec) if i not in pos), vec
        return tuple(vec[i] for i in idx)

    # the gradation keeps the products of R_e in R_e
    t = make_algebra(f, len(idx), [(pos[i], pos[j], pos[k], c)
                                   for i, j, k, c in entries(alg)
                                   if i in pos and j in pos],
                     restrict(alg.unit))

    chosen, inv = [alg.unit] * g.order, [alg.unit] * g.order
    nucleus = (np.concatenate(algebra._nucleus_blocks(alg)[:3]).tolist()
               if units is None else None)
    for a in range(g.order):
        if a == e:
            continue
        if units is not None:
            chosen[a] = alg.element(units[a])
            inv[a] = two_sided_inverse(alg, chosen[a])
            continue
        outside = [alg.basis_vector(i) for i in range(alg.dim)
                   if grad.degrees[i] != a]
        found = algebra.first_unit(alg, kernel(f, nucleus + outside, alg.dim))
        if found is None:
            raise NoNuclearUnit(f"component {a} has no nuclear unit")
        chosen[a], inv[a] = found

    def in_t(x, y, z):                  # (x y) z, a vector of R_e
        return restrict(multiply_loop(alg, multiply_loop(alg, x, y), z))
    embed = [alg.basis_vector(i) for i in idx]
    sigma = [tuple(zip(*(in_t(chosen[a], x, inv[a]) for x in embed)))
             for a in range(g.order)]
    alpha = [[in_t(chosen[a], chosen[b], inv[g.mul(a, b)])
              for b in range(g.order)] for a in range(g.order)]
    return crossed.validate_crossed_system(t, g, sigma, alpha)


# -- the loops that the structure-tensor contractions replace ------------------
#
# Each computes what one contraction of `gradix.algebra` or `gradix.crossed`
# computes, vector by vector in the field's own arithmetic, and serves as its
# reference over F_p and over Q.

def mat_vec(f, m, v):
    """m v over the field f, entry by entry."""
    out = []
    for row in m:
        acc = f.zero
        for a, b in zip(row, v):
            if a and b:
                acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(f, a, b):
    """The matrix product a b, entry by entry."""
    def dot(row, col):
        acc = f.zero
        for x, y in zip(row, col):
            acc = f.add(acc, f.mul(x, y))
        return acc
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_power(f, m, e):
    """m**e by repeated squaring; a negative e inverts m first."""
    if e < 0:
        m, e = mat_inverse(f, m), -e
    out = identity_matrix(f, len(m))
    while e:
        if e & 1:
            out = mat_mul(f, out, m)
        m = mat_mul(f, m, m)
        e >>= 1
    return out


@functools.lru_cache(maxsize=64)
def entries(alg):
    """The nonzero entries (i, j, k, c) of the structure tensor, sorted, c
    a field scalar: e_i e_j holds c e_k.  Cached per algebra, which hashes
    by its tensor."""
    f, t, s = alg.field, alg._np_tensor, alg._np_scale
    out = []
    for i, j, k in np.argwhere(t).tolist():
        x = int(t[i, j, k])
        out.append((i, j, k, x * pow(s, -1, f.p) % f.p if f.is_finite
                    else Fraction(x, s)))
    return tuple(out)


def multiply_loop(alg, x, y):
    """x y, summed entry by entry: the loop that `Algebra.multiply`, a
    contraction of the structure tensor, replaces."""
    f = alg.field
    out = [f.zero] * alg.dim
    for i, j, k, c in entries(alg):
        a = x[i]
        if not a:
            continue
        b = y[j]
        if not b:
            continue
        out[k] = f.add(out[k], f.mul(f.mul(a, b), c))
    return tuple(out)


def tensor_loop(field, dim, mult):
    """The read-only structure tensor of entries with distinct indices,
    filled entry by entry, and its scale: the lcm of the
    denominators over Q, 1 over F_p."""
    scale = math.lcm(*(c.denominator for *_, c in mult))
    t = np.zeros((dim,) * 3, dtype=np_dtype(field.p, dim))
    for i, j, k, x in mult:
        t[i, j, k] = x.numerator * (scale // x.denominator)
    t.flags.writeable = False
    return t, scale


def make_algebra_loop(field, dim, items, unit, involution=None,
                      labels=None):
    """`make_algebra` as a loop: the entries coerced and summed in a dict,
    sorted, the tensor filled entry by entry (`tensor_loop`), and the unit
    and the involution checked with products of vectors; the same algebra,
    or the same error."""
    if dim < 1:
        raise ValidationError(f"algebra dim must be at least 1, got {dim}")
    acc = {}
    for i, j, k, c in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"tensor index {(i, j, k)} out of range for dim {dim}")
        c, key = field.coerce(c), (i, j, k)
        acc[key] = field.add(acc[key], c) if key in acc else c
    mult = tuple((i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c)
    unit = tuple(field.coerce(c) for c in unit)
    if len(unit) != dim:
        raise DimensionMismatch("unit length != dim")
    if involution is not None:
        involution = tuple(tuple(field.coerce(c) for c in row) for row in involution)
        if len(involution) != dim or any(len(r) != dim for r in involution):
            raise DimensionMismatch("involution matrix shape != dim x dim")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise DimensionMismatch("labels length != dim")
    alg = Algebra(field, dim, *tensor_loop(field, dim, mult), unit,
                  involution, labels)
    j = unit_failure_loop(alg)
    if j is not None:
        raise ValidationError(f"unit is not a two-sided identity at basis {j}")
    if involution is not None:
        if mat_vec(field, involution, unit) != unit:
            raise ValidationError("involution does not fix the unit")
        if mat_mul(field, involution, involution) != identity_matrix(field, dim):
            raise ValidationError("involution does not square to the identity")
        bad = product_mismatch_loop(alg, involution, reverse=True)
        if bad is not None:
            raise ValidationError(f"involution does not reverse products at {bad}")
    return alg


def product_table(alg):
    """The dense e_i e_j, each one `algebra.multiply` of basis vectors: the
    contraction side of `product_table_loop`."""
    e = alg.basis_vector
    return tuple(tuple(algebra.multiply(alg, e(i), e(j)) for j in range(alg.dim))
                 for i in range(alg.dim))


def product_table_loop(alg):
    """The dense e_i e_j, summed from the entries."""
    f, d = alg.field, alg.dim
    table = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, c in entries(alg):
        table[i][j][k] = f.add(table[i][j][k], c)
    return tuple(tuple(map(tuple, row)) for row in table)


def left_by_basis(alg, j, v):
    """e_j v"""
    return multiply_loop(alg, alg.basis_vector(j), v)


def right_by_basis(alg, j, v):
    """v e_j"""
    return multiply_loop(alg, v, alg.basis_vector(j))


def left_mult_matrix(alg, v):
    """Matrix of x -> v x."""
    f, d = alg.field, alg.dim
    m = [[f.zero] * d for _ in range(d)]
    for i, j, k, c in entries(alg):
        if v[i]:
            m[k][j] = f.add(m[k][j], f.mul(v[i], c))
    return tuple(tuple(row) for row in m)


def right_mult_matrix(alg, v):
    """Matrix of x -> x v."""
    f, d = alg.field, alg.dim
    m = [[f.zero] * d for _ in range(d)]
    for i, j, k, c in entries(alg):
        if v[j]:
            m[k][i] = f.add(m[k][i], f.mul(v[j], c))
    return tuple(tuple(row) for row in m)


def unit_failure_loop(alg):
    """The first j with u e_j != e_j or e_j u != e_j (the check of
    `make_algebra`), or None."""
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        if multiply_loop(alg, alg.unit, e) != e or multiply_loop(alg, e, alg.unit) != e:
            return j
    return None


def inverse_system_loop(alg, r):
    """`algebra.inverse_system`: the rows of L_r and R_r, over the unit
    twice."""
    return (list(left_mult_matrix(alg, r) + right_mult_matrix(alg, r)),
            list(alg.unit) * 2)


def closure_echelon(alg, seeds, maps=()):
    """The ideal closure in `linalg.Echelon`, the oracle of the module's
    frontier spin (`algebra._Module.spin`): each round adds the images of
    every row, not only of the new ones, under every generator of the
    module."""
    gens = algebra._module(alg, maps).gens
    ech = Echelon(alg.field, alg.dim)
    ech.extend(seeds)
    while 0 < ech.rank < alg.dim:
        rows, _ = algebra._np_vectors(alg, ech.rows)
        images = (rows @ gens.transpose(0, 2, 1)).reshape(-1, alg.dim)
        if alg.field.is_finite:
            images %= alg.field.p
        if not ech.extend(images.tolist()):
            break
    return ech.to_subspace()


def closure_loop(alg, seeds, maps=()):
    """The ideal closure, e_j v and v e_j by products."""
    ech = Echelon(alg.field, alg.dim)
    ech.extend(seeds)
    while ech.rank < alg.dim:
        batch = []
        for row in [list(r) for r in ech.rows]:
            for j in range(alg.dim):
                batch.append(left_by_basis(alg, j, row))
                batch.append(right_by_basis(alg, j, row))
            for m in maps:
                batch.append(mat_vec(alg.field, m, row))
        if not ech.extend(batch):
            break
    return ech.to_subspace()


def cayley_double_loop(alg, mu):
    """The entries and unit of `cayley.cayley_double`, product by product."""
    f, d = alg.field, alg.dim
    mu = f.coerce(mu)
    prod = product_table_loop(alg)
    star = [star_vec(alg, alg.basis_vector(i)) for i in range(d)]
    entries = []
    for i in range(d):
        for j in range(d):
            entries += [(i, j, k, c) for k, c in enumerate(prod[i][j]) if c]
            entries += [(i, d + j, d + k, c)
                        for k, c in enumerate(prod[j][i]) if c]
            bc = multiply_loop(alg, alg.basis_vector(i), star[j])
            entries += [(d + i, j, d + k, c) for k, c in enumerate(bc) if c]
            db = multiply_loop(alg, star[j], alg.basis_vector(i))
            entries += [(d + i, d + j, k, f.mul(mu, c))
                        for k, c in enumerate(db) if c]
    return entries, tuple(alg.unit) + (f.zero,) * d


def star_rows_loop(alg):
    """The rows of every R_{b - b*} that `cayley.star_centers` adds for
    Z_**."""
    rows = []
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        v = alg.sub_vec(e, star_vec(alg, e))
        rows.extend(right_mult_matrix(alg, v))
    return rows


def is_strong_loop(alg, grad):
    """`graded.is_strong` on the product table."""
    prod = product_table_loop(alg)
    mul = grad.group.mul
    for g in grad.support:
        for h in grad.support:
            gh = grad.indices_of(mul(g, h))
            rows = [[prod[a][b][k] for k in gh]
                    for a in grad.indices_of(g) for b in grad.indices_of(h)]
            if Subspace.span(alg.field, len(gh), rows).rank < len(gh):
                return False
    return True


def is_faithful_loop(alg, grad):
    """`graded.is_faithful` on the product table."""
    prod = product_table_loop(alg)
    mul = grad.group.mul
    for g in grad.support:
        rg = grad.indices_of(g)
        for h in grad.support:
            rh = grad.indices_of(h)
            gh, hg = grad.indices_of(mul(g, h)), grad.indices_of(mul(h, g))
            right = [[prod[a][b][k] for b in rh for k in gh] for a in rg]
            left = [[prod[b][a][k] for b in rh for k in hg] for a in rg]
            for rows, cols in ((right, gh), (left, hg)):
                if Subspace.span(alg.field, len(rh) * len(cols),
                                 rows).rank < len(rg):
                    return False
    return True


def matrix_order_loop(f, m, bound):
    """The first k <= bound with m^k = I, by products in the field's own
    arithmetic (Fractions over Q), or None: the order of
    `laurent._matrix_order` wherever no finite order passes bound."""
    power, one = m, identity_matrix(f, len(m))
    for k in range(1, bound + 1):
        if power == one:
            return k
        power = mat_mul(f, power, m)
    return None


def sigma_power_loop(ring, m):
    """`laurent.sigma_power` by Python matrix products, m unreduced."""
    f = ring.algebra.field
    out = identity_matrix(f, ring.algebra.dim)
    for mat, mi in zip(ring.sigma, m):
        out = mat_mul(f, out, mat_power(f, mat, mi))
    return out


# -- Laurent elements, one product at a time ------------------------------------

def laurent_one(ring):
    return laurent_element(ring, [((0,) * ring.rank, ring.algebra.unit)])


def x_power(ring, m, coeff=None):
    coeff = ring.algebra.unit if coeff is None else coeff
    return laurent_element(ring, [(tuple(m), coeff)])


def laurent_add(ring, a, b):
    return laurent_element(ring, list(a.terms) + list(b.terms))


def laurent_neg(ring, a):
    alg = ring.algebra
    minus = alg.field.neg(alg.field.one)
    return LaurentElement(tuple((m, scale_vec(alg, minus, c))
                                for m, c in a.terms))


def laurent_sub(ring, a, b):
    return laurent_add(ring, a, laurent_neg(ring, b))


def laurent_multiply(ring, a, b):
    """(a x^m)(b x^k) = a sigma^m(b) x^{m+k}, term by term."""
    alg, f = ring.algebra, ring.algebra.field
    acc = {}
    for ma, ca in a.terms:
        twist = sigma_power(ring, ma)
        for mb, cb in b.terms:
            m = tuple(x + y for x, y in zip(ma, mb))
            w = multiply_loop(alg, ca, mat_vec(f, twist, cb))
            acc[m] = alg.add_vec(acc[m], w) if m in acc else w
    return LaurentElement(tuple(sorted((m, c) for m, c in acc.items() if any(c))))


def laurent_commutator(ring, a, b):
    return laurent_sub(ring, laurent_multiply(ring, a, b),
                       laurent_multiply(ring, b, a))


def laurent_associator(ring, a, b, c):
    return laurent_sub(ring,
                       laurent_multiply(ring, laurent_multiply(ring, a, b), c),
                       laurent_multiply(ring, a, laurent_multiply(ring, b, c)))


def verify_central_loop(ring, c, window=None):
    """Centrality by Laurent products one at a time: c commutes with every
    single s = e_a x^j, and (c, s, e_b), (s, c, e_b) and (s, e_b, c)
    vanish for every basis element e_b at exponent 0, j over the period
    box, or over `window` (inclusive (lo, hi) per variable) when given, as
    an infinite order needs."""
    alg, zero = ring.algebra, (0,) * ring.rank
    box = ([range(o) for o in ring.orders] if window is None
           else [range(lo, hi + 1) for lo, hi in window])
    singles = [x_power(ring, j, alg.basis_vector(a))
               for j in itertools.product(*box) for a in range(alg.dim)]
    basis = [x_power(ring, zero, alg.basis_vector(b)) for b in range(alg.dim)]
    return (all(laurent_commutator(ring, c, s).is_zero() for s in singles) and
            all(laurent_associator(ring, *args).is_zero()
                for s in singles for b in basis
                for args in ((c, s, b), (s, c, b), (s, b, c))))


def product_mismatch_loop(alg, m, reverse=False):
    """`algebra._product_mismatch`: the first (i, j) in row-major order with
    m(e_i e_j) other than m(e_i) m(e_j), or m(e_j) m(e_i) when reverse."""
    f = alg.field
    images = [mat_vec(f, m, alg.basis_vector(j)) for j in range(alg.dim)]
    prod = product_table_loop(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = (images[j], images[i]) if reverse else (images[i], images[j])
            if mat_vec(f, m, prod[i][j]) != multiply_loop(alg, x, y):
                return i, j
    return None


def is_ring_automorphism_loop(alg, m):
    """`algebra.is_ring_automorphism` on Python scalars: m has an inverse,
    fixes the unit entry by entry, and is multiplicative on the basis
    pairs."""
    f = alg.field
    return (mat_inverse(f, m) is not None
            and mat_vec(f, m, alg.unit) == alg.unit
            and algebra._product_mismatch(alg, m) is None)


def associator_triples(alg):
    """[i][j][k]: the basis associator (e_i, e_j, e_k)."""
    prod = product_table_loop(alg)
    return [[[alg.sub_vec(right_by_basis(alg, k, prod[i][j]),
                          left_by_basis(alg, i, prod[j][k]))
              for k in range(alg.dim)]
             for j in range(alg.dim)]
            for i in range(alg.dim)]


def nucleus_blocks_loop(alg):
    """The left, middle, right and commuter equations, every row kept."""
    d = alg.dim
    trip = associator_triples(alg)
    left, middle, right = [], [], []
    for a in range(d):
        for b in range(d):
            for l in range(d):
                left.append([trip[i][a][b][l] for i in range(d)])
                middle.append([trip[a][i][b][l] for i in range(d)])
                right.append([trip[a][b][i][l] for i in range(d)])
    comm = []
    prod = product_table_loop(alg)
    for j in range(d):
        for l in range(d):
            comm.append([alg.field.sub(prod[i][j][l], prod[j][i][l])
                         for i in range(d)])
    return left, middle, right, comm


def echelon_kernel(f, rows, d):
    """Solution space through the Python Echelon path: rref, then one basis
    vector per free column, as in the generic branch of `kernel`."""
    ech = rref(f, rows, d)
    vecs = []
    for fcol in (j for j in range(d) if j not in ech.pivots):
        v = [f.zero] * d
        v[fcol] = f.one
        for row, piv in zip(ech.rows, ech.pivots):
            v[piv] = f.neg(row[fcol])
        vecs.append(v)
    return Subspace.span(f, d, vecs)


def echelon_solve(f, equations, rhs):
    """A x = b on the Python Echelon path, over any field: the particular
    solution (free coordinates zero) off the RREF of [A | b], or None, and
    the kernel of A eliminated on its own."""
    width = len(equations[0]) if equations else 0
    aug = rref(f, [list(e) + [b] for e, b in zip(equations, rhs)], width + 1)
    hom = echelon_kernel(f, equations, width)
    if width in aug.pivots:
        return None, hom
    x = [f.zero] * width
    for row, piv in zip(aug.rows, aug.pivots):
        x[piv] = row[width]
    return tuple(x), hom


def central_stacked(alg, names):
    """The named central subspaces, each the kernel of its blocks of
    `algebra._nucleus_blocks` stacked: the nucleus of the three slots', the
    center of all four."""
    left, middle, right, comm = algebra._nucleus_blocks(alg)
    systems = {"left": [left], "middle": [middle], "right": [right],
               "nucleus": [left, middle, right], "commuter": [comm],
               "center": [left, middle, right, comm]}
    return {n: kernel(alg.field, np.concatenate(systems[n]), alg.dim)
            for n in names}


def commutative_not_associative(f):
    """1, x, y with x x = y and y y = x, x y = y x = 0: commutative, and
    (x x) y = x while x (x y) = 0, so its center is smaller than its
    commuter."""
    unit = [(0, j, j, 1) for j in range(3)] + [(j, 0, j, 1) for j in (1, 2)]
    return make_algebra(f, 3, unit + [(1, 1, 2, 1), (2, 2, 1, 1)], (1, 0, 0))


def nucleus_equation_rows_loop(alg):
    """The nonzero left, middle and right rows, from the associators one by
    one: their kernel is the nucleus."""
    left, middle, right, _ = nucleus_blocks_loop(alg)
    return [row for row in left + middle + right if any(row)]


def nuclear_mask_loop(alg, vecs):
    """`algebra.nuclear_mask`: no nucleus equation is violated."""
    rows = nucleus_equation_rows_loop(alg)
    return [not any(mat_vec(alg.field, rows, v)) for v in vecs]


def associator_defect_loop(alg):
    """`algebra.associator_defect`: the span of the basis associators."""
    trip = associator_triples(alg)
    return Subspace.span(alg.field, alg.dim,
                         [trip[i][j][k] for i in range(alg.dim)
                          for j in range(alg.dim) for k in range(alg.dim)])


def center_equations_loop(alg, twist=None):
    """The nonzero rows of each L_{e_b} - R_{twist(e_b)} in (b, row) order,
    then the nucleus rows: their kernel is the twisted center of
    `algebra.fixed_center`."""
    f = alg.field
    rows = []
    for b in range(alg.dim):
        e = alg.basis_vector(b)
        lmat = left_mult_matrix(alg, e)
        rmat = right_mult_matrix(alg, e if twist is None else mat_vec(f, twist, e))
        for lrow, rrow in zip(lmat, rmat):
            row = tuple(f.sub(x, y) for x, y in zip(lrow, rrow))
            if any(row):
                rows.append(row)
    return rows + nucleus_equation_rows_loop(alg)


def fixed_center_loop(alg, maps, twist=None):
    """`algebra.fixed_center`: the kernel of `center_equations_loop` and of
    `fixed_rows_loop`, one system solved at once."""
    return kernel(alg.field, center_equations_loop(alg, twist)
                  + fixed_rows_loop(alg, maps), alg.dim)


def inverse_pairs_loop(alg, xs, ys):
    """Whether x y = y x = 1 for each pair."""
    return all(multiply_loop(alg, x, y) == alg.unit and multiply_loop(alg, y, x) == alg.unit
               for x, y in zip(xs, ys))


def canonical_inverses(sys):
    """alpha(g^-1, g)^-1 u_{g^-1} for each g: the inverse of u_g in the
    crossed product, by N2 at (g, g^-1, g)."""
    t, g = sys.algebra, sys.group
    out = []
    for a in g.elements():
        b = g.inv(a)
        v = [t.field.zero] * sys.dim
        v[b * t.dim: (b + 1) * t.dim] = sys.alpha_inv[b][a]
        out.append(tuple(v))
    return out


def assert_crossed_product_checks(sys, prod, grad):
    """The checks that `build_crossed_product` leaves to the validation of
    its system hold on what it built: the unit, the G-grading, and each
    canonical unit u_g a nuclear unit with inverse
    alpha(g^-1, g)^-1 u_{g^-1}."""
    algebra._check_unit_and_involution(prod)
    assert validate_gradation(prod, grad.group, grad.degrees) == grad
    units = crossed.canonical_units(sys)
    assert inverse_pairs_loop(prod, units, canonical_inverses(sys))
    nucleus = algebra.nucleus_and_center(prod).nucleus
    assert all(nucleus.contains(u) for u in units)


def check_cocycle_loop(t, g, sigma, alpha, alpha_inv):
    """`crossed._check_cocycle`: N1, then N2, each raising at its first
    violation in row-major order."""
    f, n, d = t.field, g.order, t.dim
    for a in range(n):
        for b in range(n):
            ab = g.mul(a, b)
            x, xi = alpha[a][b], alpha_inv[a][b]
            for i in range(d):
                lhs = mat_vec(f, sigma[a], mat_vec(f, sigma[b], t.basis_vector(i)))
                rhs = multiply_loop(t, multiply_loop(t, x, mat_vec(f, sigma[ab], t.basis_vector(i))), xi)
                if lhs != rhs:
                    raise N1Violation(f"at (g,h,basis) = ({a},{b},{i})")

    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = multiply_loop(t, alpha[a][b], alpha[g.mul(a, b)][c])
                rhs = multiply_loop(t, mat_vec(f, sigma[a], alpha[b][c]), alpha[a][g.mul(b, c)])
                if lhs != rhs:
                    raise N2Violation(f"at (g,h,s) = ({a},{b},{c})")


def product_tensor_loop(sys):
    """`crossed._product_tensor`: the structure tensor of the crossed
    product and its scale, filled from `product_entries_loop`."""
    return tensor_loop(sys.algebra.field, sys.dim, product_entries_loop(sys))


def product_entries_loop(sys):
    """The entries of the crossed product's structure constants, one
    product (e_i sigma_a(e_j)) alpha(a, b) at a time, in the loop's own
    order."""
    t, g, f = sys.algebra, sys.group, sys.algebra.field
    d, n = t.dim, g.order
    entries = []
    for a in range(n):
        sig = sys.sigma[a]
        for b in range(n):
            ab = g.mul(a, b)
            x = sys.alpha[a][b]
            for j in range(d):
                sj = mat_vec(f, sig, t.basis_vector(j))
                for i in range(d):
                    w = multiply_loop(t, multiply_loop(t, t.basis_vector(i), sj), x)
                    for k, c in enumerate(w):
                        if c:
                            entries.append((a * d + i, b * d + j, ab * d + k, c))
    return entries


def center_rows_loop(sys):
    """`crossed._center_rows`: (i) and (iii) from `center_equations_loop`
    per block, then the rows of (ii) for every (h, g)."""
    t, g, f = sys.algebra, sys.group, sys.algebra.field
    d, n = t.dim, g.order
    dim = d * n

    def block_row(col_blocks) -> tuple:
        row = [f.zero] * dim
        for blk, seg in col_blocks:
            row[blk * d: (blk + 1) * d] = seg
        return tuple(row)

    rows = []
    for a in range(n):
        rows += [block_row([(a, r)])
                 for r in center_equations_loop(t, sys.sigma[a])]

    ident = identity_matrix(f, d)
    for h in range(n):
        for a in range(n):
            k = conj(g, a, h)
            m = mat_mul(f, right_mult_matrix(t, sys.alpha[h][a]), sys.sigma[h])
            m = mat_mul(f, right_mult_matrix(t, sys.alpha_inv[k][h]), m)
            if k == a:
                rows += [block_row([(a, r)]) for r in fixed_rows_loop(t, [m])]
            else:
                rows += [block_row([(a, [f.neg(c) for c in mrow]), (k, irow)])
                         for mrow, irow in zip(m, ident)]
    return rows


def commutant_field_loop(module, unit):
    """`algebra._commutant_field` without the center: the c with
    [L_c, T] = 0 for every generator T of the module, the L_{e_j} and
    R_{e_j} included, solved from the identity four generators at a time
    on the solutions so far; then the same Frobenius test of a field."""
    p, d, gens = module.field.p, module.dim, module.gens
    left = module.left.reshape(d, d * d)
    cbasis = np.eye(d, dtype=gens.dtype)
    for start in range(0, len(gens), 4):
        if len(cbasis) == 1:
            break
        ls = np_matmul(cbasis, left, p).reshape(-1, 1, d, d)  # L_c per basis c
        chunk = gens[start:start + 4]
        comm = np_matmul(ls, chunk, p) - np_matmul(chunk, ls, p)
        cbasis = np_kernel(comm.reshape(len(cbasis), -1).T, p) @ cbasis % p
    cbasis, cpiv = np_rref(cbasis, p)
    k = len(cbasis)
    if k > 1:
        xs = np_matmul(cbasis, left, p).reshape(-1, d, d)
        unit = np.array([int(c) % p for c in unit], dtype=xs.dtype)
        frob = (np_mat_pow(xs, p, p) @ unit % p)[:, cpiv]  # rows: x_j^p in C
        if (len(np_rref(frob, p)[0]) < k or
                len(np_rref(frob - np.eye(k, dtype=frob.dtype), p)[0]) != k - 1):
            return None
    return k


def norton(alg, maps=()):
    """Norton's test of the module of A under the maps."""
    return algebra._norton_irreducible(algebra._module(alg, maps), alg.unit,
                                       alg._center)


def density_irreducible(alg, maps=()):
    """The Jacobson density test over F_p (Holt & Rees, "Testing modules
    for irreducibility", 1994), the oracle of Norton's test where no sweep
    is possible: A is irreducible under the associative algebra M that the
    module of A under the maps generates exactly when the commutant
    C = End_M(A) is a division algebra of dimension k and dim M = d^2 / k,
    that is M = End_C(A).  M is the spin of the identity matrix, d x d
    matrices flattened to rows, in the module of F_p^(d^2) under left
    multiplication by each generator g, the d^2 x d^2 matrix kron(g, I).
    int64 holds its products while d^2 (p - 1)^2 < 2^63."""
    module = algebra._module(alg, maps)
    p, d = alg.field.p, alg.dim
    assert d * d * (p - 1) ** 2 < 2 ** 63
    k = algebra._commutant_field(module, alg.unit, alg._center)
    if k is None:
        return False
    eye = np.eye(d, dtype=np.int64)
    ops = np.array([np.kron(g, eye)
                    for g in np.asarray(module.gens, dtype=np.int64)])
    span, _ = algebra._Module(alg.field, ops).spin(eye.reshape(1, d * d))
    return len(span) == d * d // k


# (module, name, loop): patched in together, they run the library on the
# loops in place of the contractions
LOOPS = [(algebra, "_product_mismatch", product_mismatch_loop),
         (algebra, "nuclear_mask", nuclear_mask_loop),
         (crossed, "fixed_center", fixed_center_loop),
         (crossed, "nuclear_mask", nuclear_mask_loop),
         (crossed, "_check_cocycle", check_cocycle_loop),
         (crossed, "_product_tensor", product_tensor_loop),
         (crossed, "_center_rows", center_rows_loop)]


def spins_outside_norton(monkeypatch):
    """The seeds of every spin of `algebra._Module` that runs outside
    Norton's test, that is every closure of a sweep or of a sample, as a
    list that fills in while the patches hold."""
    outside, inside = [], []
    norton_test, spin = algebra._norton_irreducible, algebra._Module.spin

    def in_norton(*args):
        inside.append(True)
        try:
            return norton_test(*args)
        finally:
            inside.pop()

    def spied(self, rows):
        if not inside:
            outside.append(rows)
        return spin(self, rows)
    monkeypatch.setattr(algebra, "_norton_irreducible", in_norton)
    monkeypatch.setattr(algebra._Module, "spin", spied)
    return outside
