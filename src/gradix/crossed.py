"""Crossed systems over finite groups and their product algebras.

A crossed system is (T, G, sigma, alpha) with sigma_g unital ring
automorphisms of T and alpha(g,h) nuclear units, subject to

    N1:  sigma_g(sigma_h(a)) = alpha(g,h) sigma_{gh}(a) alpha(g,h)^{-1}
    N2:  alpha(g,h) alpha(gh,s) = sigma_g(alpha(h,s)) alpha(g,hs)
    N3:  sigma_e = id,  alpha(g,e) = alpha(e,g) = 1.

The crossed product lives on basis {e_i u_g} with

    (a u_g)(b u_h) = a sigma_g(b) alpha(g,h) u_{gh}

and carries the canonical G-gradation deg(e_i u_g) = g.  Since the alphas
are nuclear, products involving them need no parenthesization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Algebra, SimplicityVerdict, center_equations,
                      first_unit, fixed_center, fixed_equations, in_nucleus,
                      is_ring_automorphism, make_algebra,
                      nucleus_equation_rows, right_mult_matrix, simple_under,
                      two_sided_inverse)
from .errors import (AlphaNotNuclearUnit, ExactModeUnavailable, N1Violation,
                     N2Violation, N3Violation, NoNuclearUnit, NotAutomorphism,
                     ValidationError)
from .graded import Gradation, is_strong, validate_gradation
from .groups import FiniteGroup
from .linalg import (Subspace, Vec, coerce_matrix, identity_matrix, kernel,
                     mat_mul, mat_vec)


@dataclass(frozen=True)
class CrossedSystem:
    algebra: Algebra                              # T
    group: FiniteGroup                            # G
    sigma: tuple                                  # matrix per group element
    alpha: tuple                                  # element of T per (g, h)
    alpha_inv: tuple                              # cached two-sided inverses

    @property
    def dim(self) -> int:
        return self.algebra.dim * self.group.order


def validate_crossed_system(t: Algebra, g: FiniteGroup, sigma, alpha) -> CrossedSystem:
    n, d, f = g.order, t.dim, t.field
    if len(sigma) != n:
        raise ValidationError(f"expected {n} automorphisms, got {len(sigma)}")
    if len(alpha) != n or any(len(row) != n for row in alpha):
        raise ValidationError("alpha is not an order x order table")
    sigma = tuple(coerce_matrix(f, m, d) for m in sigma)
    alpha = tuple(tuple(t.element(a) for a in row) for row in alpha)

    for a in range(n):
        if not is_ring_automorphism(t, sigma[a]):
            raise NotAutomorphism(f"sigma[{a}] is not a ring automorphism")

    # each distinct value is inverted and tested once: a cocycle usually
    # takes only a few values, most often the unit
    inverses: dict[Vec, Vec | None] = {}
    for a in range(n):
        for b in range(n):
            x = alpha[a][b]
            if x not in inverses:
                inv = two_sided_inverse(t, x)
                inverses[x] = inv if inv is not None and in_nucleus(t, x) else None
            if inverses[x] is None:
                raise AlphaNotNuclearUnit(f"alpha[{a}][{b}] = {x}")
    alpha_inv = tuple(tuple(inverses[x] for x in row) for row in alpha)

    e = g.identity
    if sigma[e] != identity_matrix(f, d):
        raise N3Violation("sigma at the identity is not id")
    for a in range(n):
        if alpha[a][e] != t.unit or alpha[e][a] != t.unit:
            raise N3Violation(f"alpha not normalized at ({a}, identity)")

    for a in range(n):
        for b in range(n):
            ab = g.mul(a, b)
            x, xi = alpha[a][b], alpha_inv[a][b]
            for i in range(d):
                lhs = mat_vec(f, sigma[a], mat_vec(f, sigma[b], t.basis_vector(i)))
                rhs = t.multiply(t.multiply(x, mat_vec(f, sigma[ab], t.basis_vector(i))), xi)
                if lhs != rhs:
                    raise N1Violation(f"at (g,h,basis) = ({a},{b},{i})")

    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = t.multiply(alpha[a][b], alpha[g.mul(a, b)][c])
                rhs = t.multiply(mat_vec(f, sigma[a], alpha[b][c]), alpha[a][g.mul(b, c)])
                if lhs != rhs:
                    raise N2Violation(f"at (g,h,s) = ({a},{b},{c})")

    return CrossedSystem(t, g, sigma, alpha, alpha_inv)


def trivial_system(t: Algebra, g: FiniteGroup) -> CrossedSystem:
    """Group-ring system: sigma = id, alpha = 1."""
    ident = identity_matrix(t.field, t.dim)
    ones = tuple(tuple(t.unit for _ in range(g.order)) for _ in range(g.order))
    return validate_crossed_system(t, g, (ident,) * g.order, ones)


# -- the product ---------------------------------------------------------------

def canonical_units(sys: CrossedSystem) -> list[Vec]:
    """Coordinates of u_g inside the built product, for each g."""
    d, f = sys.algebra.dim, sys.algebra.field
    out = []
    for a in range(sys.group.order):
        v = [f.zero] * sys.dim
        v[a * d: (a + 1) * d] = list(sys.algebra.unit)
        out.append(tuple(v))
    return out


def build_crossed_product(sys: CrossedSystem) -> tuple[Algebra, Gradation]:
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
                    w = t.multiply(t.multiply(t.basis_vector(i), sj), x)
                    for k, c in enumerate(w):
                        if c:
                            entries.append((a * d + i, b * d + j, ab * d + k, c))
    e = g.identity
    unit = [f.zero] * (d * n)
    unit[e * d: (e + 1) * d] = list(t.unit)

    labels = None
    if t.labels is not None:
        labels = []
        for a in range(n):
            for i in range(d):
                tl = t.labels[i]
                if a == e:
                    labels.append(tl)
                else:
                    head = "" if tl == "1" else tl
                    labels.append(f"{head}u{g.label(a)}")
        labels = tuple(labels)

    prod = make_algebra(f, d * n, entries, tuple(unit), labels=labels)
    degrees = tuple(a for a in range(n) for _ in range(d))
    grad = validate_gradation(prod, g, degrees)
    if not is_strong(prod, grad):
        raise ValidationError("built product is not strongly graded")

    # N2 at (g, g^-1, g) makes alpha(g^-1, g)^-1 u_{g^-1} the inverse of u_g
    for a, u in enumerate(canonical_units(sys)):
        b = g.inv(a)
        v = [f.zero] * (d * n)
        v[b * d: (b + 1) * d] = sys.alpha_inv[b][a]
        if (prod.multiply(u, v) != prod.unit or prod.multiply(v, u) != prod.unit
                or not in_nucleus(prod, u)):
            raise ValidationError("canonical unit is not a nuclear unit")
    return prod, grad


# -- recognition ---------------------------------------------------------------

def _restrict(vec, idx, where: str) -> Vec:
    keep = set(idx)
    if any(c for i, c in enumerate(vec) if i not in keep):
        raise ValidationError(f"{where}: support leaves the identity component")
    return tuple(vec[i] for i in idx)


def recognize_crossed_system(alg: Algebra, grad: Gradation,
                             units=None) -> CrossedSystem:
    """Extract (T, G, sigma, alpha) from a graded algebra with nuclear units
    in every component; u_e is always the algebra unit.  Without supplied
    units, u_g is the `first_unit` of the nuclear part of R_g."""
    g = grad.group
    f = alg.field
    e = g.identity
    idx = grad.indices_of(e)
    if not idx:
        raise ValidationError("identity component is zero")

    # T = identity component with the restricted product
    pos = {i: k for k, i in enumerate(idx)}
    entries = []
    for i in idx:
        for j in idx:
            w = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            w = _restrict(w, idx, "identity component product")
            for k, c in enumerate(w):
                if c:
                    entries.append((pos[i], pos[j], k, c))
    t_labels = tuple(alg.labels[i] for i in idx) if alg.labels else None
    t = make_algebra(f, len(idx), entries,
                     _restrict(alg.unit, idx, "unit"), labels=t_labels)

    chosen: list[Vec | None] = [None] * g.order
    inv: list[Vec | None] = [None] * g.order
    chosen[e] = inv[e] = alg.unit
    if units is not None:
        if len(units) != g.order:
            raise ValidationError("need one unit per group element")
        for a in range(g.order):
            u = alg.element(units[a])
            if a == e:
                if u != alg.unit:
                    raise ValidationError("the identity-component unit must be 1")
                continue
            if grad.degree_of(u) != a:
                raise ValidationError(f"supplied unit {a} is not homogeneous of degree {a}")
            uinv = two_sided_inverse(alg, u) if in_nucleus(alg, u) else None
            if uinv is None:
                raise NoNuclearUnit(f"supplied unit {a} is not a nuclear unit")
            chosen[a], inv[a] = u, uinv
    else:
        if not f.is_finite:
            raise ExactModeUnavailable("unit search needs a finite field or supplied units")
        nucleus = nucleus_equation_rows(alg)
        for a in range(g.order):
            if a == e:
                continue
            outside = [alg.basis_vector(i) for i in range(alg.dim)
                       if grad.degrees[i] != a]
            found = first_unit(alg, kernel(f, nucleus + outside, alg.dim))
            if found is None:
                raise NoNuclearUnit(f"component {a} has no nuclear unit")
            chosen[a], inv[a] = found

    embed = [alg.basis_vector(i) for i in idx]

    sigma = []
    for a in range(g.order):
        cols = []
        for x in embed:
            w = alg.multiply(alg.multiply(chosen[a], x), inv[a])
            cols.append(_restrict(w, idx, f"conjugation by unit {a}"))
        sigma.append(tuple(zip(*cols)))   # columns -> matrix rows

    alpha = []
    for a in range(g.order):
        row = []
        for b in range(g.order):
            w = alg.multiply(alg.multiply(chosen[a], chosen[b]), inv[g.mul(a, b)])
            row.append(_restrict(w, idx, f"alpha({a},{b})"))
        alpha.append(tuple(row))

    return validate_crossed_system(t, g, tuple(sigma), tuple(alpha))


# -- simplicity and centers ------------------------------------------------------

def is_G_simple(t: Algebra, sigma,
                budget: int = 1_000_000) -> SimplicityVerdict:
    """No proper nonzero ideal of T closed under every sigma_g (exact)."""
    maps = tuple(coerce_matrix(t.field, m, t.dim) for m in sigma)
    return simple_under(t, maps=maps, budget=budget)


def crossed_center(sys: CrossedSystem) -> tuple[Subspace, Subspace]:
    """Center of the crossed product, solved on coefficient tuples (t_g):
      (i)   t t_g = t_g sigma_g(t)          for all t in T
      (ii)  t_{hgh^-1} = sigma_h(t_g) alpha(h,g) alpha(hgh^-1,h)^-1
      (iii) t_g in N(T)
    together with the fixed central subfield Z(T)^G of T.  The rows of (i)
    and (iii) are `center_equations(T, sigma_g)`, and for hgh^-1 = g those
    of (ii) are `fixed_equations` of its map t_g -> t_g."""
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
                 for r in center_equations(t, sys.sigma[a])]

    ident = identity_matrix(f, d)
    for h in range(n):
        for a in range(n):
            k = g.conj(a, h)
            m = mat_mul(f, right_mult_matrix(t, sys.alpha[h][a]), sys.sigma[h])
            m = mat_mul(f, right_mult_matrix(t, sys.alpha_inv[k][h]), m)
            if k == a:
                rows += [block_row([(a, r)]) for r in fixed_equations(t, [m])]
            else:
                rows += [block_row([(a, [f.neg(c) for c in mrow]), (k, irow)])
                         for mrow, irow in zip(m, ident)]

    return kernel(f, rows, dim), fixed_center(t, sys.sigma)
