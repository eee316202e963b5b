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

import numpy as np

from .algebra import (Algebra, SimplicityVerdict, _contractible, _np_left,
                      _np_right, _np_vectors, _nucleus_blocks_np,
                      center_equations, first_unit, fixed_center,
                      fixed_equations, in_nucleus, is_ring_automorphism,
                      make_algebra, nuclear_mask, nucleus_equation_rows,
                      right_mult_matrix, simple_under, two_sided_inverse)
from .errors import (AlphaNotNuclearUnit, ExactModeUnavailable, N1Violation,
                     N2Violation, N3Violation, NoNuclearUnit, NotAutomorphism,
                     ValidationError)
from .graded import Gradation, is_strong, validate_gradation
from .groups import FiniteGroup
from .linalg import (Subspace, Vec, coerce_matrix, identity_matrix, kernel,
                     mat_mul, mat_vec, np_matmul)


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

    if _contractible(t):
        _check_cocycle_np(t, g, sigma, alpha, alpha_inv)
    else:
        _check_cocycle_generic(t, g, sigma, alpha, alpha_inv)
    return CrossedSystem(t, g, sigma, alpha, alpha_inv)


def _check_cocycle_np(t: Algebra, g: FiniteGroup, sigma, alpha,
                      alpha_inv) -> None:
    """N1 for all (g, h) and N2 for all (g, h, s) at once over F_p: each side
    a contraction of T's structure tensor with the stacked sigma and alpha
    arrays, reduced mod p after each step.  Raises at the first violation in
    row-major order, as `_check_cocycle_generic` does."""
    p, n = t.field.p, g.order
    mul = np.array(g.table)
    s = _np_vectors(t, sigma)                   # s[a] @ v = sigma_a(v)
    al = _np_vectors(t, alpha)                  # al[a, b] = alpha(a, b)
    left = _np_left(t, al)
    # column i of each side: sigma_a(sigma_b(e_i)), alpha sigma_ab(e_i) alpha^-1
    lhs = np.einsum("akm,bmi->abki", s, s) % p
    rhs = _np_right(t, _np_vectors(t, alpha_inv)) @ (left @ s[mul] % p) % p
    bad = np.argwhere((lhs != rhs).any(axis=2))
    if len(bad):
        a, b, i = bad[0].tolist()
        raise N1Violation(f"at (g,h,basis) = ({a},{b},{i})")
    lhs = np.einsum("abkm,abcm->abck", left, al[mul]) % p
    twisted = np.einsum("akm,bcm->abck", s, al) % p   # sigma_a(alpha(b, c))
    right = _np_right(t, al)[np.arange(n)[:, None, None], mul[None]]
    rhs = np.einsum("abckm,abcm->abck", right, twisted) % p
    bad = np.argwhere((lhs != rhs).any(axis=3))
    if len(bad):
        a, b, c = bad[0].tolist()
        raise N2Violation(f"at (g,h,s) = ({a},{b},{c})")


def _check_cocycle_generic(t: Algebra, g: FiniteGroup, sigma, alpha,
                           alpha_inv) -> None:
    f, n, d = t.field, g.order, t.dim
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


def _product_entries_np(sys: CrossedSystem) -> list:
    """The coefficients of e_i sigma_a(e_j) alpha(a, b) for every
    (a, b, i, j) from one contraction of T's structure tensor, as the
    nonzero entries of `_product_entries_generic`."""
    t, d = sys.algebra, sys.algebra.dim
    p, c = t.field.p, t._np_tensor
    mul = np.array(sys.group.table)
    half = np.einsum("amj,iml->aijl", _np_vectors(t, sys.sigma), c) % p
    w = np.einsum("aijl,abkl->abijk", half,
                  _np_right(t, _np_vectors(t, sys.alpha))) % p
    a, b, i, j, k = np.nonzero(w)
    return list(zip((a * d + i).tolist(), (b * d + j).tolist(),
                    (mul[a, b] * d + k).tolist(), w[a, b, i, j, k].tolist()))


def _product_entries_generic(sys: CrossedSystem) -> list:
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
    return entries


def _inverse_pairs(alg: Algebra, xs, ys) -> bool:
    """Whether x y = y x = 1 for each pair of rows; over F_p, while
    `_contractible`, all the products at once."""
    if not _contractible(alg):
        return all(alg.multiply(x, y) == alg.unit and alg.multiply(y, x) == alg.unit
                   for x, y in zip(xs, ys))
    p, c = alg.field.p, alg._np_tensor
    x, y = _np_vectors(alg, xs), _np_vectors(alg, ys)
    unit = _np_vectors(alg, alg.unit)
    return all((np.einsum("rj,rjk->rk", v, np.tensordot(u, c, 1) % p) % p
                == unit).all() for u, v in ((x, y), (y, x)))


def build_crossed_product(sys: CrossedSystem) -> tuple[Algebra, Gradation]:
    t, g, f = sys.algebra, sys.group, sys.algebra.field
    d, n = t.dim, g.order

    entries = (_product_entries_np(sys) if _contractible(t)
               else _product_entries_generic(sys))
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
    units = canonical_units(sys)
    inverses = []
    for a in range(n):
        b = g.inv(a)
        v = [f.zero] * (d * n)
        v[b * d: (b + 1) * d] = sys.alpha_inv[b][a]
        inverses.append(tuple(v))
    if not (_inverse_pairs(prod, units, inverses) and all(nuclear_mask(prod, units))):
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
    units, u_g is the `first_unit` of the nuclear part of R_g, a search
    refused when that part has more projective points than `first_unit`'s
    default budget."""
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
    of (ii) are `fixed_equations` of its map t_g -> t_g.  Over F_p, while
    `_contractible`, the whole system is one array (`_center_rows_np`)."""
    t = sys.algebra
    rows = (_center_rows_np(sys) if _contractible(t)
            else _center_rows_generic(sys))
    return kernel(t.field, rows, sys.dim), fixed_center(t, sys.sigma)


def _center_rows_np(sys: CrossedSystem) -> np.ndarray:
    """The equations of `crossed_center` over F_p, blocks of d columns per
    group element, nonzero rows only.  (i) for every g is one contraction
    of T's structure tensor with the stacked sigma, and (iii) the nucleus
    rows repeated in each block.  (ii) for every (h, g) is the row block
    t_{hgh^-1} - m[h, g] t_g with m[h, g] = R_{alpha(hgh^-1, h)^-1}
    R_{alpha(h, g)} sigma_h, all of them one batched `np_matmul`; where
    hgh^-1 = g the block is I - m, the fixed rows of m up to sign."""
    t, g = sys.algebra, sys.group
    d, n, p = t.dim, g.order, t.field.p
    s = _np_vectors(t, sys.sigma)                       # s[a] @ v = sigma_a(v)
    eye = np.eye(d, dtype=s.dtype)
    diff = (_np_left(t, eye) - _np_right(t, s.transpose(0, 2, 1))) % p
    nucleus = np.concatenate(_nucleus_blocks_np(t)[:3])
    own = np.concatenate([diff.reshape(n, d * d, d),
                          np.broadcast_to(nucleus, (n,) + nucleus.shape)], 1)
    first = np.zeros((n, own.shape[1], n, d), dtype=s.dtype)
    first[np.arange(n), :, np.arange(n)] = own

    conj = np.array([[g.conj(a, h) for a in range(n)] for h in range(n)])
    h, a = np.indices((n, n))
    r_alpha = _np_right(t, _np_vectors(t, sys.alpha))
    r_inv = _np_right(t, _np_vectors(t, sys.alpha_inv))[conj, h]
    m = np_matmul(r_inv, np_matmul(r_alpha, s[:, None], p), p)
    second = np.zeros((n, n, d, n, d), dtype=s.dtype)
    second[h, a, :, a] = -m
    i = np.arange(d)
    second[h[..., None], a[..., None], i, conj[..., None], i] += 1

    rows = np.concatenate([first.reshape(-1, n * d),
                           second.reshape(-1, n * d) % p])
    return rows[rows.any(axis=1)]


def _center_rows_generic(sys: CrossedSystem) -> list:
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
    return rows
