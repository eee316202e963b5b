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

from .algebra import (Algebra, SimplicityVerdict, _np_entries, _np_left,
                      _np_right, _np_vectors, _nucleus_blocks,
                      _twisted_commuter_rows, fixed_center,
                      is_ring_automorphism, make_algebra, nuclear_mask,
                      simple_under, two_sided_inverse)
from .errors import (AlphaNotNuclearUnit, N1Violation, N2Violation,
                     N3Violation, NotAutomorphism, ValidationError)
from .graded import Gradation, validate_gradation
from .groups import FiniteGroup
from .linalg import (Subspace, Vec, coerce_matrix, identity_matrix, kernel,
                     np_matmul, np_mod)


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

    # the distinct values are tested for nuclearity in one `nuclear_mask`
    # and the nuclear ones inverted once each: a cocycle usually takes only
    # a few values, most often the unit
    values = list(dict.fromkeys(x for row in alpha for x in row))
    inverses = {x: two_sided_inverse(t, x) if nuclear else None
                for x, nuclear in zip(values, nuclear_mask(t, values))}
    for a in range(n):
        for b in range(n):
            if inverses[alpha[a][b]] is None:
                raise AlphaNotNuclearUnit(f"alpha[{a}][{b}] = {alpha[a][b]}")
    alpha_inv = tuple(tuple(inverses[x] for x in row) for row in alpha)

    e = g.identity
    if sigma[e] != identity_matrix(f, d):
        raise N3Violation("sigma at the identity is not id")
    for a in range(n):
        if alpha[a][e] != t.unit or alpha[e][a] != t.unit:
            raise N3Violation(f"alpha not normalized at ({a}, identity)")

    _check_cocycle(t, g, sigma, alpha, alpha_inv)
    return CrossedSystem(t, g, sigma, alpha, alpha_inv)


def _check_cocycle(t: Algebra, g: FiniteGroup, sigma, alpha,
                   alpha_inv) -> None:
    """N1 for all (g, h) and N2 for all (g, h, s) at once: each side a
    contraction of T's structure tensor with the stacked sigma and alpha
    arrays, reduced after each step, and each compared times the other
    side's scale.  Raises at the first violation in row-major order of
    (g, h, basis) for N1 and (g, h, s) for N2."""
    p, n, st = t.field.p, g.order, t._np_scale
    mul = np.array(g.table)
    s, ss = _np_vectors(t, sigma)               # s[a] @ v = sigma_a(v)
    al, sa = _np_vectors(t, alpha)              # al[a, b] = alpha(a, b)
    inv, si = _np_vectors(t, alpha_inv)
    left = _np_left(t, al)
    # column i of each side: sigma_a(sigma_b(e_i)), alpha sigma_ab(e_i) alpha^-1
    lhs = np_mod(np.einsum("akm,bmi->abki", s, s), p)          # scale ss^2
    rhs = np_mod(_np_right(t, inv) @ np_mod(left @ s[mul], p), p)  # si sa st^2 ss
    bad = np.argwhere((lhs * (si * sa * st * st) != rhs * ss).any(axis=2))
    if len(bad):
        a, b, i = bad[0].tolist()
        raise N1Violation(f"at (g,h,basis) = ({a},{b},{i})")
    lhs = np_mod(np.einsum("abkm,abcm->abck", left, al[mul]), p)  # sa^2 st
    twisted = np_mod(np.einsum("akm,bcm->abck", s, al), p)  # sigma_a(alpha(b, c))
    right = _np_right(t, al)[np.arange(n)[:, None, None], mul[None]]
    rhs = np_mod(np.einsum("abckm,abcm->abck", right, twisted), p)  # sa^2 st ss
    bad = np.argwhere((lhs * ss != rhs).any(axis=3))
    if len(bad):
        a, b, c = bad[0].tolist()
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


def _product_entries(sys: CrossedSystem) -> list:
    """The nonzero coefficients of e_i sigma_a(e_j) alpha(a, b) for every
    (a, b, i, j), as entries (a d + i, b d + j, ab d + k, c) of the
    product's structure constants, from one contraction of T's structure
    tensor; over Q each is divided back by the contraction's scale."""
    t, d = sys.algebra, sys.algebra.dim
    f, c = t.field, t._np_tensor
    mul = np.array(sys.group.table)
    s, ss = _np_vectors(t, sys.sigma)
    al, sa = _np_vectors(t, sys.alpha)
    half = np_mod(np.einsum("amj,iml->aijl", s, c), f.p)
    w = np_mod(np.einsum("aijl,abkl->abijk", half, _np_right(t, al)), f.p)
    (a, b, i, j, k), vals = _np_entries(f, w, ss * sa * t._np_scale ** 2)
    return list(zip((a * d + i).tolist(), (b * d + j).tolist(),
                    (mul[a, b] * d + k).tolist(), vals))


def _inverse_pairs(alg: Algebra, xs, ys) -> bool:
    """Whether x y = y x = 1 for each pair of rows, all the products at
    once."""
    p, c = alg.field.p, alg._np_tensor
    (x, sx), (y, sy) = _np_vectors(alg, xs), _np_vectors(alg, ys)
    unit, su = _np_vectors(alg, alg.unit)
    scale = sx * sy * alg._np_scale        # the scale of each product
    return all((np_mod(np.einsum("rj,rjk->rk", v,
                                 np_mod(np.tensordot(u, c, 1), p)), p) * su
                == unit * scale).all() for u, v in ((x, y), (y, x)))


def build_crossed_product(sys: CrossedSystem) -> tuple[Algebra, Gradation]:
    """The crossed product of the system, graded by G, with each canonical
    unit u_g checked to be a nuclear unit with inverse
    alpha(g^-1, g)^-1 u_{g^-1}.  That check also makes the gradation
    strong: for x in R_{gh}, x v_h lies in R_g, where v_h in R_{h^-1} is
    the inverse of u_h, and (x v_h) u_h = x (v_h u_h) = x because u_h is
    nuclear, so R_{gh} = R_g R_h."""
    t, g, f = sys.algebra, sys.group, sys.algebra.field
    d, n = t.dim, g.order

    entries = _product_entries(sys)
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
    together with the fixed central subfield Z(T)^G of T, `fixed_center(T,
    sigma)`.  (i) and (iii) say that t_g lies in the sigma_g-twisted center
    `fixed_center(T, (), sigma_g)`, and for hgh^-1 = g (ii) says that t_g is
    fixed by its map t_g -> t_g.  The whole system is one array
    (`_center_rows`) and one kernel, where solving each of the n group
    elements on its own and then (ii) on the sum of their twisted centers
    takes n + 1 kernels."""
    t = sys.algebra
    return kernel(t.field, _center_rows(sys), sys.dim), fixed_center(t, sys.sigma)


def _center_rows(sys: CrossedSystem) -> np.ndarray:
    """The equations of `crossed_center`, blocks of d columns per group
    element, nonzero rows only.  (i) for every g is
    `algebra._twisted_commuter_rows` of the stacked sigma, one contraction
    of T's structure tensor, and (iii) the nucleus rows repeated in each
    block.  (ii) for every (h, g) is the row block
    t_{hgh^-1} - m[h, g] t_g with m[h, g] = R_{alpha(hgh^-1, h)^-1}
    R_{alpha(h, g)} sigma_h, all of them one batched `np_matmul`; where
    hgh^-1 = g the block is I - m, the fixed rows of m up to sign.  Over Q
    the identity of each such block is scaled to the scale of m."""
    t, g = sys.algebra, sys.group
    d, n, p = t.dim, g.order, t.field.p
    s, ss = _np_vectors(t, sys.sigma)                   # s[a] @ v = sigma_a(v)
    nucleus = np.concatenate(_nucleus_blocks(t)[:3])
    own = np.concatenate([_twisted_commuter_rows(t, s, ss),
                          np.broadcast_to(nucleus, (n,) + nucleus.shape)], 1)
    first = np.zeros((n, own.shape[1], n, d), dtype=s.dtype)
    first[np.arange(n), :, np.arange(n)] = own

    conj = np.array([[g.conj(a, h) for a in range(n)] for h in range(n)])
    h, a = np.indices((n, n))
    al, sa = _np_vectors(t, sys.alpha)
    inv, si = _np_vectors(t, sys.alpha_inv)
    r_inv = _np_right(t, inv)[conj, h]
    m = np_matmul(r_inv, np_matmul(_np_right(t, al), s[:, None], p), p)
    second = np.zeros((n, n, d, n, d), dtype=s.dtype)
    second[h, a, :, a] = -m
    i = np.arange(d)
    # the scale of m: si, sa and ss times the tensor's twice
    second[h[..., None], a[..., None], i, conj[..., None], i] += (
        si * sa * ss * t._np_scale ** 2)

    rows = np.concatenate([first.reshape(-1, n * d),
                           np_mod(second.reshape(-1, n * d), p)])
    return rows[rows.any(axis=1)]
