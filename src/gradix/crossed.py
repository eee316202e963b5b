"""Crossed systems over finite groups and their product algebras.

A crossed system is (T, G, sigma, alpha) with sigma_g unital ring
automorphisms of T and alpha(g,h) nuclear units, subject to

    N1:  sigma_g(sigma_h(a)) = alpha(g,h) sigma_{gh}(a) alpha(g,h)^{-1}
    N2:  alpha(g,h) alpha(gh,s) = sigma_g(alpha(h,s)) alpha(g,hs)
    N3:  sigma_e = id,  alpha(g,e) = alpha(e,g) = 1.

The crossed product lives on basis {e_i u_g} with

    (a u_g)(b u_h) = a sigma_g(b) alpha(g,h) u_{gh}

and carries the canonical G-gradation deg(e_i u_g) = g.  Since the alphas
are nuclear, products involving them need no parenthesization.  The
product is a `CrossedProduct`, which keeps its system and builds its
associator tensor from the n^3 blocks that the grading leaves nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (Algebra, SimplicityVerdict, _algebra, _np_left,
                      _np_right, _np_vectors, _nucleus_blocks,
                      _twisted_commuter_rows, fixed_center,
                      is_ring_automorphism, nuclear_mask, simple_under,
                      two_sided_inverse)
from .errors import (AlphaNotNuclearUnit, N1Violation, N2Violation,
                     N3Violation, NotAutomorphism, ValidationError)
from .fields import _coerce_once
from .graded import Gradation
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

    @cached_property
    def _np_blocks(self) -> tuple[np.ndarray, int]:
        """The block table of the product and its scale: w[a, b, i, j, k]
        is the coefficient of e_k u_{ab} in (e_i u_a)(e_j u_b), that is in
        e_i sigma_a(e_j) alpha(a, b), from one contraction of T's structure
        tensor; over Q it carries the scale of sigma, of alpha and of the
        tensor twice."""
        t = self.algebra
        p, c = t.field.p, t._np_tensor
        s, ss = _np_vectors(t, self.sigma)
        al, sa = _np_vectors(t, self.alpha)
        half = np_mod(np.einsum("amj,iml->aijl", s, c), p)
        w = np_mod(np.einsum("aijl,abkl->abijk", half, _np_right(t, al)), p)
        return w, ss * sa * t._np_scale ** 2


@dataclass(frozen=True, eq=False, kw_only=True)
class CrossedProduct(Algebra):
    """The algebra of `build_crossed_product`, with the system it was built
    from.  Its table respects the grading deg(e_i u_a) = a, so the
    associator of basis elements of degrees a, b, c lies in degree abc:
    only n^3 of the n^4 degree blocks of its associator tensor can be
    nonzero."""
    # equality and hashing stay those of the algebra, its tensor
    system: CrossedSystem = field(repr=False)

    @cached_property
    def _np_defect(self) -> np.ndarray:
        """`Algebra._np_defect`, entry for entry, from the degree blocks of
        the table w (`CrossedSystem._np_blocks`): the associator of
        (e_i u_a, e_j u_b, e_k u_c) is, on e_l u_{abc},

            sum_m w[a, b, i, j, m] w[ab, c, m, k, l]
                - sum_m w[b, c, j, k, m] w[a, bc, i, m, l],

        each sum one `np_matmul` of (d^2 x d) @ (d x d^2) blocks batched
        over all (a, b, c): n^3 d^5 products, where the dense contraction
        does (n d)^5.  The blocks are scattered into zeros; every other
        block is zero because `_product_tensor` places each block w[a, b]
        of the table at degree ab.  Over Q w is first rescaled to
        `_np_scale`, the scale of the generic tensor."""
        sys, p = self.system, self.field.p
        n, d = sys.group.order, sys.algebra.dim
        mul = np.array(sys.group.table)
        w, s = sys._np_blocks
        w = w * self._np_scale // s        # exact: the scalars are w / s
        a, b, c = np.indices((n, n, n))
        ab, bc = mul[a, b], mul[b, c]
        flat = w.reshape(n, n, d * d, d)                   # [a, b, (i, j), m]
        first = np_matmul(flat[:, :, None],
                          w[ab, c].reshape(n, n, n, d, d * d), p)
        # [m, (i, l)] for (e_i u_a)(e_m u_bc): rows (j, k), columns (i, l)
        outer = w[a, bc].transpose(0, 1, 2, 4, 3, 5).reshape(n, n, n, d, d * d)
        second = np_matmul(flat[None], outer, p).reshape((n, n, n) + (d,) * 4)
        blocks = np_mod(first.reshape((n, n, n) + (d,) * 4)
                        - second.transpose(0, 1, 2, 5, 3, 4, 6), p)
        out = np.zeros((n, d) * 4, dtype=self._np_tensor.dtype)
        if blocks.any():        # the product is often associative
            out[a, :, b, :, c, :, mul[ab, c], :] = blocks
        return out.reshape((n * d,) * 4)


def validate_crossed_system(t: Algebra, g: FiniteGroup, sigma, alpha) -> CrossedSystem:
    n, d, f = g.order, t.dim, t.field
    if len(sigma) != n:
        raise ValidationError(f"expected {n} automorphisms, got {len(sigma)}")
    if len(alpha) != n or any(len(row) != n for row in alpha):
        raise ValidationError("alpha is not an order x order table")
    coerce = _coerce_once(f)
    sigma = tuple(coerce_matrix(f, m, d, coerce=coerce) for m in sigma)
    alpha = tuple(tuple(t.element(a, coerce) for a in row) for row in alpha)

    # each distinct sigma is checked once, as the alpha values are below;
    # the first bad one in the order of sigma is named
    for m in dict.fromkeys(sigma):
        if not is_ring_automorphism(t, m):
            raise NotAutomorphism(
                f"sigma[{sigma.index(m)}] is not a ring automorphism")

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
    """Group-ring system: sigma = id, alpha = alpha^-1 = 1, which meet
    N1-N3 and every check of `validate_crossed_system` for any T and G."""
    ones = ((t.unit,) * g.order,) * g.order
    return CrossedSystem(t, g, (identity_matrix(t.field, t.dim),) * g.order,
                         ones, ones)


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


def _product_tensor(sys: CrossedSystem) -> tuple[np.ndarray, int]:
    """The product's tensor and scale: the block table w[a, b, i, j, k]
    (`CrossedSystem._np_blocks`) scattered to [(a, i), (b, j), (ab, k)]."""
    n, d = sys.group.order, sys.algebra.dim
    w, s = sys._np_blocks
    a, b = np.indices((n, n))
    tensor = np.zeros((n, d) * 3, dtype=w.dtype)
    tensor[a, :, b, :, np.array(sys.group.table)[a, b], :] = w
    return tensor.reshape((n * d,) * 3), s


def build_crossed_product(sys: CrossedSystem) -> tuple[CrossedProduct, Gradation]:
    """The crossed product of the system, graded by G, checked no further:
    `_product_tensor` puts e_i u_a e_j u_b in degree ab and the unit is
    u_e, and N1-N3, with sigma_g automorphisms and alpha(g, h) nuclear
    units, make each u_g a nuclear unit with inverse
    v_g = alpha(g^-1, g)^-1 u_{g^-1} (N2 at (g, g^-1, g)).  So the
    gradation is strong: for x in R_{gh}, x v_h lies in R_g and
    (x v_h) u_h = x (v_h u_h) = x as u_h is nuclear, so R_{gh} = R_g R_h."""
    t, g, f = sys.algebra, sys.group, sys.algebra.field
    d, n = t.dim, g.order

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

    prod = _algebra(CrossedProduct, f, d * n, *_product_tensor(sys),
                    tuple(unit), labels=labels, system=sys)
    return prod, Gradation(g, tuple(a for a in range(n) for _ in range(d)))


# -- simplicity and centers ------------------------------------------------------

def is_G_simple(sys: CrossedSystem,
                budget: int = 1_000_000) -> SimplicityVerdict:
    """No proper nonzero ideal of T closed under every sigma_g (exact)."""
    return simple_under(sys.algebra, maps=sys.sigma, budget=budget)


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
