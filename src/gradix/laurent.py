"""Skew Laurent polynomial rings T[x_1^{pm1}, ..., x_n^{pm1}; sigma].

Elements are finitely supported maps from Z^n exponent vectors to T,

    (a x^m)(b x^k) = a sigma^m(b) x^{m+k},    sigma^m = sigma_1^{m_1} ... sigma_n^{m_n},

with the sigma_i pairwise commuting automorphisms of T.  Decision operations
need a finite search space, so they demand finite-field T and finite
automorphism orders.

The simplicity obstruction searched here: a nonzero exponent m and a unit u,
fixed by every sigma_i and lying in N(T), with t u = u sigma^m(t) for all t.
Such a pair makes 1 + u x^m central (for associative T this says sigma^m is
inner, conjugation by u^{-1}).  Since sigma^m only depends on m modulo the
orders, the box of residues plus the order points on the axes exhaust all
candidate m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (REDUCTION_FIELD, Algebra, SimplicityVerdict,
                      _np_scalars, _np_vectors, _twisted_commuter_rows,
                      first_unit, fixed_center, is_ring_automorphism,
                      nuclear_mask, simple_under)
from .errors import BudgetExceeded, UnboundedSearch, ValidationError
from .fields import _is_prime
from .linalg import (Subspace, Vec, coerce_matrix, mat_inverse, np_mat_pow,
                     np_matmul)

Exp = tuple  # Z^n exponent vector


@dataclass(frozen=True)
class LaurentRing:
    algebra: Algebra
    rank: int
    sigma: tuple                      # one automorphism matrix per variable
    orders: tuple                     # multiplicative orders; None = infinite

    @cached_property
    def _residues(self) -> dict:
        """Per residue m of the order box (finite orders), the space of
        `center_coefficient_space` at m and its first unit, or None; filled
        in by `_residue_table`."""
        return {}

    @cached_property
    def _sigma_powers(self) -> dict:
        """sigma^m per reduced exponent m, filled in by `sigma_power`."""
        return {}


def _matrix_order(alg: Algebra, m, cap: int) -> int | None:
    """The multiplicative order of m: over F_p walked up to cap, past which
    BudgetExceeded.  Over Q the finite orders are the n with psi(n) <= d,
    psi(n) the sum of phi(q) over the prime powers q exactly dividing n,
    less 1 when n = 2 mod 4 (Kuzmanovich & Pavlichenkov, Amer. Math.
    Monthly 109, 2002; at most 840 at d = 16); they divide L, the product
    of the largest prime powers with phi at most d.  Reduction mod an odd
    prime q prime to the denominators keeps finite orders (Minkowski), so
    the order n mod q, L cut prime by prime, is m's if psi(n) <= d and
    m^n = I (`_is_identity_power`), and None (infinite) otherwise."""
    p, d = alg.field.p, alg.dim
    x, s = _np_vectors(alg, m)
    eye = np.eye(d, dtype=x.dtype)
    if p is not None:
        power = x
        for k in range(1, cap + 1):
            if (power == eye).all():
                return k
            power = np_matmul(power, x, p)
        raise BudgetExceeded(f"automorphism order exceeds {cap}")
    tops = {}
    for r in range(2, d + 2):
        if all(r % t for t in range(2, r)):
            tops[r] = r
            while tops[r] * (r - 1) <= d:       # phi(r q) = q (r - 1)
                tops[r] *= r
    q = next(q for q in itertools.count(REDUCTION_FIELD.p, -2)
             if s % q and _is_prime(q))
    red = (x % q * pow(s, -1, q) % q).astype(np.int64)
    n = math.prod(tops.values())
    if (np_mat_pow(red, n, q) != eye).any():
        return None
    psi = 0         # phi of each exact prime power, phi(2) counted as 0
    for r, top in tops.items():
        while n % r == 0 and (np_mat_pow(red, n // r, q) == eye).all():
            n //= r
        power = math.gcd(n, top)
        psi += power - power // r if power > 2 else 0
    if psi > d or not _is_identity_power(x, s, n):
        return None
    return n


def _is_identity_power(x: np.ndarray, s: int, n: int) -> bool:
    """Whether (x / s)^n = I, for a matrix of Python ints x with scale s,
    by repeated squaring in integers.  Each product is divided by the gcd
    of its entries and its scale, which leaves it in lowest terms: I is
    then (I, 1), and the entries stay those of the rational power."""
    def mul(a, b):
        y, t = a[0] @ b[0], a[1] * b[1]
        g = math.gcd(t, *y.flat)
        return y // g, t // g

    out = None
    while n:
        if n & 1:
            out = (x, s) if out is None else mul(out, (x, s))
        n >>= 1
        if n:
            x, s = mul((x, s), (x, s))
    y, t = out
    return t == 1 and (y == np.eye(len(y), dtype=object)).all()


def make_laurent_ring(t: Algebra, sigma,
                      budget: int = 1_000_000) -> LaurentRing:
    """T[x_i^{pm1}; sigma_i]; over F_p each order is walked through the
    powers of sigma_i up to the budget, past which BudgetExceeded."""
    f, p = t.field, t.field.p
    sigma = tuple(coerce_matrix(f, m, t.dim) for m in sigma)
    for i, m in enumerate(sigma):
        if not is_ring_automorphism(t, m):
            raise ValidationError(f"sigma[{i}] is not a ring automorphism")
    arrays = [_np_vectors(t, m)[0] for m in sigma]
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if (np_matmul(arrays[i], arrays[j], p)
                    != np_matmul(arrays[j], arrays[i], p)).any():
                raise ValidationError(f"sigma[{i}] and sigma[{j}] do not commute")
    orders = tuple(_matrix_order(t, m, budget) for m in sigma)
    return LaurentRing(t, len(sigma), sigma, orders)


def _reduce_exp(ring: LaurentRing, m: Exp) -> Exp:
    return tuple(mi % o if o is not None else mi
                 for mi, o in zip(m, ring.orders))


def sigma_power(ring: LaurentRing, m: Exp):
    m = _reduce_exp(ring, m)
    powers = ring._sigma_powers
    if m not in powers:
        alg, f = ring.algebra, ring.algebra.field
        out, scale = np.eye(alg.dim, dtype=alg._np_tensor.dtype), 1
        for mat, mi in zip(ring.sigma, m):
            if mi:
                if mi < 0:          # an infinite order, so over Q
                    mat, mi = mat_inverse(f, mat), -mi
                x, s = _np_vectors(alg, mat)
                out = np_matmul(out, np_mat_pow(x, mi, f.p), f.p)
                scale *= s ** mi
        powers[m] = _np_scalars(f, out, scale)
    return powers[m]


# -- elements -------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentElement:
    terms: tuple      # sorted ((exponent vector, coefficient vector)), coeffs nonzero

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple:
        return tuple(m for m, _ in self.terms)


def laurent_element(ring: LaurentRing, terms) -> LaurentElement:
    acc: dict[Exp, Vec] = {}
    alg = ring.algebra
    for m, coeff in terms:
        m = tuple(int(x) for x in m)
        if len(m) != ring.rank:
            raise ValidationError(f"exponent {m} has rank != {ring.rank}")
        c = alg.element(coeff)
        acc[m] = alg.add_vec(acc[m], c) if m in acc else c
    return LaurentElement(tuple(sorted((m, c) for m, c in acc.items() if any(c))))


# -- decision operations ----------------------------------------------------------

def _require_searchable(ring: LaurentRing) -> None:
    if any(o is None for o in ring.orders):
        raise UnboundedSearch("some automorphism has infinite order")
    if not ring.algebra.field.is_finite:
        raise UnboundedSearch("unit search needs a finite coefficient field")


def is_sigma_simple(ring: LaurentRing,
                    budget: int = 1_000_000) -> SimplicityVerdict:
    """No proper nonzero ideal of T invariant under every sigma_i (exact)."""
    return simple_under(ring.algebra, maps=ring.sigma, budget=budget)


def _candidate_exponents(ring: LaurentRing):
    """Nonzero residues in the order box plus the order points on the axes,
    together in lex order."""
    cands = {m for m in itertools.product(*[range(o) for o in ring.orders])
             if any(m)}
    for i, o in enumerate(ring.orders):
        cands.add(tuple(o if j == i else 0 for j in range(ring.rank)))
    return sorted(cands)


def _residue_table(ring: LaurentRing, budget: int) -> dict:
    """`LaurentRing._residues`, filled on first use.  A residue whose space
    has more projective points than the budget refuses the fill before its
    unit search; once filled, the table is read whatever the budget."""
    if not ring._residues:
        table = {}
        for m in itertools.product(*[range(o) for o in ring.orders]):
            space = center_coefficient_space(ring, m)
            unit = first_unit(ring.algebra, space, budget)
            table[m] = space, None if unit is None else unit[0]
        ring._residues.update(table)
    return ring._residues


def inner_witness_search(ring: LaurentRing,
                         budget: int = 1_000_000) -> tuple[Vec, Exp] | None:
    _require_searchable(ring)
    table = _residue_table(ring, budget)
    for m in _candidate_exponents(ring):
        u = table[_reduce_exp(ring, m)][1]
        if u is not None:
            return u, m
    return None


def verify_central(ring: LaurentRing, c: LaurentElement) -> bool:
    """Whether c is central, term by term: each coefficient c_m of c is
    fixed by every sigma_i, satisfies t c_m = c_m sigma^m(t) for all t
    (the d^2 rows of `_twisted_commuter_rows` at sigma^m send it to 0) and
    lies in N(T) (`nuclear_mask`).  Since (a x^j)(b x^k) = a sigma^j(b)
    x^{j+k}, a bracket of c with singles is the sum of those of its terms,
    at distinct exponents.  The commutator with x_i is
    (c_m - sigma_i(c_m)) x^{m+e_i}, and with t x^0 it is
    (c_m sigma^m(t) - t c_m) x^m; together these make c_m commute with
    every t x^j.  The associator in slot 1 of the pair (a x^j, b x^k) is
    the T-associator (c_m, sigma^m(a), sigma^{m+j}(b)) at x^{m+j+k}; as a
    and b run over T so do their images, so it vanishes exactly when c_m
    is in N_l.  In slots 2 and 3 it is (a, sigma^j(c_m), sigma^{j+m}(b))
    and (a, sigma^j(b), sigma^{j+k}(c_m)), which for sigma-fixed c_m say
    the same of N_m and N_r.  No step needs finite orders.  The check
    reads T's structure tensor and the sigma matrices, not the coefficient
    spaces that produce witnesses."""
    if c.is_zero():
        return True
    alg, p, d = ring.algebra, ring.algebra.field.p, ring.algebra.dim
    exps, coeffs = zip(*c.terms)
    cm = _np_vectors(alg, coeffs)[0].T              # column m is c_m
    sigma, s = _np_vectors(alg, ring.sigma)
    twists, t = _np_vectors(alg, [sigma_power(ring, m) for m in exps])
    # sigma_i(c_m) carries the scale s of the sigma, c_m beside it none;
    # at rank 0 the stack of sigma is empty
    fixed = (np_matmul(sigma.reshape(-1, d, d), cm, p) == cm * s).all()
    rows = _twisted_commuter_rows(alg, twists, t)
    commutes = not np_matmul(rows, cm.T[:, :, None], p).any()
    return bool(fixed and commutes and all(nuclear_mask(alg, coeffs)))


@dataclass(frozen=True)
class LaurentVerdict:
    sigma_simple: bool
    sigma_witness: Vec | None          # generator of a proper invariant ideal
    witness: tuple[Vec, Exp] | None    # (u, m) obstruction when one exists
    simple: bool
    central_witness: LaurentElement | None


def laurent_simplicity_verdict(ring: LaurentRing,
                               budget: int = 1_000_000) -> LaurentVerdict:
    sig = is_sigma_simple(ring, budget=budget)
    pair = inner_witness_search(ring, budget)
    central = None
    if pair is not None:
        u, m = pair
        central = laurent_element(ring, [((0,) * ring.rank, ring.algebra.unit),
                                          (m, u)])
        if not verify_central(ring, central):
            raise ValidationError("emitted witness failed centrality verification")
    return LaurentVerdict(sig.simple, sig.witness, pair,
                          sig.simple and pair is None, central)


# -- center structure --------------------------------------------------------------

@dataclass(frozen=True)
class CenterStructure:
    orders: tuple
    l_points: tuple                   # residues m (mod orders) with a conjugator
    conjugators: tuple                # the first conjugating unit per l point
    fixed_center: Subspace            # F = Z(T) interesected with the fixed space
    slice_exponents: tuple            # window exponents with nonzero center slice
    slice_bases: tuple                # coefficient-space basis per such exponent


def center_coefficient_space(ring: LaurentRing, m: Exp) -> Subspace:
    """Coefficients t_m admissible for a central element at exponent m:
    t t_m = t_m sigma^m(t), sigma_i(t_m) = t_m, and t_m in N(T), the
    sigma^m-twisted center of T fixed by every sigma_i."""
    return fixed_center(ring.algebra, ring.sigma, sigma_power(ring, m))


def check_window(degree_box, rank: int, budget: int) -> list:
    """The window as inclusive (lo, hi) int pairs; refuses one of another
    rank, or one holding more than `budget` exponents, before any visit."""
    degree_box = [(int(lo), int(hi)) for lo, hi in degree_box]
    if len(degree_box) != rank:
        raise ValidationError(f"degree box has rank != {rank}")
    count = math.prod(max(0, hi - lo + 1) for lo, hi in degree_box)
    if count > budget:
        raise BudgetExceeded(f"window holds {count} exponents, over budget {budget}")
    return degree_box


def laurent_center_structure(ring: LaurentRing, degree_box,
                             budget: int = 1_000_000) -> CenterStructure:
    """degree_box: inclusive (lo, hi) per variable; the center slice lists the
    window exponents carrying nonzero central coefficients.  The coefficient
    space at m depends only on m modulo the orders, so every slice, l point
    and conjugator is read from `_residue_table`; residue 0 gives
    F = Z(T)^sigma."""
    _require_searchable(ring)
    degree_box = check_window(degree_box, ring.rank, budget)
    table = _residue_table(ring, budget)
    l_points = tuple(m for m, (_, u) in table.items() if u is not None)
    conjugators = tuple(u for _, u in table.values() if u is not None)
    exps, bases = [], []
    for m in itertools.product(*[range(lo, hi + 1) for lo, hi in degree_box]):
        space = table[_reduce_exp(ring, m)][0]
        if not space.is_zero:
            exps.append(m)
            bases.append(space.basis)
    return CenterStructure(ring.orders, l_points, conjugators,
                           table[(0,) * ring.rank][0], tuple(exps), tuple(bases))
