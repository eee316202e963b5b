"""Expected answers for benchmark requests, computed without gradix.

Everything here works from the request document alone, with its own exact
linear algebra, so a verdict that gradix gets wrong cannot also be wrong in
the same way here.  The answers form the reference table the checker
compares against:

- center rank: the dimension of {x : [x, A] = 0 and (x, A, A) = (A, x, A)
  = (A, A, x) = 0}, by elimination mod p or over exact integers;
- simplicity: A is simple iff it is an irreducible module over the
  associative algebra M generated by the identity and every left and right
  multiplication (plus the extra maps of a G-, sigma- or graded notion).
  When M is all of End(A) that holds outright; otherwise, over F_p, every
  projective point v is checked for M v = A.  Over Q only the first test
  applies (its rank is taken mod a large prime, which can only undercount),
  and the answer is left open when it fails;
- Cayley-Dickson towers: the doubles of dimension >= 4 are central simple;
  the first double F[x]/(x^2 - mu) is a field iff mu is a non-square.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

Q_PRIME = 65521   # products of two residues times d stay far below 2^63


# -- parsing request documents -------------------------------------------------


def scalar(text, p):
    q = Fraction(text)
    if p is None:
        return q
    return q.numerator * pow(q.denominator, -1, p) % p


def tensor(alg):
    """(p, d, C) with C[i][j][k] as Fractions (p None) or ints mod p."""
    f = alg["field"]
    p = f["p"] if f["kind"] == "Fp" else None
    d = alg["dim"]
    zero = 0 if p else Fraction(0)
    C = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for e in alg["mult"]:
        C[e["i"]][e["j"]][e["k"]] = scalar(e["c"], p)
    return p, d, C


def matrix(rows, p):
    return [[scalar(c, p) for c in row] for row in rows]


def modular(C, p):
    """The tensor as an int64 array mod p (Fractions reduce mod Q_PRIME)."""
    if p is None:
        return np.array([[[scalar(str(c), Q_PRIME) for c in row] for row in plane]
                         for plane in C], dtype=np.int64), Q_PRIME
    return np.array(C, dtype=np.int64), p


# -- exact ranks -------------------------------------------------------------------


def rref_mod(a, p: int) -> np.ndarray:
    """Nonzero rows of the reduced echelon form of a mod p."""
    a = np.array(a, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        r = rank + nz[0]
        a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        col = a[:, c].copy()
        col[rank] = 0
        a = (a - np.outer(col, a[rank])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return a[:rank]


def rank_mod(a, p: int) -> int:
    return rref_mod(a, p).shape[0]


def rank_q(rows, limit: int) -> int:
    """Rank over Q of an iterable of Fraction rows, stopping at limit."""
    basis: list[tuple[int, list]] = []
    for row in rows:
        v = list(row)
        for piv, b in basis:
            if v[piv]:
                c = v[piv]
                v = [x - c * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            inv = 1 / v[lead]
            basis.append((lead, [x * inv for x in v]))
            if len(basis) == limit:
                break
    return len(basis)


# -- centers ----------------------------------------------------------------------


def center_rows_mod(C: np.ndarray, p: int) -> np.ndarray:
    """Rows, one column per coordinate of x, whose kernel is the center."""
    d = C.shape[0]
    assoc = (np.einsum("ijm,mkl->ijkl", C, C) - np.einsum("jkm,iml->ijkl", C, C)) % p
    comm = (C - C.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(d * d, d)
    return np.concatenate([comm,
                           assoc.transpose(1, 2, 3, 0).reshape(-1, d),
                           assoc.transpose(0, 2, 3, 1).reshape(-1, d),
                           assoc.transpose(0, 1, 3, 2).reshape(-1, d)]) % p


def center_rows_q(C):
    """The same rows over Q, commutator rows first and the associator rows
    only when asked for (the commutator often settles the rank alone)."""
    d = len(C)
    rng = range(d)
    for j in rng:
        for k in rng:
            yield [C[i][j][k] - C[j][i][k] for i in rng]

    def times(v, w):
        out = [Fraction(0)] * d
        for a, x in enumerate(v):
            if x:
                for b, y in enumerate(w):
                    if y:
                        out = [o + x * y * t for o, t in zip(out, C[a][b])]
        return out

    basis = [[Fraction(int(i == j)) for j in rng] for i in rng]
    assoc = {(i, j, k): [x - y for x, y in zip(times(C[i][j], basis[k]),
                                               times(basis[i], C[j][k]))]
             for i in rng for j in rng for k in rng}
    for j in rng:
        for k in rng:
            for l in rng:
                yield [assoc[i, j, k][l] for i in rng]
                yield [assoc[j, i, k][l] for i in rng]
                yield [assoc[j, k, i][l] for i in rng]


def center_rank(p, C) -> int:
    d = len(C)
    if p is None:
        # the unit is always central, so the rank of the system is < d
        return d - rank_q(center_rows_q(C), d - 1)
    return d - rank_mod(center_rows_mod(np.array(C, dtype=np.int64), p), p)


def fixed_center_rank(p, C, maps) -> int:
    d = len(C)
    rows = [center_rows_mod(np.array(C, dtype=np.int64), p)]
    for m in maps:
        rows.append((np.array(m, dtype=np.int64) - np.eye(d, dtype=np.int64)) % p)
    return d - rank_mod(np.concatenate(rows), p)


# -- simplicity as irreducibility ----------------------------------------------------


def multiplications(C: np.ndarray) -> list:
    """L_i (x -> e_i x) and R_i (x -> x e_i) as matrices acting on columns."""
    d = C.shape[0]
    return [C[i].T for i in range(d)] + [C[:, i, :].T for i in range(d)]


def spin(gens, d: int, p: int) -> np.ndarray:
    """Basis (flattened d x d matrices) of the unital algebra the maps generate."""
    gens = np.array([np.asarray(g, dtype=np.int64) % p for g in gens])
    basis = np.eye(d, dtype=np.int64).reshape(1, d * d)
    frontier = basis.reshape(1, d, d)
    while frontier.shape[0]:
        words = np.einsum("gij,bjk->gbik", gens, frontier).reshape(-1, d * d) % p
        grown = rref_mod(np.concatenate([basis, words]), p)
        if grown.shape[0] == basis.shape[0]:
            break
        frontier = grown.reshape(-1, d, d)
        basis = grown
    return basis.reshape(-1, d, d)


def full_column_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """For each matrix of a (P, m, d) stack, whether its rank mod p is d."""
    a = stack % p
    P, m, d = a.shape
    if m < d:
        return np.zeros(P, dtype=bool)
    ok = np.ones(P, dtype=bool)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    idx = np.arange(P)
    for c in range(d):
        cand = a[:, c:, c] != 0
        has = cand.any(axis=1)
        ok &= has
        r = c + cand.argmax(axis=1)
        rows_c, rows_r = a[idx, c].copy(), a[idx, r].copy()
        a[idx, r], a[idx, c] = rows_c, rows_r
        piv = a[idx, c] * inv[a[idx, c, c]][:, None] % p
        a[idx, c] = piv
        factor = a[:, :, c].copy()
        factor[idx, c] = 0
        a = (a - factor[:, :, None] * piv[:, None, :]) % p
    return ok


def projective_blocks(p: int, d: int):
    """Projective points of F_p^d, first nonzero coordinate 1, one array per
    position of that coordinate, sparsest first."""
    for lead in range(d - 1, -1, -1):
        tails = np.array(list(itertools.product(range(p), repeat=d - 1 - lead)),
                         dtype=np.int64).reshape(p ** (d - 1 - lead), d - 1 - lead)
        block = np.zeros((tails.shape[0], d), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1:] = tails
        yield block


def irreducible(C: np.ndarray, p: int, extra=(), exact=True, points=None):
    """Is A an irreducible module under its multiplications and the extra
    maps?  None when only the End(A) test could be made and it failed.
    points: blocks of generators to try instead of every projective point."""
    d = C.shape[0]
    if d == 1:
        return True
    gens = multiplications(C) + [np.asarray(m, dtype=np.int64) for m in extra]
    m = spin(gens, d, p)
    if m.shape[0] == d * d:
        return True
    if not exact:
        return None
    if points is None:
        points = projective_blocks(p, d)
    return all(full_column_rank(np.einsum("bij,pj->pbi", m, pts), p).all()
               for pts in points)


# -- per-kind expectations ---------------------------------------------------------


def _algebra(alg):
    p, d, C = tensor(alg)
    arr, q = modular(C, p)
    return {"center_rank": center_rank(p, C),
            "simple": irreducible(arr, q, exact=p is not None)}


def _graded(payload):
    out = _algebra(payload["algebra"])
    p, d, C = tensor(payload["algebra"])
    degrees = payload["gradation"]["degrees"]
    # a nonzero graded ideal holds a nonzero homogeneous element, and the
    # ideal a homogeneous element generates is graded
    homogeneous = []
    for h in sorted(set(degrees)):
        idx = [i for i, g in enumerate(degrees) if g == h]
        for block in projective_blocks(p, len(idx)):
            full = np.zeros((block.shape[0], d), dtype=np.int64)
            full[:, idx] = block
            homogeneous.append(full)
    out["graded_simple"] = irreducible(np.array(C, dtype=np.int64), p,
                                       points=homogeneous)
    return out


def _crossed(payload):
    t = payload["T"]
    p, d, C = tensor(t)
    table = payload["G"]["table"]
    n = len(table)
    sigma = [matrix(m, p) for m in payload["sigma"]]
    alpha = [[[scalar(c, p) for c in vec] for vec in row] for row in payload["alpha"]]
    ct = np.array(C, dtype=np.int64)
    # (e_i u_a)(e_j u_b) = e_i sigma_a(e_j) alpha(a, b) u_ab
    prod = np.zeros((d * n, d * n, d * n), dtype=np.int64)
    for a in range(n):
        left = np.einsum("rj,irm->ijm", np.array(sigma[a], dtype=np.int64), ct) % p
        for b in range(n):
            ab = table[a][b]
            by_alpha = np.einsum("k,mkl->ml", np.array(alpha[a][b], dtype=np.int64), ct)
            prod[a * d:(a + 1) * d, b * d:(b + 1) * d, ab * d:(ab + 1) * d] = \
                np.einsum("ijm,ml->ijl", left, by_alpha) % p
    g_simple = irreducible(ct, p, sigma)
    return {"center_rank": center_rank(p, prod.tolist()),
            "fixed_center_rank": fixed_center_rank(p, C, sigma),
            "g_simple": g_simple, "graded_simple": g_simple}


def _laurent(payload):
    p, d, C = tensor(payload["T"])
    sigma = [matrix(m, p) for m in payload["sigma"]]
    # every twist has finite order o, so 1 + x^o is a central non-unit
    return {"simple": False,
            "sigma_simple": irreducible(np.array(C, dtype=np.int64), p, sigma),
            "fixed_center_rank": fixed_center_rank(p, C, sigma)}


def _nonsquare(mu, p):
    return pow(mu % p, (p - 1) // 2, p) == p - 1


def _tower(payload):
    p = payload["field"]["p"]
    mus = [scalar(m, p) for m in payload["mus"]]
    # report k describes stage k - 1: the field, then F[x]/(x^2 - mu_1), then
    # central simple doubles
    fields = [True] + [_nonsquare(mus[0], p)] + [True] * (len(mus) - 2)
    return {"simple": len(mus) >= 2 or _nonsquare(mus[0], p),
            "stage_center_field": fields[:len(mus)]}


def expected(doc: dict) -> dict:
    kind, payload = doc["kind"], doc["payload"]
    if kind == "algebra":
        return _algebra(payload)
    if kind == "graded":
        return _graded(payload)
    if kind == "crossed":
        return _crossed(payload)
    if kind == "laurent":
        return _laurent(payload)
    return _tower(payload)
