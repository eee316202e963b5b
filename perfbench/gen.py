"""Seeded request generator for the gradix benchmark.

Every request is built here from the workload seed and reaches gradix only
as JSON text.  Algebras are held as dense structure-constant tensors
C[i][j][k] (e_i e_j = sum_k C[i][j][k] e_k) with scalars as ints mod p, or
as Fractions when p is None (the rationals).

A workload is a list of rounds of requests.  The closed loop starts a new
round only while the run's time is not up, so every run completes whole
rounds and its mix of request sizes does not depend on where time ran out.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

DEFAULT_BUDGET = 1_000_000   # gradix's default enumeration budget

# -- finite groups as multiplication tables, element 0 is the identity ------


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def elementary(k):
    n = 1 << k
    return [[a ^ b for b in range(n)] for a in range(n)]


def direct(g, h):
    m = len(h)
    return [[g[a // m][b // m] * m + h[a % m][b % m]
             for b in range(len(g) * m)] for a in range(len(g) * m)]


def dihedral(n):
    """Order 2n; r^a s^b is element a + n b."""
    def mul(x, y):
        a, b, c, d = x % n, x // n, y % n, y // n
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def symmetric3():
    perms = list(itertools.permutations(range(3)))    # identity first
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms]


GROUPS = {
    "C2": cyclic(2), "C3": cyclic(3), "C4": cyclic(4), "C5": cyclic(5),
    "C6": cyclic(6), "E2": elementary(2), "E3": elementary(3),
    "C2xC4": direct(cyclic(2), cyclic(4)), "D4": dihedral(4), "S3": symmetric3(),
}


def homs_to_c2(table):
    """All homomorphisms G -> Z/2 as 0/1 lists, the trivial one first."""
    n = len(table)
    out = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        phi = (0,) + bits
        if all(phi[table[a][b]] == phi[a] ^ phi[b]
               for a in range(n) for b in range(n)):
            out.append(phi)
    return out


def relabel(table, perm):
    """The same group with element perm[a] renamed to a."""
    pos = {x: i for i, x in enumerate(perm)}
    return [[pos[table[perm[a]][perm[b]]] for b in range(len(table))]
            for a in range(len(table))]


# -- algebras as dense tensors ------------------------------------------------


class Alg:
    def __init__(self, p, d, unit, involution=None):
        self.p, self.d = p, d
        zero = 0 if p else Fraction(0)
        self.C = [[[zero] * d for _ in range(d)] for _ in range(d)]
        self.unit = unit
        self.involution = involution     # matrix rows, or None

    def put(self, i, j, k, c):
        self.C[i][j][k] = c % self.p if self.p else Fraction(c)

    def mult_rows(self):
        return [{"i": i, "j": j, "k": k, "c": str(c)}
                for i in range(self.d) for j in range(self.d)
                for k in range(self.d) if (c := self.C[i][j][k])]

    def json(self):
        doc = {"field": {"kind": "Fp", "p": self.p} if self.p else {"kind": "Q"},
               "dim": self.d, "unit": [str(c) for c in self.unit],
               "mult": self.mult_rows()}
        if self.involution is not None:
            doc["involution"] = matrix_json(self.involution)
        return doc


def matrix_json(m):
    return [[str(c) for c in row] for row in m]


def identity(p, d):
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    return [[one if r == c else zero for c in range(d)] for r in range(d)]


def diagonal(p, entries):
    m = identity(p, len(entries))
    for i, c in enumerate(entries):
        m[i][i] = c % p if p else Fraction(c)
    return m


def first_nonsquare(p):
    squares = {a * a % p for a in range(1, p)}
    return next(c for c in range(2, p) if c not in squares)


def quaternions(p):
    """H = (-1,-1) on 1, i, j, k; i j = k, j k = i, k i = j."""
    a = Alg(p, 4, [1, 0, 0, 0])
    for x in range(4):
        a.put(0, x, x, 1)
        a.put(x, 0, x, 1)
    for x in range(1, 4):
        a.put(x, x, 0, -1)
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        a.put(x, y, z, 1)
        a.put(y, x, z, -1)
    return a


def quadratic_extension(p):
    """F_{p^2} = F_p[x]/(x^2 - c), c the first non-square (x^2 = x + 1 at 2)."""
    a = Alg(p, 2, [1, 0])
    a.put(0, 0, 0, 1)
    a.put(0, 1, 1, 1)
    a.put(1, 0, 1, 1)
    if p == 2:
        a.put(1, 1, 0, 1)
        a.put(1, 1, 1, 1)
    else:
        a.put(1, 1, 0, first_nonsquare(p))
    return a


def frobenius(p):
    """y -> y^p on the basis (1, x) of quadratic_extension(p)."""
    if p == 2:
        return [[1, 1], [0, 1]]
    return diagonal(p, [1, -1])


def product_algebra(p, k):
    a = Alg(p, k, [1] * k)
    for i in range(k):
        a.put(i, i, i, 1)
    return a


def dual_numbers(p):
    a = Alg(p, 2, [1, 0])
    a.put(0, 0, 0, 1)
    a.put(0, 1, 1, 1)
    a.put(1, 0, 1, 1)
    return a


def permutation_matrix(p, perm):
    """Matrix sending e_j to e_perm[j]."""
    k = len(perm)
    return [[1 if perm[c] == r else 0 for c in range(k)] for r in range(k)]


def swap(p):
    return permutation_matrix(p, (1, 0))


def random_unital(p, d, rng):
    """Basis vector 0 is the unit; every other product is uniform (small
    integers and halves over Q)."""
    a = Alg(p, d, [1] + [0] * (d - 1))
    for x in range(d):
        a.put(0, x, x, 1)
        a.put(x, 0, x, 1)
    for i in range(1, d):
        for j in range(1, d):
            for k in range(d):
                if p:
                    a.put(i, j, k, rng.randrange(p))
                else:
                    a.put(i, j, k, Fraction(rng.randint(-6, 6), rng.choice((1, 2))))
    return a


def cayley_dickson(p, mus):
    """Iterated doubling (a, b)(c, d) = (ac + mu d* b, da + b c*) from the
    ground field; the standard involution stays diagonal on this basis."""
    d, C, signs = 1, {(0, 0): {0: 1}}, [1]
    for mu in mus:
        new = {}

        def add(i, j, k, c):
            cell = new.setdefault((i, j), {})
            cell[k] = cell.get(k, 0) + c

        # each term e_i e_j = sum_k c e_k, with e_i* = s_i e_i, feeds:
        #   (e_i, 0)(e_j, 0) = (e_i e_j, 0)                 (a c)
        #   (e_j, 0)(0, e_i) = (0, e_i e_j)                 (d a)
        #   (0, e_i)(e_j, 0) = (0, e_i e_j*)                (b c*)
        #   (0, e_j)(0, e_i) = (mu e_i* e_j, 0)             (mu d* b)
        for (i, j), out in C.items():
            for k, c in out.items():
                add(i, j, k, c)
                add(j, d + i, d + k, c)
                add(d + i, j, d + k, c * signs[j])
                add(d + j, d + i, k, mu * signs[i] * c)
        C, d, signs = new, 2 * d, signs + [-1] * d
    a = Alg(p, d, [1] + [0] * (d - 1), involution=diagonal(p, signs))
    for (i, j), out in C.items():
        for k, c in out.items():
            a.put(i, j, k, c)
    return a


# -- requests -------------------------------------------------------------------


def request(kind, payload, **options):
    doc = {"kind": kind, "payload": payload}
    if options:
        doc["options"] = options
    return json.dumps(doc, sort_keys=True)


def tower(p, mus):
    return request("cayley-tower",
                   {"field": {"kind": "Fp", "p": p}, "mus": [str(m) for m in mus]})


def group_json(table):
    return {"table": table, "identity": 0}


def crossed(t, table, sigma, alpha):
    """T x| G with sigma[g] a matrix and alpha[g][h] a scalar (times 1)."""
    payload = {"T": t.json(), "G": group_json(table),
               "sigma": [matrix_json(m) for m in sigma],
               "alpha": [[[str(s * c % t.p) for c in t.unit] for s in row]
                         for row in alpha]}
    return request("crossed", payload)


def crossed_family(t, twist, table):
    """Every (sigma, alpha) on T x| G with sigma_g = twist^phi(g) for a map
    phi: G -> Z/2 and alpha(g, h) = (-1)^(psi(g) chi(h)) for maps
    psi, chi: G -> Z/2 (a 2-cocycle of central scalars fixed by sigma)."""
    homs = homs_to_c2(table)
    ident = identity(t.p, t.d)
    sigmas = [[ident] * len(table)]
    if twist is not None:
        sigmas += [[twist if b else ident for b in phi] for phi in homs[1:]]
    alphas = sorted({tuple(tuple(-1 if psi[g] & chi[h] else 1
                                 for h in range(len(table)))
                           for g in range(len(table)))
                     for psi in homs for chi in homs})
    return sigmas, alphas


def laurent(t, sigma, window):
    payload = {"T": t.json(), "n": len(sigma),
               "sigma": [matrix_json(m) for m in sigma]}
    return request("laurent", payload, window=window)


def graded_group_algebra(p, table, place):
    """F_p[G] graded by G, with basis vector b standing for element place[b]."""
    n = len(table)
    where = {g: b for b, g in enumerate(place)}
    a = Alg(p, n, [1 if g == 0 else 0 for g in place])
    for x in range(n):
        for y in range(n):
            a.put(x, y, where[table[place[x]][place[y]]], 1)
    return request("graded", {"algebra": a.json(),
                              "gradation": {"group": group_json(table),
                                            "degrees": list(place)}})


# -- workloads ------------------------------------------------------------------


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def towers(rng, cap):
    """F_3 sedenion (length 4) and octonion (length 3) towers, padded with
    F_19 quaternion-stage towers that cost about as much as an octonion one."""
    l4 = _shuffled(rng, itertools.product((1, 2), repeat=4))
    l3 = _shuffled(rng, itertools.product((1, 2), repeat=3))
    f19 = _shuffled(rng, itertools.product(range(1, 19), repeat=2))
    rounds = []
    for i in range(min(cap, len(l4))):
        mid = tower(3, l3[i]) if i < len(l3) else tower(19, f19.pop())
        rounds.append([tower(3, l4[i]), mid] + [tower(19, f19.pop()) for _ in range(3)])
    warm = [tower(13, (rng.randrange(1, 13), rng.randrange(1, 13)))]
    return warm, rounds


def crossed_cells_16():
    """Dimension-16 crossed products over F_3, one list per (T, G) family:
    H x| C4 and E2 together, each two-dimensional T x| D4, C2xC4, E3."""
    p = 3
    families = [[(quaternions(p), diagonal(p, [1, 1, -1, -1]), name) for name in ("C4", "E2")],
                [(dual_numbers(p), None, name) for name in ("D4", "C2xC4", "E3")]]
    families += [[(t, twist, name)] for name in ("D4", "C2xC4", "E3")
                 for t, twist in ((quadratic_extension(p), frobenius(p)),
                                  (product_algebra(p, 2), swap(p)))]
    cells = []
    for family in families:
        cell = []
        for t, twist, name in family:
            sigmas, alphas = crossed_family(t, twist, GROUPS[name])
            cell += [crossed(t, GROUPS[name], s, a) for s in sigmas for a in alphas]
        cells.append(cell)
    return cells


def crossed_workload(rng, cap):
    """Rounds of two H x| G (about 0.45 s each), one dual-number product and
    one of each F_9 and F_3 x F_3 product (0.2-0.3 s): the median falls among
    the two-dimensional T, the tail among the H x| G."""
    quaternion, *rest = (_shuffled(rng, cell) for cell in crossed_cells_16())
    rounds = [quaternion[2 * i:2 * i + 2] + [cell[i] for cell in rest]
              for i in range(min(cap, len(quaternion) // 2))]
    warm = [crossed(quadratic_extension(3), GROUPS["C2"],
                    [identity(3, 2), frobenius(3)], [[1, 1], [1, 1]])]
    return warm, rounds


SAMPLES = ("group_algebra_z2.json", "laurent_f4_frobenius.json", "tower_f3.json")


def sample_requests(root):
    """The repository's sample requests as full request documents."""
    kinds = {"laurent_f4_frobenius.json": "laurent", "tower_f3.json": "cayley-tower"}
    out = []
    for name in SAMPLES:
        with open(f"{root}/sample_requests/{name}", encoding="utf-8") as fh:
            doc = json.load(fh)
        if name in kinds:
            doc = {"kind": kinds[name], "payload": doc}
        out.append(json.dumps(doc, sort_keys=True))
    return out


def _tiny_algebra(p, top):
    return lambda rng: request("algebra", random_unital(p, rng.randint(2, top), rng).json())


def _tiny_graded(rng):
    p = rng.choice((2, 3, 5))
    names = ["C2", "C3", "C4", "C5", "C6", "E2", "S3"]
    if p == 2:     # the exact sweeps over F_2 stay small at order 8
        names += ["D4", "C2xC4", "E3"]
    table = GROUPS[rng.choice(names)]
    perm = [0] + _shuffled(rng, range(1, len(table)))
    return graded_group_algebra(p, relabel(table, perm), _shuffled(rng, range(len(table))))


def _tiny_laurent(rng):
    p = rng.choice((2, 3, 5))
    shape = rng.randrange(3)
    if shape == 0:
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4 - rank)
        t = product_algebra(p, k)
        gens = [permutation_matrix(p, _shuffled(rng, range(k))) for _ in range(rank)]
        if rank == 2:            # two commuting twists: a power of the first
            gens[1] = gens[0] if rng.random() < 0.5 else identity(p, k)
    elif shape == 1:
        t = quadratic_extension(p)
        gens = [frobenius(p)]
        if rng.random() < 0.5:
            gens.append(rng.choice((frobenius(p), identity(p, 2))))
    else:
        t = dual_numbers(p)
        gens = [diagonal(p, [1, rng.choice((1, p - 1))])
                for _ in range(rng.randint(1, 2))]
    window = [[-rng.randint(0, 3), rng.randint(0, 3)] for _ in gens]
    return laurent(t, gens, window)


ODD_PRIMES = [p for p in range(3, 200) if all(p % q for q in range(2, p))]


def _tiny_tower(rng):
    p = rng.choice(ODD_PRIMES)
    return tower(p, [rng.randrange(1, p)])


def _tiny_crossed(rng):
    p = rng.choice((3, 5, 7, 11, 13))
    t, twist = rng.choice(((quadratic_extension(p), frobenius(p)),
                           (product_algebra(p, 2), swap(p)),
                           (dual_numbers(p), None)))
    table = GROUPS[rng.choice(("C2", "C3", "C4", "E2"))]
    table = relabel(table, [0] + _shuffled(rng, range(1, len(table))))
    sigmas, alphas = crossed_family(t, twist, table)
    # times the coboundary of a random f: G -> F_p^*, f(1) = 1
    n = len(table)
    f = [1] + [rng.randrange(1, p) for _ in range(n - 1)]
    alpha = [[s * f[g] * f[h] * pow(f[table[g][h]], -1, p) % p
              for h, s in enumerate(row)] for g, row in enumerate(rng.choice(alphas))]
    return crossed(t, table, rng.choice(sigmas), alpha)


SMALL_ROUND = (_tiny_algebra(2, 5), _tiny_algebra(3, 5), _tiny_algebra(5, 4),
               _tiny_graded, _tiny_laurent, _tiny_crossed, _tiny_tower)


def _distinct_rounds(rng, makers, cap, seen):
    """Rounds of one request per maker, redrawing repeats; stops early when
    a maker runs out of new requests."""
    rounds = []
    while len(rounds) < cap:
        new = []
        for make in makers:
            for _ in range(50):
                text = make(rng)
                if text not in seen:
                    break
            else:
                return rounds
            seen.add(text)
            new.append(text)
        rounds.append(new)
    return rounds


def small_mixed(rng, root, cap):
    """Tiny requests of every kind; the sample requests open every run."""
    samples = sample_requests(root)
    seen = set(samples)
    warm = _distinct_rounds(rng, SMALL_ROUND, 1, seen)[0]
    return warm, [samples] + _distinct_rounds(rng, SMALL_ROUND, cap - 1, seen)


def _cayley_q(dim):
    def make(rng):
        mus = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
               for _ in range(dim.bit_length() - 1)]
        return request("algebra", cayley_dickson(None, mus).json(), trials=100)
    return make


def _random_q(dim):
    return lambda rng: request("algebra", random_unital(None, dim, rng).json(),
                               trials=100)


# sizes ascend in this order, so the median falls among the dimension-5
# algebras and the tail among the dimension-8 doubles, whatever the seed
RATIONAL_ROUND = (_random_q(3), _cayley_q(4), _random_q(4), _random_q(5), _random_q(5),
                  _random_q(5), _random_q(5), _cayley_q(8), _cayley_q(8))


def rationals(rng, cap):
    seen = set()
    warm = [_random_q(4)(rng)]
    seen.update(warm)
    return warm, _distinct_rounds(rng, RATIONAL_ROUND, cap, seen)


WORKLOADS = ("towers", "crossed", "small_mixed", "rationals")


def generate(workload, seed, root, cap):
    """(warm-up requests, timed rounds) for one run; at most cap rounds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "towers":
        return towers(rng, cap)
    if workload == "crossed":
        return crossed_workload(rng, cap)
    if workload == "small_mixed":
        return small_mixed(rng, root, cap)
    if workload == "rationals":
        return rationals(rng, cap)
    raise ValueError(f"unknown workload {workload!r}")


def probe(root):
    """One tiny fixed request per kind.  Every traced run opens with these,
    so each layer appears in each workload's trace with the same share."""
    samples = sample_requests(root)
    return [samples[0], samples[1], tower(5, [2]),
            crossed(quadratic_extension(3), GROUPS["C2"],
                    [identity(3, 2), frobenius(3)], [[1, 1], [1, -1]]),
            request("algebra", cayley_dickson(None, [-1]).json(), trials=100)]


def _points(p, dim):
    return (p ** dim - 1) // (p - 1)


def points_needed(doc):
    """An upper bound on the projective points an exhaustive sweep of the
    request may visit; gradix refuses a request whose sweep exceeds its
    budget."""
    kind, payload = doc["kind"], doc["payload"]
    alg = {"algebra": payload, "graded": payload.get("algebra"),
           "crossed": payload.get("T"), "laurent": payload.get("T")}.get(kind)
    if kind == "cayley-tower":
        return _points(payload["field"]["p"], 2 ** (len(payload["mus"]) - 1))
    if alg["field"]["kind"] == "Q":
        return 0
    p, d = alg["field"]["p"], alg["dim"]
    if kind == "graded":
        degrees = payload["gradation"]["degrees"]
        return max(_points(p, d), sum(_points(p, degrees.count(g)) for g in set(degrees)))
    if kind == "crossed":
        return len(payload["G"]["table"]) * _points(p, d)
    return _points(p, d)
