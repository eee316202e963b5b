"""Finite groups as multiplication tables.

Everything is index-based: a group of order n has elements 0..n-1 and a
dense n x n table.  `validate_group` checks a table given from outside,
associativity by a cubic scan over a table the input spells out entry by
entry; the stock constructions are groups by construction and check
nothing but that the table is not empty, and `catalog.named_group`
refuses their tables past the budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (MissingIdentity, MissingInverse, NonAssociativeTable,
                     ValidationError)


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, a: int, h: int) -> int:
        """h a h^-1"""
        return self.mul(self.mul(h, a), self.inv(h))

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.mul(a, b), self.inv(a)), self.inv(b))

    def elements(self) -> range:
        return range(self.order)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"g{i}"

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The table and the inverses as arrays, built once per group and
        read-only, so that every array computation on the group indexes
        the same two."""
        t, inv = np.array(self.table), np.array(self.inverses)
        t.flags.writeable = inv.flags.writeable = False
        return t, inv

    def is_abelian(self) -> bool:
        """Whether the table equals its transpose, as one array comparison."""
        t = self.arrays[0]
        return bool((t == t.T).all())

    @cached_property
    def central_series(self) -> CentralSeries:
        """The ascending central series, once per group: Z_{i+1} is the a
        whose commutators [a, h] all lie in Z_i, read off the n x n array
        of commutators (a h) a^-1 h^-1.  Each Z_i is a subgroup by
        construction, so none is checked."""
        t, inv = self.arrays
        comm = t[t[t, inv[:, None]], inv[None, :]]
        member = np.zeros(self.order, dtype=bool)
        member[self.identity] = True
        chain = []
        while True:
            chain.append(Subgroup(self, tuple(np.flatnonzero(member).tolist())))
            nxt = member[comm].all(axis=1)
            if (nxt == member).all():
                break
            member = nxt
        return CentralSeries(tuple(chain), chain[-1].order == self.order)


def validate_group(table, identity: int | None = None,
                   labels=None) -> FiniteGroup:
    """Check identity, inverses, and associativity; raise on the first failure."""
    n = len(table)
    table = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in table):
        raise ValidationError("table is not square")
    for row in table:
        for x in row:
            if not 0 <= x < n:
                raise ValidationError(f"table entry {x} out of range")

    if identity is None:
        identity = next((e for e in range(n)
                         if all(table[e][a] == a and table[a][e] == a for a in range(n))),
                        None)
        if identity is None:
            raise MissingIdentity("no two-sided identity in table")
    elif not 0 <= identity < n:
        raise ValidationError(f"identity {identity} out of range for order {n}")
    else:
        for a in range(n):
            if table[identity][a] != a or table[a][identity] != a:
                raise MissingIdentity(f"element {identity} is not an identity at {a}")

    inverses = []
    for a in range(n):
        b = next((b for b in range(n)
                  if table[a][b] == identity and table[b][a] == identity), None)
        if b is None:
            raise MissingInverse(f"element {a} has no two-sided inverse")
        inverses.append(b)

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NonAssociativeTable(f"associativity fails at {(a, b, c)}")

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError("labels length != order")
    return FiniteGroup(table, identity, tuple(inverses), labels)


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: tuple[int, ...]  # sorted, closed, with identity and inverses

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self._memberset

    @property
    def _memberset(self) -> frozenset:
        return frozenset(self.members)


def subgroup(g: FiniteGroup, members) -> Subgroup:
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


def center(g: FiniteGroup) -> Subgroup:
    members = [a for a in g.elements()
               if all(g.mul(a, b) == g.mul(b, a) for b in g.elements())]
    return Subgroup(g, tuple(members))


@dataclass(frozen=True)
class CentralSeries:
    """Ascending central series {e} = Z_0 <= Z_1 <= ... until it stabilizes."""

    chain: tuple[Subgroup, ...]
    hypercentral: bool


def central_series(g: FiniteGroup) -> CentralSeries:
    """The ascending central series of g (`FiniteGroup.central_series`)."""
    return g.central_series


# -- stock constructions -----------------------------------------------------

def _stock(table, identity: int, labels) -> FiniteGroup:
    """The group of a stock construction, a group's table by construction,
    so nothing is checked: the inverse of a is the b with a b = e, read off
    row a.  An empty table, of no group, is refused."""
    table = tuple(map(tuple, table))
    if not table:
        raise ValidationError("a group has order at least 1")
    return FiniteGroup(table, identity,
                       tuple(row.index(identity) for row in table), tuple(labels))


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _stock(table, 0, [f"r{i}" if i else "e" for i in range(n)])


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    pairs = list(itertools.product(a.elements(), b.elements()))
    index = {pq: i for i, pq in enumerate(pairs)}
    table = [[index[(a.mul(p1, p2), b.mul(q1, q2))] for (p2, q2) in pairs]
             for (p1, q1) in pairs]
    labels = [f"({a.label(p)},{b.label(q)})" for (p, q) in pairs]
    return _stock(table, index[(a.identity, b.identity)], labels)


def elementary_abelian_two(k: int) -> FiniteGroup:
    """(Z/2)^k with element i carrying the bit pattern of i; product is xor."""
    n = 1 << k
    table = [[i ^ j for j in range(n)] for i in range(n)]
    return _stock(table, 0, [format(i, f"0{max(k, 1)}b") for i in range(n)])


def dihedral(n: int) -> FiniteGroup:
    """Order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    def mul(a, b):
        fa, ia = divmod(a, n)
        fb, ib = divmod(b, n)
        if not fa and not fb:
            return (ia + ib) % n
        if not fa and fb:
            return n + (ib - ia) % n
        if fa and not fb:
            return n + (ia + ib) % n
        return (ib - ia) % n
    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    labels = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    return _stock(table, 0, labels)


def symmetric(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(n))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return _stock(table, index[tuple(range(n))], labels)


def trivial_group() -> FiniteGroup:
    return _stock([[0]], 0, ["e"])
