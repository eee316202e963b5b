"""Words in the free magma and the word-span oracle for ideals.

A word is a binary tree whose leaves carry slot indices.  Substituting
ring elements for the slots evaluates the word; the oracle spans all
specializations of linear words (each slot used once) with at least one
slot taken from a generator set.  By multilinearity it is enough to put
one designated generator in a single slot and run the remaining slots
over the basis, and to take one canonical leaf labelling per tree shape.

The oracle is deliberately independent from the fixpoint ideal closure:
they are compared against each other in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import Algebra
from .errors import DimensionMismatch, NotHomogeneous, ParseError
from .linalg import Subspace, Vec

Tree = object  # int leaf or (Tree, Tree) pair


@dataclass(frozen=True)
class Word:
    tree: Tree

    @classmethod
    def leaf(cls, slot: int) -> "Word":
        return cls(int(slot))

    def join(self, other: "Word") -> "Word":
        return Word((self.tree, other.tree))

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def slots(self) -> tuple[int, ...]:
        """Leaf slot indices in left-to-right order."""
        out: list[int] = []
        stack = [self.tree]
        while stack:
            t = stack.pop()
            if isinstance(t, int):
                out.append(t)
            else:
                stack.append(t[1])
                stack.append(t[0])
        return tuple(out)

    @property
    def is_linear(self) -> bool:
        s = self.slots
        return len(set(s)) == len(s)

    def __str__(self) -> str:
        return format_word(self)


def format_word(w: Word) -> str:
    def fmt(t: Tree) -> str:
        if isinstance(t, int):
            return f"x{t + 1}"
        left, right = fmt(t[0]), fmt(t[1])
        sep = "" if right.startswith("(") else " "
        return f"({left}{sep}{right})"
    return fmt(w.tree)


def parse_word(text: str) -> Word:
    """Parse `x1`, `(x1 x2)`, `((x1 x2)(x3 x4))` style word syntax."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_tree() -> Tree:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of word")
        if text[pos] == "(":
            pos += 1
            left = parse_tree()
            right = parse_tree()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(f"expected ')' at offset {pos}")
            pos += 1
            return (left, right)
        if text[pos] == "x":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if start == pos:
                raise ParseError(f"expected slot number at offset {pos}")
            n = int(text[start:pos])
            if n < 1:
                raise ParseError("slot numbers start at x1")
            return n - 1
        raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")

    tree = parse_tree()
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input at offset {pos}")
    return Word(tree)


def specialize(word: Word, args, alg: Algebra) -> Vec:
    """Evaluate the word with args[slot] substituted for each leaf."""
    args = [alg.element(a) for a in args]
    top = max(word.slots)
    if top >= len(args):
        raise DimensionMismatch(f"word uses slot x{top + 1} but got {len(args)} arguments")

    def ev(t: Tree) -> Vec:
        if isinstance(t, int):
            return args[t]
        return alg.multiply(ev(t[0]), ev(t[1]))

    return ev(word.tree)


@lru_cache(maxsize=None)
def tree_shapes(length: int) -> tuple[Word, ...]:
    """All binary tree shapes with the given leaf count, leaves labelled
    0..length-1 left to right (one canonical linear word per shape)."""
    def shapes(lo: int, n: int) -> list[Tree]:
        if n == 1:
            return [lo]
        out = []
        for k in range(1, n):
            for left in shapes(lo, k):
                for right in shapes(lo + k, n - k):
                    out.append((left, right))
        return out
    return tuple(Word(t) for t in shapes(0, length))


# -- span oracle --------------------------------------------------------------

def _shape_values_generic(alg: Algebra, shape: Word, designated: int, a: Vec):
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    free = [s for s in range(shape.length) if s != designated]
    rows = []
    for combo in itertools.product(range(alg.dim), repeat=len(free)):
        args = [None] * shape.length
        args[designated] = a
        for slot, b in zip(free, combo):
            args[slot] = basis[b]
        rows.append(specialize(shape, args, alg))
    return rows


def word_ideal_span(alg: Algebra, generators, max_len: int = 5,
                    grad=None) -> Subspace:
    """Span of all linear-word specializations of length <= max_len with at
    least one slot from the generator set and the rest over the basis.

    Stops early once two consecutive lengths produce the same span: the span
    is then closed under one-step products, hence already the whole ideal.
    For the graded variant pass a gradation; generators must be homogeneous
    (basis slots are homogeneous by construction, so nothing else changes).
    """
    from .linalg import Echelon
    gens = [alg.element(v) for v in generators]
    if grad is not None:
        for v in gens:
            if any(v) and grad.degree_of(v) is None:
                raise NotHomogeneous(f"generator {v} is not homogeneous")
    ech = Echelon(alg.field, alg.dim)
    prev_rank = -1
    for length in range(1, max_len + 1):
        for shape in tree_shapes(length):
            for designated in range(length):
                for a in gens:
                    ech.extend(_shape_values_generic(alg, shape, designated, a))
        if ech.rank == prev_rank or ech.rank == alg.dim:
            break
        prev_rank = ech.rank
    return ech.to_subspace()
