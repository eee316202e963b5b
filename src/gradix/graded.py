"""Group gradations of structure-constant algebras.

A gradation assigns every basis vector a degree in a finite group, so
components are coordinate subspaces and each basis vector is homogeneous.
Compatibility means the tensor only ever maps R_g x R_h into R_{gh}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (Algebra, SimplicityVerdict, _exact_verdict,
                      center_is_field, simple_under)
from .errors import (IncompatibleTensor, UnitNotInIdentityComponent,
                     ValidationError)
from .groups import FiniteGroup, central_series
from .linalg import Subspace


@dataclass(frozen=True)
class Gradation:
    group: FiniteGroup
    degrees: tuple[int, ...]

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Degrees that actually carry a basis vector, ascending."""
        return tuple(sorted(set(self.degrees)))

    def indices_of(self, g: int) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == g)


def validate_gradation(alg: Algebra, group: FiniteGroup, degrees) -> Gradation:
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != alg.dim:
        raise ValidationError("degree list length != dim")
    for d in degrees:
        if not 0 <= d < group.order:
            raise ValidationError(f"degree {d} out of range")
    deg = np.array(degrees)
    products = group.arrays[0][deg[:, None], deg]     # deg i deg j
    bad = np.argwhere((alg._np_tensor != 0) & (deg != products[..., None]))
    if len(bad):    # the first in row-major order
        i, j, k = bad[0].tolist()
        raise IncompatibleTensor(
            f"entry {(i, j, k)} maps degrees "
            f"{(degrees[i], degrees[j])} outside {degrees[k]}")
    for i, c in enumerate(alg.unit):
        if c and degrees[i] != group.identity:
            raise UnitNotInIdentityComponent(f"unit has support at degree {degrees[i]}")
    return Gradation(group, degrees)


def _components(grad: Gradation) -> dict:
    return {g: grad.indices_of(g) for g in grad.group.elements()}


def is_strong(alg: Algebra, grad: Gradation) -> bool:
    """R_g R_h = R_{gh} for all g, h in the support.  A validated gradation
    puts every product e_a e_b (a in R_g, b in R_h) in R_{gh}, so they span
    it exactly when their coordinates there have rank |R_{gh}|, read off
    the structure tensor (over Q times its scale, which keeps the rank)."""
    prod, comp, mul = alg._np_tensor.tolist(), _components(grad), grad.group.mul
    for g in grad.support:
        for h in grad.support:
            gh = comp[mul(g, h)]
            rows = [[prod[a][b][k] for k in gh] for a in comp[g] for b in comp[h]]
            if Subspace.span(alg.field, len(gh), rows).rank < len(gh):
                return False
    return True


def is_faithful(alg: Algebra, grad: Gradation) -> bool:
    """r R_h != 0 and R_h r != 0 for every nonzero r in R_g, g and h in the
    support.  The maps r -> (r e_b)_b and r -> (e_b r)_b, b in R_h, take
    R_g into copies of R_{gh} and R_{hg}; each is injective exactly when
    its matrix has rank |R_g|, which is exact over every field."""
    prod, comp, mul = alg._np_tensor.tolist(), _components(grad), grad.group.mul
    for g in grad.support:
        for h in grad.support:
            gh, hg = comp[mul(g, h)], comp[mul(h, g)]
            right = [[prod[a][b][k] for b in comp[h] for k in gh] for a in comp[g]]
            left = [[prod[b][a][k] for b in comp[h] for k in hg] for a in comp[g]]
            for rows, cols in ((right, gh), (left, hg)):
                width = len(comp[h]) * len(cols)
                if Subspace.span(alg.field, width, rows).rank < len(comp[g]):
                    return False
    return True


def component_spaces(alg: Algebra, grad: Gradation) -> list[Subspace]:
    """The components R_g, g in the support, as coordinate subspaces."""
    return [Subspace(alg.field, alg.dim, tuple(map(alg.basis_vector, b)), b)
            for b in map(grad.indices_of, grad.support)]


def is_graded_simple(alg: Algebra, grad: Gradation,
                     budget: int = 1_000_000) -> SimplicityVerdict:
    """Exact test over F_p.  Graded ideals are exactly the ideals closed
    under the projections onto the components, so this is `simple_under`'s
    engine with those projections as the extra maps.  A nonzero graded ideal
    contains a nonzero homogeneous element, so the homogeneous points,
    component by component in support order, are the sweep, and `checked`
    counts them."""
    return _graded_verdict(alg, grad, budget)


def _graded_verdict(alg: Algebra, grad: Gradation, budget: int,
                    irreducible: bool | None = None) -> SimplicityVerdict:
    """`is_graded_simple`, with `irreducible` handed to `_exact_verdict`
    in place of Norton's test when the caller knows the answer."""
    d, spaces = alg.dim, component_spaces(alg, grad)
    proj = np.zeros((len(spaces), d, d), dtype=np.int64)
    for n, s in enumerate(spaces):
        proj[n, s.pivots, s.pivots] = 1
    return _exact_verdict(alg, proj, spaces, budget, "homogeneous points",
                          irreducible)


# -- the simplicity equivalence over hypercentral grading groups -------------

@dataclass(frozen=True)
class SimplicityEquivalence:
    hypercentral: bool
    graded_simple: SimplicityVerdict
    center_field: bool
    simple: SimplicityVerdict
    consistent: bool


def simplicity_equivalence(alg: Algebra, grad: Gradation,
                           budget: int = 1_000_000) -> SimplicityEquivalence:
    """Check simple <=> (graded simple and the center is a field), which must
    hold whenever the grading group is hypercentral."""
    hyper = central_series(grad.group).hypercentral
    graded_v = is_graded_simple(alg, grad, budget)
    zfield = center_is_field(alg, budget=budget)
    simple_v = simple_under(alg, budget=budget)
    consistent = (not hyper) or (simple_v.simple == (graded_v.simple and zfield))
    return SimplicityEquivalence(hyper, graded_v, zfield, simple_v, consistent)
