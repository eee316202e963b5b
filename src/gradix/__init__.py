"""Exact structure analysis for finite-dimensional graded algebras.

Simplicity and center computations for algebras given by structure
constants, with gradings, crossed products, skew Laurent extensions and
Cayley-Dickson doubling on top.  Everything runs over F_p or Q with exact
arithmetic; decision procedures refuse rather than approximate when a
search cannot be bounded.
"""

from .algebra import (Algebra, SimplicityVerdict, associator, center_is_field,
                      commutator, ideal_closure, is_associative, is_simple,
                      make_algebra, multiply, nucleus_and_center,
                      sample_simple, simple_under, two_sided_inverse)
from .cayley import (DoublingReport, cayley_double, doubling_report,
                     is_star_simple, star_centers, tower, tower_stages)
from .crossed import (CrossedSystem, build_crossed_product, canonical_units,
                      crossed_center, is_G_simple, trivial_system,
                      validate_crossed_system)
from .errors import (BudgetExceeded, ExactModeUnavailable, GradixError,
                     MuZero, ParseError, UnboundedSearch, ValidationError)
from .fields import FieldSpec, prime_field, rationals
from .graded import (Gradation, SimplicityEquivalence, is_faithful,
                     is_graded_simple, is_strong, simplicity_equivalence,
                     validate_gradation)
from .groups import (FiniteGroup, central_series, cyclic, dihedral,
                     direct_product, elementary_abelian_two, symmetric,
                     validate_group)
from .laurent import (LaurentElement, LaurentRing, LaurentVerdict,
                      inner_witness_search, laurent_center_structure,
                      laurent_element, laurent_simplicity_verdict,
                      make_laurent_ring, verify_central)
from .linalg import Subspace, kernel

__version__ = "0.1.0"
