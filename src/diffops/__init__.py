"""Exact differential-operator calculus on Heisenberg and Weyl algebras.

Subpackage map:

- ``heisenberg``: PBW normal-form arithmetic in H_n / A_n (``_mul_mono``).
- ``operators``: the operator algebra D(H_n) (apply, compose by the pair
  kernel ``_compose_mono``, brackets, filtration degree, scalar reduction,
  Weyl inner decomposition).
- ``polyring`` / ``polydiff``: exact polynomials and divided-power
  differential operators on commutative polynomial rings.
- ``fields``: exact scalars, ``bilinear`` (the one loop over term pairs of
  the products) and ``contractions``, the linear-combination core, and
  ``StructureAlgebra``, the one structure-constant algebra over a field
  or a polynomial ring (checks, products, multiplication matrices,
  builder tables, the record reader).
- ``azumaya``: free-over-centre algebras, ``StructureAlgebra`` over a
  polynomial ring (matrix algebras, H_n in char p), operator matrices,
  extension/decomposition, the Azumaya isomorphism check.
- ``findim``: finite-dimensional algebras, ``StructureAlgebra`` over a
  field, and their differential filtration by exact linear algebra.
- ``parsing`` / ``printing`` / ``cli``: the expression language and the
  command-line interface.
"""

from .fields import FieldSpec
from .heisenberg import (
    MINUS_INF,
    MODE_HEISENBERG,
    MODE_WEYL,
    AlgebraContext,
    HElement,
    central_decompose,
    central_recompose,
    centre_ring,
    commutator,
    deg1,
    deg2,
    h,
    one,
    specialize_weyl,
    x,
    y,
)
from .operators import (
    DOperator,
    ReductionWitness,
    bracket_with_gen,
    dh,
    dh_reversed,
    dx,
    dy,
    identity_op,
    inner_decompose,
    lambda_of,
    mdeg,
    op_apply,
    op_commutator,
    op_compose,
    reduce_to_scalar,
    replay_witness,
    rho_of,
)
from .polydiff import PDOp, grothendieck_order_check, p_apply, p_commutator, p_compose, p_order
from .polyring import Poly, PolyRing, bareiss_determinant
from . import azumaya, findim, parsing, printing

__all__ = [
    "AlgebraContext",
    "DOperator",
    "FieldSpec",
    "HElement",
    "MINUS_INF",
    "MODE_HEISENBERG",
    "MODE_WEYL",
    "PDOp",
    "Poly",
    "PolyRing",
    "ReductionWitness",
    "bareiss_determinant",
    "bracket_with_gen",
    "central_decompose",
    "central_recompose",
    "centre_ring",
    "commutator",
    "deg1",
    "deg2",
    "dh",
    "dh_reversed",
    "dx",
    "dy",
    "grothendieck_order_check",
    "h",
    "identity_op",
    "inner_decompose",
    "lambda_of",
    "mdeg",
    "one",
    "op_apply",
    "op_commutator",
    "op_compose",
    "p_apply",
    "p_commutator",
    "p_compose",
    "p_order",
    "reduce_to_scalar",
    "replay_witness",
    "rho_of",
    "specialize_weyl",
    "x",
    "y",
]
