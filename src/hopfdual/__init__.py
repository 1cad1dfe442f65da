"""Exact structure-constant algebra: finite bialgebra duality, monoid and
function algebras, Reynolds averaging, PBW truncations and module-based
reconstruction, over Q or a prime field."""

from .exact import (FieldMismatch, FieldSpec, Matrix, inverse, kernel_basis,
                    kron, rref, solve)
from .bialgebra import (BialgebraMorphism, FinBialgebra, check_grouplike,
                        check_hopf, check_morphism, dualize, find_antipode,
                        primitives, same_structure, tensor_bialgebra,
                        verify_algebra, verify_bialgebra, verify_coalgebra,
                        verify_compatibility)
from .monoids import (BudgetExceeded, Character, FiniteAbelianGroup,
                      FiniteMonoid, InsufficientRoots, NotPositivelyGraded,
                      cartier_check, double_dual_check, dual_monoid,
                      function_bialgebra, monoid_algebra, monoid_characters,
                      points, submonoid_algebra)
from .reps import (AlgebraModule, CharDividesOrder, InvariantIntegral,
                   NotAGroup, NotASection, RepMorphism, Representation,
                   check_invariant_exactness, complete_reducibility,
                   decompose_rep_of_Z, equivariant_section,
                   formal_matrix_integral, integral_system,
                   invariant_integral, invariants, module_to_rep,
                   quotient_rep, rep_to_module, reynolds,
                   split_group_algebra, twist_by_character)
from .lie import (LieAlgebra, TensorAlgebraOracle, TruncatedEnveloping,
                  TruncationOverflow, coproduct_on_U, dist_at_identity,
                  divided_power_bialgebra, enveloping_truncated,
                  graded_check, graded_piece, iadic_graded,
                  lie_morphism_functor, primitives_of_U, verify_lie)
from .tannaka import (ReconstructionResult, annihilator_quotient,
                      image_span_dimension, reconstruct_from_regular,
                      tensor_coproduct_recovery)
from .report import Check, Report

__version__ = "0.1.0"
