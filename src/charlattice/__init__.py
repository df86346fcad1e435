"""Exact computations with root systems, weight multisets, formal-character
matching, and sumset factorizations, plus a CLI that replays the finite case
analyses behind the classification arguments."""

from .rootsys import (CartanTypeError, ClassificationError, DiagramAutomorphisms,
                      LatticeInvolution, RootSystem, SimpleType, Subsystem,
                      build_root_system, classify_simple_system,
                      diagram_automorphisms, dominant_representative,
                      equal_rank_subsystems, reflect_coords, type_a_equal_rank,
                      weyl_orbit)
from .reps import (AlgebraMismatchError, CatalogEntry, DimensionBoundError,
                   FormalCharacter, HighestWeight, SemisimpleAlgebra,
                   direct_sum, dual_highest_weight, enumerate_irreps_up_to_dim,
                   irreducible_character, is_multiplicity_free,
                   multiplicity_free_catalog, negate_character,
                   restrict_to_subsystem, trivial_character, weight_multiset,
                   weyl_dimension)
from .charmatch import (AltPowerStats, CharIsomorphism, ConjugationMultiset,
                        DegenerateFormError, MaxNormRecord,
                        NonCompatibleInvolutionError, alt_power_stats,
                        char_inner_product, conjugation_sums,
                        fixed_point_exists, max_norm_weights,
                        same_formal_character)
from .abmultiset import (AbGroup, Decomposition, GroupMultiset, canonical_form,
                         factorization_count_bound, factorizations,
                         multiset_product)
from .goursat import (GoursatError, GoursatReport, GoursatSpec,
                      TooManyFactorsError, goursat_rank, verify_goursat_lemma)
from .verifycli import (AllowedPairsReport, CaseReport, CharacterFile,
                        allowed_pairs, default_suite, run_case)

__version__ = "0.1.0"
