"""Exact-arithmetic toolkit for the graded matrix factorizations of the
four-factor quartic XY(X-Y)(X-lambda*Y) and the sheaf theory of the
associated genus-one weighted projective line."""

from .k0 import (                                        # noqa: F401
    DELTA, OMEGA, STRUCTURE_SHEAF, ZERO, K0Class, RootInfo, RootKind,
    chi, classify_root, degree, enumerate_real_roots, euler_pairing,
    real_root_gamma_parts, invariants, line_bundle_class, q_form, rank,
    real_root_classes_with_rd, simple_class, slope, tensor_omega,
    twist_by_c,
)
from .shift import (                                     # noqa: F401
    SHIFT_MATRIX, Region, in_fundamental_domain, reduce_to_fundamental,
    region, shift_rd,
)
from .tubular import (                                   # noqa: F401
    MutationWord, TubeInfo, mutate_pair_left, mutate_pair_right,
    phi_from_infinity, tube_invariants, word_for_slope,
)
from .tables import (                                    # noqa: F401
    BettiClass, BettiTable, CohomTable, IndecCount, betti_from_cohom,
    catalog, cohom_rank_one, cohom_rank_two, cohom_via_euler, hilbert,
    indec_count, normalize_and_classify, rd_from_betti, suspend_betti,
    template_table, translate_betti,
)
from .mf import (                                        # noqa: F401
    GradedMatrix, MatrixFactorization, PointP1, betti_of_mf, constants,
    lemma63_invariants, mf_cone, mf_kst, mf_linear, mf_Mp_reduced,
    phi_psi_maps, reduce_mf, verify_mf,
)
