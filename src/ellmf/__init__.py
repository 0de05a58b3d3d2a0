"""Exact-arithmetic toolkit for the graded matrix factorizations of the
four-factor quartic XY(X-Y)(X-lambda*Y) and the sheaf theory of the
associated genus-one weighted projective line.

The public names below are resolved on first use (PEP 562), so
`import ellmf` loads no layer; likewise each command of `ellmf.cli`
imports only the layers it computes with.  In the library modules an
import is deferred into a function only where that function runs at most
once per operation; hot paths import at module level.
"""

_EXPORTS = {
    "k0": "DELTA OMEGA STRUCTURE_SHEAF ZERO K0Class RootInfo RootKind chi "
          "classify_root degree enumerate_real_roots euler_pairing "
          "real_root_gamma_parts invariants line_bundle_class q_form rank "
          "real_root_classes_with_rd simple_class slope tensor_omega "
          "twist_by_c",
    "shift": "SHIFT_MATRIX Region in_fundamental_domain "
             "reduce_to_fundamental region shift_rd",
    "tubular": "MutationWord TubeInfo mutate_pair_left mutate_pair_right "
               "phi_from_infinity tube_invariants word_for_slope",
    "tables": "BettiClass BettiTable CohomTable IndecCount betti_from_cohom "
              "catalog cohom_rank_one cohom_rank_two cohom_via_euler "
              "hilbert indec_count normalize_and_classify rd_from_betti "
              "suspend_betti template_table translate_betti",
    "mf": "KST PHI_PSI GradedMatrix MatrixFactorization PointP1 betti_of_mf "
          "cone direct_sum lemma63_invariants mf_cone mf_linear "
          "mf_Mp_reduced reduce_mf verify_mf",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(
        import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
