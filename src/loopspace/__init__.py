"""Exact rational workbench for free loop space cohomology.

Input is a Sullivan model of a simply connected closed manifold given by
generators and a decomposable differential.  The package computes, with
no floating point anywhere: the cohomology of the free loop space, its
word-length decomposition, a finite Poincare duality quotient with an
explicit quasi isomorphism, the associated duality map and dual complex,
and the ranks of the rational homotopy of the identity component of the
self-equivalences, each value cross-checked by an independent route.
"""

from .errors import (ParseError, UnknownGenerator, DegreeMismatch,
                     OddExponent, ValidationFailure, NotPoincareDuality,
                     IncompleteModel, MathMismatch, QuasiIsoFailure,
                     IdentityViolation, SignIdentityFailure, DualMismatch,
                     TheoremMismatch, SingularDuality, InternalCheckFailure,
                     exit_code_for)
from .sullivan import (SullivanModel, RankTable, parse_model, validate,
                       cohomology_table, check_poincare_duality)
from .freeloop import (FreeLoopModel, HodgeTable, GrowthReport,
                       build_free_loop_model, hodge_betti_table, loop_betti,
                       growth_report, integer_nth_root)
from .pdquotient import (FiniteCdga, QuotientMap, build_quotient,
                         structure_identities, verify_quasi_iso)
from .sections import (ExtendedQuotientModel, DualSectionComplex,
                       DerivationComplex, TheoremReport, extend_to_quotient_loop,
                       verify_rho_tensor_quasi_iso, duality_map,
                       build_dual_complex, verify_duality_quasi_iso,
                       aut_rank_table, low_degree_section_classes,
                       derivation_oracle, verify_theorems)

__all__ = [n for n in dir() if not n.startswith("_")]


def corpus_path(name):
    """Filesystem path of a bundled model, e.g. corpus_path('s2')."""
    from importlib import resources     # the command line never needs it
    return resources.files("loopspace").joinpath("models", name + ".model")


def corpus_models():
    """Names of the bundled models, sorted."""
    from importlib import resources
    folder = resources.files("loopspace").joinpath("models")
    return sorted(p.name[:-len(".model")] for p in folder.iterdir()
                  if p.name.endswith(".model"))


def load_corpus_model(name):
    text = corpus_path(name).read_text(encoding="utf-8")
    return parse_model(text, name_hint=name)
