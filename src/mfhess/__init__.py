"""Exact constructions around shift-of-argument families on semisimple Lie
algebras: Chevalley bases, invariant generators, Poisson-commutative
families, the affine Hessenberg slice with its triangular coordinates, and
pointwise symplectic verdicts.  All arithmetic is exact rational."""

from .rootdata import (CartanMatrix, RootSystem, build_root_system,
                       cartan_matrix_for_label, NonFiniteType, UnsupportedType)
from .liealgebra import (LieAlgebra, chevalley_algebra, principal_triple,
                         principal_decomposition, is_regular, PrincipalTriple,
                         PrincipalDecomposition)
from .polyring import Poly, GradientContext, gradient, poisson_bracket
from .invariants import (InvariantFamily, invariant_generators, trace_oracle_type_A,
                         WrongDimension)
from .argshift import (ShiftFamily, choose_regular_y, shift_family, pairwise_commute,
                       phi, gradient_span, zeta_chain,
                       mv_membership, DependentFamily, NotInvertible)
from .hessenberg import (HessChart, build_chart, restrict_to_hess, hess_section,
                         poincare_series, NotTriangular)
from .symplectic import (omega, zx_frame, transversality_check, polarization_report,
                         NotStronglyRegular, HessVisit, TangentFrame)
from .verifier import SuiteConfig, VerificationReport, run_suite, sample_points

__version__ = "0.1.0"
