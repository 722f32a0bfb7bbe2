"""Exact quantale-valued behavioural distances.

Kantorovich-style liftings of distances to polynomial functors and to
the powerset/subdistribution monads, determinization through exchange
laws, fixpoint computation of behavioural distances, and checking of
up-to certificates that witness numeric upper bounds — all in exact
rational arithmetic.
"""

from .quantale import (BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, Quantale,
                       QuantaleError, get_quantale)
from .vgraph import (Carrier, FiniteMap, VGraph, carrier, direct_image, is_vcat,
                     metric_closure, reindex)
from .galois import (Grid, PredSet, alpha, extension_largest, extension_smallest,
                     gamma_enum)
from .functor import (ConstF, CoprodF, IdF, ProdF, build_lambda, compile_lifting,
                      compositionality_check, exception_functor, lift_closed,
                      machine_functor, pow_functor, star)
from .monadlift import (POWERSET, SUBDIST, FinSubset, Monad, SubDist, dirac,
                        finsubset, get_monad, hausdorff_directed, kantorovich_lp,
                        subdist)
from .simplex import LPProblem, LinearConstraint, simplex_solve
from .distlaw import DistLaw, apply_g, apply_zeta, law_suite
from .behaviour import (Certificate, CoalgebraModel, beh_apply, certify, kleene_gfp,
                        trace_lower_bound, witness_bound)
from .models import certificate_from_json, model_from_json

__version__ = "0.1.0"
