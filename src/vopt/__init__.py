"""Exact finite-model laboratory for vulnerable-option pricing.

Finite filtered trees, progressive enlargement by a random termination time,
the family of tilted martingale measures, and the reduced European/American
pricing schemes (penalized, reflected, constrained-stopping and game forms),
all cross-verified against enumeration oracles.
"""

from .errors import (AdmissibilityError, EnumerationCapError, HazardError,
                     IdentityError, ScenarioError, TreeError)
from .filtration import (AdaptedProcess, FiniteTree, StoppingProblem, StoppingTime,
                         TimeGrid, build_tree, condexp, doob_decomposition,
                         evaluate_stopping, snell_envelope)
from .random_time import (ExtendedSpace, HazardSpec, ProjectionBundle, cox_extend,
                          extend_with_kernel, full_price_assembly,
                          jeulin_yor_transform, key_lemma, pre_default_transform,
                          projections, verify_lemma21)
from .measure_change import (DensityBundle, PhiControl, G_under_phi, density_eta,
                             hazard_under_phi, phi_pr_from_marks, validate_phi)
from .european import (EuroSolveReport, PayoffSpec, ReducedHazard, constrained_snell,
                       dirac_convergence_check, penalized_european,
                       reduced_price_closed_form, reduced_price_linear, sup_over_phi)
from .american import (GameValueReport, ReflectedSolveReport, american_upper_price,
                       brute_force_game, constrained_dynkin_game,
                       penalized_american_lower, penalized_american_upper,
                       reflected_gbsde_solve, rbsde_vs_weighted_optstop)

__version__ = "0.1.0"
