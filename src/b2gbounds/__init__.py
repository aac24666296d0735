"""Upper bounds for B2[g] sets from nonnegative cosine series.

The library is organized around a single object, a finite cosine series
w(t) = sum_j b_j cos(2 pi theta_j t) with b_j >= 0 (CosineSeries, two
arrays b and theta), and the handful of functionals of w that control the
size of B2[g] subsets of {0, ..., N}: the integrals I1 and I2, the ratio
rho = I1^2 / I2, w(0), and a certified curvature bound used to absorb
discretization error at finite N.  summarize evaluates them together into
one FunctionalSummary, which both bounds and the CLI read.

Modules
    series          series type, I1/I2 evaluator, summary, Fourier data
    bounds          finite-N size bound and asymptotic constant
    yu              one-parameter family with O(M) and limit evaluation
    family          box-constrained rho maximization over a 2M+1 family
    combinatorics   difference counts, spectral identities, exact F(g, N)
    checks          self-checks of the identities and lemmas (b2g verify)
    cli             reproducible command-line front end
"""

__version__ = "0.1.0"

from .bounds import BoundReport, finite_majorant, max_size_bound, reference_min
from .combinatorics import (
    IntSet,
    d_identity_residual,
    diff_profile,
    enumerate_b2g,
    exhaustive_f,
    f_table,
    is_b2g,
    s_comb,
    s_dft,
    sdft_inequality_scan,
)
from .errors import (
    BudgetError,
    DomainError,
    HypothesisError,
    InputError,
    ToleranceError,
    ToolkitError,
    ValidationError,
)
from .family import (
    FamilyParams,
    OptimizeResult,
    initial_params,
    optimize,
    to_series,
)
from .series import (
    CosineSeries,
    FunctionalSummary,
    curvature_bound,
    eval_w,
    fourier_coefficients,
    integral_jet,
    summarize,
)
from .yu import LIMIT, YuParams, YuResult, yu_evaluate, yu_series

__all__ = [
    "__version__",
    "BoundReport",
    "BudgetError",
    "CosineSeries",
    "DomainError",
    "FamilyParams",
    "FunctionalSummary",
    "HypothesisError",
    "InputError",
    "IntSet",
    "LIMIT",
    "OptimizeResult",
    "ToleranceError",
    "ToolkitError",
    "ValidationError",
    "YuParams",
    "YuResult",
    "curvature_bound",
    "d_identity_residual",
    "diff_profile",
    "enumerate_b2g",
    "eval_w",
    "exhaustive_f",
    "f_table",
    "finite_majorant",
    "fourier_coefficients",
    "initial_params",
    "integral_jet",
    "is_b2g",
    "max_size_bound",
    "optimize",
    "reference_min",
    "s_comb",
    "s_dft",
    "sdft_inequality_scan",
    "summarize",
    "to_series",
    "yu_evaluate",
    "yu_series",
]
