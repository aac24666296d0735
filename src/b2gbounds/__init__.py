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

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names the package exports from it.  Each name is
# imported on first access and then cached here (PEP 562), so importing the
# package alone loads no module.
_EXPORTS = {
    "bounds": "BoundReport finite_majorant max_size_bound reference_min",
    "combinatorics": "IntSet d_identity_residual diff_profile exhaustive_f"
    " f_table s_comb s_dft sdft_inequality_scan",
    "errors": "BudgetError DomainError HypothesisError InputError ToleranceError"
    " ToolkitError ValidationError",
    "family": "FamilyParams OptimizeResult initial_params optimize to_series",
    "series": "CosineSeries FunctionalSummary curvature_bound eval_w"
    " fourier_coefficients integral_jet summarize",
    "yu": "LIMIT YuParams YuResult yu_evaluate yu_series",
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}
__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        message = f"module {__name__!r} has no attribute {name!r}"
        raise AttributeError(message) from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
