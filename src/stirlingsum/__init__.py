"""stirlingsum — convergent inverse-factorial series for classical sums.

The package turns slowly divergent inverse-power tail expansions into rapidly
convergent inverse-factorial (Stirling) series, ships a catalog of 32 ready
summation formulas (harmonic numbers, zeta partial sums, power sums,
log-weighted sums, alternating sums), evaluates them to arbitrary precision,
recovers the constants appearing in their heads, and computes the digamma
function fast at large argument.
"""

from .exactnum import (
    DomainError,
    ExactRational,
    bernoulli,
    double_factorial_ext,
    euler_number,
    gregory_number,
    stirling_a,
    stirling_first,
    tangent_number,
)
from .transform import (
    EvalContext,
    EvaluationReport,
    InnerCoefficients,
    NonConvergenceError,
    StirlingCoefficients,
    eval_stirling_series,
    pochhammer,
    verify_transform_consistency,
    weniger_transform,
)
from .constants import ConstantId, get_constant
from .catalog import (
    FormulaId,
    brute_force,
    coefficients,
    describe,
    digamma,
    evaluate,
    formula_ids,
)

__version__ = "0.1.0"

# Served on first use (PEP 562): nothing a request runs needs the
# summation-tail machinery, so importing the package does not load it.
_ASYMPTOTICS = frozenset({"asymptotics", "LogPowerTerm", "differentiate", "em_tail"})


def __getattr__(name: str):
    if name in _ASYMPTOTICS:
        from importlib import import_module

        module = import_module(f"{__name__}.asymptotics")
        return module if name == "asymptotics" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DomainError",
    "ExactRational",
    "bernoulli",
    "euler_number",
    "tangent_number",
    "gregory_number",
    "stirling_a",
    "stirling_first",
    "double_factorial_ext",
    "EvalContext",
    "EvaluationReport",
    "InnerCoefficients",
    "StirlingCoefficients",
    "NonConvergenceError",
    "weniger_transform",
    "pochhammer",
    "eval_stirling_series",
    "verify_transform_consistency",
    "LogPowerTerm",
    "differentiate",
    "em_tail",
    "ConstantId",
    "get_constant",
    "FormulaId",
    "formula_ids",
    "describe",
    "coefficients",
    "evaluate",
    "brute_force",
    "digamma",
    "__version__",
]
