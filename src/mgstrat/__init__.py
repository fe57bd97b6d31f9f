"""Win-stay/lose-shift strategy toolkit for two-choice minority games.

The package splits into small, layered modules:

- ``dist``    -- Poisson/binomial CDFs over scipy special functions
- ``solver``  -- cheat-proof switch-rate root finders
- ``payoff``  -- expected payoffs and the no-cheat check
- ``engine``  -- crowd simulation over head counts, reset cycle by reset cycle
- ``stats``   -- inefficiency, autocorrelations, recovery-episode lengths
- ``kpr``     -- the cyclic strategy for N agents on N ranked restaurants
- ``cli``     -- ``mgstrat`` command-line front end

Importing the package loads no numpy: this file holds the few names the
command line needs before it knows its subcommand, and every other export
is imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.10.0"

# Simulation modes of ``engine.StrategyConfig``.
MODE_STRATEGY = "strategy"
MODE_BASELINE = "random-baseline"

# Loosest residual tolerance both solvers accept.  The root loop stops on the
# residual alone, so a looser one would return a visibly wrong root.
MAX_TOLERANCE = 1e-6


class NumericError(ArithmeticError):
    """A root finder failed to bracket a sign change or to converge."""


# Every lazy export, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("solver", ("LambdaTable", "indifference_residual", "solve_lambda", "solve_p_finite")),
        ("payoff", ("CheatCheck", "PayoffQuadruple", "expected_payoffs", "verify_no_cheat")),
        ("engine", ("StrategyConfig", "Trajectory", "run")),
        ("_checks", ("derive_rng",)),
        ("stats", ("c_autocorrelation", "delta_histogram", "episode_lengths",
                   "inefficiency_eta", "s_autocorrelation")),
        ("kpr", ("KPRRunResult", "KPRState", "kpr_run")),
    )
    for name in names
}

__all__ = ["NumericError", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
