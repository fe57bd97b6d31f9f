"""Win-stay/lose-shift strategy toolkit for two-choice minority games.

The package splits into small, layered modules:

- ``dist``    -- Poisson/binomial CDFs over scipy special functions
- ``solver``  -- cheat-proof switch-rate root finders
- ``payoff``  -- expected payoffs and the no-cheat check
- ``engine``  -- crowd simulation over head counts, reset cycle by reset cycle
- ``stats``   -- inefficiency, autocorrelations, recovery-episode lengths
- ``kpr``     -- the cyclic strategy for N agents on N ranked restaurants
- ``cli``     -- ``mgstrat`` command-line front end
"""

__version__ = "0.9.0"

from .solver import (  # noqa: F401
    LambdaTable,
    NumericError,
    indifference_residual,
    solve_lambda,
    solve_p_finite,
)
from .payoff import (  # noqa: F401
    CheatCheck,
    PayoffQuadruple,
    expected_payoffs,
    verify_no_cheat,
)
from .engine import StrategyConfig, Trajectory, derive_rng, run  # noqa: F401
from .stats import (  # noqa: F401
    c_autocorrelation,
    episode_lengths,
    inefficiency_eta,
    s_autocorrelation,
)
from .kpr import KPRRunResult, KPRState, kpr_run  # noqa: F401
