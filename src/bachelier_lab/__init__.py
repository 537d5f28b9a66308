"""Numerics lab for additive (Bachelier) stock dynamics.

Exact-increment path simulation, first-passage oracles, option payoffs under
both discounting conventions, the full and delta-hedged expected-payoff ODEs
with closed-form solutions, the quantized at-the-money rate ladder with its
normalization, and a Monte Carlo drift laboratory for martingale checks.
"""

__version__ = "0.4.0"

from .errors import NonFiniteSampleError, ValidationError
from .model import (
    GaussianLaw,
    HitFrequency,
    ModelParams,
    PathSet,
    SeedStreams,
    TimeGrid,
    exact_marginal,
    first_hitting_time,
    hitting_frequency,
    hitting_probability,
    simulate_paths,
)
from .ode import (
    CharacteristicRoots,
    DeltaGamma,
    ExponentialSolution,
    OdeForm,
    OdeProblem,
    RootCase,
    characteristic_roots_full,
    characteristic_roots_hedged,
    delta_gamma,
    general_solution,
    residual,
    sine_solution,
)
from .payoff import (
    DiscountSign,
    MoneynessState,
    call_payoff,
    discounted_value,
    moneyness,
    put_payoff,
)
from .spectrum import (
    IntegralMethod,
    ModeSpec,
    NormalizationResult,
    PayoffSurface,
    RateSpectrum,
    boundary_residual,
    mode_index,
    normalization_constant,
    payoff_surface,
    quantized_rate,
)
from .verify import (
    DriftClass,
    DriftReport,
    IntegrabilityWitness,
    MartingaleVerdict,
    analytic_drift,
    classify,
    drift_estimate,
    integrability_check,
)
