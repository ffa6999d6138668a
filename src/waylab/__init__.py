"""Measurement under a U(1) conservation law: asymmetry resources, covariant
discrimination, and explicit conserving readout circuits."""

from .graded import (EPS_NUM, BlockDiagonal, BlockState, CompositeSpace,
                     GradedSpace, NumericalError, Observable, PureState,
                     coherent_state, g_twirl, opt_phase_state, tensor,
                     uniform_state)
from .convert import (ChargeDistribution, Comparison, ConversionCertificate,
                      charge_distribution, compare, deterministic_convertible,
                      frameness_entropy, stochastic_reachable_from_uniform,
                      variance_measure)
from .discrimination import (Criterion, DiscriminationResult, Ensemble,
                             discriminate, mle_two_states,
                             perfect_discrimination_possible, raynal_reduce,
                             ud_two_states)
from .models import (ModelReport, Verdict, WayScenario, coherent_model,
                     noise_of_model, opt_phase_model, ozawa_bound,
                     twirled_pair_ensemble, uniform_model, way_feasibility)
from .circuits import (ConservingUnitary, MeasurementModel, build_mle_unitary,
                       build_repeatable_variant, build_ud_unitary,
                       simulate_measurement, verify_conservation,
                       verify_yanase)

__version__ = "0.1.0"
