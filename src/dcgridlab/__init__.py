"""dcgridlab: a desk-scale DC microgrid control laboratory.

Small-signal models of a two-source DC microgrid, frequency-domain PI design,
root-locus robustness sweeps over cable impedance, and a deterministic
time-domain scenario engine that scores secondary-control schemes with ITAE
transient metrics.
"""

__version__ = "0.1.0"

from .control import (CascadeScheme, ConventionalScheme, PiGains, pi_step,
                      weights_from_ratings)
from .grid import (CableParams, ConverterParams, GridConfig, default_grid,
                   power_plant_tf, total_bus_voltage, voltage_loop_plant_tf)
from .lti import (Polynomial, TransferFunction, analytic_phase, bandwidth_3db,
                  freq_response, gain_crossover, poles, tf,
                  tf_feedback, tf_series)
from .rootlocus import (ImpedanceSweep, LocusResult, max_resistance_bound,
                        sweep_power_loop, sweep_voltage_loop)
from .sim import (LoadProfile, Scenario, SimResult, itae_current, itae_voltage,
                  run, voltage_settling)
from .tuning import TuningSpec, design_pi, verify_design

__all__ = [
    "__version__", "CableParams", "CascadeScheme", "ConventionalScheme",
    "ConverterParams", "GridConfig", "ImpedanceSweep", "LoadProfile",
    "LocusResult", "PiGains", "Polynomial", "Scenario", "SimResult",
    "TransferFunction", "TuningSpec", "analytic_phase",
    "bandwidth_3db", "default_grid", "design_pi", "freq_response",
    "gain_crossover", "itae_current", "itae_voltage", "max_resistance_bound",
    "pi_step", "poles", "power_plant_tf", "run",
    "sweep_power_loop", "sweep_voltage_loop", "tf",
    "tf_feedback", "tf_series", "total_bus_voltage", "verify_design",
    "voltage_loop_plant_tf", "voltage_settling", "weights_from_ratings",
]
