"""Self-homodyne detection and feedback cooling of a levitated nanoparticle.

Numerical library and CLI: dipole-interference optics, Paul-trap radial-mode
analysis with a feedback spring, stochastic time-domain simulation of the
detected motion, and the spectral-analysis chain (PSD estimation, Lorentzian
and cooling-curve fits).
"""

__version__ = "0.1.0"

from .constants import C, CONSTANTS, EPS0, HBAR, K_B
from .optics import (
    Beam,
    OpticalSetup,
    RayleighValidityWarning,
    Scatterer,
    backaction_psd,
    calibration_deviation,
    collection_efficiency,
    detection_efficiency,
    fringe_slope,
    imprecision,
    mirror_sensitivity,
    particle_sensitivity,
    rayleigh_scattered_power,
)
from .modes import (
    ModeSolution,
    TrapConfig,
    mode_temperature,
    phonon_occupation,
    radial_modes,
)
from .langevin import (
    Bath,
    CalibrationResult,
    DetectorModel,
    FeedbackConfig,
    Trajectory,
    gas_damping_rate,
    run_calibration,
    simulate,
    thermal_force_psd,
)
from .spectral import (
    CoolingCurveFit,
    FitError,
    LorentzianFit,
    Psd,
    cooling_curve_fit,
    imprecision_from_floor,
    lorentzian_fit,
    welch_psd,
)
from .config import ConfigError, ScenarioConfig
