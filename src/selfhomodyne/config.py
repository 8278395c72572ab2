"""Scenario configuration: a declarative JSON tree with SI units in the key
names, parsed into the library's typed objects.

Every value has a default (the published operating point of the tabletop
setup), so a config file only needs the keys it overrides.  Seeds are always
explicit; no ambient entropy enters a run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

from .langevin import Bath, DetectorModel, FeedbackConfig
from .modes import TrapConfig
from .optics import Beam, OpticalSetup, Scatterer

__all__ = ["ScenarioConfig", "default_config_dict", "ConfigError"]


class ConfigError(ValueError):
    """Configuration failed validation."""


def default_config_dict() -> dict:
    """Full default configuration tree (tabletop operating point)."""
    return {
        "scenario_id": "default",
        "optics": {
            "wavelength_m": 780e-9,
            "numerical_aperture": 0.18,
            "mirror_field_reflectivity": 1.0,
            "visibility": 0.7,
            "path_efficiency": 0.9,
            "detector_quantum_efficiency": 0.82,
            "focal_length_m": 0.05,
            "mirror_distance_m": 0.10,
            "polarization_axis": [0.0, 1.0, 0.0],
        },
        "scatterer": {
            "radius_m": 150e-9,
            "refractive_index": 1.45,
            "mass_kg": 2.0e-17,
        },
        "beam": {"power_w": 0.43, "waist_m": 0.29e-3},
        "trap": {
            "secular_freq_x_hz": 2100.0,
            "secular_freq_y_hz": 3200.0,
        },
        "bath": {
            "pressure_mbar": 2e-8,
            "temperature_k": 300.0,
            "damping_anchor_pressure_mbar": 1e-2,
            "damping_anchor_gamma_rad_per_s": 2.0 * math.pi * 4.3,
        },
        "detector": {
            "imprecision_self_m2_per_hz": 3.0e-24,
            "imprecision_forward_m2_per_hz": 3.0e-24 * 10**3.8,
            "fringe_nonlinearity": False,
            "mirror_mode": "locked",
            "ramp_rate_m_per_s": 0.0,
            "lock_setpoint_index": 0,
            "gain_volts": 1.0,
        },
        "feedback": {
            "cooling_rate_rad_per_s": 0.0,
            "spring_gain_rad_per_s": 0.0,
            "loop_delay_s": 0.0,
            "filter_band_hz": [300.0, 6400.0],
            "source_channel": "self-homodyne",
        },
        "sim": {
            "dt_s": 2.0**-17,
            "duration_s": 4.0,
            "transient_s": 1.0,
            "seed": 20240901,
        },
        "sweeps": {
            "scattered_powers_w": [2e-8, 4e-8, 8.4e-8, 1.8e-7, 4e-7],
            "cooling_rates_rad_per_s": [
                0.0,
                2.0 * math.pi * 20.0,
                2.0 * math.pi * 40.0,
                2.0 * math.pi * 80.0,
                2.0 * math.pi * 160.0,
                2.0 * math.pi * 320.0,
                2.0 * math.pi * 640.0,
            ],
            "spring_gain_coef": 250.0,  # alpha = coef * sqrt(cooling_rate)
            "mode_spring_gains_rad_per_s": [
                0.0,
                2.0 * math.pi * 500.0,
                2.0 * math.pi * 1000.0,
                2.0 * math.pi * 2000.0,
                2.0 * math.pi * 4000.0,
            ],
        },
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key: {path}{key}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path}{key} must be a table")
            out[key] = _merge(base[key], val, f"{path}{key}.")
        else:
            out[key] = val
    return out


def _real(value) -> float:
    """A finite JSON number; strings, booleans and NaN/inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integral(value) -> int:
    """A JSON number with an integral value (1 or 1.0, not 1.7)."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _reals(value) -> tuple[float, ...]:
    """A JSON array of finite numbers."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array of numbers, got {value!r}")
    return tuple(_real(v) for v in value)


def _seed(value) -> int:
    """A non-negative integral seed: the one rule for ``sim.seed`` and the
    command line's ``--seed``."""
    if _integral(value) < 0:
        raise ConfigError(f"seed must be >= 0, got {value!r}")
    return int(value)


def _flag(value) -> bool:
    """A JSON true/false; strings such as "false" are rejected."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the typed values every command reads, plus the
    raw (merged) tree, kept only to serialize and hash the scenario."""

    tree: dict = field(repr=False)
    setup: OpticalSetup = field(repr=False)
    scatterer: Scatterer = field(repr=False)
    beam: Beam = field(repr=False)
    trap: TrapConfig = field(repr=False)
    bath: Bath = field(repr=False)
    detector: DetectorModel = field(repr=False)
    feedback: FeedbackConfig = field(repr=False)
    dt: float                               # [s]
    duration: float                         # [s]
    transient: float                        # [s]
    seed: int
    scattered_powers: tuple[float, ...]     # [W]
    cooling_rates: tuple[float, ...]        # [rad/s]
    spring_gain_coef: float                 # alpha = coef * sqrt(cooling_rate)
    mode_spring_gains: tuple[float, ...]    # [rad/s]

    @property
    def scenario_id(self) -> str:
        return self.tree["scenario_id"]

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "ScenarioConfig":
        tree = _merge(default_config_dict(), overrides or {})
        try:
            opt = tree["optics"]
            setup = OpticalSetup(
                wavelength=_real(opt["wavelength_m"]),
                half_aperture=math.asin(_real(opt["numerical_aperture"])),
                mirror_reflectivity=_real(opt["mirror_field_reflectivity"]),
                visibility=_real(opt["visibility"]),
                path_efficiency=_real(opt["path_efficiency"]),
                detector_qe=_real(opt["detector_quantum_efficiency"]),
                focal_length=_real(opt["focal_length_m"]),
                mirror_distance=_real(opt["mirror_distance_m"]),
                polarization_axis=tuple(_real(v) for v in opt["polarization_axis"]),
            )
            sca = tree["scatterer"]
            scatterer = Scatterer(
                radius=_real(sca["radius_m"]),
                refractive_index=_real(sca["refractive_index"]),
            )
            beam = Beam(
                power=_real(tree["beam"]["power_w"]),
                waist=_real(tree["beam"]["waist_m"]),
                wavelength=_real(opt["wavelength_m"]),
            )
            trp = tree["trap"]
            trap = TrapConfig(
                secular_freq_x=2.0 * math.pi * _real(trp["secular_freq_x_hz"]),
                secular_freq_y=2.0 * math.pi * _real(trp["secular_freq_y_hz"]),
                mass=_real(sca["mass_kg"]),
            )
            bth = tree["bath"]
            bath = Bath(
                pressure=_real(bth["pressure_mbar"]),
                temperature=_real(bth["temperature_k"]),
                damping_anchor=(
                    _real(bth["damping_anchor_pressure_mbar"]),
                    _real(bth["damping_anchor_gamma_rad_per_s"]),
                ),
            )
            det = tree["detector"]
            detector = DetectorModel(
                imprecision_self=_real(det["imprecision_self_m2_per_hz"]),
                imprecision_forward=_real(det["imprecision_forward_m2_per_hz"]),
                fringe_nonlinearity=_flag(det["fringe_nonlinearity"]),
                mirror_mode=str(det["mirror_mode"]),
                ramp_rate=_real(det["ramp_rate_m_per_s"]),
                lock_setpoint_index=_integral(det["lock_setpoint_index"]),
                gain=_real(det["gain_volts"]),
            )
            fbk = tree["feedback"]
            feedback = FeedbackConfig(
                cooling_rate=_real(fbk["cooling_rate_rad_per_s"]),
                spring_gain=_real(fbk["spring_gain_rad_per_s"]),
                loop_delay=_real(fbk["loop_delay_s"]),
                filter_band=tuple(_real(v) for v in fbk["filter_band_hz"]),
                source_channel=str(fbk["source_channel"]),
            )
            sim = tree["sim"]
            dt, duration = _real(sim["dt_s"]), _real(sim["duration_s"])
            transient = _real(sim["transient_s"])
            if dt <= 0 or duration <= 0:
                raise ValueError("sim dt_s and duration_s must be positive")
            if transient < 0 or transient >= duration:
                raise ValueError("sim transient_s must lie in [0, duration_s)")
            seed = _seed(sim["seed"])
            swp = tree["sweeps"]
            powers = _reals(swp["scattered_powers_w"])
            if not powers or any(p <= 0 for p in powers):
                raise ValueError("sweeps scattered_powers_w needs at least 1 entry, all > 0")
            rates = _reals(swp["cooling_rates_rad_per_s"])
            if len(rates) < 3:
                # the cooling-curve fit of cool-sweep needs three points
                raise ValueError("sweeps cooling_rates_rad_per_s needs at least 3 entries")
            coef = _real(swp["spring_gain_coef"])
            mode_gains = _reals(swp["mode_spring_gains_rad_per_s"])
            if any(g < 0 for g in rates + mode_gains + (coef,)):
                raise ValueError("sweeps gains and spring_gain_coef must be >= 0")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        return cls(
            tree=tree, setup=setup, scatterer=scatterer, beam=beam,
            trap=trap, bath=bath, detector=detector, feedback=feedback,
            dt=dt, duration=duration, transient=transient, seed=seed,
            scattered_powers=powers, cooling_rates=rates,
            spring_gain_coef=coef, mode_spring_gains=mode_gains,
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must contain a JSON object")
        return cls.from_dict(overrides)

    def to_json(self) -> str:
        """Canonical serialized form; parse -> serialize -> parse is identity."""
        return json.dumps(self.tree, sort_keys=True, indent=2)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
