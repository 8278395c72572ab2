"""Scenario configuration: a declarative JSON tree with SI units in the key
names, parsed into the library's typed objects.

Every value has a default (the published operating point of the tabletop
setup, written once, as the library's dataclass defaults), so a config file
only needs the keys it overrides.  ``ScenarioConfig.from_dict`` names each
leaf once, with its parser and its default, and keeps the tree as read: each
leaf's override as given, or its default.  Seeds are always explicit; no
ambient entropy enters a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .langevin import Bath, DetectorModel, FeedbackConfig
from .modes import TrapConfig
from .optics import Beam, OpticalSetup, Scatterer

__all__ = ["ScenarioConfig", "ConfigError"]


# cool-sweep seeds forward-channel point i as sweep point _FORWARD_SEED_OFFSET + i,
# so a sweep holds at most this many cooling rates
_FORWARD_SEED_OFFSET = 1000


class ConfigError(ValueError):
    """Configuration failed validation."""


def _real(value) -> float:
    """A finite JSON number; strings, booleans, NaN/inf and integers too
    large for a float are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _ranged(ok, rule: str):
    """A parser of the finite numbers for which ``ok`` holds; ``rule``
    states that range in the rejection."""
    def parse(value) -> float:
        value = _real(value)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value
    return parse


_positive = _ranged(lambda v: v > 0.0, "> 0")
_non_negative = _ranged(lambda v: v >= 0.0, ">= 0")
_fraction = _ranged(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _reals(item, least: int = 0, most: float = math.inf):
    """A parser of the JSON arrays of ``least`` to ``most`` numbers, each
    parsed by ``item``."""
    def parse(value) -> tuple[float, ...]:
        if not isinstance(value, list):
            raise TypeError(f"expected an array of numbers, got {value!r}")
        values = tuple(item(v) for v in value)
        if len(values) < least:
            raise ValueError(f"needs {least} or more entries, got {len(values)}")
        if len(values) > most:
            raise ValueError(f"allows at most {most} entries, got {len(values)}")
        return values
    return parse


def _band(value) -> tuple[float, float]:
    """A frequency band [f_lo, f_hi], 0 <= f_lo < f_hi."""
    lo, hi = _reals(_non_negative, 2, 2)(value)
    if not lo < hi:
        raise ValueError(f"must satisfy f_lo < f_hi, got {value!r}")
    return lo, hi


def _channel(value) -> str:
    """The detector channel that drives the feedback loop, a string."""
    if value not in ("self-homodyne", "forward"):
        raise ValueError(f"must be 'self-homodyne' or 'forward', got {value!r}")
    return value


def _seed(value) -> int:
    """A non-negative seed with an integral value (1 or 1.0, not 1.7): the
    one rule for ``sim.seed`` and the command line's ``--seed``."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    if value < 0:
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
    raw tree as read (each leaf's override as given, or its default), kept
    only to serialize and hash the scenario."""

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
        """Parse ``overrides`` over the defaults.  Each leaf is read once,
        with its default: the library's dataclass defaults (the tabletop
        operating point) in the units the key names, and literals for the
        beam, the simulation and the sweeps, which no dataclass default
        holds.  ``from_dict({}).to_json()`` prints the default tree."""
        overrides = {} if overrides is None else overrides
        if not isinstance(overrides, dict):
            raise ConfigError(f"config overrides must be a dict, got {type(overrides).__name__}")
        tree = {"scenario_id": overrides.get("scenario_id", "default")}

        def leaf(parse, path: str, default):
            """The leaf at the dotted ``path`` of the overrides, or ``default``
            where they leave it out: recorded in the tree as given, returned
            parsed; a rejection names it."""
            section, key = path.split(".")
            table = overrides.get(section)
            value = table.get(key, default) if isinstance(table, dict) else default
            tree.setdefault(section, {})[key] = value
            try:
                return parse(value)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc

        opt, sca, trp = OpticalSetup(), Scatterer(), TrapConfig()
        gas, det, fbk = Bath(), DetectorModel(), FeedbackConfig()
        two_pi = 2.0 * math.pi
        try:
            if not isinstance(tree["scenario_id"], str):
                raise TypeError(f"scenario_id must be a string, got {tree['scenario_id']!r}")
            in_unit = _ranged(lambda v: 0.0 < v <= 1.0, "in (0, 1]")
            na = leaf(in_unit, "optics.numerical_aperture", math.sin(opt.half_aperture))
            wavelength = leaf(_positive, "optics.wavelength_m", opt.wavelength)
            setup = OpticalSetup(
                wavelength=wavelength,
                half_aperture=math.asin(na),
                mirror_reflectivity=leaf(
                    _fraction, "optics.mirror_field_reflectivity", opt.mirror_reflectivity),
                visibility=leaf(_fraction, "optics.visibility", opt.visibility),
                path_efficiency=leaf(_fraction, "optics.path_efficiency", opt.path_efficiency),
                detector_qe=leaf(_fraction, "optics.detector_quantum_efficiency", opt.detector_qe),
            )
            scatterer = Scatterer(
                radius=leaf(_positive, "scatterer.radius_m", sca.radius),
                refractive_index=leaf(
                    _ranged(lambda v: v > 1.0, "> 1"), "scatterer.refractive_index", sca.refractive_index),
            )
            beam = Beam(
                power=leaf(_non_negative, "beam.power_w", 0.43),
                waist=leaf(_positive, "beam.waist_m", 0.29e-3),
                wavelength=wavelength,
            )
            trap = TrapConfig(
                secular_freq_x=two_pi * leaf(
                    _positive, "trap.secular_freq_x_hz", trp.secular_freq_x / two_pi),
                secular_freq_y=two_pi * leaf(
                    _positive, "trap.secular_freq_y_hz", trp.secular_freq_y / two_pi),
                mass=leaf(_positive, "scatterer.mass_kg", trp.mass),
            )
            bath = Bath(
                pressure=leaf(_non_negative, "bath.pressure_mbar", gas.pressure),
                temperature=leaf(_non_negative, "bath.temperature_k", gas.temperature),
                damping_anchor=(
                    leaf(_positive, "bath.damping_anchor_pressure_mbar", gas.damping_anchor[0]),
                    leaf(_positive, "bath.damping_anchor_gamma_rad_per_s", gas.damping_anchor[1]),
                ),
            )
            detector = DetectorModel(
                imprecision_self=leaf(
                    _non_negative, "detector.imprecision_self_m2_per_hz", det.imprecision_self),
                imprecision_forward=leaf(
                    _non_negative, "detector.imprecision_forward_m2_per_hz", det.imprecision_forward),
                fringe_nonlinearity=leaf(_flag, "detector.fringe_nonlinearity", det.fringe_nonlinearity),
                ramp_rate=leaf(_positive, "detector.ramp_rate_m_per_s", det.ramp_rate),
            )
            feedback = FeedbackConfig(
                cooling_rate=leaf(_non_negative, "feedback.cooling_rate_rad_per_s", fbk.cooling_rate),
                spring_gain=leaf(_non_negative, "feedback.spring_gain_rad_per_s", fbk.spring_gain),
                loop_delay=leaf(_non_negative, "feedback.loop_delay_s", fbk.loop_delay),
                filter_band=leaf(_band, "feedback.filter_band_hz", list(fbk.filter_band)),
                source_channel=leaf(_channel, "feedback.source_channel", fbk.source_channel),
            )
            dt = leaf(_positive, "sim.dt_s", 2.0**-17)
            duration = leaf(_positive, "sim.duration_s", 4.0)
            within = _ranged(lambda v: 0.0 <= v < duration, "in [0, sim.duration_s)")
            transient = leaf(within, "sim.transient_s", 1.0)
            seed = leaf(_seed, "sim.seed", 20240901)
            powers = leaf(
                _reals(_positive, 1), "sweeps.scattered_powers_w", [2e-8, 4e-8, 8.4e-8, 1.8e-7, 4e-7])
            # the cooling-curve fit of cool-sweep needs three points
            rates = leaf(
                _reals(_non_negative, 3, _FORWARD_SEED_OFFSET), "sweeps.cooling_rates_rad_per_s",
                [0.0] + [two_pi * f for f in (20.0, 40.0, 80.0, 160.0, 320.0, 640.0)],
            )
            coef = leaf(_non_negative, "sweeps.spring_gain_coef", 250.0)
            mode_gains = leaf(
                _reals(_non_negative), "sweeps.mode_spring_gains_rad_per_s",
                [0.0] + [two_pi * f for f in (500.0, 1000.0, 2000.0, 4000.0)],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        # every table and key of the overrides must be one a leaf read
        for section, table in overrides.items():
            if section not in tree:
                raise ConfigError(f"unknown config key: {section}")
            if isinstance(tree[section], dict):
                if not isinstance(table, dict):
                    raise ConfigError(f"config key {section} must be a table")
                for key in table:
                    if key not in tree[section]:
                        raise ConfigError(f"unknown config key: {section}.{key}")
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
