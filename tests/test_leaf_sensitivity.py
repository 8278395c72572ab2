"""Every config leaf moves an output.

A leaf that no output depends on is a setting that does nothing, so each
leaf of the default tree is perturbed in turn and the cheapest command it
acts through is run on a short scenario: some output of that command,
manifests included and ``config_sha256`` excluded, must change.  A table
names that command for each leaf; a leaf with no entry fails.
"""

import copy
import json
import math

from selfhomodyne.cli import main
from selfhomodyne.config import ScenarioConfig

# short enough for the whole module to run in a few seconds: a 0.1 s record,
# one scattered power, three cooling rates and a ten-fold faster ramp
SHORT = {
    "bath": {"pressure_mbar": 2e-2},
    "detector": {"ramp_rate_m_per_s": 2e-5},
    "sim": {"duration_s": 0.1, "transient_s": 0.02, "seed": 77},
    "sweeps": {
        "scattered_powers_w": [8.4e-8],
        "cooling_rates_rad_per_s": [0.0, 2.0 * math.pi * 160.0, 2.0 * math.pi * 640.0],
    },
}
GAIN = 2.0 * math.pi * 160.0
# the loop leaves act only through an engaged loop, the forward floor only
# through a loop on the forward channel
LOOP = {"feedback": {"cooling_rate_rad_per_s": GAIN}}
FORWARD_LOOP = {"feedback": {"cooling_rate_rad_per_s": GAIN, "source_channel": "forward"}}
# at 1 mbar the upper mode is ~430 Hz wide, so a 0.18 s record resolves it,
# in the band cool-sweep fits, on both channels
BROAD = {"bath": {"pressure_mbar": 1.0}, "sim": {"duration_s": 0.2}}

# leaf -> (the cheapest command whose outputs it moves, the overrides of the
# short scenario that command runs on, the perturbed value: None scales the
# number, or each number of the list, by 1.01)
TABLE = {
    "scenario_id": ("efficiency-report", {}, "perturbed"),
    "optics.wavelength_m": ("efficiency-report", {}, None),
    "optics.numerical_aperture": ("efficiency-report", {}, None),
    # delta_chi is a ratio of two sensitivities that both scale with rho
    "optics.mirror_field_reflectivity": ("fringe-scan", {}, 0.99),
    "optics.visibility": ("efficiency-report", {}, None),
    "optics.path_efficiency": ("efficiency-report", {}, None),
    "optics.detector_quantum_efficiency": ("efficiency-report", {}, None),
    "scatterer.radius_m": ("efficiency-report", {}, None),
    "scatterer.refractive_index": ("efficiency-report", {}, None),
    "scatterer.mass_kg": ("efficiency-report", {}, None),
    "beam.power_w": ("efficiency-report", {}, None),
    "beam.waist_m": ("efficiency-report", {}, None),
    "trap.secular_freq_x_hz": ("modes", {}, None),
    "trap.secular_freq_y_hz": ("modes", {}, None),
    "bath.pressure_mbar": ("efficiency-report", {}, None),
    "bath.temperature_k": ("efficiency-report", {}, None),
    "bath.damping_anchor_pressure_mbar": ("efficiency-report", {}, None),
    "bath.damping_anchor_gamma_rad_per_s": ("efficiency-report", {}, None),
    "detector.imprecision_self_m2_per_hz": ("psd", {}, None),
    "detector.imprecision_forward_m2_per_hz": ("psd", FORWARD_LOOP, None),
    "detector.fringe_nonlinearity": ("psd", {}, True),
    "detector.ramp_rate_m_per_s": ("fringe-scan", {}, None),
    "feedback.cooling_rate_rad_per_s": ("psd", {}, GAIN),
    "feedback.spring_gain_rad_per_s": ("psd", {}, 2.0 * math.pi * 500.0),
    "feedback.loop_delay_s": ("psd", LOOP, 2.0**-17),
    "feedback.filter_band_hz": ("psd", LOOP, None),
    "feedback.source_channel": ("psd", LOOP, "forward"),
    "sim.dt_s": ("psd", {}, None),
    "sim.duration_s": ("psd", {}, None),
    "sim.transient_s": ("psd", {}, None),
    "sim.seed": ("psd", {}, 78),
    "sweeps.scattered_powers_w": ("imprecision-sweep", {}, None),
    "sweeps.cooling_rates_rad_per_s": ("cool-sweep", BROAD, None),
    "sweeps.spring_gain_coef": ("cool-sweep", BROAD, None),
    "sweeps.mode_spring_gains_rad_per_s": ("modes", {}, None),
}


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _merge(tree, overrides):
    out = copy.deepcopy(tree)
    for key, value in overrides.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _set(tree, leaf, value):
    *tables, key = leaf.split(".")
    for table in tables:
        tree = tree.setdefault(table, {})
    tree[key] = value


def _get(tree, leaf):
    for key in leaf.split("."):
        tree = tree[key]
    return tree


def _outputs(tmp_path, command, overrides):
    """The files ``command`` writes on ``overrides``, the manifest without
    ``config_sha256``; the command must succeed."""
    run = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    run.mkdir()
    (run / "config.json").write_text(json.dumps(overrides))
    out = run / "out"
    code = main(["--config", str(run / "config.json"), "--out", str(out), command])
    error = out / "error_manifest.json"
    assert code == 0, f"{command} failed on {overrides}: {error.read_text() if error.exists() else ''}"
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["config_sha256"]
    return files, manifest


def test_table_names_every_leaf():
    leaves = list(_leaves(ScenarioConfig.from_dict({}).tree))
    assert sorted(set(leaves) - set(TABLE)) == [], "a leaf has no entry: name the command it moves"
    assert sorted(set(TABLE) - set(leaves)) == [], "the table names a leaf the config does not have"


def test_every_leaf_moves_its_command(tmp_path):
    base_runs = {}
    unmoved = []
    for leaf, (command, base, value) in TABLE.items():
        overrides = _merge(SHORT, base)
        key = (command, json.dumps(overrides, sort_keys=True))
        if key not in base_runs:
            base_runs[key] = _outputs(tmp_path, command, overrides)
        if value is None:
            old = _get(ScenarioConfig.from_dict(overrides).tree, leaf)
            value = [1.01 * v for v in old] if isinstance(old, list) else 1.01 * old
        perturbed = copy.deepcopy(overrides)
        _set(perturbed, leaf, value)
        if _outputs(tmp_path, command, perturbed) == base_runs[key]:
            unmoved.append(f"{leaf} -> {command}")
    assert unmoved == [], f"these leaves move no output of their command: {unmoved}"
