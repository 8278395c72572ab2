#!/usr/bin/env python3
"""Layered benchmark for selfhomodyne.

Run from the repository root:

    python3 perfbench/run.py --workload cool_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets up (fresh-interpreter imports), then repeats one workload
iteration while the next one still fits in ``--seconds`` (at least one),
checks every output and prints a metric table.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists for the run's mode: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The full result, with
every metric, the failed checks, the problem sizes and the provenance, goes
to ``.bench_out/results/``; the spans of a traced run go to
``.bench_out/<workload>/spans-seed<seed>.jsonl``.

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every end-to-end and per-layer metric of each.

Every workload is single-threaded (``--threads 1``) and a closed loop: the
next call starts only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

SETUP_TRIALS = 3  # fresh interpreters per run; setup_s is their median
SCIPY_TRIALS = 3
RNG_TRIALS = 20

# End-to-end metrics: name -> (unit, better, bound, workloads it applies to).
# BENCHMARK.json gates the ones every workload reports; compare.py applies
# the bounds given here to the rest.
ALL = ("cool_sweep", "thermal_ensemble", "scenario_cli")
COMMANDS = ("efficiency-report", "modes", "fringe-scan", "calibrate", "psd")
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "wall_s": ("s", "lower", 0.25, ALL),
    "sim_steps_per_s": ("1/s", "higher", 0.25, ALL),
    "peak_rss_mb": ("MB", "lower", 0.1, ALL),
    "ops_failed_frac": ("1", "lower", 0.0, ALL),
    "call_ms.p50": ("ms", "lower", 0.25, ("thermal_ensemble",)),
    "call_ms.tail": ("ms", "lower", 0.25, ("thermal_ensemble",)),
    **{f"cli.{c}_s": ("s", "lower", 0.25, ("scenario_cli",)) for c in COMMANDS},
}
# Per-layer metrics: name -> unit.  Counts are per workload iteration.
KINDS = ("open", "self_closed", "forward_closed", "ramp", "nonlinear_delay")
PER_LAYER = {
    "import.selfhomodyne_s": "s",
    "import.scipy_s": "s",
    "config.from_file_ms": "ms",
    "langevin.simulate.calls": "count",
    "langevin.simulate.steps": "count",
    "langevin.simulate.self_s": "s",
    "langevin.ns_per_step": "ns",
    **{f"langevin.ns_per_step.{k}": "ns" for k in KINDS},
    "langevin.peak_mb_per_sim_s": "MB/s",
    "langevin.run_calibration_ms": "ms",
    "langevin.lock_lost.runs": "count",
    "rng.ns_per_normal": "ns",
    "spectral.welch_psd.calls": "count",
    "spectral.welch_psd.ns_per_sample": "ns",
    "spectral.lorentzian_fit.calls": "count",
    "spectral.lorentzian_fit.ms": "ms",
    "spectral.cooling_curve_fit.ms": "ms",
    "spectral.psd_write_csv.us_per_row": "us",
    "modes.radial_modes.calls": "count",
    "modes.radial_modes.us_per_call": "us",
    "optics.collection_efficiency.ms": "ms",
    "optics.particle_sensitivity.ms": "ms",
    "optics.detection_efficiency.ms": "ms",
    "optics.calls": "count",
    "cli.main.self_s": "s",
    **{f"cli.main.self_s.{c}": "s" for c in ("cool-sweep",) + COMMANDS},
    "cli.csv_rows": "count",
    "cli.us_per_row": "us",
    "trace.overhead_ratio": "ratio",
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import selfhomodyne
t1 = time.perf_counter()
from selfhomodyne.config import ScenarioConfig
ScenarioConfig.from_file(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_ms": 1e3 * (t2 - t1), "file": selfhomodyne.__file__}))
"""


def peak_kb() -> int:
    """Peak resident memory of this process image (VmHWM).  ru_maxrss is not
    used: a spawned process's ru_maxrss starts from its spawner's peak."""
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])


REPLAY_CODE = inspect.getsource(peak_kb) + """
import pickle, sys
from selfhomodyne.langevin import simulate
with open(sys.argv[1], "rb") as fh:
    call = pickle.load(fh)
before = peak_kb()
simulate(**call)
print((peak_kb() - before) / 1024.0)
"""
# `python -m selfhomodyne.cli ...` that also reports its peak memory on exit
CLI_CODE = inspect.getsource(peak_kb) + """
import runpy, sys
try:
    runpy.run_module("selfhomodyne.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nperfbench-peak-kb {peak_kb()}\\n")
"""
SCIPY_CODE = """
import time
t0 = time.perf_counter()
import scipy.optimize, scipy.signal
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "selfhomodyne" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'selfhomodyne'}")
    sys.path.insert(0, str(SRC))
    import selfhomodyne

    if Path(selfhomodyne.__file__).resolve().parent != (SRC / "selfhomodyne").resolve():
        fail(f"imported selfhomodyne from {selfhomodyne.__file__}, not from {SRC}")
    return selfhomodyne


@dataclass
class Iteration:
    wall_s: float
    attempted: int
    failed: int
    problems: list[str]
    call_s: list[float] = field(default_factory=list)
    command_s: dict[str, float] = field(default_factory=dict)
    peak_mb: float = 0.0  # of the command processes, for out-of-process workloads


def run_op(fn):
    """Call one operation; an exception is the op's failure, not the run's."""
    try:
        return fn(), None
    except Exception:  # noqa: BLE001 - any failure of the program is counted, not fatal
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CoolSweep:
    """The criterion-9 gain sweep (7 gains x 2 channels) through cli.main,
    cut from 16 s to 4 s per point.

    The sweep keeps the criterion's own seed whatever the workload seed: at
    4 s the fitted A scatters by about 3% with a long tail (1 of 42 seeds
    tried landed at -10.8%, outside the 10% acceptance band), so a sweep
    re-seeded per run would fail its check in a few percent of runs for no
    fault of the code.  See README.md.
    """

    sweep_seed = 424242

    name = "cool_sweep"
    children = False
    spans = (
        "cli.main", "config.from_file", "langevin.simulate", "modes.radial_modes",
        "spectral.welch_psd", "spectral.lorentzian_fit", "spectral.cooling_curve_fit",
        "cli.write_csv",
    )

    def __init__(self, pkg, seed: int, out: Path, in_process: bool):
        self.cli = pkg.cli
        self.out = out
        self.config = {
            "scenario_id": "bench-cool-sweep",
            "bath": {"pressure_mbar": 2e-2},
            "detector": {"imprecision_forward_m2_per_hz": 2.2e-16},
            "sim": {"duration_s": 4.0, "transient_s": 0.5, "seed": self.sweep_seed},
            "sweeps": {
                "cooling_rates_rad_per_s": [0.0] + [
                    2.0 * math.pi * f for f in (20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
                ],
                "spring_gain_coef": 250.0,
            },
        }
        self.config_path = write_json(out / "config.json", self.config)
        cfg = pkg.ScenarioConfig.from_dict(self.config)
        n = round(cfg.duration / cfg.dt)
        self.points = 2 * len(self.config["sweeps"]["cooling_rates_rad_per_s"])
        self.gamma0_t0 = pkg.gas_damping_rate(cfg.bath) * cfg.bath.temperature
        self.sizes = {
            "sweep_seed": self.sweep_seed, "dt_s": cfg.dt, "steps_per_call": n,
            "calls": self.points, "steps": n * self.points,
            "welch_segment_len": [min(1 << 18, (n - int(cfg.transient / cfg.dt)) // 4)],
        }

    def iterate(self, mark) -> Iteration:
        argv = ["--config", str(self.config_path), "--out", str(self.out), "--threads", "1", "cool-sweep"]
        mark("cool-sweep")
        t0 = time.perf_counter()
        code, error = run_op(lambda: self.cli.main(argv))
        wall = time.perf_counter() - t0
        bad, problems = self.check(code, error)
        return Iteration(wall, self.points, len(bad), problems)

    def check(self, code, error):
        """Returns the failed sweep points and the reasons."""
        everything = set(range(self.points))
        if error or code != 0:
            return everything, [f"cool-sweep: exit {code} {error or ''}".strip()]
        header, rows_self = read_csv(self.out / "cool_sweep_self.csv")
        _, rows_fwd = read_csv(self.out / "cool_sweep_forward.csv")
        t_col = header.index("t_mode_k")
        temps_self = [r[t_col] for r in rows_self]
        temps_fwd = [r[t_col] for r in rows_fwd]
        bad = {i for i, t in enumerate(temps_self + temps_fwd) if not (math.isfinite(t) and t > 0.0)}
        problems = [f"cool-sweep: point {i} has no positive finite temperature" for i in sorted(bad)]
        a_fit = rows_self[0][header.index("fitted_a_rad_k_per_s")]
        k_min = min(range(len(temps_fwd)), key=temps_fwd.__getitem__)
        sweep_checks = {
            f"fitted A {a_fit:.1f} not within 10% of gamma0*T0 {self.gamma0_t0:.1f}":
                abs(a_fit - self.gamma0_t0) <= 0.10 * self.gamma0_t0,
            "self-homodyne temperatures do not decrease monotonically":
                all(b < a for a, b in zip(temps_self, temps_self[1:])),
            f"forward channel minimum at index {k_min} is not interior":
                0 < k_min < len(temps_fwd) - 1,
        }
        for message, ok in sweep_checks.items():
            if not ok:
                problems.append(f"cool-sweep: {message}")
                bad = everything
        return bad, problems


class ThermalEnsemble:
    """Criterion-7 equipartition: many short open-loop simulate() calls."""

    name = "thermal_ensemble"
    children = False
    spans = ("langevin.simulate", "modes.radial_modes")
    calls = 2048

    def __init__(self, pkg, seed: int, out: Path, in_process: bool):
        import numpy as np

        self.np = np
        self.langevin = pkg.langevin
        self.k_b = pkg.K_B
        self.config = {
            "scenario_id": "bench-thermal-ensemble",
            "bath": {"pressure_mbar": 2e-8, "temperature_k": 300.0},
            "detector": {"imprecision_self_m2_per_hz": 0.0, "imprecision_forward_m2_per_hz": 0.0},
            "sim": {"dt_s": 2.0**-16, "duration_s": 0.03, "transient_s": 0.0, "seed": seed},
        }
        self.config_path = write_json(out / "config.json", self.config)
        self.cfg = pkg.ScenarioConfig.from_dict(self.config)
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=self.calls)]
        n = round(self.cfg.duration / self.cfg.dt)
        self.sizes = {
            "dt_s": self.cfg.dt, "steps_per_call": n, "calls": self.calls,
            "steps": n * self.calls, "welch_segment_len": [],
        }

    def iterate(self, mark) -> Iteration:
        cfg, np = self.cfg, self.np
        var_x, var_y, call_s, problems = [], [], [], []
        failed = 0
        t0 = time.perf_counter()
        for i, seed in enumerate(self.seeds):
            mark(f"call{i}")
            t1 = time.perf_counter()
            traj, error = run_op(lambda: self.langevin.simulate(
                cfg.trap, cfg.bath, cfg.feedback, cfg.detector, cfg.setup,
                duration=cfg.duration, dt=cfg.dt, seed=seed,
            ))
            call_s.append(time.perf_counter() - t1)
            if error is None:
                vx, vy = float(np.var(traj.x)), float(np.var(traj.y))
                if math.isfinite(vx) and math.isfinite(vy):
                    var_x.append(vx)
                    var_y.append(vy)
                    continue
                error = "non-finite trajectory"
            failed += 1
            problems.append(f"simulate call {i} (seed {seed}): {error}")
        wall = time.perf_counter() - t0
        trap = cfg.trap
        for axis, w, var in (("x", trap.secular_freq_x, var_x), ("y", trap.secular_freq_y, var_y)):
            temp = trap.mass * w**2 * statistics.fmean(var) / self.k_b if var else math.nan
            if not abs(temp - cfg.bath.temperature) <= 0.10 * cfg.bath.temperature:
                problems.append(f"T{axis} = {temp:.1f} K not within 10% of {cfg.bath.temperature} K")
                failed = self.calls
        return Iteration(wall, self.calls, failed, problems, call_s=call_s)


class ScenarioCli:
    """Five CLI commands, each in a fresh interpreter as a user runs them
    (in-process when traced, so the spans can be recorded)."""

    name = "scenario_cli"
    children = True
    spans = (
        "cli.main", "config.from_file", "langevin.simulate", "modes.radial_modes",
        "langevin.run_calibration", "spectral.welch_psd", "spectral.psd_write_csv",
        "optics.collection_efficiency", "optics.particle_sensitivity",
        "optics.detection_efficiency", "cli.write_csv",
    )

    def __init__(self, pkg, seed: int, out: Path, in_process: bool):
        self.cli = pkg.cli
        self.seed = seed
        self.out = out
        self.in_process = in_process
        # cold, delayed, nonlinear closed loop; see README for why 1 K and viscous-only
        self.config = {
            "scenario_id": "bench-psd",
            "bath": {"pressure_mbar": 2e-2, "temperature_k": 1.0},
            "detector": {"fringe_nonlinearity": True},
            "feedback": {
                "cooling_rate_rad_per_s": 2.0 * math.pi * 160.0,
                "spring_gain_rad_per_s": 0.0,
                "loop_delay_s": 4 * 2.0**-17,
            },
            "sim": {"dt_s": 2.0**-17, "duration_s": 2.0, "transient_s": 0.5, "seed": seed},
        }
        self.config_path = write_json(out / "config.json", self.config)
        cfg = pkg.ScenarioConfig.from_dict(self.config)
        # the psd scenario is only meaningful while the mirror lock holds
        traj = pkg.simulate(
            cfg.trap, cfg.bath, cfg.feedback, cfg.detector, cfg.setup,
            duration=cfg.duration, dt=cfg.dt, seed=seed,
        )
        self.lock_held = not traj.lock_lost
        default = pkg.ScenarioConfig.from_dict({})
        ramp_steps = round(3.0 * (default.setup.wavelength / 2.0) / 2e-6 / default.dt)
        psd_steps = round(cfg.duration / cfg.dt)
        self.sizes = {
            "dt_s": cfg.dt, "steps_per_call": {"fringe-scan": ramp_steps, "calibrate": ramp_steps, "psd": psd_steps},
            "calls": 3, "steps": 2 * ramp_steps + psd_steps,
            "welch_segment_len": [min(1 << 17, (psd_steps - int(cfg.transient / cfg.dt)) // 4)],
        }

    def argv(self, command: str) -> list[str]:
        argv = ["--out", str(self.out / command), "--threads", "1"]
        if command in ("fringe-scan", "calibrate", "psd"):
            argv += ["--seed", str(self.seed)]
        if command == "psd":
            argv += ["--config", str(self.config_path)]
        return argv + [command]

    def run_command(self, command: str):
        if self.in_process:
            return self.cli.main(self.argv(command))
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, *self.argv(command)],
            env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        stderr, marker, peak = proc.stderr.rpartition("perfbench-peak-kb ")
        if marker:
            self.peak_mb = max(self.peak_mb, int(peak) / 1024.0)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
        return 0

    def iterate(self, mark) -> Iteration:
        problems, command_s = [], {}
        failed = 0
        self.peak_mb = 0.0
        for command in COMMANDS:
            mark(command)
            t0 = time.perf_counter()
            code, error = run_op(lambda: self.run_command(command))
            command_s[command] = time.perf_counter() - t0
            if error is None and code != 0:
                error = f"exit {code}"
            if error is None:
                error = self.check(command, self.out / command)
            if error:
                failed += 1
                problems.append(f"{command}: {error}")
        return Iteration(
            sum(command_s.values()), len(COMMANDS), failed, problems,
            command_s=command_s, peak_mb=self.peak_mb,
        )

    def check(self, command: str, out: Path) -> str | None:
        """Acceptance thresholds on each command's output; None when it passes."""
        if command == "efficiency-report":
            r = read_json(out / "efficiency_report.json")
            if abs(r["eta_collection"] - 0.012) > 0.001 or abs(r["eta_detection"] - 0.021) > 0.004:
                return f"eta_col {r['eta_collection']:.4f} / eta_det {r['eta_detection']:.4f} off target"
        elif command == "modes":
            worst = max(m["oracle_discrepancy"] for m in read_json(out / "modes.json")["modes"])
            if not worst < 1e-10:
                return f"oracle discrepancy {worst:.2e} >= 1e-10"
        elif command == "fringe-scan":
            header, rows = read_csv(out / "fringe_scan.csv")
            vis = {r[header.index("visibility")] for r in rows}
            if len(rows) != self.sizes["steps_per_call"]["fringe-scan"] or any(abs(v - 0.7) > 0.01 for v in vis):
                return f"{len(rows)} rows, visibility {sorted(vis)} not within 0.01 of 0.7"
        elif command == "calibrate":
            r = read_json(out / "calibration.json")
            model = r["model_slope_volts_per_meter"]
            if not abs(r["volts_per_meter"] - model) <= 0.01 * model:
                return f"slope {r['volts_per_meter']:.6g} not within 1% of model {model:.6g}"
        elif command == "psd":
            _, rows = read_csv(out / "psd.csv")
            if not rows or not all(math.isfinite(v) and v >= 0.0 for _, v in rows):
                return "PSD not finite and non-negative"
            if not self.lock_held:
                return "the configured loop lost lock (|q| > lambda/4)"
        return None


WORKLOADS = {w.name: w for w in (CoolSweep, ThermalEnsemble, ScenarioCli)}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_json(path: Path):
    return json.loads(path.read_text())


def read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def provenance(pkg) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "git_commit": commit,
        "selfhomodyne": pkg.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def fresh_interpreter(code: str, *args: str) -> tuple[float, str]:
    """Wall time of a new interpreter running ``code``, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=ENV, cwd=ROOT, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


def measure_setup(config_path: Path, trace: bool) -> dict:
    """Fresh-interpreter ``import selfhomodyne`` plus config parse, several
    times (the median absorbs the byte-compiling of a fresh checkout)."""
    walls, imports, parses = [], [], []
    for _ in range(SETUP_TRIALS):
        wall, out = fresh_interpreter(SETUP_CODE, str(config_path))
        child = json.loads(out)
        if Path(child["file"]).resolve().parent != (SRC / "selfhomodyne").resolve():
            fail(f"fresh interpreter imported selfhomodyne from {child['file']}")
        walls.append(wall)
        imports.append(child["import_s"])
        parses.append(child["config_ms"])
    result = {"setup_s": statistics.median(walls)}
    if trace:
        result["import.selfhomodyne_s"] = statistics.median(imports)
        result["config.from_file_ms"] = statistics.median(parses)
        result["import.scipy_s"] = statistics.median(
            [float(fresh_interpreter(SCIPY_CODE)[1]) for _ in range(SCIPY_TRIALS)]
        )
    return result


def rng_ns_per_normal() -> float:
    """numpy's normal-draw cost at the integrator's (65536, 8) block shape."""
    import numpy as np

    rng = np.random.default_rng(0)
    times = []
    for _ in range(RNG_TRIALS):
        t0 = time.perf_counter()
        rng.standard_normal((1 << 16, 8))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / (8 << 16) * 1e9


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def simulate_kind(feedback, detector) -> str:
    if detector.mirror_mode == "ramp":
        return "ramp"
    if not feedback.engaged:
        return "open"
    if detector.fringe_nonlinearity or feedback.loop_delay > 0.0:
        return "nonlinear_delay"
    return "forward_closed" if feedback.source_channel == "forward" else "self_closed"


def describe_simulate(args, kwargs, traj):
    from selfhomodyne.langevin import simulate

    call = inspect.signature(simulate).bind(*args, **kwargs).arguments
    return {
        "kind": simulate_kind(call["feedback"], call["detector"]),
        "steps": int(round(call["duration"] / call["dt"])),
        "sim_s": call["duration"],
        "lock_lost": bool(traj.lock_lost),
        "call": call,
    }


def install_spans(tracer: Tracer, pkg) -> None:
    """Wrap each layer's public functions at the names their callers resolve."""
    cli, langevin, modes, optics, spectral = pkg.cli, pkg.langevin, pkg.modes, pkg.optics, pkg.spectral
    tracer.patch(cli, "main", "cli.main", lambda a, k, r: {"command": a[0][-1]})
    tracer.patch(pkg.config.ScenarioConfig, "from_file", "config.from_file")
    for owner in (cli, langevin):
        tracer.patch(owner, "simulate", "langevin.simulate", describe_simulate)
    for owner in (cli, modes):  # simulate imports radial_modes from modes at call time
        tracer.patch(owner, "radial_modes", "modes.radial_modes")
    tracer.patch(cli, "run_calibration", "langevin.run_calibration")
    tracer.patch(cli, "welch_psd", "spectral.welch_psd",
                 lambda a, k, r: {"samples": len(a[0]), "segment_len": k.get("segment_len", a[2] if len(a) > 2 else None)})
    tracer.patch(cli, "lorentzian_fit", "spectral.lorentzian_fit")
    tracer.patch(cli, "cooling_curve_fit", "spectral.cooling_curve_fit")
    tracer.patch(spectral.Psd, "write_csv", "spectral.psd_write_csv",
                 lambda a, k, r: {"rows": int(a[0].frequencies.size)})
    for owner in (cli, optics):  # optics functions call each other by module name
        for fn in ("collection_efficiency", "particle_sensitivity", "detection_efficiency"):
            tracer.patch(owner, fn, f"optics.{fn}")
    tracer.patch(cli, "_write_csv", "cli.write_csv", lambda a, k, r: {"rows": len(a[2])})


def layer_metrics(tracer: Tracer, iterations: int, workload) -> dict:
    """Per-layer metrics from the spans of the traced iterations; counts are
    per iteration, times are totals per iteration or per unit of work."""
    own = tracer.self_times()
    spans = {name: [] for name in {s.name for s in tracer.spans}}
    for i, s in enumerate(tracer.spans):
        spans[s.name].append((s, own[i]))
    missing = [name for name in workload.spans if not spans.get(name)]
    if missing:
        fail(f"{workload.name}: expected spans with zero calls: {', '.join(missing)}")

    def total(name, key=None):
        return sum((s.attrs[key] if key else s.duration) for s, _ in spans.get(name, []))

    def count(name):
        return len(spans.get(name, [])) / iterations

    m = {}
    steps = total("langevin.simulate", "steps")
    m["langevin.simulate.calls"] = count("langevin.simulate")
    m["langevin.simulate.steps"] = steps / iterations
    m["langevin.simulate.self_s"] = sum(o for _, o in spans["langevin.simulate"]) / iterations
    m["langevin.ns_per_step"] = total("langevin.simulate") / steps * 1e9
    for kind in KINDS:
        of_kind = [s for s, _ in spans["langevin.simulate"] if s.attrs["kind"] == kind]
        if of_kind:
            m[f"langevin.ns_per_step.{kind}"] = (
                sum(s.duration for s in of_kind) / sum(s.attrs["steps"] for s in of_kind) * 1e9
            )
    m["langevin.lock_lost.runs"] = sum(s.attrs["lock_lost"] for s, _ in spans["langevin.simulate"]) / iterations
    m["modes.radial_modes.calls"] = count("modes.radial_modes")
    m["modes.radial_modes.us_per_call"] = total("modes.radial_modes") / len(spans["modes.radial_modes"]) * 1e6
    per_call_ms = {
        "langevin.run_calibration": "langevin.run_calibration_ms",
        "spectral.lorentzian_fit": "spectral.lorentzian_fit.ms",
        "spectral.cooling_curve_fit": "spectral.cooling_curve_fit.ms",
        "optics.collection_efficiency": "optics.collection_efficiency.ms",
        "optics.particle_sensitivity": "optics.particle_sensitivity.ms",
        "optics.detection_efficiency": "optics.detection_efficiency.ms",
    }
    for name, metric in per_call_ms.items():
        if spans.get(name):
            m[metric] = total(name) / len(spans[name]) * 1e3
    if spans.get("spectral.welch_psd"):
        m["spectral.welch_psd.calls"] = count("spectral.welch_psd")
        m["spectral.welch_psd.ns_per_sample"] = total("spectral.welch_psd") / total("spectral.welch_psd", "samples") * 1e9
        segments = sorted({s.attrs["segment_len"] for s, _ in spans["spectral.welch_psd"]})
        if segments != workload.sizes["welch_segment_len"]:
            fail(f"{workload.name}: Welch segment lengths {segments} != declared {workload.sizes['welch_segment_len']}")
    if spans.get("spectral.lorentzian_fit"):
        m["spectral.lorentzian_fit.calls"] = count("spectral.lorentzian_fit")
    if spans.get("spectral.psd_write_csv"):
        m["spectral.psd_write_csv.us_per_row"] = total("spectral.psd_write_csv") / total("spectral.psd_write_csv", "rows") * 1e6
    optics_calls = sum(len(spans.get(f"optics.{fn}", [])) for fn in ("collection_efficiency", "particle_sensitivity", "detection_efficiency"))
    if optics_calls:
        m["optics.calls"] = optics_calls / iterations
    if spans.get("cli.main"):
        m["cli.main.self_s"] = sum(o for _, o in spans["cli.main"]) / iterations
        for s, o in spans["cli.main"]:
            key = f"cli.main.self_s.{s.attrs['command']}"
            m[key] = m.get(key, 0.0) + o / iterations
    if spans.get("cli.write_csv"):
        m["cli.csv_rows"] = total("cli.write_csv", "rows") / iterations
        m["cli.us_per_row"] = total("cli.write_csv") / total("cli.write_csv", "rows") * 1e6
    if steps != workload.sizes["steps"] * iterations:
        fail(f"{workload.name}: traced {steps} steps, declared {workload.sizes['steps']} per iteration")
    return m


def peak_mb_per_sim_s(tracer: Tracer, out: Path) -> float:
    """Replay the longest traced simulate call in a fresh interpreter,
    stretched to at least one simulated second so the growth stands well
    above page granularity, and scale its peak resident-memory growth by
    the simulated time.  (tracemalloc slows the per-step Python loop about a
    hundredfold, so it is not used.)"""
    longest = max(tracer.by_name("langevin.simulate"), key=lambda s: s.attrs["steps"])
    call = dict(longest.attrs["call"], duration=max(longest.attrs["sim_s"], 1.0))
    path = out / "replay.pickle"
    path.write_bytes(pickle.dumps(call))
    growth_mb = float(fresh_interpreter(REPLAY_CODE, str(path))[1])
    return growth_mb / call["duration"]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def iterate_for(step, seconds: float) -> None:
    """Call ``step`` until ``seconds`` have passed.  The machine's speed
    drifts over tens of seconds, so what steadies a run's figures is the
    length of time they average over, not the number of iterations."""
    t0 = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - t0 >= seconds:
            return


def mean_wall(iters: list[Iteration]) -> float:
    """Mean iteration time over the run.  The machine's speed drifts over
    tens of seconds, so the mean over the whole window is steadier than the
    median of its few iterations."""
    return statistics.fmean(it.wall_s for it in iters)


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(workload, iters: list[Iteration], setup: dict) -> dict:
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    m = {
        "setup_s": setup["setup_s"],
        "wall_s": mean_wall(iters),
        "sim_steps_per_s": workload.sizes["steps"] / mean_wall(iters),
        "peak_rss_mb": max(it.peak_mb for it in iters) if workload.children else peak_kb() / 1024.0,
        "ops_failed_frac": failed / attempted,
    }
    calls = [t for it in iters for t in it.call_s]
    if calls:
        m["call_ms.p50"] = statistics.median(calls) * 1e3
        value, pct = tail(calls)
        m["call_ms.tail"] = value * 1e3
        m["call_ms.tail_pct"] = pct
        m["call_ms.samples"] = len(calls)
    for command in COMMANDS:
        samples = [it.command_s[command] for it in iters if command in it.command_s]
        if samples:
            m[f"cli.{command}_s"] = statistics.median(samples)
    return m


def load_manifest() -> dict:
    """BENCHMARK.json, checked against the metric tables above."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    manifest = read_json(path)
    for entry in manifest["end_to_end"]:
        unit, better, bound, applies = END_TO_END.get(entry["name"], (None,) * 4)
        if (entry["unit"], entry["better"], entry["bound"]) != (unit, better, bound) or applies != ALL:
            fail(f"BENCHMARK.json end_to_end entry {entry} disagrees with run.py")
    for entry in manifest["per_layer"]:
        if PER_LAYER.get(entry["name"]) != entry["unit"]:
            fail(f"BENCHMARK.json per_layer entry {entry} disagrees with run.py")
    return manifest


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    manifest = load_manifest()
    pkg = load_package()
    import selfhomodyne.cli  # noqa: F401  (submodules the workloads drive)
    import selfhomodyne.config  # noqa: F401

    out = OUT / name
    workload = WORKLOADS[name](pkg, seed, out, in_process=trace)
    setup = measure_setup(workload.config_path, trace)

    metrics, iters, plain = {}, [], []
    if trace:
        # untraced and traced iterations alternate, so the tracing overhead
        # compares iterations run under the same machine conditions
        tracer = Tracer()
        install_spans(tracer, pkg)

        def mark(op):
            tracer.run = f"{name}/{op}"

        def pair():
            plain.append(workload.iterate(lambda op: None))
            tracer.active = True
            iters.append(workload.iterate(mark))
            tracer.active = False

        iterate_for(pair, seconds)
        tracer.restore()
        metrics.update(layer_metrics(tracer, len(iters), workload))
        metrics["langevin.peak_mb_per_sim_s"] = peak_mb_per_sim_s(tracer, out)
        metrics["rng.ns_per_normal"] = rng_ns_per_normal()
        metrics["trace.overhead_ratio"] = mean_wall(iters) / mean_wall(plain)
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
        tracer.write(out / f"spans-seed{seed}.jsonl")
        units = PER_LAYER
        gated = [e["name"] for e in manifest["per_layer"]]
    else:
        iterate_for(lambda: iters.append(workload.iterate(lambda op: None)), seconds)
        metrics.update(end_to_end_metrics(workload, iters, setup))
        units = {**{k: v[0] for k, v in END_TO_END.items()}, "call_ms.tail_pct": "%", "call_ms.samples": "count"}
        gated = [e["name"] for e in manifest["end_to_end"]]

    attempted = sum(it.attempted for it in iters + plain)
    failed = sum(it.failed for it in iters + plain)
    problems = [p for it in iters + plain for p in it.problems]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "iterations": len(iters), "sizes": {"seed": seed, **workload.sizes},
        "provenance": provenance(pkg), "correct": failed == 0,
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    write_json(OUT / "results" / f"{name}-trace{int(trace)}-seed{seed}.json", result)

    for p in problems[:20]:
        print(f"FAILED {p}")
    print(f"# {name} seed={seed} trace={int(trace)} iterations={len(iters)} sizes={json.dumps(result['sizes'])}")
    print(f"# provenance {json.dumps(result['provenance'])}")
    for k, v in result["metrics"].items():
        print(f"{k:40s} {v['value']:>16.6g} {v['unit']}")
    absent = [k for k in gated if not (k in metrics and math.isfinite(metrics[k]) and metrics[k] != 0.0)]
    if absent:
        fail(f"{name}: metrics missing, zero or not finite: {', '.join(absent)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: result["metrics"][k] for k in gated},
    }))


def run_all(seed: int, seconds: float) -> None:
    """Every workload, untraced then traced, each in its own process."""
    report, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                fail(f"{name} trace={trace} failed: {proc.stderr.strip()[-500:]}")
            result = read_json(OUT / "results" / f"{name}-trace{trace}-seed{seed}.json")
            attempted += result["attempted"]
            failed += result["failed"]
            for p in result["problems"]:
                print(f"FAILED {name}: {p}")
            for k, v in result["metrics"].items():
                report[f"{name}.{k}"] = v
    for k, v in report.items():
        print(f"{k:58s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
