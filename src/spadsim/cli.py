"""Command-line front end: one subcommand per desk-scale experiment."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import detection, estimation, synthetic
from .config import ConfigError, load_scenario, scenario_to_text
from .model import Scenario, table_budget
from .optics import ShadowingWarning, bare_silicon_stack, efficiency_vs_offset, stack_reflectance
from .simulator import gate_and_count, simulate_stream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

PRESETS_EPILOG = """\
figure/table presets:
  fig3        spadsim spot --demo
  fig5a       spadsim threshold
  fig5b       spadsim fidelity
  fig6        spadsim collection            (and: spadsim qefit --demo)
  table1      spadsim budget --demo
  projection  spadsim fidelity --projection
"""


class CheckFailure(Exception):
    """A --check numeric criterion was not met."""


def _manifest_hash(subcommand: str, args: argparse.Namespace, config_text: str) -> str:
    payload = {
        "subcommand": subcommand,
        "config": config_text,
        "args": {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _write_output(path: Path, manifest: str, body: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:  # two writes: the body is not copied behind the manifest line
        f.write(f"# manifest: {manifest}\n")
        f.write(body)
    print(f"wrote {path}")


def _output_path(args, default_name: str) -> Path:
    return Path(args.out) if args.out else Path(args.output_dir) / default_name


def _load_config(args) -> tuple[Scenario, str]:
    if args.config:
        scenario = load_scenario(args.config)
        text = Path(args.config).read_text()
    else:
        scenario = Scenario(budget=table_budget())
        text = scenario_to_text(scenario)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    if getattr(args, "duration", None) is not None:
        scenario = replace(scenario, trial_duration=args.duration)
    return scenario, text


def _parse_range(spec: str, scale: float = 1.0) -> list[float]:
    """'start:stop:step' (inclusive endpoints) or comma-separated values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be > 0")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ValueError(f"range {spec!r} has no points")
        return [(start + i * step) * scale for i in range(n)]
    return [float(p) * scale for p in spec.split(",")]


def cmd_simulate(args) -> int:
    scenario, config_text = _load_config(args)
    stream = simulate_stream(scenario, ion_present=args.ion)
    manifest = _manifest_hash("simulate", args, config_text)
    _write_output(_output_path(args, "events.csv"), manifest, stream.to_csv())
    print(f"total events: {len(stream)}")
    for name, n in stream.counts_by_source().items():
        print(f"  {name}: {n}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    scenario, config_text = _load_config(args)
    window = args.window_ms * 1e-3
    ion = simulate_stream(scenario, True)
    empty = simulate_stream(scenario, False)
    result = detection.threshold_fidelity(
        gate_and_count(ion, window), gate_and_count(empty, window), window
    )
    k_exact, f_exact = detection.analytic_threshold_fidelity(
        scenario.budget.ion_total(), scenario.budget.background_total(), window
    )
    manifest = _manifest_hash("threshold", args, config_text)
    body = "count,freq_ion,freq_empty\n" + "".join(
        f"{k},{n_ion},{n_empty}\n"
        for k, (n_ion, n_empty) in enumerate(zip(result.histogram_ion, result.histogram_empty))
    )
    _write_output(_output_path(args, "threshold_histogram.csv"), manifest, body)
    print(f"window: {args.window_ms} ms")
    print(f"optimal threshold: {result.threshold} counts, fidelity {result.fidelity:.4f}")
    print(f"exact-Poisson optimum: threshold {k_exact}, fidelity {f_exact:.4f}")
    if args.check:
        if result.fidelity < 0.996:
            raise CheckFailure(f"threshold fidelity {result.fidelity:.4f} < 0.996")
        if abs(result.fidelity - f_exact) > 0.003:
            raise CheckFailure(
                f"Monte Carlo fidelity {result.fidelity:.4f} deviates from exact {f_exact:.4f} by > 0.003"
            )
        print("check: PASS")
    return EXIT_OK


# fidelity flags that --projection rejects, with the value each takes when omitted
_CURVE_DEFAULTS = {"targets": "0.99", "sub_bin_us": 100.0, "max_time_ms": 50.0}
_CURVE_TRIALS = 10000  # the curve's --trials when omitted; the projection's is its preset's


def cmd_fidelity(args) -> int:
    if args.trials is None:  # so an omitted --trials hashes like its value
        args.trials = detection.PROJECTED_TRIALS if args.projection else _CURVE_TRIALS
    if args.projection:
        given = [name for name in ("config", *_CURVE_DEFAULTS) if getattr(args, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(f"--projection runs a fixed preset and does not take {flags}")
        seed = detection.PROJECTED_SEED if args.seed is None else args.seed
        (fid, mean_time), curve = detection.projected_scenario_fidelity(
            trials=args.trials, seed=seed, full_curve=True
        )
        manifest = _manifest_hash("fidelity", args, "")
        body = _fidelity_csv(curve)
        _write_output(_output_path(args, "fidelity_projection.csv"), manifest, body)
        print(f"projection: fidelity {fid:.4f} at mean time {mean_time * 1e6:.1f} us")
        if args.check:
            if not 0.9967 <= fid <= 0.9987:
                raise CheckFailure(f"projection fidelity {fid:.4f} outside 0.9977 +/- 0.001")
            if not 56.25e-6 <= mean_time <= 93.75e-6:
                raise CheckFailure(
                    f"projection mean time {mean_time * 1e6:.1f} us outside 75 us +/- 25%"
                )
            print("check: PASS")
        return EXIT_OK

    for name, default in _CURVE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)  # so an omitted flag hashes like its default
    scenario, config_text = _load_config(args)
    targets = [float(t) for t in args.targets.split(",")]
    curve = detection.fidelity_curve(
        scenario, targets, args.trials, sub_bin=args.sub_bin_us * 1e-6, max_time=args.max_time_ms * 1e-3
    )
    manifest = _manifest_hash("fidelity", args, config_text)
    _write_output(_output_path(args, "fidelity_curve.csv"), manifest, _fidelity_csv(curve))
    for target, fid, mean_time in curve.bayes:
        print(f"target {target}: fidelity {fid:.4f}, mean time {mean_time * 1e3:.2f} ms")
    if args.check:
        row = min(curve.bayes, key=lambda p: abs(p[0] - 0.99))
        target, fid, mean_time = row
        bound = sum(detection.wald_bound(curve.ion_rate, curve.empty_rate, 1 - target)) / 2
        if abs(fid - 0.99) > 0.005:
            raise CheckFailure(f"fidelity {fid:.4f} outside 0.99 +/- 0.005")
        if not bound <= mean_time <= 7.7e-3:
            raise CheckFailure(
                f"mean time {mean_time * 1e3:.2f} ms outside [{bound * 1e3:.2f}, 7.7] ms"
            )
        print("check: PASS")
    return EXIT_OK


def _fidelity_csv(curve: detection.FidelityCurve) -> str:
    lines = ["target,fidelity,mean_time_ms,wald_bound_ms"]
    for target, fid, mean_time in curve.bayes:
        try:
            b_ion, b_empty = detection.wald_bound(curve.ion_rate, curve.empty_rate, 1 - target)
            bound_ms = f"{(b_ion + b_empty) / 2 * 1e3:.6g}"
        except ValueError:
            bound_ms = ""
        lines.append(f"{target},{fid:.6g},{mean_time * 1e3:.6g},{bound_ms}")
    lines.append("")
    lines.append("window_ms,threshold_fidelity")
    for window, fid in curve.threshold:
        lines.append(f"{window * 1e3:.6g},{fid:.6g}")
    return "\n".join(lines) + "\n"


def cmd_collection(args) -> int:
    scenario, config_text = _load_config(args)
    offsets = _parse_range(args.offsets_um, 1e-6)
    ces = efficiency_vs_offset(scenario.geometry, offsets)
    with warnings.catch_warnings():  # the sweep above has named the same shadowed offsets
        warnings.simplefilter("ignore", ShadowingWarning)
        ces_bare = efficiency_vs_offset(scenario.geometry, offsets, include_arc=False)
    manifest = _manifest_hash("collection", args, config_text)
    body = "offset_um,efficiency,efficiency_no_arc\n" + "".join(
        f"{off * 1e6:.6g},{ce:.6g},{ce0:.6g}\n" for off, ce, ce0 in zip(offsets, ces, ces_bare)
    )
    _write_output(_output_path(args, "collection_efficiency.csv"), manifest, body)
    for off, ce in zip(offsets, ces):
        print(f"offset {off * 1e6:6.1f} um: efficiency {ce * 100:.4f}%")
    if args.check:
        if np.any(np.diff(ces[np.argsort(offsets)]) > 0):
            raise CheckFailure("efficiency is not monotone decreasing with offset")
        print("check: PASS")
    return EXIT_OK


def cmd_arc(args) -> int:
    scenario, config_text = _load_config(args)
    stack = bare_silicon_stack() if args.bare else scenario.geometry.stack
    angles = np.array(_parse_range(args.angles_deg, math.pi / 180.0))
    rows = list(zip(angles, *(stack_reflectance(stack, angles, pol) for pol in ("s", "p", "unpolarized"))))
    manifest = _manifest_hash("arc", args, config_text)
    body = "angle_deg,R_s,R_p,R_unpolarized\n" + "".join(
        f"{math.degrees(a):.6g},{rs:.6g},{rp:.6g},{ru:.6g}\n" for a, rs, rp, ru in rows
    )
    _write_output(_output_path(args, "reflectance.csv"), manifest, body)
    for a, _, _, ru in rows:
        print(f"angle {math.degrees(a):5.1f} deg: R = {ru:.4f}")
    if args.check:
        r_normal = stack_reflectance(scenario.geometry.stack, 0.0, "unpolarized")
        if abs(r_normal - 0.10) > 0.03:
            raise CheckFailure(f"coated normal-incidence R {r_normal:.3f} outside 0.10 +/- 0.03")
        r_bare = stack_reflectance(bare_silicon_stack(), 0.0, "unpolarized")
        if abs(r_bare - 0.57) > 0.04:
            raise CheckFailure(f"bare-substrate normal R {r_bare:.3f} outside 0.57 +/- 0.04")
        print("check: PASS")
    return EXIT_OK


def cmd_spot(args) -> int:
    if args.demo:
        scan = synthetic.make_spot_scan(seed=args.seed if args.seed is not None else 0)
        config_text = ""
    else:
        if not args.scan_csv:
            raise ConfigError("spot needs a scan CSV path or --demo")
        config_text = Path(args.scan_csv).read_text()
        scan = estimation.SpotScan.from_csv(config_text)
    area, amap = estimation.effective_area(scan)
    manifest = _manifest_hash("spot", args, config_text)
    _write_output(_output_path(args, "active_area_map.csv"), manifest, amap.to_csv())
    print(f"effective active area: {area * 1e12:.2f} um^2")
    return EXIT_OK


def cmd_budget(args) -> int:
    if args.demo:
        measurements = synthetic.make_toggle_measurements(table_budget())
        config_text = synthetic.toggle_measurements_to_csv(measurements)
    else:
        if not args.toggles_csv:
            raise ConfigError("budget needs a toggle CSV path or --demo")
        config_text = Path(args.toggles_csv).read_text()
        measurements = synthetic.toggle_measurements_from_csv(config_text)
    budget, sigma = estimation.decompose_budget(measurements)
    manifest = _manifest_hash("budget", args, config_text)
    lines = ["source,rate_kcps,sigma_kcps"]
    for name in estimation.BUDGET_SOURCES:
        lines.append(f"{name},{getattr(budget, name) / 1e3:.6g},{sigma[name] / 1e3:.6g}")
    _write_output(_output_path(args, "budget.csv"), manifest, "\n".join(lines) + "\n")
    for name in estimation.BUDGET_SOURCES:
        print(f"{name:16s} {getattr(budget, name) / 1e3:7.3f} +/- {sigma[name] / 1e3:.3f} kcps")
    print(f"ion total: {budget.ion_total() / 1e3:.2f} kcps, background: {budget.background_total() / 1e3:.2f} kcps")
    return EXIT_OK


def cmd_qefit(args) -> int:
    scenario, config_text = _load_config(args)
    if args.demo:
        offsets = np.arange(0.0, 81e-6, 5e-6)
        with warnings.catch_warnings():  # the fit below names the same shadowed offsets
            warnings.simplefilter("ignore", ShadowingWarning)
            offs, rates = synthetic.make_qe_dataset(
                scenario, offsets, seed=args.seed if args.seed is not None else 0
            )
        data_text = synthetic.qe_dataset_to_csv(offs, rates)
    else:
        if not args.data_csv:
            raise ConfigError("qefit needs a data CSV path or --demo")
        data_text = Path(args.data_csv).read_text()
        offs, rates = synthetic.qe_dataset_from_csv(data_text)
    fit_input = estimation.QEFitInput(
        positions=offs,
        measured_fluorescence=rates,
        geometry=scenario.geometry,
        emitter=scenario.emitter,
    )
    qe, err = estimation.fit_quantum_efficiency(fit_input)
    manifest = _manifest_hash("qefit", args, config_text + data_text)
    body = f"qe,std_error\n{qe:.6g},{err:.6g}\n"
    _write_output(_output_path(args, "qe_fit.csv"), manifest, body)
    print(f"quantum efficiency: {qe * 100:.1f} +/- {err * 100:.1f} %")
    if args.check:
        if abs(qe - 0.24) > 0.03:
            raise CheckFailure(f"fitted QE {qe:.3f} outside 0.24 +/- 0.03")
        print("check: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spadsim",
        description="Desk-scale trapped-ion/SPAD detection experiments",
        epilog=PRESETS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True, seed=True, check=True):
        """--out and --output-dir, and each of --config, --seed and --check the subcommand reads."""
        if config:
            p.add_argument("--config", help="scenario config file (flat key = value)")
        if seed:
            p.add_argument("--seed", type=int, help="override trial.seed")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--output-dir", default=os.environ.get("SPADSIM_OUTPUT_DIR", "."),
                       help="directory for default-named outputs (default: $SPADSIM_OUTPUT_DIR, else .)")
        if check:
            p.add_argument("--check", action="store_true", help="verify acceptance thresholds; exit 1 on failure")

    p = sub.add_parser("simulate", help="generate a timestamped event stream")
    common(p, check=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ion", dest="ion", action="store_true", default=True)
    group.add_argument("--no-ion", dest="ion", action="store_false")
    p.add_argument("--duration", type=float, help="override trial duration in seconds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold", help="fixed-window count histograms and optimal threshold")
    common(p)
    p.add_argument("--window-ms", type=float, default=25.0)
    p.add_argument("--duration", type=float, help="override trial duration in seconds")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("fidelity", help="adaptive-detection fidelity vs mean gate time")
    common(p)
    p.add_argument("--targets", help="comma-separated stopping targets")
    p.add_argument("--trials", type=int, help=f"trials per hypothesis and target (default {_CURVE_TRIALS}, "
                   f"{detection.PROJECTED_TRIALS} with --projection)")
    p.add_argument("--sub-bin-us", type=float)
    p.add_argument("--max-time-ms", type=float)
    p.add_argument("--projection", action="store_true", help="run the improved-device projection preset")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("collection", help="collection efficiency vs lateral ion offset")
    common(p, seed=False)
    p.add_argument("--offsets-um", default="0:80:5", help="offsets as start:stop:step or comma list")
    p.set_defaults(func=cmd_collection)

    p = sub.add_parser("arc", help="thin-film reflectance vs angle")
    common(p, seed=False)
    p.add_argument("--angles-deg", default="0:60:5")
    p.add_argument("--bare", action="store_true", help="use the uncoated substrate")
    p.set_defaults(func=cmd_arc)

    p = sub.add_parser("spot", help="effective active area from a spot-test scan")
    common(p, config=False, check=False)
    p.add_argument("scan_csv", nargs="?", help="spot scan CSV")
    p.add_argument("--demo", action="store_true", help="use a synthetic quarter-disc scan")
    p.set_defaults(func=cmd_spot)

    p = sub.add_parser("budget", help="count-budget decomposition from toggle measurements")
    common(p, config=False, seed=False, check=False)
    p.add_argument("toggles_csv", nargs="?", help="toggle measurement CSV")
    p.add_argument("--demo", action="store_true", help="use the bundled reference toggle table")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("qefit", help="single-parameter quantum-efficiency fit")
    common(p)
    p.add_argument("data_csv", nargs="?", help="fluorescence-vs-offset CSV")
    p.add_argument("--demo", action="store_true", help="use a synthetic fluorescence dataset")
    p.set_defaults(func=cmd_qefit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check: FAIL: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
