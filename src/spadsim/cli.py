"""Command-line front end: one subcommand per desk-scale experiment."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import detection, estimation, synthetic
from .config import ConfigError, load_scenario
from .model import Scenario, table_budget
from .optics import GrazingAngleError, _reflectance_rows, efficiency_vs_offset, lateral_offsets, stack_reflectance
from .simulator import gate_and_count, simulate_stream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
_MAX_POINTS = 1 << 20  # the most points a start:stop:step flag may ask for, checked before any is made

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


@dataclass(frozen=True)
class Output:
    """What a subcommand produced; main hashes, writes, prints and checks it.

    The manifest hashes the arguments and hashed, the text of each input the
    run reads: the scenario's config text (none without --config, which
    applies no change to the reference device) and the CSV at a path, joined.
    Data that a preset makes from its arguments (--demo, --projection) are not
    inputs, since the arguments already fix them. checks returns the --check
    criteria as (met, failure message) pairs; main calls it only under --check.
    """

    name: str  # the file written under --output-dir when --out is not given
    hashed: str
    body: str
    summary: Sequence[str]
    checks: Callable[[], Sequence[tuple[bool, str]]] = lambda: ()


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
    scenario, text = load_scenario(args.config) if args.config else (Scenario(), "")
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    if getattr(args, "duration", None) is not None:
        scenario = _flagged("--duration", lambda: replace(scenario, trial_duration=args.duration))
    return scenario, text


def _float(flag: str, token: str) -> float:
    """One token of a list flag as a float; ValueError naming the flag and the token if it is none."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not a number") from None


def _flagged(flag: str, fn, *args):
    """fn(*args), with the ValueError it raises, if any, prefixed by flag."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _geometry_keyed(geometry, fn, *args):
    """fn(*args), a collection sweep of geometry, with a GrazingAngleError named by the
    geometry's config keys: the offsets are bounded, so a line of sight grazes the
    detector plane only at a vertical distance far below the lateral ones."""
    try:
        return fn(*args)
    except GrazingAngleError as exc:
        raise ConfigError(
            f"keys 'geometry.ion_height_um', 'geometry.recess_um': a vertical distance of "
            f"{geometry.vertical_distance:g} m is too small for the lateral distances to the active area: {exc}"
        ) from None


def _parse_range(flag: str, spec: str, scale: float = 1.0) -> list[float]:
    """'start:stop:step' (inclusive endpoints) or comma-separated values, all finite; errors name the flag."""
    is_range = ":" in spec
    parts = spec.split(":" if is_range else ",")
    if is_range and len(parts) != 3:
        raise ValueError(f"{flag}: range must be start:stop:step, got {spec!r}")
    values = [_float(flag, p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag}: range {spec!r} holds a value that is not finite")
    if not is_range:
        return [v * scale for v in values]
    start, stop, step = values
    if step <= 0:
        raise ValueError(f"{flag}: range step must be > 0")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_POINTS:  # written so that inf fails it
        raise ValueError(f"{flag}: range {spec!r} has {steps + 1:.3g} points, more than the limit of {_MAX_POINTS}")
    n = int(math.floor(steps)) + 1
    if n < 1:
        raise ValueError(f"{flag}: range {spec!r} has no points")
    return [(start + i * step) * scale for i in range(n)]


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def cmd_simulate(args) -> Output:
    scenario, config_text = _load_config(args)
    stream = simulate_stream(scenario, ion_present=args.ion)
    summary = [f"total events: {len(stream)}"]
    summary += [f"  {name}: {n}" for name, n in stream.counts_by_source().items()]
    return Output("events.csv", config_text, stream.to_csv(), summary)


def cmd_threshold(args) -> Output:
    scenario, config_text = _load_config(args)
    window = args.window_ms * 1e-3
    # the exact optimum draws nothing: taken first, a window past its table's limit is refused before any draw
    k_exact, f_exact = _flagged("--window-ms", detection.analytic_threshold_fidelity,
                                scenario.budget.ion_total(), scenario.budget.background_total(), window)
    streams = simulate_stream(scenario, True), simulate_stream(scenario, False)
    result = detection.threshold_fidelity(*(_flagged("--window-ms", gate_and_count, s, window) for s in streams))
    body = "count,freq_ion,freq_empty\n" + "".join(
        f"{k},{n_ion},{n_empty}\n"
        for k, (n_ion, n_empty) in enumerate(zip(result.histogram_ion, result.histogram_empty))
    )
    summary = [
        f"window: {args.window_ms} ms",
        f"optimal threshold: {result.threshold} counts, fidelity {result.fidelity:.4f}",
        f"exact-Poisson optimum: threshold {k_exact}, fidelity {f_exact:.4f}",
    ]
    return Output("threshold_histogram.csv", config_text, body, summary, checks=lambda: [
        (result.fidelity >= 0.996, f"threshold fidelity {result.fidelity:.4f} < 0.996"),
        (
            abs(result.fidelity - f_exact) <= 0.003,
            f"Monte Carlo fidelity {result.fidelity:.4f} deviates from exact {f_exact:.4f} by > 0.003",
        ),
    ])


# fidelity flags that --projection rejects, with the value each takes when omitted
_CURVE_DEFAULTS = {"targets": "0.99", "sub_bin_us": 100.0, "max_time_ms": 50.0}
_CURVE_TRIALS = 10000  # the curve's --trials when omitted; the projection's is its preset's


def cmd_fidelity(args) -> Output:
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
        summary = [f"projection: fidelity {fid:.4f} at mean time {mean_time * 1e6:.1f} us"]
        return Output("fidelity_projection.csv", "", _fidelity_csv(curve), summary, checks=lambda: [
            (0.9967 <= fid <= 0.9987, f"projection fidelity {fid:.4f} outside 0.9977 +/- 0.001"),
            (
                56.25e-6 <= mean_time <= 93.75e-6,
                f"projection mean time {mean_time * 1e6:.1f} us outside 75 us +/- 25%",
            ),
        ])

    for name, default in _CURVE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)  # so an omitted flag hashes like its default
    scenario, config_text = _load_config(args)
    tokens = args.targets.split(",")
    targets = [_float("--targets", t) for t in tokens]
    for i, target in enumerate(targets):
        if target in targets[:i]:  # a repeated target would run its sweep again for the same row
            raise ValueError(f"--targets: {tokens[i]!r} repeats an earlier target")
    sub_bin, max_time = args.sub_bin_us * 1e-6, args.max_time_ms * 1e-3
    _flagged("--sub-bin-us/--max-time-ms", detection.sweep_bins, sub_bin, max_time)
    _flagged("--max-time-ms", detection.threshold_kmax, scenario.budget.ion_total(), [max_time])
    curve = detection.fidelity_curve(scenario, targets, args.trials, sub_bin=sub_bin, max_time=max_time)
    summary = [
        f"target {target}: fidelity {fid:.4f}, mean time {mean_time * 1e3:.2f} ms"
        for target, fid, mean_time in curve.bayes
    ]

    def checks():
        target, fid, mean_time = min(curve.bayes, key=lambda p: abs(p[0] - 0.99))
        bound = sum(detection.wald_bound(curve.ion_rate, curve.empty_rate, 1 - target)) / 2
        return [
            (abs(fid - 0.99) <= 0.005, f"fidelity {fid:.4f} outside 0.99 +/- 0.005"),
            (
                bound <= mean_time <= 7.7e-3,
                f"mean time {mean_time * 1e3:.2f} ms outside [{bound * 1e3:.2f}, 7.7] ms",
            ),
        ]

    return Output("fidelity_curve.csv", config_text, _fidelity_csv(curve), summary, checks)


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


def cmd_collection(args) -> Output:
    scenario, config_text = _load_config(args)
    offsets = _parse_range("--offsets-um", args.offsets_um, 1e-6)
    _flagged("--offsets-um", lateral_offsets, offsets)
    ces, ces_bare = _geometry_keyed(scenario.geometry, efficiency_vs_offset, scenario.geometry, offsets)
    body = "offset_um,efficiency,efficiency_no_arc\n" + "".join(
        f"{off * 1e6:.6g},{ce:.6g},{ce0:.6g}\n" for off, ce, ce0 in zip(offsets, ces, ces_bare)
    )
    summary = [f"offset {off * 1e6:6.1f} um: efficiency {ce * 100:.4f}%" for off, ce in zip(offsets, ces)]

    def checks():
        bad = [off for off, ce, ce0 in zip(offsets, ces, ces_bare) if not (math.isfinite(ce) and math.isfinite(ce0))]
        return [
            (not bad, f"efficiency is not finite at offsets {', '.join(f'{off * 1e6:.6g}' for off in bad)} um"),
            (not np.any(np.diff(ces[np.argsort(offsets)]) > 0), "efficiency is not monotone decreasing with offset"),
        ]

    return Output("collection_efficiency.csv", config_text, body, summary, checks)


def cmd_arc(args) -> Output:
    scenario, config_text = _load_config(args)
    bare = replace(scenario.geometry.stack, layers=())  # the scenario's substrate, uncoated
    stack = bare if args.bare else scenario.geometry.stack
    angles = np.array(_parse_range("--angles-deg", args.angles_deg, math.pi / 180.0))
    rs, rp = _flagged("--angles-deg", _reflectance_rows, stack, angles)  # one transfer matrix for all three columns
    rows = list(zip(angles, rs, rp, 0.5 * (rs + rp)))  # the mean as stack_reflectance takes it
    body = "angle_deg,R_s,R_p,R_unpolarized\n" + "".join(
        f"{math.degrees(a):.6g},{rs:.6g},{rp:.6g},{ru:.6g}\n" for a, rs, rp, ru in rows
    )
    summary = [f"angle {math.degrees(a):5.1f} deg: R = {ru:.4f}" for a, _, _, ru in rows]

    def checks():
        r_normal = stack_reflectance(scenario.geometry.stack, 0.0)
        r_bare = stack_reflectance(bare, 0.0)
        return [
            (abs(r_normal - 0.10) <= 0.03, f"coated normal-incidence R {r_normal:.3f} outside 0.10 +/- 0.03"),
            (abs(r_bare - 0.57) <= 0.04, f"bare-substrate normal R {r_bare:.3f} outside 0.57 +/- 0.04"),
        ]

    return Output("reflectance.csv", config_text, body, summary, checks)


def _input_text(args, path: str | None, kind: str) -> str | None:
    """The text of the input CSV at path, or None under --demo, which makes its own data.

    A CSV path beside --demo is refused, and so is --seed beside a CSV: it seeds
    only the --demo data.
    """
    if args.demo:
        if path:
            raise ConfigError(f"--demo makes its own data and takes no CSV path, got {path}")
        return None
    if not path:
        raise ConfigError(f"{args.subcommand} needs a {kind} CSV path or --demo")
    if getattr(args, "seed", None) is not None:
        raise ConfigError(f"--seed seeds only the --demo data; {args.subcommand} {path} draws no random numbers")
    return Path(path).read_text()


def cmd_spot(args) -> Output:
    scan_text = _input_text(args, args.scan_csv, "scan")
    if scan_text is None:
        scan = synthetic.make_spot_scan(seed=args.seed if args.seed is not None else 0)
    else:
        scan = estimation.SpotScan.from_csv(scan_text)
    area, amap = estimation.effective_area(scan)
    summary = [f"effective active area: {area * 1e12:.2f} um^2"]
    return Output("active_area_map.csv", scan_text or "", amap.to_csv(), summary)


def cmd_budget(args) -> Output:
    toggles_text = _input_text(args, args.toggles_csv, "toggle")
    if toggles_text is None:
        measurements = synthetic.make_toggle_measurements(table_budget())
    else:
        measurements = synthetic.toggle_measurements_from_csv(toggles_text)
    budget, sigma = estimation.decompose_budget(measurements)
    body = "source,rate_kcps,sigma_kcps\n" + "".join(
        f"{name},{getattr(budget, name) / 1e3:.6g},{sigma[name] / 1e3:.6g}\n" for name in estimation.BUDGET_SOURCES
    )
    summary = [
        f"{name:16s} {getattr(budget, name) / 1e3:7.3f} +/- {sigma[name] / 1e3:.3f} kcps"
        for name in estimation.BUDGET_SOURCES
    ]
    summary.append(
        f"ion total: {budget.ion_total() / 1e3:.2f} kcps, background: {budget.background_total() / 1e3:.2f} kcps"
    )
    return Output("budget.csv", toggles_text or "", body, summary)


def cmd_qefit(args) -> Output:
    scenario, config_text = _load_config(args)
    data_text = _input_text(args, args.data_csv, "data")
    if data_text is None:
        offsets = np.arange(0.0, 81e-6, 5e-6)
    else:
        offsets, rates = synthetic.qe_dataset_from_csv(data_text)
        _flagged(f"data CSV {args.data_csv}", lateral_offsets, offsets)
    expected = _geometry_keyed(scenario.geometry, estimation.expected_incident_rates, scenario, offsets)
    if data_text is None:
        rates = synthetic.make_qe_dataset(scenario, expected)
    qe, err = estimation.fit_quantum_efficiency(expected, rates)
    body = f"qe,std_error\n{qe:.6g},{err:.6g}\n"
    summary = [f"quantum efficiency: {qe * 100:.1f} +/- {err * 100:.1f} %"]
    return Output("qe_fit.csv", config_text + (data_text or ""), body, summary, checks=lambda: [
        (abs(qe - 0.24) <= 0.03, f"fitted QE {qe:.3f} outside 0.24 +/- 0.03"),
    ])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared by every later call.

    Building it is most of an in-process preset's fixed cost, so one process
    builds it once. Callers must not modify it. It holds nothing read from the
    environment: main resolves --output-dir against $SPADSIM_OUTPUT_DIR at
    each call.
    """
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
        p.add_argument("--output-dir",
                       help="directory for default-named outputs (default: $SPADSIM_OUTPUT_DIR, else .)")
        if check:
            p.add_argument("--check", action="store_true", help="verify acceptance thresholds; exit 1 on failure")

    p = sub.add_parser("simulate", help="generate a timestamped event stream")
    common(p, check=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ion", dest="ion", action="store_true", default=True)
    group.add_argument("--no-ion", dest="ion", action="store_false")
    p.add_argument("--duration", type=_finite_float, help="override trial duration in seconds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold", help="fixed-window count histograms and optimal threshold")
    common(p)
    p.add_argument("--window-ms", type=_finite_float, default=25.0)
    p.add_argument("--duration", type=_finite_float, help="override trial duration in seconds")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("fidelity", help="adaptive-detection fidelity vs mean gate time")
    common(p)
    p.add_argument("--targets", help="comma-separated stopping targets")
    p.add_argument("--trials", type=int, help=f"trials per hypothesis and target (default {_CURVE_TRIALS}, "
                   f"{detection.PROJECTED_TRIALS} with --projection)")
    p.add_argument("--sub-bin-us", type=_finite_float)
    p.add_argument("--max-time-ms", type=_finite_float)
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
    args = build_parser().parse_args(argv)
    if args.output_dir is None:  # not falsiness: an explicit --output-dir '' keeps its meaning
        args.output_dir = os.environ.get("SPADSIM_OUTPUT_DIR", ".")
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # numpy's generators take seeds >= 0
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        out = args.func(args)
        _write_output(_output_path(args, out.name), _manifest_hash(args.subcommand, args, out.hashed), out.body)
        for line in out.summary:
            print(line)
        if getattr(args, "check", False):  # simulate, spot and budget have no --check
            for met, message in out.checks():
                if not met:
                    raise CheckFailure(message)
            print("check: PASS")
        return EXIT_OK
    except CheckFailure as exc:
        print(f"check: FAIL: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
