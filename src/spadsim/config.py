"""Flat key-value scenario config files, round-trippable."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

from .model import BUDGET_SOURCES, SOURCE_LABELS, Scenario
from .optics import ActiveAreaMap, quarter_disc_map


class ConfigError(ValueError):
    """Malformed scenario config; message carries line/key diagnostics."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _parse_layers(text: str):
    if not text:
        return ()
    layers = []
    for part in text.split(";"):
        fields = part.split()
        if len(fields) != 2:
            raise ValueError(f"each ';'-separated entry needs 'thickness_nm index', got {part.strip()!r}")
        layers.append((float(fields[0]) * 1e-9, complex(fields[1])))
    return tuple(layers)


def _fmt_layers(layers) -> str:
    return " ; ".join(f"{_fmt(d / 1e-9)} {_fmt_complex(n)}" for d, n in layers)


def _number(unit: float):
    """(parse, format) of a real number written in units of `unit` SI units."""
    return (lambda text: float(text) * unit), (lambda x: _fmt(x / unit))


_MICRONS = _number(1e-6)
_INTEGER = (int, str)
_TEXT = (str, str)
_COMPLEX = ((lambda text: complex(text.replace(" ", ""))), _fmt_complex)
_LAYERS = (_parse_layers, _fmt_layers)

# One row per config key: (key, attribute path, (parse, format)). The path
# starts with the object the key sets: the scenario, or the active area (a CSV
# file, or the arguments of quarter_disc_map). scenario_to_text writes the
# scenario keys in this order.
_KEYS = (
    *(
        (f"budget.{label}_kcps", f"scenario.budget.{name}", _number(1e3))
        for label, name in zip(SOURCE_LABELS, BUDGET_SOURCES)
    ),
    ("emitter.gamma_over_2pi_mhz", "scenario.emitter.gamma_over_2pi_hz", _number(1e6)),
    ("emitter.saturation_fraction", "scenario.emitter.saturation_fraction", _number(1.0)),
    ("trial.duration_s", "scenario.trial_duration", _number(1.0)),
    ("trial.seed", "scenario.rng_seed", _INTEGER),
    ("geometry.ion_height_um", "scenario.geometry.ion_height_above_surface", _MICRONS),
    ("geometry.recess_um", "scenario.geometry.detector_recess_below_surface", _MICRONS),
    ("geometry.lateral_offset_um", "scenario.geometry.ion_lateral_offset", _MICRONS),
    ("geometry.emission", "scenario.geometry.emission_pattern", _TEXT),
    ("stack.wavelength_nm", "scenario.geometry.stack.wavelength", _number(1e-9)),
    ("stack.ambient_index", "scenario.geometry.stack.ambient_index", _COMPLEX),
    ("stack.substrate_index", "scenario.geometry.stack.substrate_index", _COMPLEX),
    ("stack.layers", "scenario.geometry.stack.layers", _LAYERS),
    ("deadtime.dead_time_us", "scenario.dead_time", _MICRONS),
    ("geometry.active_area_csv", "area.csv", _TEXT),
    ("geometry.active_outer_radius_um", "area.outer_radius", _MICRONS),
    ("geometry.guard_width_um", "area.guard_width", _MICRONS),
    ("geometry.cell_size_um", "area.cell_size", _MICRONS),
)

KNOWN_KEYS = {key for key, _, _ in _KEYS}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines into a dict, rejecting unknown or duplicate keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def scenario_from_text(text: str, base_dir: Path | None = None) -> Scenario:
    values = parse_config_text(text)
    try:
        return _build_scenario(values, base_dir)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_scenario(values, base_dir):
    changes = {"scenario": {}, "area": {}}
    for key, path, (parse, _) in _KEYS:
        if key in values:
            try:
                value = parse(values[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {values[key]!r}: {exc}") from exc
            obj, _, attr = path.partition(".")
            changes[obj][attr] = value
    area = changes["area"]
    if "csv" in area:
        path = Path(area["csv"]) if base_dir is None else base_dir / area["csv"]
        try:
            area_map = ActiveAreaMap.load_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"key 'geometry.active_area_csv': cannot read {path}: {exc}") from exc
        changes["scenario"]["geometry.active_area"] = area_map
    elif area:
        changes["scenario"]["geometry.active_area"] = quarter_disc_map(**area)
    return _replaced(Scenario(), changes["scenario"])


def _replaced(obj, changes: dict):
    """Copy of obj with each dotted attribute path in changes set; every object is rebuilt once."""
    fields, nested = {}, defaultdict(dict)
    for path, value in changes.items():
        head, dot, rest = path.partition(".")
        if dot:
            nested[head][rest] = value
        else:
            fields[head] = value
    for head, sub in nested.items():
        fields[head] = _replaced(getattr(obj, head), sub)
    return replace(obj, **fields)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_text(text, base_dir=path.parent)


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize to the flat config format; parse(serialize(s)) reproduces s.

    The active-area keys are not written, so the parsed scenario has the
    default active area; reference a map with geometry.active_area_csv by hand.
    """
    return "".join(
        f"{key} = {fmt(attrgetter(path.removeprefix('scenario.'))(scenario))}\n"
        for key, path, (_, fmt) in _KEYS
        if path.startswith("scenario.")
    )
