"""Flat key-value scenario config files: each sets some keys of the reference device."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .model import BUDGET_SOURCES, MAX_LINEWIDTH, MAX_TIME, SOURCE_LABELS, Scenario
from .optics import MAX_HEIGHT, ActiveAreaMap, quarter_disc_map


class ConfigError(ValueError):
    """Malformed scenario config; message carries line/key diagnostics."""


def _finite(value):
    """value, a real or complex number, if each of its parts is finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{value} is not finite")
    return value


def _complex(text: str) -> complex:
    return _finite(complex(text.replace(" ", "")))


def _parse_layers(text: str):
    if not text:
        return ()
    layers = []
    for part in text.split(";"):
        fields = part.split()
        if len(fields) != 2:
            raise ValueError(f"each ';'-separated entry needs 'thickness_nm index', got {part.strip()!r}")
        layers.append((_finite(float(fields[0]) * 1e-9), _complex(fields[1])))
    return tuple(layers)


def _number(unit: float, limit: float = math.inf):
    """The parser of a finite real number written in units of `unit` SI units, below `limit`
    SI units in magnitude: the bound of the field it sets, checked here so that its error
    names the key."""

    def parse(text: str) -> float:
        value = _finite(float(text) * unit)
        if not abs(value) < limit:
            raise ValueError(f"its magnitude must be below {limit / unit:g}")
        return value

    return parse


def _seed(text: str) -> int:
    """A random seed: an integer >= 0, as numpy's generators take."""
    if (seed := int(text)) < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    return seed


_HEIGHT_MICRONS = _number(1e-6, MAX_HEIGHT)

# One row per config key: (key, attribute path, parse). The path starts with
# the object the key sets: the scenario, or the active area (a CSV file, or the
# arguments of quarter_disc_map).
_KEYS = (
    *(
        (f"budget.{label}_kcps", f"scenario.budget.{name}", _number(1e3))
        for label, name in zip(SOURCE_LABELS, BUDGET_SOURCES)
    ),
    ("emitter.gamma_over_2pi_mhz", "scenario.emitter.gamma_over_2pi_hz", _number(1e6, MAX_LINEWIDTH)),
    ("emitter.saturation_fraction", "scenario.emitter.saturation_fraction", _number(1.0)),
    ("trial.duration_s", "scenario.trial_duration", _number(1.0, MAX_TIME)),
    ("trial.seed", "scenario.rng_seed", _seed),
    ("geometry.ion_height_um", "scenario.geometry.ion_height_above_surface", _HEIGHT_MICRONS),
    ("geometry.recess_um", "scenario.geometry.detector_recess_below_surface", _HEIGHT_MICRONS),
    ("geometry.emission", "scenario.geometry.emission_pattern", str),
    ("stack.wavelength_nm", "scenario.geometry.stack.wavelength", _number(1e-9)),
    ("stack.ambient_index", "scenario.geometry.stack.ambient_index", _complex),
    ("stack.substrate_index", "scenario.geometry.stack.substrate_index", _complex),
    ("stack.layers", "scenario.geometry.stack.layers", _parse_layers),
    ("deadtime.dead_time_us", "scenario.dead_time", _number(1e-6, MAX_TIME)),
    ("geometry.active_area_csv", "area.csv", str),
    ("geometry.active_outer_radius_um", "area.outer_radius", _HEIGHT_MICRONS),
    ("geometry.guard_width_um", "area.guard_width", _HEIGHT_MICRONS),
    ("geometry.cell_size_um", "area.cell_size", _HEIGHT_MICRONS),
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
    for key, path, parse in _KEYS:
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
            area_map = ActiveAreaMap.from_csv(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"key 'geometry.active_area_csv': cannot read {path}: {exc}") from exc
        changes["scenario"]["geometry.active_area"] = area_map
    elif area:
        try:
            changes["scenario"]["geometry.active_area"] = quarter_disc_map(**area)
        except ValueError as exc:
            keys = [repr(key) for key, path, _ in _KEYS if path.removeprefix("area.") in area]
            raise ConfigError(f"{'key' if len(keys) == 1 else 'keys'} {', '.join(keys)}: {exc}") from exc
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


def load_scenario(path) -> tuple[Scenario, str]:
    """The scenario a config file describes, and the file's text."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_text(text, base_dir=path.parent), text
