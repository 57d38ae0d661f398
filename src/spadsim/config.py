"""Flat key-value scenario config files: each sets some keys of the reference device."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .model import BUDGET_SOURCES, SOURCE_LABELS, Scenario
from .optics import ActiveAreaMap, quarter_disc_map


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


def _number(unit: float):
    """The parser of a finite real number in units of `unit` SI units; the object it sets checks its range."""
    return lambda text: _finite(float(text) * unit)


# One row per config key: (key, attribute path, parse). The path starts with
# the object the key sets: the scenario, or the active area (a CSV file, or the
# arguments of quarter_disc_map).
_KEYS = (
    *(
        (f"budget.{label}_kcps", f"scenario.budget.{name}", _number(1e3))
        for label, name in zip(SOURCE_LABELS, BUDGET_SOURCES)
    ),
    ("emitter.gamma_over_2pi_mhz", "scenario.emitter.gamma_over_2pi_hz", _number(1e6)),
    ("emitter.saturation_fraction", "scenario.emitter.saturation_fraction", _number(1.0)),
    ("trial.duration_s", "scenario.trial_duration", _number(1.0)),
    ("trial.seed", "scenario.rng_seed", int),
    ("geometry.ion_height_um", "scenario.geometry.ion_height_above_surface", _number(1e-6)),
    ("geometry.recess_um", "scenario.geometry.detector_recess_below_surface", _number(1e-6)),
    ("geometry.emission", "scenario.geometry.emission_pattern", str),
    ("stack.wavelength_nm", "scenario.geometry.stack.wavelength", _number(1e-9)),
    ("stack.ambient_index", "scenario.geometry.stack.ambient_index", _complex),
    ("stack.substrate_index", "scenario.geometry.stack.substrate_index", _complex),
    ("stack.layers", "scenario.geometry.stack.layers", _parse_layers),
    ("deadtime.dead_time_us", "scenario.dead_time", _number(1e-6)),
    ("geometry.active_area_csv", "area.csv", str),
    ("geometry.active_outer_radius_um", "area.outer_radius", _number(1e-6)),
    ("geometry.guard_width_um", "area.guard_width", _number(1e-6)),
    ("geometry.cell_size_um", "area.cell_size", _number(1e-6)),
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
    changes = {"scenario": {}, "area": {}}  # each attribute path: (value, the keys that set it)
    for key, path, parse in _KEYS:
        if key in values:
            try:
                value = parse(values[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {values[key]!r}: {exc}") from exc
            obj, _, attr = path.partition(".")
            changes[obj][attr] = value, (key,)
    area = changes["area"]
    if "csv" in area:
        csv, keys = area["csv"]
        path = Path(csv) if base_dir is None else base_dir / csv
        try:
            area_map = ActiveAreaMap.from_csv(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"key 'geometry.active_area_csv': cannot read {path}: {exc}") from exc
        changes["scenario"]["geometry.active_area"] = area_map, keys
    elif area:
        changes["scenario"]["geometry.active_area"] = _built(quarter_disc_map, area), _keys(area)
    return _replaced(Scenario(), changes["scenario"])


def _keys(changes: dict) -> list[str]:
    return [key for _, keys in changes.values() for key in keys]


def _built(build, changes: dict, *args):
    """build(*args, **fields), each field set to its value in changes, which maps it to (value,
    the keys that set it). Every object a config sets is made here, so that each range is
    checked once, by that object, and its ValueError becomes a ConfigError naming the keys."""
    try:
        return build(*args, **{name: value for name, (value, _) in changes.items()})
    except ValueError as exc:
        keys = _keys(changes)
        raise ConfigError(f"{'key' if len(keys) == 1 else 'keys'} {', '.join(map(repr, keys))}: {exc}") from exc


def _replaced(obj, changes: dict):
    """Copy of obj with each dotted attribute path in changes set, as in _built; every object is
    rebuilt once, and its error names only the keys that set its own fields."""
    fields, nested = {}, defaultdict(dict)
    for path, change in changes.items():
        head, dot, rest = path.partition(".")
        if dot:
            nested[head][rest] = change
        else:
            fields[head] = change
    for head, sub in nested.items():
        fields[head] = _replaced(getattr(obj, head), sub), ()
    return _built(replace, fields, obj)


def load_scenario(path) -> tuple[Scenario, str]:
    """The scenario a config file describes, and the file's text."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenario_from_text(text, base_dir=path.parent), text
