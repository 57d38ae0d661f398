"""Writers for the inputs that spadsim reads and never writes, shared by the tests.

A spot scan, a toggle table and a fluorescence-vs-offset dataset are
measurements: `spot`, `budget` and `qefit` read them from a CSV path, and
their --demo runs make the data in memory. These writers give each reader a
text in its own format, with the precision the round-trip tests assume. A
scenario config is a diff applied to the reference device; its writer here
sets only the keys the tests vary.
"""

from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS


def scenario_config(scenario) -> str:
    """Config text setting the scenario's budget, trial.* keys and dead time; other keys keep the reference's."""
    lines = [f"budget.{label}_kcps = {getattr(scenario.budget, name) / 1e3!r}"
             for label, name in zip(SOURCE_LABELS, BUDGET_SOURCES)]
    lines += [f"trial.duration_s = {scenario.trial_duration!r}", f"trial.seed = {scenario.rng_seed}",
              f"deadtime.dead_time_us = {scenario.dead_time / 1e-6!r}"]
    return "\n".join(lines) + "\n"


def spot_scan_csv(scan) -> str:
    lines = [f"# step_nm={scan.step * 1e9:.6g}, dwell_ms={scan.dwell * 1e3:.6g}, dark_kcps={scan.dark_rate / 1e3:.6g}"]
    lines += [",".join(f"{v:.6g}" for v in row) for row in scan.counts]
    return "\n".join(lines) + "\n"


def toggle_csv(measurements) -> str:
    lines = [",".join(SOURCE_LABELS) + ",rate_kcps,dwell_s"]
    for m in measurements:
        flags = ",".join("1" if f else "0" for f in m.active_sources)
        lines.append(f"{flags},{m.measured_rate / 1e3:.9g},{m.dwell:.9g}")
    return "\n".join(lines) + "\n"


def qe_dataset_csv(offsets, rates) -> str:
    lines = ["offset_um,rate_kcps"] + [f"{off * 1e6:.9g},{r / 1e3:.9g}" for off, r in zip(offsets, rates)]
    return "\n".join(lines) + "\n"
