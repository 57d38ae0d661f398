"""Writers for the input tables that spadsim reads and never writes, shared by the round-trip tests.

A spot scan, a toggle table and a fluorescence-vs-offset dataset are
measurements: `spot`, `budget` and `qefit` read them from a CSV path, and
their --demo runs make the data in memory. These writers give each reader a
text in its own format, with the precision the round-trip tests assume.
"""

from spadsim.model import SOURCE_LABELS


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
