"""spadsim benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload adaptive --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ./src, nothing is
installed. One caller runs passes of the workload back to back in this
process (a closed loop) until --seconds have elapsed. Before them, one
untimed pass at the preset's full size (its --check flags on) feeds the
statistical checks and fills lazy set-up. numpy/BLAS threads are capped at
the number of usable CPUs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced passes in turn and reports the per-layer metrics, the
tracing overhead and whether traced outputs are bit-identical to untraced
ones. --workload all runs every workload with --trace 0 and then --trace 1.
Every pass's outputs are checked. Human-readable lines come first; the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A full report (every raw sample, check and machine detail) and, when
tracing, every span go to .bench_work/<workload>/ under the repository root.

Times are scaled to a nominal host speed. On a shared host the same pass
runs up to 1.6x slower for minutes at a time, and a fixed reference kernel
slows by the same factor (see bench/LAYERS.md). Each timed pass or cold start
is bracketed by runs of that kernel, and its seconds are multiplied by
REF_NOMINAL_S over the mean of the two reference times. The raw seconds are
printed and kept in the report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (after the thread caps)

SETUP_STARTS = 3  # one cold start spreads about 20%; report the median of several
REF_NOMINAL_S = 0.040  # reference-kernel seconds that all times are scaled to (its typical time, LAYERS.md)
EXACT_SUFFIXES = (".calls", ".events_in", ".events_out", ".samples", ".bytes")


def host_ref_s() -> float:
    """Seconds for a fixed mix like the workloads': bytecode, small-array numpy,
    random draws, sorting and binning 100k values, and CSV-style string work."""
    gc.collect()
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i % 7
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(1500):
        x = np.sqrt(x * x + 0.5) - 0.5
    rng = np.random.default_rng(0)
    for _ in range(4):
        np.histogram(np.sort(rng.uniform(0.0, 1.0, 100_000)), bins=500)
    "".join([f"{i},{i & 7}\n" for i in range(30_000)]).splitlines()
    return time.perf_counter() - t0


class HostClock:
    """Times calls and scales each to the nominal host speed by the reference kernel around it."""

    def __init__(self):
        self.last = host_ref_s()
        self.refs = [self.last]

    def time(self, fn):
        """Returns (fn's result, raw seconds, scale); scaled seconds are raw * scale."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        ref = host_ref_s()
        self.refs.append(ref)
        scale = REF_NOMINAL_S / ((self.last + ref) / 2)
        self.last = ref
        return out, raw, scale


def machine_info() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def scipy_signal_import_s(importtime: str) -> float:
    """Seconds a cold start spent importing scipy.signal, from `python -X importtime` output.

    Sums the cumulative time of the outermost scipy.signal modules, those that
    no other scipy.signal module imported; 0 if the start imported none.
    """
    total, inside = 0.0, []  # inside[d]: the open entry at depth d lies within scipy.signal
    for line in reversed(importtime.splitlines()):  # a parent's line follows its children's
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        module = fields[2].strip()
        del inside[depth:]
        above = inside[-1] if inside else False
        inside.extend([above] * (depth - len(inside)))
        own = module == "scipy.signal" or module.startswith("scipy.signal.")
        if own and not above:
            total += int(fields[1]) * 1e-6
        inside.append(own or above)
    return total


def cold_starts(wl, clock: HostClock, n: int, importtime: bool = False) -> list[dict]:
    """Time n fresh interpreters that import the CLI and parse the workload's inputs.

    With importtime, the interpreters run under `-X importtime` and each record
    also holds the seconds spent importing scipy.signal; such starts are for
    attribution only, not for `setup_s`.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(ROOT / "bench" / "setup_probe.py"), str(wl.config), json.dumps(wl.cli_argvs())]
    out = []
    for _ in range(n):
        proc, raw, scale = clock.time(
            lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        )
        inside = json.loads(proc.stdout.splitlines()[-1])
        rec = {"raw_s": raw, "scale": scale, "import_s": inside["import_s"] * scale,
               "inputs_s": inside["inputs_s"] * scale, "scipy_signal_loaded": inside["scipy_signal_loaded"]}
        if importtime:
            rec["scipy_signal_s"] = scipy_signal_import_s(proc.stderr) * scale
        out.append(rec)
    return out


def check_outputs(wl, result, checks: list, prefix: str = ""):
    """Append the pass's checks; outputs the checks cannot read fail one check."""
    try:
        found = wl.check(result)
    except Exception:
        checks.append((prefix + "outputs readable by the checks", False, traceback.format_exc(limit=-3)))
        return
    checks.append((prefix + "outputs readable by the checks", True, ""))
    checks.extend((prefix + name, ok, detail) for name, ok, detail in found)


def tally(checks: list) -> dict:
    """Each distinct check once: {name: [times run, times failed, detail of its first failure]}.

    A check fails the run if it failed on any pass, so the number of checks
    attempted is fixed per workload and does not grow with the pass count.
    """
    out = {}
    for name, ok, detail in checks:
        t = out.setdefault(name, [0, 0, ""])
        t[0] += 1
        if not ok:
            t[1] += 1
            t[2] = t[2] or detail
    return out


def run_pass(wl, clock: HostClock, checks: list, tracer=None):
    """One timed pass, then its checks (untimed, untraced). Returns (raw seconds, scale, digest).

    A pass that raises is recorded as a failed check and returns digest None.
    """
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            result, raw, scale = clock.time(wl.run)
    except Exception:
        checks.append(("pass completes", False, traceback.format_exc(limit=-3)))
        return float("nan"), float("nan"), None
    checks.append(("pass completes", True, ""))
    check_outputs(wl, result, checks)
    return raw, scale, result.digest()


def layer_values(t: dict, wall: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass from the tracer's totals; times scaled."""
    busy, child, calls, counts = t["busy"], t["child"], t["calls"], t["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    v = {}
    for name in ("simulator.simulate_stream", "simulator.apply_dead_time", "simulator.gate_and_count",
                 "simulator.simulate_frontend", "simulator.csv_write", "simulator.csv_read",
                 "detection.projected_scenario_fidelity", "detection.fidelity_curve",
                 "detection.detect_from_counts", "detection.analytic_threshold_fidelity",
                 "detection.threshold_fidelity", "optics.collection_efficiency", "optics.stack_reflectance",
                 "estimation.fit_quantum_efficiency", "estimation.effective_area",
                 "estimation.decompose_budget", "synthetic.make_qe_dataset", "synthetic.make_spot_scan",
                 "config.load_scenario"):
        v[f"{name}.calls"] = calls.get(name, 0)
        v[f"{name}.busy_s"] = busy.get(name, 0.0) * scale
    for sub in ("simulate", "threshold", "fidelity", "collection", "arc", "spot", "budget", "qefit"):
        v[f"cli.main.{sub}.busy_s"] = busy.get(f"cli.main.{sub}", 0.0) * scale
    for stem in ("events", "threshold_histogram", "fidelity_curve", "collection_efficiency",
                 "reflectance", "active_area_map", "budget", "qe_fit"):
        v[f"cli.output.{stem}.bytes"] = counts.get(f"cli.output.{stem}.bytes", 0)
    name = "detection.fidelity_curve"
    v[f"{name}.self_s"] = (busy.get(name, 0.0) - child.get(name, 0.0)) * scale
    v["simulator.simulate_stream.events_out"] = counts.get("simulator.simulate_stream.events_out", 0)
    dead_in = counts.get("simulator.apply_dead_time.events_in", 0)
    v["simulator.apply_dead_time.events_in"] = dead_in
    v["simulator.apply_dead_time.kept_frac"] = ratio(counts.get("simulator.apply_dead_time.events_kept", 0), dead_in)
    v["simulator.simulate_frontend.samples"] = counts.get("simulator.simulate_frontend.samples", 0)
    v["simulator.simulate_frontend.digital_frac"] = ratio(
        counts.get("simulator.simulate_frontend.digital_out", 0), counts.get("simulator.simulate_frontend.events_in", 0))
    v["simulator.csv_write.bytes"] = counts.get("simulator.csv_write.bytes", 0)
    n_detect = calls.get("detection.detect_from_counts", 0)
    v["detection.detect_from_counts.undecided_frac"] = ratio(counts.get("detection.detect_from_counts.undecided", 0), n_detect)
    v["detection.detect_from_counts.mean_stop_bins"] = ratio(counts.get("detection.detect_from_counts.stop_bins", 0), n_detect)
    v["share.dead_time_of_pass"] = ratio(busy.get("simulator.apply_dead_time", 0.0), wall)
    v["share.detect_of_pass"] = ratio(busy.get("detection.detect_from_counts", 0.0), wall)
    v["share.simulate_stream_of_pass"] = ratio(busy.get("simulator.simulate_stream", 0.0), wall)
    return v


def measure(wl, full, seconds: float, trace: bool) -> dict:
    """One full-size checked pass, cold starts, then timed passes until `seconds` have elapsed."""
    from spans import Tracer

    full.write_inputs()
    checks = []
    try:
        result = full.run()
    except Exception:
        checks.append(("full pass: pass completes", False, traceback.format_exc(limit=-3)))
    else:
        checks.append(("full pass: pass completes", True, ""))
        check_outputs(full, result, checks, "full pass: ")
    wl.write_inputs()
    clock = HostClock()
    setups = cold_starts(wl, clock, SETUP_STARTS)
    attribution = cold_starts(wl, clock, SETUP_STARTS, importtime=True) if trace else []
    passes, traced, layers = [], [], []
    tracer = Tracer() if trace else None
    end = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(wl, clock, checks))
        if trace:
            raw, scale, digest = run_pass(wl, clock, checks, tracer)
            traced.append((raw, scale, digest))
            totals = tracer.take_totals()
            if digest is not None:
                layers.append(layer_values(totals, raw, scale))
        if time.perf_counter() >= end:
            break
    digests = [d for _, _, d in passes]
    checks.append(("untraced outputs identical across passes", len(set(digests)) == 1, f"{len(digests)} passes"))
    sample = {"passes": passes, "setups": setups, "attribution": attribution, "refs": clock.refs, "checks": checks,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        same = [d == digests[0] for _, _, d in traced]
        checks.append(("traced outputs bit-identical to untraced", all(same), f"{sum(same)}/{len(same)} traced passes"))
        exact = [{k: x for k, x in lv.items() if k.endswith(EXACT_SUFFIXES)} for lv in layers]
        checks.append(("exact counters repeat across traced passes", all(e == exact[0] for e in exact), f"{len(exact)} passes"))
        sample.update(traced=traced, layers=layers, identical=same, tracer=tracer)
    return sample


def scaled_median(samples) -> float:
    """Median scaled seconds of the passes that completed."""
    return statistics.median(raw * scale for raw, scale, digest in samples if digest is not None)


def end_to_end(s: dict, checks: dict) -> tuple[dict, dict]:
    """Values and sample counts: completed passes, cold starts, one process, distinct checks."""
    failed = sum(1 for _, n_failed, _ in checks.values() if n_failed)
    values = {
        "wall_s": scaled_median(s["passes"]),
        "setup_s": statistics.median(x["raw_s"] * x["scale"] for x in s["setups"]),
        "peak_rss_mb": s["peak_rss_mb"],
        "checks_passed_frac": 1 - failed / len(checks),
    }
    n_passes = sum(d is not None for _, _, d in s["passes"])
    return values, {"wall_s": n_passes, "setup_s": len(s["setups"]), "peak_rss_mb": 1,
                    "checks_passed_frac": len(checks)}


def per_layer(s: dict) -> tuple[dict, dict]:
    """Values and sample counts (traced passes, cold starts, reference-kernel runs)."""
    # exact counters are equal on every traced pass (a check); report the first pass's
    v = {k: s["layers"][0][k] if k.endswith(EXACT_SUFFIXES) else statistics.median(lv[k] for lv in s["layers"])
         for k in s["layers"][0]}
    n = dict.fromkeys(v, len(s["layers"]))
    tracer = s["tracer"]
    coll = tracer.busy_under("optics.collection_efficiency")
    in_coll = tracer.busy_under("optics.stack_reflectance", "optics.collection_efficiency")
    v["share.reflectance_of_collection"] = in_coll / coll if coll else 0.0
    n["share.reflectance_of_collection"] = len(s["layers"])
    v["cli.import_s"] = statistics.median(x["import_s"] for x in s["setups"])
    n["cli.import_s"] = len(s["setups"])
    # scipy.signal's share is measured in separate starts under -X importtime (which slows
    # every import), as a share of that start's own import time; its seconds are that share
    # of the uninstrumented import time
    v["share.scipy_signal_of_import"] = statistics.median(
        x["scipy_signal_s"] / x["import_s"] for x in s["attribution"])
    v["cli.import.scipy_signal_s"] = v["share.scipy_signal_of_import"] * v["cli.import_s"]
    n["cli.import.scipy_signal_s"] = n["share.scipy_signal_of_import"] = len(s["attribution"])
    untraced, traced = scaled_median(s["passes"]), scaled_median(s["traced"])
    v["trace.wall_untraced_s"] = untraced
    v["trace.wall_traced_s"] = traced
    v["trace.overhead_s"] = traced - untraced
    v["trace.identical_frac"] = sum(s["identical"]) / len(s["identical"])
    v["host.ref_kernel_s"] = statistics.median(s["refs"])
    n["trace.wall_untraced_s"] = sum(d is not None for _, _, d in s["passes"])
    n["trace.wall_traced_s"] = n["trace.overhead_s"] = n["trace.identical_frac"] = len(s["traced"])
    n["host.ref_kernel_s"] = len(s["refs"])
    return v, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spadsim" / "__init__.py").is_file():
        print(f"error: no spadsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                rc = subprocess.run(cmd, cwd=ROOT).returncode
                code = code or rc
        return code
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    (work / "full").mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    s = measure(cls(args.seed, work), cls(args.seed, work / "full", full=True), args.seconds, bool(args.trace))

    checks = tally(s["checks"])
    failed = sum(1 for _, n_failed, _ in checks.values() if n_failed)
    if all(d is None for _, _, d in s["passes"]) or (args.trace and not s["layers"]):
        for name, (runs, n_failed, detail) in checks.items():
            if n_failed:
                print(f"check FAIL ({n_failed} of {runs}): {name}: {detail}", file=sys.stderr)
        print("error: no timed pass completed", file=sys.stderr)
        return 1
    values, samples = per_layer(s) if args.trace else end_to_end(s, checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = machine_info()
    raw = [r for r, _, d in s["passes"] if d is not None]
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(raw)} untraced passes"
          + (f", {len(s['traced'])} traced passes" if args.trace else "")
          + f", {len(s['setups'])} cold starts, {len(checks)} distinct checks, {failed} failed")
    print(f"  raw pass seconds: median {statistics.median(raw):.4f}, min {min(raw):.4f}, max {max(raw):.4f}; "
          f"reference kernel median {statistics.median(s['refs']) * 1e3:.2f} ms (nominal {REF_NOMINAL_S * 1e3:.0f} ms)")
    print("  times are medians of n samples; no tail percentile, which needs 10 samples beyond it")
    for name, m in metrics.items():
        tag = "  (exact count, deterministic for a fixed seed)" if name.endswith(EXACT_SUFFIXES) else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}  n={samples[name]}{tag}")
    if args.trace and s["tracer"].problems:
        print(f"  not traced, their metrics read 0: {', '.join(sorted(s['tracer'].problems))}")
    for name, (runs, n_failed, detail) in checks.items():
        if n_failed:
            print(f"  check FAIL ({n_failed} of {runs}): {name}: {detail}")

    report = {"args": vars(args), "machine": info, "metrics": metrics,
              "samples": {name: samples[name] for name in metrics},
              "passes_raw_s_scale": [(r, sc) for r, sc, _ in s["passes"]], "setups": s["setups"],
              "ref_kernel_s": s["refs"], "checks": checks,
              "exact_counters": sorted(k for k in values if k.endswith(EXACT_SUFFIXES))}
    if args.trace:
        report.update(traced_raw_s_scale=[(r, sc) for r, sc, _ in s["traced"]], layers_per_pass=s["layers"],
                      importtime_starts=s["attribution"], not_traced=sorted(s["tracer"].problems))
        s["tracer"].save(work / "spans.npz")
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
