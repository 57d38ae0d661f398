"""Span tracer that times spadsim's layers from outside the package.

`Tracer.installed()` rebinds each target in `TARGETS`, in every loaded spadsim
module that holds a reference to it, to a wrapper that records one span
(name, start, end, parent) and the target's counters. Nothing is rebound
outside that context, so an untraced pass runs the unmodified program. A
target the package no longer has is skipped, and a counter hook that no
longer fits its target's arguments is dropped; both are listed in
`Tracer.problems`, and only their metrics read 0.

Spans stay in memory (compact arrays, about 28 bytes each) and are written
once, by `Tracer.save`, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _count_stream(c, out, *args, **kwargs):
    c["simulator.simulate_stream.events_out"] += len(out)


def _count_dead_time(c, out, times_ns, labels, dead_ns):
    c["simulator.apply_dead_time.events_in"] += times_ns.size
    c["simulator.apply_dead_time.events_kept"] += out[0].size


def _count_frontend(c, out, events, params, sample_rate, rng=None):
    t, _, digital = out
    c["simulator.simulate_frontend.samples"] += t.size
    c["simulator.simulate_frontend.events_in"] += len(events)
    c["simulator.simulate_frontend.digital_out"] += len(digital)


def _count_csv_write(c, out, self):
    c["simulator.csv_write.bytes"] += len(out.encode())


def _count_detect(c, out, counts, ion_rate, empty_rate, config):
    c["detection.detect_from_counts.undecided"] += out.decision == "undecided"
    c["detection.detect_from_counts.stop_bins"] += round(out.stopping_time / config.sub_bin)


def _count_output(c, out, path, manifest, body):
    c[f"cli.output.{os.path.basename(path).split('.')[0]}.bytes"] += os.path.getsize(path)


def _main_span(*args, **kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


# (module, attribute, span name or function of the call's arguments, counter hook).
# A hook takes the counter dict, the result and the target's own arguments.
# spadsim.model is left out: its functions are arithmetic on a few floats.
TARGETS = (
    ("spadsim.simulator", "simulate_stream", "simulator.simulate_stream", _count_stream),
    ("spadsim.simulator", "apply_dead_time", "simulator.apply_dead_time", _count_dead_time),
    ("spadsim.simulator", "gate_and_count", "simulator.gate_and_count", None),
    ("spadsim.simulator", "simulate_frontend", "simulator.simulate_frontend", _count_frontend),
    ("spadsim.simulator", "EventStream.to_csv", "simulator.csv_write", _count_csv_write),
    ("spadsim.simulator", "EventStream.from_csv", "simulator.csv_read", None),
    ("spadsim.detection", "projected_scenario_fidelity", "detection.projected_scenario_fidelity", None),
    ("spadsim.detection", "fidelity_curve", "detection.fidelity_curve", None),
    ("spadsim.detection", "detect_from_counts", "detection.detect_from_counts", _count_detect),
    ("spadsim.detection", "analytic_threshold_fidelity", "detection.analytic_threshold_fidelity", None),
    ("spadsim.detection", "threshold_fidelity", "detection.threshold_fidelity", None),
    ("spadsim.optics", "collection_efficiency", "optics.collection_efficiency", None),
    ("spadsim.optics", "stack_reflectance", "optics.stack_reflectance", None),
    ("spadsim.estimation", "fit_quantum_efficiency", "estimation.fit_quantum_efficiency", None),
    ("spadsim.estimation", "effective_area", "estimation.effective_area", None),
    ("spadsim.estimation", "decompose_budget", "estimation.decompose_budget", None),
    ("spadsim.synthetic", "make_qe_dataset", "synthetic.make_qe_dataset", None),
    ("spadsim.synthetic", "make_spot_scan", "synthetic.make_spot_scan", None),
    ("spadsim.config", "load_scenario", "config.load_scenario", None),
    ("spadsim.cli", "main", _main_span, None),
    ("spadsim.cli", "_write_output", "cli.write_output", _count_output),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # open spans: [span index, seconds covered by children]
        self.problems: set[str] = set()  # targets not found, or whose counters could not be taken
        self.reset_totals()

    def reset_totals(self):
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def take_totals(self) -> dict:
        """Per-name busy/child seconds, calls and counters since the last take; then reset."""
        totals = {"busy": dict(self.busy), "child": dict(self.child),
                  "calls": dict(self.calls), "counts": dict(self.counts)}
        self.reset_totals()
        return totals

    def _call(self, name, fn, hook, args, kwargs):
        if callable(name):
            name = name(*args, **kwargs)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx], self.end[idx] = t0, t1
            self.busy[name] += t1 - t0
            self.child[name] += frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += t1 - t0
        if hook is not None:
            try:
                hook(self.counts, out, *args, **kwargs)
            except Exception:
                self.problems.add(f"counters of {name}")
        return out

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its tracing wrapper for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, hook in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        original = cls.__dict__[meth]
                    else:
                        original = getattr(module, attr)
                except (ImportError, AttributeError, KeyError):
                    self.problems.add(f"{module_name}.{attr}")
                    continue
                if "." in attr:
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._wrapper(name, original.__func__, hook))
                    else:
                        replacement = self._wrapper(name, original, hook)
                    setattr(cls, meth, replacement)
                    undo.append((cls, meth, original))
                    continue
                wrapper = self._wrapper(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "spadsim" and not mod_name.startswith("spadsim."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def busy_under(self, name: str, ancestor: str | None = None) -> float:
        """Seconds in all spans called `name`, or only those with an `ancestor` span above them."""
        nid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor) if ancestor else -1
        if nid is None or aid is None:
            return 0.0
        total = 0.0
        for i in np.flatnonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid):
            p = self.parent[i]
            while ancestor and p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            if not ancestor or p >= 0:
                total += self.end[i] - self.start[i]
        return total

    def save(self, path):
        """Write every recorded span: name table plus name index, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
