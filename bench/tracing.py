"""Spans around the program's public functions, recorded from outside the package.

Each function is wrapped under the name its caller looks up, for the length
of one traced pass, and restored afterwards.  ``simulator`` binds its imports
by name, so the simulator's view of ``voltage_from_phase`` is patched in
``triphase.simulator``, not in ``triphase.detector``.  Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: (module, attribute, span name); one span name may be patched in several modules
PATCHES = (
    ("simulator", "simulate_landing", "simulator.simulate_landing"),
    ("simulator", "sense", "simulator.sense"),
    ("simulator", "landing_body_frame", "simulator.landing_body_frame"),
    ("simulator", "phase_solution", "geometry.phase_solution"),
    ("simulator", "voltage_from_phase", "detector.voltage_from_phase"),
    ("simulator", "decide", "guidance.decide"),
    ("simulator", "tracking_maneuvers", "simulator.tracking_maneuvers"),
    ("simulator", "apply_maneuver", "simulator.apply_maneuver"),
    ("cli", "main", "cli.main"),
    ("geometry", "cone_profile", "geometry.cone_profile"),
    ("geometry", "nonambiguous_range", "geometry.nonambiguous_range"),
    ("geometry", "phase_solution", "geometry.phase_solution"),
    ("geometry", "write_cone_csv", "geometry.write_cone_csv"),
    ("detector", "read_measurement_csv", "detector.read_measurement_csv"),
    ("detector", "fit_calibration", "detector.fit_calibration"),
    ("detector", "CalibrationPolynomial", "detector.CalibrationPolynomial"),
    ("detector", "save_profile", "detector.save_profile"),
    ("detector", "load_profile", "detector.load_profile"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))


class Tracer:
    """Records (op, name, parent index, start ns, end ns) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, parent, start, end)

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(f"triphase.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self):
        """Per span name: calls, inclusive ns and self ns (minus time in child spans)."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0, 0] for name in SPAN_NAMES}
        for (_, name, _, start, end), inner in zip(self.spans, child_ns):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def write(self, path):
        """Spans as CSV: index, op, name, parent index, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,op,name,parent,start_ns,end_ns\n")
            for index, (op, name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index},{op},{name},{parent},{start},{end}\n")
