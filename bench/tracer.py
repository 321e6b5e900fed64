"""In-memory span tracer for the benchmark.

The tracer wraps fpmflow's public functions from the outside, by replacing
each name in every module that looks it up (``cli``, ``characteristics``,
``operators`` and ``diagnostics`` import functions by name, so patching the
defining module alone would miss their calls).  Each wrapped call records a
span ``(id, name, start, end, parent_id)``; the layer of a span is the
module part of its name.  ``numpy.fft.rfft`` and ``numpy.fft.irfft`` are
counted and timed, not spanned: one stiff run makes ~200k of them.

Spans stay in memory while the body runs and are summarised (and optionally
written out) afterwards.  A span's self time is its duration minus the
durations of its child spans.  FFT time stays inside the self time of the
layer that made the call and is reported again, as a breakdown, as ``fft``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import MODULES as LAYERS

# (module, attribute, span name): every place a traced function is looked up.
# solver.tail_fraction is deliberately absent: inside observers it is
# diagnostics work, and solver.self_s is solver.run minus observer time.
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "check_invariants", "cli.check_invariants"),
    ("cli", "make_grid", "grid.make_grid"),
    ("cli", "spectral_derivative", "grid.spectral_derivative"),
    ("cli", "make_initial_data", "initial_data.make_initial_data"),
    ("cli", "validate_hypotheses", "initial_data.validate_hypotheses"),
    ("cli", "velocity_spectral", "operators.velocity_spectral"),
    ("cli", "run", "solver.run"),
    ("cli", "constants_for", "diagnostics.constants_for"),
    ("cli", "classify_run", "diagnostics.classify_run"),
    ("cli", "run_alignment", "extensions.run_alignment"),
    ("cli", "write_csv", "output.write_csv"),
    ("cli", "write_metadata", "output.write_metadata"),
    ("cli", "write_snapshot", "output.write_snapshot"),
    ("cli", "write_timeseries", "output.write_timeseries"),
    ("cli", "line_chart", "output.line_chart"),
    ("output", "write_csv", "output.write_csv"),
    ("grid", "make_grid", "grid.make_grid"),
    ("grid", "evaluate_trig", "grid.evaluate_trig"),
    ("initial_data", "make_initial_data", "initial_data.make_initial_data"),
    ("operators", "evaluate_trig", "grid.evaluate_trig"),
    ("operators", "make_params", "operators.make_params"),
    ("solver", "run", "solver.run"),
    ("characteristics", "evaluate_trig", "grid.evaluate_trig"),
    ("characteristics", "antiderivative_at", "grid.antiderivative_at"),
    ("characteristics", "advect_path", "characteristics.advect_path"),
    ("characteristics", "check_decay_bound", "characteristics.check_decay_bound"),
    ("characteristics", "check_mass_transport",
     "characteristics.check_mass_transport"),
    ("diagnostics", "observe", "diagnostics.observe"),
    ("diagnostics", "constants_for", "diagnostics.constants_for"),
    ("diagnostics", "evaluate_trig", "grid.evaluate_trig"),
    ("diagnostics", "spectral_derivative", "grid.spectral_derivative"),
    ("diagnostics", "decompose_velocity", "operators.decompose_velocity"),
    ("diagnostics", "verify_enhanced_bound_derivation",
     "diagnostics.verify_enhanced_bound_derivation"),
    ("extensions", "run_alignment", "extensions.run_alignment"),
)

FFT_NAMES = ("rfft", "irfft")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and FFT counts while installed (see ``installed``)."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id)
        self.trig_points = 0  # points passed to grid.evaluate_trig
        self.steps = 0  # final_state.step_count summed over solver.run calls
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_within = defaultdict(int)  # open span name -> FFT calls
        self._stack = []  # (span id, name) of the open spans

    def _enter(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def _exit(self, sid, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(sid, name, parent, start)
            if name == "grid.evaluate_trig":
                self.trig_points += int(np.size(args[1]))
            elif name == "solver.run":
                self.steps += out.final_state.step_count
            return out
        return traced

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.fft_s += time.perf_counter() - start
            self.fft_calls += 1
            for name in {name for _, name in self._stack}:
                self.fft_within[name] += 1
            return out
        return counted

    @contextmanager
    def installed(self, modules):
        """Patch every traced name in ``modules`` (short name -> module) and
        numpy's FFTs; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, span))
            for attr in FFT_NAMES:
                original = getattr(np.fft, attr)
                saved.append((np.fft, attr, original))
                setattr(np.fft, attr, self._wrap_fft(original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextmanager
    def span(self, name):
        """A span around benchmark code that is not itself an fpmflow call."""
        sid, parent, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid, name, parent, start)

    # ------------------------------------------------------------ summaries

    def inclusive(self, name):
        """(calls, seconds) of the spans called ``name``."""
        durations = [end - start for _, n, start, end, _ in self.spans if n == name]
        return len(durations), sum(durations)

    def outermost_s(self, layer):
        """Seconds in spans of ``layer`` that are not nested in that layer."""
        names = {sid: name for sid, name, *_ in self.spans}
        return sum(end - start for _, name, start, end, parent in self.spans
                   if layer_of(name) == layer
                   and (parent is None or layer_of(names[parent]) != layer))

    def self_times(self):
        """Self seconds per layer; spans outside LAYERS are not counted."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, name, start, end, _ in self.spans:
            if layer_of(name) in out:
                out[layer_of(name)] += (end - start) - child[sid]
        return out

    def count_within(self, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        by_id = {s[0]: s for s in self.spans}
        count = 0
        for _, sname, _, _, parent in self.spans:
            if sname != name:
                continue
            while parent is not None:
                if by_id[parent][1] == ancestor:
                    count += 1
                    break
                parent = by_id[parent][4]
        return count

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")
