"""Span recorder for the traced benchmark run.

The package itself is not edited.  ``Tracer.install`` replaces each layer
function under the name its caller looks it up by (``unruhlab.sweep.
run_protocol``, ``unruhlab.pipeline.apply_local_pair``,
``DensityMatrix.__post_init__``, ...) with a wrapper that records one span
``[name, parent, start_ns, end_ns]``, and counts calls to ``numpy.kron``
and ``numpy.linalg.eigvalsh``.  Spans stay in memory until ``write``.

A layer attribute that no longer exists is skipped, so a layer that a
later version removes reports 0 calls instead of failing the run.
"""

import importlib
import math
import time
from collections import defaultdict

import numpy as np

LOCAL_PAIR = "localops.pair"   # resolved to weak or reverse per call
ACCELERATE = "channel.accelerate"
CHANNEL_BUILD = "channel.build"
RUN_PROTOCOL = "pipeline.run_protocol"
PASS = "pass"

# (module, attribute looked up by the caller, span name)
LAYERS = (
    ("unruhlab.cli", "_cmd_figure", "cli.figure"),
    ("unruhlab.cli", "_cmd_sweep", "cli.sweep"),
    ("unruhlab.cli", "_cmd_validate", "cli.validate"),
    ("unruhlab.cli", "_cmd_state", "cli.state"),
    ("unruhlab.cli", "figure_preset", "sweep.config"),
    ("unruhlab.cli", "load_config", "sweep.config"),
    ("unruhlab.cli", "parse_state_preset", "states.parse"),
    ("unruhlab.sweep", "parse_state_preset", "states.parse"),
    ("unruhlab.cli", "run_sweep", "sweep.run_sweep"),
    ("unruhlab.cli", "rows_to_csv", "sweep.rows_to_csv"),
    ("unruhlab.cli", "run_validation", "validate"),
    ("unruhlab.cli", "run_protocol", RUN_PROTOCOL),
    ("unruhlab.sweep", "run_protocol", RUN_PROTOCOL),
    ("unruhlab.validate", "run_protocol", RUN_PROTOCOL),
    ("unruhlab.pipeline", "apply_local_pair", LOCAL_PAIR),
    ("unruhlab.pipeline", "channel_for_dim", CHANNEL_BUILD),
    ("unruhlab.pipeline", "accelerate", ACCELERATE),
    ("unruhlab.tensor", "DensityMatrix.__post_init__", "tensor.DensityMatrix"),
    ("unruhlab.sweep", "restrict_to_ladder", "pipeline.restrict_to_ladder"),
    ("unruhlab.validate", "restrict_to_ladder", "pipeline.restrict_to_ladder"),
    ("unruhlab.sweep", "compute_report", "measures.report"),
    ("unruhlab.measures", "negativity", "measures.negativity"),
    ("unruhlab.validate", "negativity", "measures.negativity"),
    ("unruhlab.measures", "von_neumann_entropy", "measures.entropies"),
    ("unruhlab.measures", "shannon_entropy", "measures.entropies"),
    ("unruhlab.measures", "partial_trace", "measures.entropies"),
    ("unruhlab.validate", "corrected_final_qubit", "closedform"),
    ("unruhlab.validate", "literal_final_qubit", "closedform"),
    ("unruhlab.validate", "literal_final_qutrit", "closedform"),
    ("unruhlab.validate", "qubit_coefficients", "closedform"),
    ("unruhlab.validate", "discrepancy_report", "closedform"),
    ("unruhlab.validate", "x_state_spectrum", "closedform"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, layer in LAYERS
    for name in (("localops.weak", "localops.reverse") if layer == LOCAL_PAIR else (layer,))
))

COUNTERS = ("numpy.kron.calls", "numpy.eigvalsh.calls", "numpy.eigvalsh.matrices")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(c, "count", "lower") for c in COUNTERS]
    out += [
        ("channel.build.distinct_frac", "ratio", "lower"),
        ("channel.build.distinct_frac_run", "ratio", "lower"),
        ("sweep.rows", "count", "higher"),
        ("sweep.degenerate_rows", "count", "lower"),
        ("wall_tail_s", "s", "lower"),
        ("wall_tail.pct", "%", "higher"),
        ("wall_tail.samples", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("wall_s", "s", "lower"),
        ("host.burst_s", "s", "lower"),
    ]
    return out


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, cursor = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile in TAIL_PERCENTILES
    with at least ten samples ranked beyond it (nearest-rank), or None
    when there are too few samples for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-round(pct * 10) * n // 1000))   # ceil(pct% of n), exact
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


class Tracer:
    """Records spans and counts while installed; ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.channel_keys = set()       # (pass, dim, r, phi): distinct within a pass
        self.run_channel_keys = set()   # (dim, r, phi): distinct over the whole run
        self.passes = 0
        self._stack = []
        self._accelerated = set()   # span ids that have run the channel
        self._undo = []

    def _wrap(self, name, fn, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name(parent) if callable(name) else name
            if before is not None:
                before(parent, args)
            rec = [label, parent, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _local_pair_name(self, parent):
        return "localops.reverse" if parent in self._accelerated else "localops.weak"

    def _saw_accelerate(self, parent, args):
        self._accelerated.add(parent)

    def _saw_channel(self, parent, args):
        dim, spec = args[0], args[1]
        self.channel_keys.add((self.passes, dim, spec.r, spec.phi))
        self.run_channel_keys.add((dim, spec.r, spec.phi))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, path, name in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            fn = getattr(owner, attr)
            if name == LOCAL_PAIR:
                wrapped = self._wrap(self._local_pair_name, fn)
            elif name == ACCELERATE:
                wrapped = self._wrap(name, fn, self._saw_accelerate)
            elif name == CHANNEL_BUILD:
                wrapped = self._wrap(name, fn, self._saw_channel)
            else:
                wrapped = self._wrap(name, fn)
            self._patch(owner, attr, wrapped)
        counts = self.counts
        kron, eigvalsh = np.kron, np.linalg.eigvalsh

        def counted_kron(*args, **kwargs):
            counts["numpy.kron.calls"] += 1
            return kron(*args, **kwargs)

        def counted_eigvalsh(a, *args, **kwargs):
            counts["numpy.eigvalsh.calls"] += 1
            counts["numpy.eigvalsh.matrices"] += math.prod(np.shape(a)[:-2])
            return eigvalsh(a, *args, **kwargs)

        self._patch(np, "kron", counted_kron)
        self._patch(np.linalg, "eigvalsh", counted_eigvalsh)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def pass_span(self, fn):
        """Run ``fn`` as one traced pass under a root span."""
        self.passes += 1
        return self._wrap(PASS, fn)()

    def summary(self) -> dict[str, float]:
        """Per-pass layer metrics, from the spans and counts so far."""
        passes = max(self.passes, 1)
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        protocol = []
        for (name, _, start, end), self_ns in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
            if name == RUN_PROTOCOL:
                protocol.append((end - start) * 1e-9)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.s"] = total[name] * 1e-9 / passes
            out[f"{name}.self_s"] = own[name] * 1e-9 / passes
        for counter in COUNTERS:
            out[counter] = self.counts[counter] / passes
        builds = calls[CHANNEL_BUILD]
        out["channel.build.distinct_frac"] = len(self.channel_keys) / builds if builds else 0.0
        out["channel.build.distinct_frac_run"] = (len(self.run_channel_keys) / builds
                                                  if builds else 0.0)
        tail = tail_percentile(protocol)
        out["wall_tail_s"], out["wall_tail.pct"] = (tail[1], tail[0]) if tail else (0.0, 0.0)
        out["wall_tail.samples"] = len(protocol)
        return out

    def write(self, path):
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")
