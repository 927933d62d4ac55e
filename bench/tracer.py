"""Span tracer installed from outside the program, and the per-layer metrics.

`install` replaces every public function and every public method (plus
``__init__``) of each ``mlfsi`` module with a wrapper that records a span:
name, start, end and parent. Counts are taken after a span closes, inside a
``bench.count`` child span, so counting time falls out of every self time.

A span's self time is its duration minus the time its child spans cover.
Each metric below owns a few span names; the self time of a span whose
name no metric owns is charged to its nearest owned ancestor, so a metric
covers its function and the unnamed helpers it calls, never a named child.
The one exception is `NESTED_OWNER`: the LU inside a `ShiftedFactor` is
charged to `resolvent.shifted_lu_s`, not to `linalg.factor_s`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

MODULES = ("geometry", "linalg", "assembly", "evolution", "resolvent", "identities", "config", "cli")

# span name -> metric that owns its self time
OWNER = {
    "geometry.build_mesh": "geometry.build_mesh_s",
    "geometry.save_mesh": "geometry.save_mesh_s",
    "assembly.build_system": "assembly.build_system_s",
    "assembly.SurfaceSpectral.__init__": "assembly.surface_spectral_s",
    "linalg.Factorization.__init__": "linalg.factor_s",
    "linalg.Factorization.solve": "linalg.solve_s",
    "linalg.power_opnorm": "linalg.power_opnorm_s",
    "linalg.smallest_singular_value": "linalg.smallest_singular_value_s",
    "resolvent.ShiftedFactor.__init__": "resolvent.shifted_lu_s",
    "resolvent.solve_static": "resolvent.solve_static_s",
    "resolvent.resolvent_opnorm": "resolvent.opnorm_s",
    "resolvent.sample_point": "resolvent.sample_point_s",
    "resolvent.write_sweep_csv": "resolvent.write_s",
    "resolvent.write_growth_json": "resolvent.write_s",
    "resolvent.sweep": "resolvent.sweep_s",
    "identities.flux_chain_monitor": "identities.flux_chain_monitor_s",
    "identities.DirichletMap.__init__": "identities.dirichlet_map_s",
    "identities.build_solid_system": "identities.build_solid_system_s",
    "identities.multiplier_residual": "identities.multiplier_residual_s",
    "identities.manufactured_study": "identities.manufactured_study_s",
    "evolution.prepare_smooth_data": "evolution.prepare_smooth_data_s",
    "evolution.make_stepper": "evolution.make_stepper_s",
    "evolution.EnergyTrace.to_csv": "evolution.to_csv_s",
}

# (parent span name, span name) -> metric, ahead of OWNER
NESTED_OWNER = {
    ("resolvent.ShiftedFactor.__init__", "linalg.Factorization.__init__"): "resolvent.shifted_lu_s",
}

# span name -> (count metric, function of (args, result) giving the amount)
COUNTS = {
    "geometry.build_mesh": ("geometry.tets", lambda a, r: r.tets.shape[0]),
    "geometry.save_mesh": ("geometry.mesh_file_bytes", lambda a, r: os.path.getsize(a[1])),
    "assembly.build_system": ("assembly.dofs", lambda a, r: r.dof.total),
    "assembly.SurfaceSpectral.__init__": ("assembly.surface_spectral_builds", lambda a, r: 1),
    "linalg.Factorization.__init__": ("linalg.lu_fill", lambda a, r: a[0].lu.nnz),
    "linalg.Factorization.solve": ("linalg.solve_count", lambda a, r: 1),
    "linalg.power_opnorm": ("linalg.power_iterations", lambda a, r: r.iterations),
    "resolvent.ShiftedFactor.__init__": ("resolvent.shifted_lu_fill", lambda a, r: a[0].factor.lu.nnz),
    "identities.DirichletMap.__init__": ("identities.dirichlet_map_builds", lambda a, r: 1),
    "evolution.simulate": ("evolution.steps", lambda a, r: len(r.t) - 1),
}

# Layer metrics in report order; `bench.trace_overhead_s` and `cli.import_s`
# come from the runner and the child, not from spans.
LAYER_METRICS = [
    ("geometry.build_mesh_s", "s"), ("geometry.save_mesh_s", "s"),
    ("geometry.mesh_file_bytes", "bytes"), ("geometry.tets", "count"),
    ("assembly.build_system_s", "s"), ("assembly.dofs", "count"),
    ("assembly.surface_spectral_s", "s"), ("assembly.surface_spectral_builds", "count"),
    ("linalg.factor_s", "s"), ("linalg.factor_count", "count"), ("linalg.lu_fill", "count"),
    ("linalg.solve_s", "s"), ("linalg.solve_count", "count"),
    ("linalg.power_opnorm_s", "s"), ("linalg.power_iterations", "count"),
    ("linalg.smallest_singular_value_s", "s"),
    ("resolvent.shifted_lu_s", "s"), ("resolvent.shifted_lu_fill", "count"),
    ("resolvent.solve_static_s", "s"), ("resolvent.opnorm_s", "s"),
    ("resolvent.opnorm_applications", "count"), ("resolvent.sample_point_s", "s"),
    ("resolvent.write_s", "s"), ("resolvent.sweep_s", "s"),
    ("identities.flux_chain_monitor_s", "s"), ("identities.dirichlet_map_s", "s"),
    ("identities.dirichlet_map_builds", "count"), ("identities.build_solid_system_s", "s"),
    ("identities.multiplier_residual_s", "s"), ("identities.manufactured_study_s", "s"),
    ("evolution.prepare_smooth_data_s", "s"), ("evolution.make_stepper_s", "s"),
    ("evolution.step_ms", "ms"), ("evolution.steps", "count"), ("evolution.to_csv_s", "s"),
    ("cli.import_s", "s"), ("bench.trace_overhead_s", "s"),
]

COUNT_SPAN = "bench.count"
OPNORM_APPLY = ("resolvent.ShiftedFactor.solve", "resolvent.ShiftedFactor.solve_adjoint")


class Tracer:
    """In-memory span list; a forked worker appends its spans to a file."""

    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.pid = os.getpid()
        self.spans = []    # [name, start, end, parent index, count?]
        self.stack = []
        self.is_worker = False

    def _enter_process(self):
        # A forked worker inherits the parent's open spans; start afresh.
        if os.getpid() != self.pid:
            self.pid, self.spans, self.stack = os.getpid(), [], []
            self.is_worker = True

    def open(self, name):
        self._enter_process()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def flush_worker(self):
        if self.is_worker and not self.stack:
            with open(self.worker_dir / f"worker-{self.pid}.jsonl", "a") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                cidx = self.open(COUNT_SPAN)
                self.spans[idx].append(count[1](args, result))
                self.close(cidx)
            self.flush_worker()
            return result

        return traced


def replace_everywhere(original, replacement):
    """Rebind every `mlfsi` module attribute that refers to `original`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "mlfsi" or modname.startswith("mlfsi."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the public functions and methods of every mlfsi module."""
    for short in MODULES:
        mod = importlib.import_module(f"mlfsi.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replace_everywhere(obj, tracer.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        setattr(obj, meth, tracer.wrap(f"{short}.{attr}.{meth}", fn))


def read_worker_spans(worker_dir, offset):
    """Spans that forked workers wrote, re-indexed to follow `offset` spans."""
    spans = []
    for path in sorted(Path(worker_dir).glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            batch = json.loads(line)
            base = offset + len(spans)
            spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, *s[4:]] for s in batch)
    return spans


def layer_metrics(spans):
    """Per-layer self times and counts from a list of closed spans.

    Parents precede their children in `spans`, so one forward pass resolves
    owners and ancestry.
    """
    covered = [0.0] * len(spans)
    owner = [None] * len(spans)
    in_opnorm = [False] * len(spans)
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    for i, (name, start, end, parent, *extra) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            owner[i] = NESTED_OWNER.get((spans[parent][0], name)) or OWNER.get(name, owner[parent])
            in_opnorm[i] = in_opnorm[parent] or spans[parent][0] == "resolvent.resolvent_opnorm"
        else:
            owner[i] = OWNER.get(name)
        if name == "linalg.Factorization.__init__":
            values["linalg.factor_count"] += 1
        if name in OPNORM_APPLY and in_opnorm[i]:
            values["resolvent.opnorm_applications"] += 1
        if extra:
            metric = COUNTS[name][0]
            values[metric] = max(values[metric], extra[0]) if metric == "assembly.dofs" else values[metric] + extra[0]
    for i, (name, start, end, *_rest) in enumerate(spans):
        if owner[i] is not None and name != COUNT_SPAN:
            values[owner[i]] += (end - start) - covered[i]
    steps = values["evolution.steps"]
    simulate_total = sum(s[2] - s[1] for s in spans if s[0] == "evolution.simulate")
    values["evolution.step_ms"] = 1e3 * simulate_total / steps if steps else 0.0
    return values
