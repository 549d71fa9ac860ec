"""In-memory span tracer for the benchmark's traced run.

`install()` wraps the public functions and public methods of every layer
module of lqgdisk, and rebinds each wrapped function in every lqgdisk
namespace that imported it by name (`from .gff import FieldSampler`,
`from .geometry import green`, the CLI's EXPERIMENTS table), so calls are
traced where they are looked up, not only where they are defined.  Each
call records a span (name, start, end, parent) in a list; nothing is
written until `Tracer.summary()` is called at the end of the process.

Alongside the spans the tracer keeps counters computed from argument and
array sizes (no hardware performance counters are read):

* factorization GFLOP as m^3/3 per FieldSampler, and the number of
  distinct point sets factored;
* field-draw GFLOP and GB: every product with a field factor is counted
  as 2*m*k*columns flop and 8*m*k*columns bytes, the factor read once per
  column as a matrix-vector product would read it (cache reuse inside a
  matrix-matrix product is ignored);
* grid points built, field columns drawn, distinct Boltzmann rows, bytes
  written, and the distinct replicas picked by the volume-law draws.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "gff", "gmc", "critical", "liouville", "geometry", "maps", "io")
# per-value helpers, called once per CSV cell or per Green-function call:
# a span around each would cost more than the work it measures
UNTRACED = {"io.fmt", "geometry.check_in_disk", "geometry.check_interior"}


class _CountedFactor(np.ndarray):
    """View of a field factor that counts the matrix products taken with it."""

    tracer = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(x.view(np.ndarray) if isinstance(x, _CountedFactor) else x for x in inputs)
        if ufunc is np.matmul and method == "__call__" and self.tracer is not None:
            a, b = plain
            cols = 1 if np.ndim(b) == 1 else int(np.shape(b)[-1])
            m, k = a.shape
            c = self.tracer.counters
            c["draw_flop"] += 2.0 * m * k * cols
            c["draw_bytes"] += 8.0 * m * k * cols
        return getattr(ufunc, method)(*plain, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counters = collections.Counter()
        self._point_sets = set()
        self._rows = set()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive seconds and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_name = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            rec = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[i]
        counters = dict(self.counters)
        counters["distinct_point_sets"] = len(self._point_sets)
        counters["distinct_rows"] = len(self._rows)
        return {"spans": per_name, "counters": counters, "n_spans": len(spans)}


# ---------------------------------------------------------------------------
# counters taken at span boundaries
# ---------------------------------------------------------------------------

def _after_field_sampler(tracer, args, kwargs, out):
    sampler = args[0]
    m = len(sampler.points)
    tracer.counters["factor_flop"] += m**3 / 3.0
    digest = hashlib.sha256(np.ascontiguousarray(sampler.points).tobytes())
    digest.update(np.ascontiguousarray(sampler.eps).tobytes())
    tracer._point_sets.add(digest.hexdigest())
    sampler._factor = sampler._factor.view(_CountedFactor)


def _after_draw(tracer, args, kwargs, out):
    tracer.counters["draw_columns"] += 1 if np.ndim(out) == 1 else int(np.shape(out)[-1])


def _after_grid(tracer, args, kwargs, out):
    tracer.counters["grid_points"] += out.size


def _after_write(tracer, args, kwargs, out):
    tracer.counters["bytes_written"] += os.path.getsize(out)


def _after_row(tracer, args, kwargs, out):
    tracer._rows.add(int(args[1] if len(args) > 1 else kwargs["p"]))


def _after_triple(tracer, args, kwargs, out):
    basis = kwargs.get("basis")
    if basis is not None:
        tracer.counters["replicas_available"] += basis.n_replicas
        tracer.counters["replicas_picked"] += len(np.unique(out["replica"]))


_AFTER = {
    "gff.FieldSampler.__init__": _after_field_sampler,
    "gff.FieldSampler.draw": _after_draw,
    "gff.FieldSampler.draw_batch": _after_draw,
    "gmc.graded_disk_grid": _after_grid,
    "gmc.window_sector_grid": _after_grid,
    "io.write_csv": _after_write,
    "io.write_json": _after_write,
    "maps.BoltzmannSampler.log_weight_row": _after_row,
    "liouville.sample_liouville_triple": _after_triple,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _public_callables(module):
    """(owner, attribute, span name, function) for everything to wrap."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if f"{layer}.{attr}" in UNTRACED:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, raw in list(vars(obj).items()):
                if meth.startswith("_") and meth not in ("__init__", "__call__"):
                    continue
                if inspect.isfunction(raw):
                    yield obj, meth, f"{layer}.{attr}.{meth}", raw
                elif isinstance(raw, (classmethod, staticmethod)):
                    yield obj, meth, f"{layer}.{attr}.{meth}", raw


def install():
    """Wrap every layer module of the imported lqgdisk package; return the tracer."""
    import lqgdisk.cli  # noqa: F401  (imports every layer module)

    tracer = Tracer()
    _CountedFactor.tracer = tracer
    # keyed by id: each original stays alive as its wrapper's __wrapped__
    replaced = {}
    for name in LAYERS:
        module = sys.modules[f"lqgdisk.{name}"]
        for owner, attr, span, raw in _public_callables(module):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(tracer.wrap(span, raw.__func__)))
                continue
            wrapped = tracer.wrap(span, raw)
            setattr(owner, attr, wrapped)
            if owner is module:
                replaced[id(raw)] = wrapped
    # rebind names imported with `from ... import`, and tables of functions
    for mod_name, ns in list(sys.modules.items()):
        if mod_name != "lqgdisk" and not mod_name.startswith("lqgdisk."):
            continue
        for attr, obj in list(vars(ns).items()):
            if id(obj) in replaced:
                setattr(ns, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from the summaries of one traced iteration
# ---------------------------------------------------------------------------

def layer_metrics(summaries):
    """Per-layer metrics, name -> (value, unit), summed over the calls of one iteration."""
    spans = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counters = collections.Counter()
    for summary in summaries:
        for name, rec in summary["spans"].items():
            for key, val in rec.items():
                spans[name][key] += val
        counters.update(summary["counters"])

    def total(*names):
        return sum(spans[n]["total_s"] for n in names)

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names)

    def share(num, den):
        return num / den if den else 0.0

    factorizations = calls("gff.FieldSampler.__init__")
    rows = calls("maps.BoltzmannSampler.log_weight_row")
    experiments = [n for n in list(spans) if n.startswith("cli.run_")]
    cli_spans = [n for n in list(spans) if n.startswith("cli.")]
    return {
        "cli.experiment_s": (total(*experiments), "s"),
        "cli.self_s": (self_s(*cli_spans), "s"),
        "gff.covariance_s": (total("gff.neumann_covariance"), "s"),
        "gff.factor_self_s": (self_s("gff.FieldSampler.__init__"), "s"),
        "gff.factorizations": (factorizations, "count"),
        "gff.factor_reuse": (share(counters["distinct_point_sets"], factorizations), "ratio"),
        "gff.factor_gflop": (counters["factor_flop"] / 1e9, "GFLOP"),
        "gff.streams": (calls("gff.RngStream.generator"), "count"),
        "gff.stream_s": (total("gff.RngStream.generator"), "s"),
        "gff.draw_s": (total("gff.FieldSampler.draw", "gff.FieldSampler.draw_batch"), "s"),
        "gff.draw_columns": (counters["draw_columns"], "count"),
        "draw.gflop": (counters["draw_flop"] / 1e9, "GFLOP"),
        "draw.gbytes": (counters["draw_bytes"] / 1e9, "GB"),
        "critical.bulk_ladder_calls": (calls("critical.bulk_ladder_totals"), "count"),
        "critical.bulk_ladder_self_s": (self_s("critical.bulk_ladder_totals"), "s"),
        "gmc.grid_s": (total("gmc.graded_disk_grid", "gmc.window_sector_grid"), "s"),
        "gmc.grid_points": (counters["grid_points"], "count"),
        "gmc.density_weights_s": (total("gmc.GradedDiskGrid.density_weights"), "s"),
        "liouville.basis_self_s": (self_s("liouville.ChaosBasis.__init__"), "s"),
        "liouville.drift_factor_calls": (calls("liouville.ChaosBasis.drift_factors"), "count"),
        "liouville.drift_factors_s": (total("liouville.ChaosBasis.drift_factors"), "s"),
        "liouville.functional_values_s": (total("liouville.ChaosBasis.functional_values"), "s"),
        "liouville.triple_self_s": (self_s("liouville.sample_liouville_triple"), "s"),
        "liouville.partition_self_s": (self_s("liouville.partition_estimate"), "s"),
        "liouville.distinct_replica_share": (
            share(counters["replicas_picked"], counters["replicas_available"]),
            "ratio",
        ),
        "geometry.green_calls": (calls("geometry.green"), "count"),
        "geometry.green_s": (total("geometry.green"), "s"),
        "maps.sampler_build_s": (total("maps.BoltzmannSampler.__init__"), "s"),
        "maps.rows_built": (rows, "count"),
        "maps.distinct_rows": (counters["distinct_rows"], "count"),
        "maps.row_reuse": (share(counters["distinct_rows"], rows), "ratio"),
        "maps.row_s": (total("maps.BoltzmannSampler.log_weight_row"), "s"),
        "maps.log_count_exact_s": (total("maps.log_count_exact"), "s"),
        "maps.sample_s": (total("maps.BoltzmannSampler.sample"), "s"),
        "maps.density_self_s": (self_s("maps.joint_density_check"), "s"),
        "io.write_csv_s": (total("io.write_csv"), "s"),
        "io.bytes_written": (counters["bytes_written"], "bytes"),
        "io.sha256_s": (total("io.sha256_file"), "s"),
    }
