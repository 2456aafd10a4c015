"""Timing spans around the public entry points of the ncomplex modules.

A ``Tracer`` replaces each target function or method with a wrapper at
every module attribute that binds it, so a name imported with
``from ... import`` into several modules is timed wherever it is called.
Each call records one span (name, parent span, start, end) in memory.
An ``lru_cache``d target gets a fresh cache around the timed function, so
only cache misses, the calls that do work, leave a span, and a hit costs
no more than it does untraced. ``layer_metrics`` turns the recorded spans
into the per-layer metrics: self times, call counts and the counters kept
by hooks.

Nothing here imports ncomplex; the modules are passed in, so the same code
serves the traced child process and the self-tests.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, time metric, count metric)
TARGETS = (
    ("tensor_core", "projector_columns",
     "tensor_core.projector_build_s", "tensor_core.projector_builds"),
    ("tensor_core", "schur_wedge_basis", "tensor_core.basis_build_s", None),
    ("tensor_core", "schur_conditions_ok",
     "tensor_core.symmetry_check_s", "tensor_core.symmetry_checks"),
    ("fields", "_insertion", "fields.insertion_build_s", None),
    ("fields", "_apply_d_int", "fields.d_apply_s", "fields.d_apply_calls"),
    ("fields", "_block_int_basis", "fields.block_basis_s", None),
    ("fields", "block_basis", "fields.block_basis_s", None),
    ("fields", "n_diff", "fields.n_diff_s", "fields.n_diff_calls"),
    ("fields", "PolyTensorField.from_components", "fields.field_validate_s", None),
    ("cohomology", "_image_vectors", "cohomology.image_s", "cohomology.image_sets"),
    ("cohomology", "CohomologyTable.to_csv", "cli.report_s", None),
    ("cohomology", "CohomologyTable.to_json", "cli.report_s", None),
    ("cohomology", "SuiteReport.to_json", "cli.report_s", None),
    ("cohomology", "SuiteReport.__str__", "cli.report_s", None),
    ("linalg", "Echelon.add", "linalg.eliminate_s", "linalg.vectors_added"),
    ("linalg", "Echelon.contains", "linalg.membership_s", "linalg.membership_tests"),
    ("linalg", "nullspace", "linalg.nullspace_s", None),
    ("multiforms", "d_slot", "multiforms.d_slot_s", "multiforms.d_slot_calls"),
    ("multiforms", "Multiform.__init__", "multiforms.construct_s", "multiforms.constructions"),
    ("multiforms", "multiform_basis", "multiforms.basis_s", None),
    ("multiforms", "CheckReport.to_json", "cli.report_s", None),
    ("multiforms", "CheckReport.__str__", "cli.report_s", None),
    ("gauge", "spin2_d1", "gauge.operator_s", "gauge.operator_calls"),
    ("gauge", "spin2_d2", "gauge.operator_s", "gauge.operator_calls"),
    ("gauge", "spin2_d3", "gauge.operator_s", "gauge.operator_calls"),
    ("quotient_algebra", "_insert_index",
     "quotient_algebra.insert_s", "quotient_algebra.insert_calls"),
)

# Names bound by ``from ... import`` in more than one module: a wrapper on
# only one of them would miss the calls made through the others.
BINDING_SITES = (
    ("fields", "_apply_d_int"), ("cohomology", "_apply_d_int"),
    ("fields", "_insertion"), ("quotient_algebra", "_insertion"),
    ("fields", "block_basis"), ("cohomology", "block_basis"),
    ("multiforms", "block_basis"), ("gauge", "block_basis"),
    ("fields", "n_diff"), ("cohomology", "n_diff"),
    ("multiforms", "n_diff"), ("gauge", "n_diff"),
)

# lru caches whose hit ratio at exit is reported: (module, attribute, metric)
CACHES = (
    ("tensor_core", "projector_columns", "cache.projector_columns.hit_ratio"),
    ("fields", "_insertion", "cache._insertion.hit_ratio"),
    ("cohomology", "_image_vectors", "cache._image_vectors.hit_ratio"),
)


def _projector_nnz(counters, out, args):
    counters["tensor_core.projector_nnz"] += sum(len(col) for col in out[0].values())


def _d_apply_terms(counters, out, args):
    counters["fields.d_apply_terms"] += len(out)


def _echelon_add(counters, out, args):
    if out:
        counters["linalg.useful_adds"] += 1
        # rows are stored once, at the end of the dict, and never rewritten
        row = next(reversed(args[0].rows.values()))
        bits = max(abs(v).bit_length() for v in row.values())
        if bits > counters["linalg.max_coeff_bits"]:
            counters["linalg.max_coeff_bits"] = bits


HOOKS = {
    "tensor_core.projector_columns": _projector_nnz,
    "fields._apply_d_int": _d_apply_terms,
    "linalg.Echelon.add": _echelon_add,
}


class Tracer:
    """Records spans of wrapped calls; one tracer per traced process."""

    def __init__(self):
        self.spans: list = []      # (name, parent index or -1, start, end)
        self.counters = {"tensor_core.projector_nnz": 0, "fields.d_apply_terms": 0,
                         "linalg.useful_adds": 0, "linalg.max_coeff_bits": 0}
        self._stack: list = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, parent, t0, t1)
            if hook is not None:
                hook(counters, out, args)
            return out

        functools.update_wrapper(traced, fn)
        traced.traced_as = name
        return traced

    def install(self, modules: dict, package_modules) -> list:
        """Wrap every target at every binding site.

        ``modules`` maps a short module name ("fields") to the module;
        ``package_modules`` are all loaded modules of the package, searched
        for further attributes bound to a module-level target. Returns the
        original objects, for ``unwrapped_sites``.
        """
        originals = []
        for mod, attr, _, _ in TARGETS:
            owner = modules[mod]
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
                originals.append(raw)
                continue
            fn = getattr(owner, attr)
            if hasattr(fn, "cache_info"):
                maxsize = fn.cache_parameters()["maxsize"]
                wrapper = functools.lru_cache(maxsize=maxsize)(self.wrap(name, fn.__wrapped__))
            else:
                wrapper = self.wrap(name, fn)
            for m in package_modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
            originals.append(fn)
        return originals

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], p, t0, t1] for n, p, t0, t1 in self.spans],
                "counters": dict(self.counters)}


def unwrapped_sites(modules: dict, package_modules, originals) -> list:
    """Binding sites that do not resolve to a wrapper; empty when tracing is complete."""
    bad = [f"{mod}.{attr}" for mod, attr in BINDING_SITES
           if not hasattr(getattr(modules[mod], attr), "traced_as")]
    ids = {id(o) for o in originals}
    for m in package_modules:
        bad += [f"{m.__name__}.{k}" for k, v in vars(m).items() if id(v) in ids]
    for mod, attr, *_ in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = getattr(modules[mod], cls_name).__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not hasattr(fn, "traced_as"):
                bad.append(f"{mod}.{attr}")
    return bad


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its child spans cover.

    ``spans`` is a list of (name, parent index or -1, start, end), parents
    listed before their children.
    """
    children: dict = {}
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered, reach = 0.0, t0
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][2]):
            a, b = max(spans[j][2], reach), min(spans[j][3], t1)
            if b > a:
                covered += b - a
                reach = b
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics from a dumped trace ``doc`` (see ``Tracer.dump``)."""
    names = doc["names"]
    spans = [(names[n], p, t0, t1) for n, p, t0, t1 in doc["spans"]]
    metrics = {}
    for mod, attr, time_metric, count_metric in TARGETS:
        metrics[time_metric] = 0.0
        if count_metric:
            metrics[count_metric] = 0
    by_name = {f"{mod}.{attr}": (tm, cm) for mod, attr, tm, cm in TARGETS}
    for (name, _, _, _), st in zip(spans, self_times(spans)):
        time_metric, count_metric = by_name[name]
        metrics[time_metric] += st
        if count_metric:
            metrics[count_metric] += 1
    c = doc["counters"]
    metrics["tensor_core.projector_nnz"] = c["tensor_core.projector_nnz"]
    metrics["fields.d_apply_terms"] = c["fields.d_apply_terms"]
    metrics["linalg.max_coeff_bits"] = c["linalg.max_coeff_bits"]
    adds = metrics["linalg.vectors_added"]
    metrics["linalg.useful_ratio"] = c["linalg.useful_adds"] / adds if adds else 0.0
    top_level = sum(t1 - t0 for _, p, t0, t1 in spans if p < 0)
    metrics["process.unattributed_s"] = doc["wall_s"] - top_level
    for metric, (hits, misses) in doc.get("caches", {}).items():
        metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
    return metrics
