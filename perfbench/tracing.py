"""In-memory spans around the calls into each envalg layer.

The traced run replaces public envalg functions and methods by thin wrappers
that record one span per call: name, start, end, parent span and iteration
id.  Only functions that callers look up through a module or class attribute
at call time are wrapped, so no envalg source changes.  Spans stay in memory
until the run ends; :meth:`Tracer.layer_metrics` turns them into per-layer
self times, call counts and the counters gathered by the observers below.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

clock = time.perf_counter

SUITES = (
    "bch-identity", "pbw-confluence", "radius", "recursion", "positivity",
    "gns", "local-hom", "kernel", "cauchy", "extension",
)

# Metric names emitted by every traced run, in BENCHMARK.json order.
# "<span>.busy_s" is per-iteration self time, "<span>.calls" per-iteration calls.
BUSY = (
    ["cli.parse_config", "cli.render_machine", "import.envalg"]
    + [f"cli.run_suite.{s}" for s in SUITES]
    + ["fa_bch", "fa_check_exp_identity",
       "pbw_reduce", "pbw_mul", "star", "bch_in_g",
       "beta_component", "symmetrize", "pnorm", "insertion_constants",
       "regular_act", "FunctionalTable.eval",
       "functional_from_rep", "moment_matrix", "psd_check", "gns_build.exact",
       "gns_build.float", "orbit_gram", "analytic_diagnostics",
       "MatrixRep.generator_array", "MatrixRep.validate",
       "matrix_exp", "sample_group", "pd_kernel_check", "cauchy_estimate_check",
       "local_hom_check"]
)
CALLS = (
    "fa_bch", "fa_check_exp_identity", "pbw_reduce", "pbw_mul", "star",
    "beta_component", "insertion_constants", "regular_act", "FunctionalTable.eval",
    "MatrixRep.generator_array", "MatrixRep.validate", "matrix_exp",
    "cauchy_estimate_check",
)
COUNTERS = {
    "functionals.words_enumerated": "count",
    "gns.moment_size": "count",
    "gns.ldl_rank": "count",
    "group_integration.expm_per_cauchy": "expm/call",
    "scalars.result_max_bits": "bits",
}


def per_layer_names():
    """``(name, unit)`` of every per-layer metric, in a fixed order."""
    out = []
    for span in BUSY:
        out.append((f"{span}.busy_s", "s"))
        if span in CALLS:
            out.append((f"{span}.calls", "count"))
    out.extend(COUNTERS.items())
    out.append(("trace.overhead_s", "s"))
    return out


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


# -- observers: counters taken from the arguments and results of a call -----

def _observe_beta(tracer, args, result):
    lam, n = args[0], args[1]
    tracer.add("functionals.words_enumerated", lam.spec.dim ** n)


def _observe_insertion(tracer, args, result):
    lam, n = args[0], args[1]
    # (n+1) positions times dim letters, each a table over dim**n words
    tracer.add("functionals.words_enumerated", (n + 1) * lam.spec.dim * lam.spec.dim ** n)
    tracer.bits(result.squared)


def _observe_moment(tracer, args, result):
    tracer.add("gns.moment_size", result.size)


def _observe_psd(tracer, args, result):
    if result.exact:
        tracer.add("gns.ldl_rank", result.rank)
        for p in result.pivots:
            tracer.bits(p)


def _observe_radius(tracer, args, result):
    for _, root in result.per_degree:
        if root is not None:
            tracer.bits(root.squared)


def _gns_name(args, kwargs):
    return "gns_build.exact" if args[0].exact else "gns_build.float"


def _suite_name(args, kwargs):
    return f"cli.run_suite.{args[1]}"


# (module, attribute, span name or name function, observer); a dotted
# attribute names a method looked up on its class.
TARGETS = (
    ("envalg.cli", "parse_config", "cli.parse_config", None),
    ("envalg.cli", "render_machine", "cli.render_machine", None),
    ("envalg.cli", "run_suite", _suite_name, None),
    ("envalg.free_algebra", "fa_bch", "fa_bch", None),
    ("envalg.free_algebra", "fa_check_exp_identity", "fa_check_exp_identity", None),
    ("envalg.lie_structure", "pbw_reduce", "pbw_reduce", None),
    ("envalg.lie_structure", "pbw_mul", "pbw_mul", None),
    ("envalg.lie_structure", "star", "star", None),
    ("envalg.lie_structure", "bch_in_g", "bch_in_g", None),
    ("envalg.functionals", "beta_component", "beta_component", _observe_beta),
    ("envalg.functionals", "symmetrize", "symmetrize", None),
    ("envalg.functionals", "pnorm", "pnorm", None),
    ("envalg.functionals", "insertion_constants", "insertion_constants", _observe_insertion),
    ("envalg.functionals", "regular_act", "regular_act", None),
    ("envalg.functionals", "radius_estimate", "radius_estimate", _observe_radius),
    ("envalg.functionals", "FunctionalTable.eval", "FunctionalTable.eval", None),
    ("envalg.gns", "functional_from_rep", "functional_from_rep", None),
    ("envalg.gns", "moment_matrix", "moment_matrix", _observe_moment),
    ("envalg.gns", "psd_check", "psd_check", _observe_psd),
    ("envalg.gns", "gns_build", _gns_name, None),
    ("envalg.gns", "orbit_gram", "orbit_gram", None),
    ("envalg.gns", "analytic_diagnostics", "analytic_diagnostics", None),
    ("envalg.gns", "MatrixRep.generator_array", "MatrixRep.generator_array", None),
    ("envalg.gns", "MatrixRep.validate", "MatrixRep.validate", None),
    ("envalg.group_integration", "matrix_exp", "matrix_exp", None),
    ("envalg.group_integration", "sample_group", "sample_group", None),
    ("envalg.group_integration", "pd_kernel_check", "pd_kernel_check", None),
    ("envalg.group_integration", "cauchy_estimate_check", "cauchy_estimate_check", None),
    ("envalg.group_integration", "local_hom_check", "local_hom_check", None),
)


class Tracer:
    """Spans ``[name, start, end, parent, iteration]`` and per-iteration counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.iteration = -1          # -1 marks set-up
        self.counters = {}           # iteration -> {counter: value}
        self._patched = []

    # -- recording ---------------------------------------------------------

    def record(self, name, start, end, parent=-1):
        self.spans.append([name, start, end, parent, self.iteration])

    def add(self, counter, amount):
        row = self.counters.setdefault(self.iteration, {})
        row[counter] = row.get(counter, 0) + amount

    def bits(self, q):
        row = self.counters.setdefault(self.iteration, {})
        key = "scalars.result_max_bits"
        row[key] = max(row.get(key, 0), _bits(q))

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever an envalg module or class holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "envalg" or n.startswith("envalg.")]
        for mod_name, attr, name, observe in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, observe))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def merge(self, spans, counters):
        """Append spans and counters recorded by a child process."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.record(name, start, end, parent + base if parent >= 0 else -1)
        for key, value in counters.items():
            if key == "scalars.result_max_bits":
                row = self.counters.setdefault(self.iteration, {})
                row[key] = max(row.get(key, 0), value)
            else:
                self.add(key, value)

    # -- reduction ---------------------------------------------------------

    def per_iteration(self):
        """``{iteration: {name: [self_seconds, calls]}}`` from the span tree."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, it) in enumerate(self.spans):
            row = out.setdefault(it, {}).setdefault(name, [0.0, 0])
            row[0] += (end - start) - child[idx]
            row[1] += 1
        return out

    def expm_per_cauchy(self):
        """``{iteration: matrix_exp calls under a cauchy span, per cauchy call}``."""
        cauchy, expm = {}, {}
        for name, _, _, parent, it in self.spans:
            if name == "cauchy_estimate_check":
                cauchy[it] = cauchy.get(it, 0) + 1
            elif name == "matrix_exp":
                while parent >= 0 and self.spans[parent][0] != "cauchy_estimate_check":
                    parent = self.spans[parent][3]
                if parent >= 0:
                    expm[it] = expm.get(it, 0) + 1
        return {it: expm.get(it, 0) / calls for it, calls in cauchy.items()}

    def layer_metrics(self, factors):
        """Per-layer metrics: medians over the traced iterations.

        Iteration i's self times are scaled by ``factors[i]`` (see run.py's
        SpeedScale); the set-up import is not scaled, like ``setup_s``.
        """
        table = self.per_iteration()
        iterations = range(len(factors))
        values = {}
        for span in BUSY:
            rows = [table.get(i, {}).get(span, [0.0, 0]) for i in iterations]
            values[f"{span}.busy_s"] = statistics.median(
                row[0] * f for row, f in zip(rows, factors))
            if span in CALLS:
                values[f"{span}.calls"] = statistics.median(row[1] for row in rows)
        setup = table.get(-1, {})
        if "import.envalg" in setup and not values["import.envalg.busy_s"]:
            # in-process workloads import once, during set-up
            values["import.envalg.busy_s"] = setup["import.envalg"][0]
        ratios = self.expm_per_cauchy()
        for key in COUNTERS:
            if key == "group_integration.expm_per_cauchy":
                vals = [ratios.get(i, 0.0) for i in iterations]
            else:
                vals = [self.counters.get(i, {}).get(key, 0) for i in iterations]
            values[key] = statistics.median(vals)
        return values

    def write(self, path, header):
        """Write the header and every span as gzipped JSON lines."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, it in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, it]) + "\n")
