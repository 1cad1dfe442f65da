"""Out-of-program tracing for the per-layer metrics.

The tracer wraps hopfdual's public functions from outside: each wrapped call
records a span (name, start, end, parent, job id) in memory, and a few
wrappers also bump counters. FieldSpec scalar ops only bump counters; a span
per scalar op would cost more than the op. A module that did
``from .exact import solve`` holds its own reference to the function, so
installing a wrapper rebinds every attribute of every hopfdual module that
holds the original object.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer). A dotted attribute is a method.
SPANS = (
    ("exact", "rref", "exact.rref"),
    ("exact", "solve", "exact.solve"),
    ("exact", "kernel_basis", "exact.kernel_basis"),
    ("exact", "inverse", "exact.inverse"),
    ("exact", "Matrix.__mul__", "exact.matmul"),
    ("exact", "Span.add", "exact.span.add"),
    ("exact", "Span.reduce", "exact.span.reduce"),
    ("lie", "TensorAlgebraOracle.__init__", "lie.oracle_init"),
    ("lie", "TruncatedEnveloping.normal_form", "lie.normal_form"),
    ("lie", "coproduct_on_U", "lie.coproduct"),
    ("polys", "char_poly", "polys.char_poly"),
    ("polys", "factor_monic_fp", "polys.factor"),
    ("reps", "reynolds", "reps.reynolds"),
    ("reps", "invariant_integral", "reps.invariant_integral"),
    ("reps", "quotient_rep", "reps.exactness"),
    ("reps", "check_invariant_exactness", "reps.exactness"),
    ("reps", "decompose_rep_of_Z", "reps.decompose_z"),
    ("tannaka", "annihilator_quotient", "tannaka.annihilator_quotient"),
    ("bialgebra", "verify_algebra", "bialgebra.verify"),
    ("bialgebra", "verify_coalgebra", "bialgebra.verify"),
    ("bialgebra", "verify_bialgebra", "bialgebra.verify"),
    ("bialgebra", "check_hopf", "bialgebra.verify"),
    ("bialgebra", "dualize", "bialgebra.dualize"),
    ("monoids", "cartier_check", "monoids.cartier"),
    ("monoids", "points", "monoids.points"),
    ("io", "_load_json", "io.load"),
    ("io", "bialgebra_from_json", "io.load"),
    ("io", "monoid_from_json", "io.load"),
    ("io", "representation_from_json", "io.load"),
    ("io", "lie_from_json", "io.load"),
    ("io", "load_matrix", "io.load"),
    ("io", "canonicalize", "io.canonicalize"),
    ("io", "dump_canonical", "io.canonicalize"),
    ("cli", "main", "cli"),
)

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv")

# Every per-layer metric, with its unit, in the order it is printed.
METRICS = (
    ("exact.scalar_ops", "count"),
    ("exact.inv_calls", "count"),
    ("exact.rref.calls", "count"),
    ("exact.rref.cells", "count"),
    ("exact.rref.self_s", "s"),
    ("exact.solve.calls", "count"),
    ("exact.solve.self_s", "s"),
    ("exact.kernel_basis.calls", "count"),
    ("exact.inverse.calls", "count"),
    ("exact.matmul.calls", "count"),
    ("exact.matmul.mults", "count"),
    ("exact.matmul.self_s", "s"),
    ("exact.span.add.calls", "count"),
    ("exact.span.add.useful_frac", "frac"),
    ("exact.span.add.self_s", "s"),
    ("exact.span.reduce.self_s", "s"),
    ("exact.span.width_max", "count"),
    ("lie.oracle_init.self_s", "s"),
    ("lie.normal_form.calls", "count"),
    ("lie.normal_form.self_s", "s"),
    ("lie.coproduct.self_s", "s"),
    ("polys.char_poly.self_s", "s"),
    ("polys.factor.self_s", "s"),
    ("polys.factor.trial_divisions", "count"),
    ("polys.factor.useful_frac", "frac"),
    ("reps.reynolds.self_s", "s"),
    ("reps.invariant_integral.self_s", "s"),
    ("reps.exactness.self_s", "s"),
    ("reps.decompose_z.self_s", "s"),
    ("tannaka.annihilator_quotient.self_s", "s"),
    ("bialgebra.verify.self_s", "s"),
    ("bialgebra.dualize.self_s", "s"),
    ("monoids.cartier.self_s", "s"),
    ("monoids.points.self_s", "s"),
    ("io.load.self_s", "s"),
    ("io.canonicalize.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that must repeat exactly across runs with one seed.
COUNTS = tuple(name for name, unit in METRICS if unit == "count")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.ops = [0, 0]      # scalar ops, inverses

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.ops[:] = [0, 0]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result
        return traced

    def _hooks(self, layer):
        """Counters kept at a span boundary: (before, after)."""
        def calls(counts, args):
            counts[layer + ".calls"] += 1

        if layer == "exact.rref":
            def before(counts, args):
                counts[layer + ".calls"] += 1
                counts[layer + ".cells"] += args[0].rows * args[0].cols
            return before, None
        if layer == "exact.matmul":
            def before(counts, args):
                a, b = args
                counts[layer + ".calls"] += 1
                counts[layer + ".mults"] += a.rows * a.cols * b.cols
            return before, None
        if layer == "exact.span.add":
            def before(counts, args):
                counts[layer + ".calls"] += 1
                if args[0].width > counts["exact.span.width_max"]:
                    counts["exact.span.width_max"] = args[0].width

            def after(counts, grew):
                counts[layer + ".useful"] += bool(grew)
            return before, after
        return calls, None

    def install(self, package="hopfdual"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for modname, attr, layer in SPANS:
            mod = sys.modules[f"{package}.{modname}"]
            before, after = self._hooks(layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), layer,
                                              before, after))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, layer, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        self._count_divisions(sys.modules[f"{package}.polys"])
        self._count_scalar_ops(sys.modules[f"{package}.exact"].FieldSpec)

    def _count_divisions(self, polys):
        """Trial divisions made by the factoring routine (the innermost
        open span is polys.factor), and how many found a factor."""
        orig = polys.divmod_poly
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(orig)
        def divmod_poly(*args):
            quo, rem = orig(*args)
            if stack and spans[stack[-1]][0] == "polys.factor":
                counts["polys.factor.trial_divisions"] += 1
                counts["polys.factor.useful"] += not rem
            return quo, rem
        polys.divmod_poly = divmod_poly

    def _count_scalar_ops(self, FieldSpec):
        ops = self.ops
        for name in SCALAR_OPS:
            orig = getattr(FieldSpec, name)
            if name in ("neg", "inv"):
                def op(fs, a, _orig=orig, _inv=name == "inv"):
                    ops[0] += 1
                    ops[1] += _inv
                    return _orig(fs, a)
            else:
                def op(fs, a, b, _orig=orig):
                    ops[0] += 1
                    return _orig(fs, a, b)
            setattr(FieldSpec, name, functools.wraps(orig)(op))

    # -- results -------------------------------------------------------------

    def count_metrics(self) -> dict:
        c = self.counts
        out = {name: c.get(name, 0) for name in COUNTS}
        out["exact.scalar_ops"], out["exact.inv_calls"] = self.ops
        return out

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of the spans and counters recorded since
        the last reset. A span's self time is its duration minus the
        durations of its child spans."""
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        c = self.counts
        out = self.count_metrics()
        for name, unit in METRICS:
            if name.endswith(".self_s"):
                out[name] = self_s[name[:-len(".self_s")]]
        out["exact.span.add.useful_frac"] = _frac(
            c["exact.span.add.useful"], c["exact.span.add.calls"])
        out["polys.factor.useful_frac"] = _frac(
            c["polys.factor.useful"], c["polys.factor.trial_divisions"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{job}\n")


def _frac(num, den):
    return num / den if den else 0.0
