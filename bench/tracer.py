"""Span tracer that times calls into the library from outside it.

`Tracer.install` rebinds each listed public function (or method) in every
loaded `sheafflow` module namespace that holds it, so calls made through
any import path are caught.  Each call records a span (id, parent id,
name, start, end); a span's self time is its duration minus the time of
its child spans.  Hooks derive work counts from a call's arguments and
result; they run after the span closes and their time is charged to
`trace.hook_s`, not to the enclosing span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" for methods
TRACED = (
    ("cones", "lp_feasible"), ("cones", "extreme_rays"), ("cones", "in_cone"),
    ("weights", "enumerate_e_cuts"), ("weights", "flow_value_set"),
    ("weights", "max_flow_by_cycles"), ("weights", "holim_cut_values"),
    ("weights", "weighted_exactness_at_edge"),
    ("weights", "intersect_cut_values"), ("weights", "cut_value_set"),
    ("weights", "enumerate_lattice_flows"),
    ("flowcut", "mfmc_report"), ("flowcut", "algebraic_mfmc"),
    ("flowcut", "h1_equals_flows_check"),
    ("digraph", "simple_directed_loops"), ("digraph", "is_acyclic"),
    ("digraph", "subdivide"),
    ("semimodule", "direct_sum"), ("semimodule", "check_flat_certificate"),
    ("semimodule", "join_semilattice_from_leq"), ("semimodule", "equalizer"),
    ("semimodule", "natural_preorder_leq"),
    ("congruence", "congruence_closure_finite"),
    ("congruence", "NatCongruence.normal_form"),
    ("congruence", "NatCongruence.classes_up_to"),
    ("hilbert", "hilbert_basis"), ("hilbert", "syzygy_pairs"),
    ("intlinalg", "smith_normal_form"), ("intlinalg", "kernel_basis"),
    ("intlinalg", "solve_integer"),
    ("homology", "h1"), ("homology", "is_locally_decomposable"),
    ("homology", "enumerate_flows_finite"), ("homology", "h0_homology"),
    ("homology", "orientation_sheaf"),
    ("homology", "check_sd_invariance_homology"),
    ("cohomology", "h0"), ("cohomology", "h1"),
    ("cohomology", "check_sd_invariance_cohomology"),
    ("sheaf", "sd_sheaf"),
    ("cli", "parse"), ("cli", "run"),
    ("maxflow", "ford_fulkerson"),
)

LAYERS = ("cones", "weights", "flowcut", "digraph", "semimodule",
          "congruence", "hilbert", "intlinalg", "homology", "cohomology",
          "sheaf", "cli", "maxflow")

ROOT = "bench.op"
SPAN_CAP = 200_000


def _module_key(m):
    """Structural identity of a semimodule for the flatness repeat count:
    its type, ground, totality and carrier (or generators)."""
    amb = getattr(m, "ambient", m)
    total = m.is_total() if hasattr(m, "is_total") else True
    ground = getattr(getattr(amb, "ground", None), "name", None)
    if amb.is_finite():
        body = repr(amb.elements())
    else:
        body = repr(getattr(amb, "gens", id(amb)))
    return (type(amb).__name__, ground, total, body)


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.hook_s = 0.0
        self._stack = []  # [span id, child seconds]
        self._next = 0
        self._saved = []
        self._flat_seen = set()

    # -- spans -----------------------------------------------------------------

    def _record(self, name, start, end, sid, parent, child):
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    def run_op(self, fn):
        """Run one op under a root span."""
        return self._call(ROOT, fn, (), {}, None)

    def _call(self, name, fn, args, kwargs, hook):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(name, start, end, sid, parent, frame[1])
        if hook is not None:
            h0 = time.perf_counter()
            hook(self, args, result)
            spent = time.perf_counter() - h0
            self.hook_s += spent
            if self._stack:
                self._stack[-1][1] += spent
        return result

    # -- installation ----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == "sheafflow" or k.startswith("sheafflow.")}
        for mod_name, attr in TRACED:
            mod = mods["sheafflow." + mod_name]
            name = "%s.%s" % (mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    # -- reporting -------------------------------------------------------------

    def metrics(self, ops, op_seconds):
        """Per-layer metrics; ops and op_seconds are the traced op count and
        the summed op time."""
        out = {}
        for mod_name, attr in TRACED:
            name = "%s.%s" % (mod_name, attr)
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        c = self.counts
        calls = self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        extra = {
            "cones.lp_feasible.calls_per_op":
                (ratio(calls["cones.lp_feasible"], ops), "count/op"),
            "cones.lp_feasible.infeasible_ratio":
                (ratio(c["lp_infeasible"], calls["cones.lp_feasible"]),
                 "ratio"),
            "weights.enumerate_e_cuts.cuts_out": (c["cuts_out"], "count"),
            "weights.enumerate_e_cuts.minimal_ratio":
                (ratio(c["cuts_minimal"], c["cuts_out"]), "ratio"),
            "weights.flow_value_set.calls_per_op":
                (ratio(calls["weights.flow_value_set"], ops), "count/op"),
            "digraph.simple_directed_loops.loops_out":
                (c["loops_out"], "count"),
            "semimodule.direct_sum.elements_out":
                (c["sum_elements"], "count"),
            "semimodule.direct_sum.table_cells": (c["sum_cells"], "count"),
            "semimodule.check_flat_certificate.repeat_ratio":
                (ratio(c["flat_repeat"],
                       calls["semimodule.check_flat_certificate"]), "ratio"),
            "congruence.congruence_closure_finite.elements_in":
                (c["closure_elements"], "count"),
            "hilbert.hilbert_basis.basis_out": (c["basis_out"], "count"),
            "homology.is_locally_decomposable.true_ratio":
                (ratio(c["decomposable"],
                       calls["homology.is_locally_decomposable"]), "ratio"),
            "cohomology.h1.incomplete_ratio":
                (ratio(c["coh_h1_incomplete"], calls["cohomology.h1"]),
                 "ratio"),
        }
        for via in ("DirectEqualizer", "Resolution", "DualityH0Twisted"):
            extra["homology.h1.via." + via] = (c["via." + via], "count")
        out.update(extra)
        total = op_seconds or 1.0
        for layer in LAYERS:
            share = sum(self.self_s[n] for n in self.self_s
                        if n.split(".")[0] == layer) / total
            out["layer.%s.self_share" % layer] = (share, "ratio")
        out["layer.unattributed.self_share"] = (self.self_s[ROOT] / total,
                                                "ratio")
        return out


# -- hooks: work counts derived from arguments and results ---------------------

def _h_lp(t, args, r):
    if r is None:
        t.counts["lp_infeasible"] += 1


def _h_cuts(t, args, r):
    t.counts["cuts_out"] += len(r)
    t.counts["cuts_minimal"] += sum(1 for c in r if c.minimal)


def _h_loops(t, args, r):
    t.counts["loops_out"] += len(r)


def _h_direct_sum(t, args, r):
    amb = r[0].ambient
    if amb.is_finite():
        n = len(amb.elements())
        t.counts["sum_elements"] += n
        t.counts["sum_cells"] += n * n


def _h_flat(t, args, r):
    key = _module_key(args[0])
    if key in t._flat_seen:
        t.counts["flat_repeat"] += 1
    t._flat_seen.add(key)


def _h_closure(t, args, r):
    t.counts["closure_elements"] += len(r)


def _h_basis(t, args, r):
    t.counts["basis_out"] += len(r)


def _h_h1(t, args, r):
    t.counts["via." + r.computed_via] += 1


def _h_decomposable(t, args, r):
    if r[0]:
        t.counts["decomposable"] += 1


def _h_coh_h1(t, args, r):
    if not getattr(r, "complete", True):
        t.counts["coh_h1_incomplete"] += 1


HOOKS = {
    "cones.lp_feasible": _h_lp,
    "weights.enumerate_e_cuts": _h_cuts,
    "digraph.simple_directed_loops": _h_loops,
    "semimodule.direct_sum": _h_direct_sum,
    "semimodule.check_flat_certificate": _h_flat,
    "congruence.congruence_closure_finite": _h_closure,
    "hilbert.hilbert_basis": _h_basis,
    "homology.h1": _h_h1,
    "homology.is_locally_decomposable": _h_decomposable,
    "cohomology.h1": _h_coh_h1,
}
