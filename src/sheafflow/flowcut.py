"""Flows, cuts, cut values, the homotopy limit, and MFMC verification.

The mass-level value calculus lives in `weights`; this module exposes the
network-facing operations, dispatches between the weighted backends and the
finite-sheaf machinery, and assembles the verification reports.
"""

from __future__ import annotations

from .errors import NotSemilattice, SheafflowError
from .homology import (Flow, enumerate_flows_finite, flow_equalizer_linear,
                       flows_from_solutions, h1, is_locally_decomposable)
from .maxflow import ford_fulkerson
from .weights import (WeightedNetwork, cover_routable_values,
                      enumerate_e_cuts, enumerate_lattice_flows,
                      flow_value_set, holim_cut_values, intersect_cut_values)


def enumerate_flows(sheaf):
    """All flows (finite stalks) or a generating description (linear)."""
    if sheaf.is_finite_stalked():
        return enumerate_flows_finite(sheaf)
    col_info, sols = flow_equalizer_linear(sheaf)
    return flows_from_solutions(sheaf, col_info, sols)


def ford_fulkerson_oracle(net_or_digraph, capacities=None, s=None, t=None):
    """Classical max-flow value; accepts a WeightedNetwork or raw data."""
    if isinstance(net_or_digraph, WeightedNetwork):
        net = net_or_digraph
        if net.kind != "nat" or net.dim != 1:
            raise SheafflowError("oracle needs scalar nat capacities")
        x = net.digraph
        arcs = [(x.src[f], x.tgt[f], net.stalks[f].max_scalar())
                for f in x.edges if f != net.e
                if x.src[f] is not None and x.tgt[f] is not None]
        return ford_fulkerson(x.vertices, arcs, net.source, net.sink)
    x = net_or_digraph
    arcs = [(x.src[f], x.tgt[f], capacities[f]) for f in x.edges
            if x.src[f] is not None and x.tgt[f] is not None]
    return ford_fulkerson(x.vertices, arcs, s, t)


def algebraic_mfmc(net):
    """sup of marked-edge values of decomposable flows vs inf of cut sums.

    Needs a naturally complete inf-semilattice ordered weight structure;
    returns (max_flow, min_cut, equal).
    """
    net.require_acyclic_off_e()
    if net.kind == "nat" and net.dim == 1:
        vmax = net.max_flow()
        cuts = net.e_cuts()
        if not cuts:
            vmin = net.stalks[net.e].max_scalar()
        else:
            vmin = min(sum(net.stalks[f].max_scalar() for f in c.edges)
                       for c in cuts)
        return vmax, vmin, vmax == vmin
    if net.kind == "lattice":
        if not (net.module.ground.is_inf_semilattice or
                getattr(net.module, "is_inf_semilattice", False)):
            raise NotSemilattice("weight module lacks the semilattice flags")
        flows = enumerate_lattice_flows(net)
        m = net.module
        vmax = m.zero()
        for f in flows:
            vmax = m.add(vmax, f[net.e])
        cuts = net.e_cuts()
        if not cuts:
            return vmax, None, False
        cut_sums = []
        for c in cuts:
            acc = m.zero()
            for f in c.edges:
                acc = m.add(acc, net.stalks[f].join_all())
            cut_sums.append(acc)
        vmin = _lattice_meet(m, cut_sums)
        return vmax, vmin, vmax == vmin
    raise NotSemilattice("no algebraic MFMC backend for kind %r" % net.kind)


def _lattice_meet(m, values):
    """Greatest lower bound w.r.t. the natural preorder, by enumeration."""
    from .semimodule import natural_preorder_leq
    els = list(m.elements())
    lower = [x for x in els
             if all(natural_preorder_leq(m, x, v) for v in values)]
    best = [x for x in lower
            if all(natural_preorder_leq(m, y, x) for y in lower)]
    if not best:
        raise NotSemilattice("no greatest lower bound among cut values")
    return best[0]


class MfmcReport:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def mfmc_report(net, minimal_only=True):
    """Compute flow values, the homotopy limit and the cut-value
    intersection once each; assert the theorem's equalities and flag
    duality gaps.

    `minimal_only` chooses which cuts are intersected, not the result; the
    report's `cuts` are the minimal cuts either way.  `exact_at_e` is
    `weighted_exactness_at_edge` derived from the sets in hand: over N the
    holim is the flow value set, and over N and a finite lattice the
    cover-routable values are the holim.
    """
    flows = flow_value_set(net)
    holim = flows if net.kind == "nat" else holim_cut_values(net)
    routable = holim if net.kind != "qpos" else cover_routable_values(net)
    inter, cuts = intersect_cut_values(net, minimal_only=minimal_only)
    if not flows.issubset(inter):
        raise SheafflowError(
            "flow values escape the cut-value intersection; "
            "the weak-duality invariant is violated")
    witness = inter.witness_not_in(flows)
    gap = witness is not None
    return MfmcReport(flow_values=flows, holim=holim,
                      cut_intersection=inter,
                      flow_equals_holim=flows == holim,
                      gap=gap, witness=witness,
                      exact_at_e=routable.issubset(flows) and not gap,
                      cuts=[c for c in cuts if c.minimal])


def gap_check(net):
    report = mfmc_report(net)
    return report.gap, report.witness, report


def h1_equals_flows_check(x, sheaf):
    """Prop 'flows' on a finite instance: H1 = finite locally decomposable
    flows elementwise; all flows are included when the local criteria hold."""
    from .homology import equalizer_criteria_hold
    flows = enumerate_flows(sheaf)
    hres = h1(x, sheaf)
    h1_flows = hres.flows if hres.flows is not None else hres.generating_flows()
    dec = [f for f in flows if is_locally_decomposable(f, sheaf)[0]]
    if hres.flows is not None:
        h1_set = set(h1_flows)
        ok = set(dec) == h1_set
    else:
        sigs = {f.signature() for f in h1_flows}
        ok = all(f.signature() in sigs or is_locally_decomposable(f, sheaf)[0]
                 for f in dec)
    if equalizer_criteria_hold(x, sheaf) and hres.flows is not None:
        ok = ok and set(flows) == h1_set
    return ok
