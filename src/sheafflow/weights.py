"""Weighted networks and the exact calculus of their value sets.

Edge weights are complements of additive ideals: down-closed subsets of the
weight semimodule M with respect to its natural preorder.  Three exact
backends cover the fixtures:

* M = N        - principal down-sets are integer boxes; value sets are
                 finite unions of boxes.
* M = Q>=0 ^ d - the natural preorder is the support order (scalars scale),
                 so down-sets are unions of coordinate-support cones; value
                 sets are antichains of support subsets.
* M finite     - explicit subsets of a finite semimodule (lattice weights).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import cones
from .digraph import CellSet, is_acyclic
from .errors import NotAcyclic, SheafflowError


# ---------------------------------------------------------------------------
# value-set calculus
# ---------------------------------------------------------------------------

class BoxSet:
    """Finite union of integer boxes [0, cap] in N^d (d = 1 classically)."""

    def __init__(self, caps):
        self.caps = _box_antichain([tuple(c) for c in caps])

    @classmethod
    def principal(cls, cap):
        return cls([tuple(cap) if isinstance(cap, (tuple, list)) else (cap,)])

    @classmethod
    def zero(cls, dim=1):
        return cls([(0,) * dim])

    def contains(self, x):
        x = tuple(x) if isinstance(x, (tuple, list)) else (x,)
        return any(all(a <= c for a, c in zip(x, cap)) for cap in self.caps)

    def issubset(self, other):
        return all(other.contains(c) for c in self.caps)

    def witness_not_in(self, other):
        """A corner of self outside other, or None."""
        for c in self.caps:
            if not other.contains(c):
                return c
        return None

    def add(self, other):
        return BoxSet([tuple(a + b for a, b in zip(c1, c2))
                       for c1 in self.caps for c2 in other.caps])

    def intersect(self, other):
        return BoxSet([tuple(min(a, b) for a, b in zip(c1, c2))
                       for c1 in self.caps for c2 in other.caps])

    def enumerate(self):
        seen = set()
        for cap in self.caps:
            for x in product(*[range(c + 1) for c in cap]):
                seen.add(x)
        return sorted(seen)

    def max_scalar(self):
        """The top of a one-dimensional set."""
        return max(c[0] for c in self.caps)

    def __eq__(self, other):
        return isinstance(other, BoxSet) and set(self.caps) == set(other.caps)

    def __repr__(self):
        return "BoxSet(%s)" % sorted(self.caps)


def _box_antichain(caps):
    out = []
    for c in caps:
        if any(all(a <= b for a, b in zip(c, d)) and c != d for d in caps):
            continue
        if c not in out:
            out.append(c)
    return sorted(out)


class SupportSet:
    """Union of coordinate-support cones in Q>=0 ^ d.

    Over the nonnegative rationals the natural preorder is the support
    order, so every principal down-set is the cone of the coordinates its
    generator touches; a general down-closed weight is an antichain of
    support subsets.
    """

    def __init__(self, dim, supports):
        self.dim = dim
        self.supports = _support_antichain(
            [frozenset(t) for t in supports] or [frozenset()])

    @classmethod
    def principal(cls, vec):
        return cls(len(vec), [frozenset(i for i, c in enumerate(vec) if c)])

    @classmethod
    def full(cls, dim):
        return cls(dim, [frozenset(range(dim))])

    @classmethod
    def axes(cls, dim):
        return cls(dim, [frozenset({i}) for i in range(dim)])

    @classmethod
    def zero(cls, dim):
        return cls(dim, [frozenset()])

    def contains(self, x):
        supp = frozenset(i for i, c in enumerate(x) if c)
        return any(supp <= t for t in self.supports)

    def contains_support(self, t):
        t = frozenset(t)
        return any(t <= s for s in self.supports)

    def issubset(self, other):
        return all(other.contains_support(t) for t in self.supports)

    def add(self, other):
        return SupportSet(self.dim, [a | b for a in self.supports
                                     for b in other.supports])

    def intersect(self, other):
        return SupportSet(self.dim, [a & b for a in self.supports
                                     for b in other.supports])

    def is_full(self):
        return frozenset(range(self.dim)) in self.supports

    def witness_not_in(self, other):
        """A rational point of self outside other, or None."""
        for t in self.supports:
            if not other.contains_support(t):
                return tuple(Fraction(1) if i in t else Fraction(0)
                             for i in range(self.dim))
        return None

    def __eq__(self, other):
        return isinstance(other, SupportSet) and self.dim == other.dim and \
            set(self.supports) == set(other.supports)

    def __repr__(self):
        body = ",".join("{%s}" % ",".join(map(str, sorted(t)))
                        for t in sorted(self.supports, key=sorted))
        return "SupportSet(%s)" % body


def _support_antichain(ts):
    out = []
    for t in ts:
        if any(t < s for s in ts):
            continue
        if t not in out:
            out.append(t)
    return out


class LatticeSet:
    """Explicit down-closed subset of a finite semimodule."""

    def __init__(self, module, members):
        self.module = module
        self.members = frozenset(members)

    @classmethod
    def down(cls, module, b):
        from .semimodule import natural_preorder_leq
        return cls(module, {x for x in module.elements()
                            if natural_preorder_leq(module, x, b)})

    def contains(self, x):
        return x in self.members

    def issubset(self, other):
        return self.members <= other.members

    def witness_not_in(self, other):
        """The member of self outside other that sorts first by repr, or
        None."""
        return min(self.members - other.members, key=repr, default=None)

    def add(self, other):
        out = set()
        for a in self.members:
            for b in other.members:
                out.add(self.module.add(a, b))
        return LatticeSet(self.module, out)

    def intersect(self, other):
        return LatticeSet(self.module, self.members & other.members)

    def enumerate(self):
        return sorted(self.members, key=repr)

    def join_all(self):
        acc = self.module.zero()
        for m in self.members:
            acc = self.module.add(acc, m)
        return acc

    def __eq__(self, other):
        return isinstance(other, LatticeSet) and self.members == other.members

    def __repr__(self):
        return "LatticeSet(%s)" % sorted(map(repr, self.members))


# ---------------------------------------------------------------------------
# weighted networks
# ---------------------------------------------------------------------------

class WeightedNetwork:
    """A digraph with down-closed edge weights and a distinguished edge.

    kind 'nat' stores BoxSet stalks, 'qpos' SupportSet stalks, 'lattice'
    LatticeSet stalks over a finite semimodule.
    """

    def __init__(self, digraph, kind, stalks, marked_edge, dim=1, module=None):
        self.digraph = digraph
        self.kind = kind
        self.stalks = dict(stalks)
        self.e = marked_edge
        self.dim = dim
        self.module = module
        self._memo = (None, {})
        if marked_edge not in digraph.edges:
            raise SheafflowError("marked edge %r missing" % (marked_edge,))

    @property
    def source(self):
        """Network source: the target of the distinguished edge."""
        return self.digraph.tgt[self.e]

    @property
    def sink(self):
        return self.digraph.src[self.e]

    def _fingerprint(self):
        # tuple([...]) rather than tuple(generator): over thousands of ops
        # the generator form grew the resident set by about 1 MB (CPython
        # 3.11) although no object outlived its call
        x = self.digraph
        edges = sorted(x.edges)
        caps = None
        if self.kind == "nat":
            caps = tuple([tuple(self.stalks[f].caps) for f in edges])
        return (self.e, frozenset(x.vertices),
                tuple([(f, x.src[f], x.tgt[f]) for f in edges]), caps)

    def _once(self, name, compute):
        """compute(self), computed once per state of the network: the
        results sit in a private slot keyed by the edges, their endpoints,
        the N capacities and the marked edge, so a mutated network
        recomputes."""
        key = self._fingerprint()
        if self._memo[0] != key:
            self._memo = (key, {})
        done = self._memo[1]
        if name not in done:
            done[name] = compute(self)
        return done[name]

    def e_cuts(self):
        """`enumerate_e_cuts` of the network, enumerated once; a new list
        on each call."""
        return list(self._once(
            "e_cuts", lambda net: enumerate_e_cuts(net.digraph, net.e)))

    def max_flow(self):
        """`max_flow_by_cycles` of the network, solved once."""
        return self._once("max_flow", max_flow_by_cycles)

    def require_acyclic_off_e(self):
        rest = CellSet(self.digraph, self.digraph.cells - {self.e})
        if not is_acyclic(rest):
            raise NotAcyclic("X - e contains a directed loop")

    def zero_set(self):
        if self.kind == "nat":
            return BoxSet.zero(self.dim)
        if self.kind == "qpos":
            return SupportSet.zero(self.dim)
        return LatticeSet(self.module, {self.module.zero()})

    def full_ambient_set(self):
        if self.kind == "nat":
            caps = [self.stalks[f].caps for f in self.digraph.edges]
            top = tuple(sum(c[0][i] for c in caps) for i in range(self.dim))
            return BoxSet([top])
        if self.kind == "qpos":
            return SupportSet.full(self.dim)
        return LatticeSet(self.module, set(self.module.elements()))


def simple_cycles_through(x, e):
    """Simple directed loops containing the distinguished edge, as ordered
    edge lists."""
    from .digraph import simple_directed_loops
    out = []
    for loop in simple_directed_loops(x):
        if e in loop:
            out.append(sorted(c for c in loop if c in x.edges))
    return out


# -- cuts --------------------------------------------------------------------

class Cut:
    def __init__(self, edges, side, minimal=False):
        self.edges = frozenset(edges)
        self.side = frozenset(side)
        self.minimal = minimal

    def __repr__(self):
        return "Cut(%s)" % ", ".join(sorted(self.edges))

    def __eq__(self, other):
        return isinstance(other, Cut) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)


def enumerate_e_cuts(x, e, require_acyclic=True):
    """All e-cuts A : V-A with the marked edge's target on the A side.

    The cut edges are those from A to the complement; the partition never
    contains e itself (its source is the sink).  Minimality is inclusion
    minimality of the edge set.
    """
    if require_acyclic:
        rest = CellSet(x, x.cells - {e})
        if not is_acyclic(rest):
            raise NotAcyclic("X - e contains a directed loop")
    s, t = x.tgt[e], x.src[e]
    if s is None or t is None:
        return []
    others = sorted(x.vertices - {s, t})
    cuts = {}
    for bits in product((0, 1), repeat=len(others)):
        side = {s} | {v for v, b in zip(others, bits) if b}
        cut_edges = frozenset(
            f for f in x.edges
            if f != e and x.src[f] in side and x.tgt[f] is not None
            and x.tgt[f] not in side)
        if cut_edges not in cuts:
            cuts[cut_edges] = Cut(cut_edges, side)
    out = list(cuts.values())
    for c in out:
        c.minimal = not any(o.edges < c.edges for o in out)
    return sorted(out, key=lambda c: (len(c.edges), sorted(c.edges)))


def cut_is_cocycle_over_z(x, e, cut):
    """Lemma 'cuts' check: sum of the cut edges represents the class of e in
    first cohomology with integer coefficients."""
    from . import intlinalg
    edges = sorted(x.edges)
    verts = sorted(x.vertices)
    target = [0] * len(edges)
    for f in cut.edges:
        target[edges.index(f)] += 1
    target[edges.index(e)] -= 1
    # solve incidence * y = target  (coboundary d+ - d-)
    A = []
    for f in edges:
        row = []
        for v in verts:
            c = 0
            if x.src[f] == v:
                c += 1
            if x.tgt[f] == v:
                c -= 1
            row.append(c)
        A.append(row)
    return intlinalg.solve_integer(A, target) is not None


# -- value sets ---------------------------------------------------------------

def cut_value_set(net, cut):
    """Prop 'cut-values': the Minkowski sum of the cut stalks."""
    acc = net.zero_set()
    for f in sorted(cut.edges):
        acc = acc.add(net.stalks[f])
    return acc


def intersect_cut_values(net, minimal_only=True):
    """The intersection of the cut values (the full ambient set when there
    is no e-cut) and the cuts it ranges over: the minimal e-cuts, or all of
    them.  Both choices give the same set: every weight is down-closed and
    holds zero, so a cut containing another has the larger value set."""
    cuts = net.e_cuts()
    if minimal_only:
        cuts = [c for c in cuts if c.minimal]
    if not cuts:
        return net.full_ambient_set(), cuts
    acc = cut_value_set(net, cuts[0])
    for c in cuts[1:]:
        acc = acc.intersect(cut_value_set(net, c))
    return acc, cuts


# -- flows --------------------------------------------------------------------

def flow_value_set(net):
    """Feasible marked-edge values of finite locally decomposable flows."""
    net.require_acyclic_off_e()
    if net.kind == "nat":
        vmax = net.max_flow()
        return BoxSet.principal((vmax,) if net.dim == 1 else vmax)
    if net.kind == "qpos":
        return SupportSet(net.dim, _qpos_feasible_supports(net))
    return LatticeSet(net.module, _lattice_flow_values(net))


def holim_cut_values(net):
    """The homotopy limit of cut values: the image of the intersection taken
    at the canonical free cover, pushed forward along its counit.

    Cover summands are cycle closures; a cover class survives every cut
    because each cycle through e crosses each cut, so the pushed image is
    exactly the set of defined sums of per-cycle transportable values.

    Over N the cover summands are single-commodity cycle closures, so by
    flow decomposition the holim is the flow value set, and it is returned
    as such: `flow_equals_holim` holds by construction over N until an
    independent route (an LP over the simple cycles through e) is added.
    Over Q>=0 and over a finite lattice it is computed from the cycles.
    """
    if net.kind == "nat":
        return flow_value_set(net)
    net.require_acyclic_off_e()
    if net.kind == "qpos":
        return SupportSet(net.dim, _qpos_cover_supports(net))
    return LatticeSet(net.module, _lattice_cycle_sums(net))


def max_flow_by_cycles(net):
    """Maximum value at the marked edge over N-decomposable flows.

    X - e is acyclic, so every circulation is an N-combination of simple
    cycles through the marked edge and the supremum equals the optimum of
    the conservation system with capacity bounds.  That optimum is one exact
    simplex solve maximising x_e; the system is totally unimodular, so it is
    an integer, and a fractional optimum raises SheafflowError rather than
    being rounded.  No augmenting-path search anywhere.
    """
    x = net.digraph
    edges = sorted(x.edges)
    verts = sorted(x.vertices)
    caps = [net.stalks[f].max_scalar() for f in edges]
    rows = []
    for v in verts:
        row = []
        for f in edges:
            c = 0
            if x.src[f] == v:
                c += 1
            if x.tgt[f] == v:
                c -= 1
            row.append(c)
        rows.append(row)
    value_row = [1 if f == net.e else 0 for f in edges]
    _point, value = cones.lp_maximize(value_row, rows, [0] * len(rows),
                                      len(edges), upper=caps)
    if value.denominator != 1:
        raise SheafflowError("fractional max-flow optimum %s on a totally "
                             "unimodular system" % value)
    return value.numerator


def _qpos_feasible_supports(net):
    """Marked-edge value supports realizable by flows: for each global choice
    of a support piece per edge, a coordinate is routable iff the chosen
    pieces admit a source-to-sink path carrying it."""
    x = net.digraph
    e = net.e
    s, t = net.source, net.sink
    other_edges = sorted(f for f in x.edges if f != e)
    piece_lists = [sorted(net.stalks[f].supports, key=sorted)
                   for f in other_edges]
    e_supports = net.stalks[e].supports
    feasible = set()
    for combo in product(*piece_lists):
        chosen = dict(zip(other_edges, combo))
        routable = set()
        for i in range(net.dim):
            usable = {f for f in other_edges if i in chosen[f]}
            if _has_path(x, s, t, usable):
                routable.add(i)
        for t_e in e_supports:
            cap = frozenset(routable) & t_e
            feasible.add(cap)
    return _support_antichain([frozenset(t) for t in feasible])


def _qpos_cover_supports(net):
    """Cover route: defined sums of transportable per-cycle values."""
    x = net.digraph
    cycles = simple_cycles_through(x, net.e)
    per_cycle = []
    for cyc in cycles:
        acc = SupportSet.full(net.dim)
        for f in cyc:
            acc = acc.intersect(net.stalks[f])
        per_cycle.append([t for t in acc.supports])
    feasible = {frozenset()}
    # sums over subsets of cycles with one transportable piece each, kept
    # only when the per-edge totals stay inside the stalks
    def rec(i, assignment):
        if i == len(cycles):
            total = frozenset().union(*assignment.values()) if assignment \
                else frozenset()
            for f in x.edges:
                load = frozenset()
                for j, t in assignment.items():
                    if f in cycles[j]:
                        load |= t
                if load and not net.stalks[f].contains_support(load):
                    return
            feasible.add(total)
            return
        rec(i + 1, assignment)
        for t in per_cycle[i]:
            if t:
                assignment[i] = t
                rec(i + 1, assignment)
                del assignment[i]

    rec(0, {})
    return _support_antichain([frozenset(t) for t in feasible])


def _has_path(x, s, t, usable_edges):
    if s is None or t is None:
        return False
    frontier = [s]
    seen = {s}
    while frontier:
        v = frontier.pop()
        if v == t:
            return True
        for f in x.out_edges(v):
            if f in usable_edges and x.tgt[f] is not None and \
                    x.tgt[f] not in seen:
                seen.add(x.tgt[f])
                frontier.append(x.tgt[f])
    return t in seen


def _lattice_flow_values(net):
    flows = enumerate_lattice_flows(net)
    return {f[net.e] for f in flows}


def _lattice_cycle_sums(net):
    x = net.digraph
    cycles = simple_cycles_through(x, net.e)
    per_cycle = []
    for cyc in cycles:
        vals = set(net.module.elements())
        transportable = {m for m in vals
                         if all(net.stalks[f].contains(m) for f in cyc)}
        per_cycle.append(sorted(transportable, key=repr))
    out = set()

    def rec(i, loads):
        if i == len(cycles):
            for f in x.edges:
                if not net.stalks[f].contains(loads.get(f, net.module.zero())):
                    return
            out.add(loads.get(net.e, net.module.zero()))
            return
        for m in per_cycle[i]:
            new = dict(loads)
            for f in cycles[i]:
                new[f] = net.module.add(new.get(f, net.module.zero()), m)
            rec(i + 1, new)

    rec(0, {})
    return out


def enumerate_lattice_flows(net):
    """All conservation-satisfying edge assignments within the stalks."""
    x = net.digraph
    edges = sorted(x.edges)
    flows = []
    domains = [net.stalks[f].enumerate() for f in edges]
    verts = sorted(x.vertices)
    last_at = {}
    for v in verts:
        touching = [i for i, f in enumerate(edges)
                    if x.src[f] == v or x.tgt[f] == v]
        if touching:
            last_at[v] = max(touching)

    def conserved(assign, v):
        m = net.module
        lhs = m.zero()
        rhs = m.zero()
        for f in x.out_edges(v):
            lhs = m.add(lhs, assign[f])
        for f in x.in_edges(v):
            rhs = m.add(rhs, assign[f])
        return lhs == rhs

    def rec(i, assign):
        if i == len(edges):
            flows.append(dict(assign))
            return
        f = edges[i]
        for m in domains[i]:
            assign[f] = m
            if all(conserved(assign, v)
                   for v, last in last_at.items() if last == i):
                rec(i + 1, assign)
            del assign[f]

    rec(0, {})
    return flows


# -- weighted exactness -------------------------------------------------------

def weighted_exactness_at_edge(net):
    """Exactness of the homology sequence at the marked edge, weighted case.

    Two containments must hold in the flow-value set: the relative classes
    with equal boundary evaluations (commodity mixes routable through the
    free cover, clipped to the marked stalk), and the intersection of the
    cut values (a marked stalk that truncates below the cuts breaks the
    comparison with the ambient zeroth homology).  Single-commodity directed
    weights with a non-binding marked stalk satisfy both - the classical
    theorem - and the multicommodity gap instance fails the first.

    Over N the routable values are the flow value set itself (per-unit
    routability is plain max flow), so there the first containment holds by
    construction and only the second is tested.  The intersection is taken
    over the minimal cuts; `--all-cuts` (`minimal_only=False`) changes
    which cuts are intersected, not the result.  `mfmc_report` derives the
    same answer as its `exact_at_e` from the sets it already holds.
    """
    flows = flow_value_set(net)
    inter, _cuts = intersect_cut_values(net, minimal_only=True)
    routable = flows if net.kind == "nat" else cover_routable_values(net)
    return routable.issubset(flows) and inter.issubset(flows)


def cover_routable_values(net):
    """Values whose boundary evaluations agree at both ends of the marked
    edge through the free cover, for Q>=0 and finite-lattice weights.

    Over Q>=0 this is per-commodity routability, with no joint constraint
    (free stalks impose none).  Over a finite lattice the cover sums are
    the cycle sums, so the set is the holim.  Over N it is the flow value
    set; callers that hold it use it instead."""
    if net.kind == "lattice":
        return LatticeSet(net.module, _lattice_cycle_sums(net))
    x = net.digraph
    s, t = net.source, net.sink
    routable = set()
    for i in range(net.dim):
        usable = {f for f in x.edges if f != net.e
                  and net.stalks[f].contains_support({i})}
        if _has_path(x, s, t, usable):
            routable.add(i)
    sup = frozenset(routable)
    return SupportSet(net.dim,
                      [t_e & sup for t_e in net.stalks[net.e].supports])
