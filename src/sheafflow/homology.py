"""Directed homology: orientation sheaves, H1/H0, duality, exactness.

H1 is an equalizer of chains, H0 a coequalizer over the subdivision.  Three
computation strategies, tried cheapest-first exactly when their hypotheses
certify:

* DirectEqualizer  - the un-subdivided conservation equalizer, valid over a
  ring ground or when every vertex stalk is flat or has in- or out-degree 1.
* DualityH0Twisted - H1(X;F) as sections of the orientation-twisted sheaf.
* Resolution       - locally decomposable flows through the canonical free
  cover (the general definition for partial sheaves).
"""

from __future__ import annotations

from itertools import product

from . import cones, hilbert, intlinalg
from .cohomology import SumSpace, h0
from .cohomology import h1 as coh_h1
from .congruence import DEFAULT_BOUND
from .digraph import (CellSet, closure, full_cellset, is_acyclic,
                      simple_directed_loops, subdivide)
from .errors import (CriteriaNotMet, NoFlatCertificate, SheafflowError,
                     UnsupportedRepresentation)
from .semimodule import (FreeSemimodule, Hom, PartialSemimodule,
                         PresentedSemimodule, as_partial, is_certified_flat)
from .semiring import INT_KIND, NAT_KIND, QPOS_KIND
from .sheaf import CellSheaf, constant_sheaf, pushforward, sd_sheaf


# ---------------------------------------------------------------------------
# orientation sheaves
# ---------------------------------------------------------------------------

def orientation_stalk_system(x, v):
    """The conservation row over the star of v: sum over outgoing minus
    incoming edge coefficients (self-loops cancel and stay free)."""
    star = x.edges_at(v)
    row = []
    for e in star:
        c = 0
        if x.src[e] == v:
            c += 1
        if x.tgt[e] == v:
            c -= 1
        row.append(c)
    return star, row


def orientation_sheaf(x, ground, bound=6):
    """The sheaf of local first homology semimodules.

    Vertex stalks are the equalizers {sum of edge coefficients conserved at
    v} inside the free semimodule on the star; edge stalks are S; the
    restriction to an edge projects its coefficient.  Over the naturals the
    vertex stalk is stored presented: Hilbert-basis generators and the
    syzygies among them discovered up to the bound.
    """
    kind = ground.kind
    stalks = {}
    restrictions = {}
    edge_stalk = as_partial(FreeSemimodule(ground, ("u",)))
    for e in x.edges:
        stalks[e] = edge_stalk
    gens_at = {}
    for v in sorted(x.vertices):
        star, row = orientation_stalk_system(x, v)
        if kind == NAT_KIND:
            basis = hilbert.hilbert_basis([row]) if star else []
            rels = hilbert.syzygy_pairs(basis, bound=bound)
            names = tuple("g%d" % i for i in range(len(basis)))
            stalk = PresentedSemimodule(ground, names, rels,
                                        name="orient(%s)" % v)
            stalks[v] = as_partial(stalk)
            gens_at[v] = basis
        elif kind == INT_KIND:
            basis = intlinalg.kernel_basis([row]) if star else []
            names = tuple("g%d" % i for i in range(len(basis)))
            stalks[v] = as_partial(FreeSemimodule(ground, names))
            gens_at[v] = basis
        elif kind == QPOS_KIND:
            basis = cones.extreme_rays([row], n=len(star)) if star else []
            names = tuple("g%d" % i for i in range(len(basis)))
            stalks[v] = as_partial(FreeSemimodule(ground, names))
            gens_at[v] = [tuple(map(type(ground.one), b)) for b in basis]
        elif ground.is_finite():
            free = FreeSemimodule(ground, tuple(star))
            members = []
            for cand in free.elements():
                lhs = ground.zero
                rhs = ground.zero
                for e, c in zip(star, cand):
                    if x.src[e] == v:
                        lhs = ground.add(lhs, c)
                    if x.tgt[e] == v:
                        rhs = ground.add(rhs, c)
                if lhs == rhs:
                    members.append(cand)
            from .semimodule import DefinedSet
            stalks[v] = PartialSemimodule(
                free, DefinedSet(DefinedSet.FINITE, members=members),
                name="orient(%s)" % v)
            gens_at[v] = None
        else:
            raise UnsupportedRepresentation("orientation over %s" % ground.name)
    for e in x.edges:
        for v, _sign in x.incidences(e):
            star = x.edges_at(v)
            idx = star.index(e)
            if gens_at[v] is None:
                elem_map = {cand: (cand[idx],)
                            for cand in stalks[v].elements()}
                restrictions[(v, e)] = Hom(stalks[v], edge_stalk,
                                           elem_map=elem_map,
                                           name="proj(%s,%s)" % (v, e))
            else:
                imgs = [(g[idx],) for g in gens_at[v]]
                restrictions[(v, e)] = Hom(stalks[v], edge_stalk,
                                           gen_images=imgs,
                                           name="proj(%s,%s)" % (v, e))
    sheaf = CellSheaf(x, stalks, restrictions)
    sheaf.orientation_generators = gens_at
    return sheaf


def orientation_stalk_invariants(x, v, ground):
    """(generator count, relation count) over nat; rank over int."""
    star, row = orientation_stalk_system(x, v)
    if ground.kind == NAT_KIND:
        basis = hilbert.hilbert_basis([row]) if star else []
        rels = hilbert.syzygy_pairs(basis)
        return len(basis), len(rels), basis, rels
    if ground.kind == INT_KIND:
        basis = intlinalg.kernel_basis([row]) if star else []
        return len(basis), 0, basis, []
    raise UnsupportedRepresentation("invariants over %s" % ground.name)


# ---------------------------------------------------------------------------
# edge sections and flows
# ---------------------------------------------------------------------------

class EdgeSections:
    """Sections of F over the closure of a single edge.

    A section holds a value at each defined endpoint plus the common image
    in the edge stalk; an edge with no defined endpoints carries a bare
    stalk value.
    """

    def __init__(self, sheaf, e):
        self.sheaf = sheaf
        self.e = e
        x = sheaf.base
        self.endpoints = [v for v, _ in x.incidences(e)]
        self._dedup_endpoints = sorted(set(self.endpoints))

    def enumerate(self):
        """All sections (finite stalks): dicts endpoint->value plus 'value'."""
        f = self.sheaf
        e = self.e
        stalk_e = f.stalks[e]
        out = []
        vs = self._dedup_endpoints
        if not vs:
            for y in stalk_e.elements():
                out.append({"value": y})
            return out
        spaces = [f.stalks[v].elements() for v in vs]
        for combo in product(*spaces):
            imgs = []
            ok = True
            for v, val in zip(vs, combo):
                img = f.restriction(v, e).apply(val)
                if img is None:
                    ok = False
                    break
                imgs.append(img)
            if not ok or any(i != imgs[0] for i in imgs):
                continue
            sec = {v: val for v, val in zip(vs, combo)}
            sec["value"] = imgs[0]
            out.append(sec)
        return out

    def value_at(self, sec, v):
        return sec.get(v)


class Flow:
    """An F-flow: a per-edge section family equalizing the two boundary sums."""

    def __init__(self, sheaf, sections):
        self.sheaf = sheaf
        self.sections = sections  # edge -> section dict
        self._key = None

    def edge_value(self, e):
        return self.sections[e]["value"]

    def support(self):
        x = self.sheaf.base
        cells = set()
        for e in x.edges:
            if self.edge_value(e) != self.sheaf.stalks[e].zero():
                cells.add(e)
                for v, _ in x.incidences(e):
                    cells.add(v)
        return CellSet(x, cells)

    def is_finite(self):
        return True

    def is_e_acyclic(self, e):
        supp = self.support()
        return is_acyclic(CellSet(self.sheaf.base, supp.cells - {e}))

    def signature(self):
        return tuple((e, repr(self.edge_value(e)))
                     for e in sorted(self.sheaf.base.edges))

    def _identity(self):
        """Per edge, the reprs of its value and of its endpoint values: the
        data flows compare by.  Computed once, as a flow's sections are
        never changed."""
        if self._key is None:
            self._key = tuple(_section_key(e, self.sections[e])
                              for e in sorted(self.sheaf.base.edges))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Flow)
                and self._identity() == other._identity())

    def __hash__(self):
        return hash(self._identity())

    def __repr__(self):
        parts = ["%s:%r" % (e, self.edge_value(e))
                 for e in sorted(self.sheaf.base.edges)
                 if self.edge_value(e) != self.sheaf.stalks[e].zero()]
        return "Flow(%s)" % ", ".join(parts) if parts else "Flow(0)"


def _section_key(e, sec):
    return (e, tuple(sorted((k, repr(v)) for k, v in sec.items())))


def conservation_holds(sheaf, sections, v):
    """Both boundary sums at v agree (and are defined)."""
    x = sheaf.base
    return _sums_agree(sheaf.stalks[v], x.out_edges(v), x.in_edges(v),
                       sections, v)


def _sums_agree(stalk, outs, ins, sections, v):
    amb = stalk.ambient
    lhs = amb.zero()
    rhs = amb.zero()
    for e in outs:
        val = sections[e].get(v)
        if val is None:
            return False
        lhs = amb.add(lhs, val)
    for e in ins:
        val = sections[e].get(v)
        if val is None:
            return False
        rhs = amb.add(rhs, val)
    if not stalk.contains(lhs) or not stalk.contains(rhs):
        return False
    return amb.eq(lhs, rhs)


def enumerate_flows_finite(sheaf):
    """All flows of a finite-stalked sheaf, by backtracking with pruning.

    Enumerated once per sheaf, like the loop moves and the decomposable
    span (a sheaf is not changed after construction); every call returns a
    new list.
    """
    cached = getattr(sheaf, "_finite_flows", None)
    if cached is None:
        cached = sheaf._finite_flows = _backtrack_flows(sheaf)
    return list(cached)


def _backtrack_flows(sheaf):
    x = sheaf.base
    edges = sorted(x.edges)
    per_edge = {e: [(sec, _section_key(e, sec))
                    for sec in EdgeSections(sheaf, e).enumerate()]
                for e in edges}
    verts = sorted(x.vertices)
    last_edge_at = {}
    for v in verts:
        touching = [e for e in edges if v in dict(x.incidences(e))
                    or x.src[e] == v or x.tgt[e] == v]
        if touching:
            last_edge_at[v] = max(edges.index(e) for e in touching)
    # the vertices whose star is complete once edge i is chosen
    checks = [[(sheaf.stalks[v], x.out_edges(v), x.in_edges(v), v)
               for v, last in last_edge_at.items() if last == i]
              for i in range(len(edges))]
    flows = []

    def backtrack(i, chosen, keys):
        if i == len(edges):
            flow = Flow(sheaf, dict(chosen))
            flow._key = tuple(keys)  # its identity, from the section keys
            flows.append(flow)
            return
        e = edges[i]
        for sec, key in per_edge[e]:
            chosen[e] = sec
            keys.append(key)
            if all(_sums_agree(stalk, outs, ins, chosen, v)
                   for stalk, outs, ins, v in checks[i]):
                backtrack(i + 1, chosen, keys)
            keys.pop()
            del chosen[e]

    backtrack(0, {}, [])
    return flows


def flow_equalizer_linear(sheaf):
    """Conservation solutions over coordinate stalks with total restrictions.

    Unknowns: one block per edge for the generators of its section
    semimodule.  Returns (section generator data, solution generators).
    """
    x = sheaf.base
    edges = sorted(x.edges)
    verts = sorted(x.vertices)
    ground = sheaf.ground
    blocks = []
    for e in edges:
        gens = _edge_section_generators(sheaf, e)
        blocks.append((e, gens))
    vdim = {}
    off = 0
    voffsets = {}
    for v in verts:
        amb = sheaf.stalks[v].ambient
        d = len(amb.generators())
        voffsets[v] = off
        vdim[v] = d
        off += d
    vtotal = off
    cols_m, cols_p = [], []
    col_info = []
    for e, gens in blocks:
        for g in gens:
            col_info.append((e, g))
            vec_m = [0] * vtotal
            vec_p = [0] * vtotal
            for v, val in g["ends"].items():
                if x.src[e] == v:
                    for i, c in enumerate(val):
                        vec_m[voffsets[v] + i] += c
                if x.tgt[e] == v:
                    for i, c in enumerate(val):
                        vec_p[voffsets[v] + i] += c
            cols_m.append(vec_m)
            cols_p.append(vec_p)
    n = len(col_info)
    A = [[cols_m[j][i] for j in range(n)] for i in range(vtotal)]
    B = [[cols_p[j][i] for j in range(n)] for i in range(vtotal)]
    if not A:
        A = [[0] * n]
        B = [[0] * n]
    kind = ground.kind
    if kind == NAT_KIND:
        sols = hilbert.hilbert_basis_eq(A, B)
    elif kind == INT_KIND:
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        sols = intlinalg.kernel_basis(diff)
    elif kind == QPOS_KIND:
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        sols = cones.extreme_rays(diff, n=n)
    else:
        raise UnsupportedRepresentation("flow equalizer over %s" % ground.name)
    return col_info, [tuple(s) for s in sols]


def _edge_section_generators(sheaf, e):
    """Generators of the sections over <e>, each {'ends': {v: vec}, 'val': vec}.

    Stalk-zero edges leave the endpoint values independent; otherwise the
    sections are the equalizer of the two endpoint restrictions.
    """
    x = sheaf.base
    ends = [v for v, _ in x.incidences(e)]
    ends = sorted(set(ends))
    stalk_e = sheaf.stalks[e]
    edim = len(stalk_e.ambient.generators())
    out = []
    if not ends:
        for i, g in enumerate(stalk_e.ambient.generators()):
            out.append({"ends": {}, "val": tuple(g)})
        return out
    spaces = [sheaf.stalks[v].ambient for v in ends]
    dims = [len(a.generators()) for a in spaces]
    total = sum(dims)

    def split(vec):
        parts = {}
        k = 0
        for v, d in zip(ends, dims):
            parts[v] = tuple(vec[k:k + d])
            k += d
        return parts

    rows = []
    if edim and len(ends) >= 1:
        # condition: images at the edge stalk agree pairwise (or vanish if a
        # side is missing and the stalk map is zero); with one endpoint the
        # value must push to zero only when the other endpoint exists in X
        # but is outside the region; closures never truncate here, so a
        # single-endpoint edge (dangling in X) has a free section.
        pass
    if len(ends) == 2:
        v1, v2 = ends
        m1 = _restriction_matrix(sheaf, v1, e)
        m2 = _restriction_matrix(sheaf, v2, e)
        for i in range(edim):
            row = [0] * total
            for j in range(dims[0]):
                row[j] += m1[i][j]
            for j in range(dims[1]):
                row[dims[0] + j] -= m2[i][j]
            rows.append(row)
    elif len(ends) == 1 and x.src[e] == x.tgt[e]:
        # self-loop: a single endpoint restricts from both sides to the same
        # value, so the section condition is vacuous beyond definedness
        rows = []
    elif len(ends) == 1:
        rows = []
    kind = sheaf.ground.kind
    if rows:
        if kind == NAT_KIND:
            sols = hilbert.hilbert_basis([[r[j] for j in range(total)]
                                          for r in rows])
        elif kind == INT_KIND:
            sols = intlinalg.kernel_basis(rows)
        elif kind == QPOS_KIND:
            sols = cones.extreme_rays(rows, n=total)
        else:
            raise UnsupportedRepresentation("sections over %s" %
                                            sheaf.ground.name)
    else:
        sols = [tuple(1 if k == j else 0 for k in range(total))
                for j in range(total)]
    for s in sols:
        parts = split(s)
        val = _section_edge_value(sheaf, e, ends, parts)
        out.append({"ends": parts, "val": val})
    return out


def _restriction_matrix(sheaf, v, e):
    r = sheaf.restriction(v, e)
    src = sheaf.stalks[v].ambient
    tgt = sheaf.stalks[e].ambient
    cols = []
    for g in src.generators():
        img = r.apply(g)
        if img is None:
            raise UnsupportedRepresentation("partial restriction in linear mode")
        cols.append(img)
    return [[cols[j][i] for j in range(len(cols))]
            for i in range(len(tgt.generators()))]


def _section_edge_value(sheaf, e, ends, parts):
    x = sheaf.base
    if not ends:
        return None
    v = ends[0]
    img = sheaf.restriction(v, e).apply(parts[v])
    return tuple(img) if img is not None else None


def flows_from_solutions(sheaf, col_info, coeff_vectors):
    """Convert solution coefficient vectors into Flow objects."""
    x = sheaf.base
    flows = []
    for vec in coeff_vectors:
        sections = {}
        for e in sorted(x.edges):
            ends = sorted(set(v for v, _ in x.incidences(e)))
            amb_by_end = {v: sheaf.stalks[v].ambient for v in ends}
            acc_ends = {v: amb_by_end[v].zero() for v in ends}
            acc_val = sheaf.stalks[e].ambient.zero()
            for c, (ee, g) in zip(vec, col_info):
                if ee != e or c == 0:
                    continue
                for v in ends:
                    amb = amb_by_end[v]
                    acc_ends[v] = amb.add(acc_ends[v], amb.smul(c, g["ends"][v]))
                if g["val"] is not None:
                    amb = sheaf.stalks[e].ambient
                    acc_val = amb.add(acc_val, amb.smul(c, g["val"]))
            sec = dict(acc_ends)
            sec["value"] = acc_val
            sections[e] = sec
        flows.append(Flow(sheaf, sections))
    return flows


# ---------------------------------------------------------------------------
# H1
# ---------------------------------------------------------------------------

class HomologyResult:
    def __init__(self, flows=None, generators=None, computed_via="",
                 col_info=None, complete=True):
        self.flows = flows            # finite mode: every flow in H1
        self.generators = generators  # linear mode: generating flows
        self.computed_via = computed_via
        self.col_info = col_info
        self.complete = complete

    def generating_flows(self):
        if self.generators is not None:
            return self.generators
        return self.flows

    def edge_value_vectors(self, edges):
        out = []
        for f in self.generating_flows():
            out.append(tuple(f.edge_value(e) for e in edges))
        return out


def equalizer_criteria_hold(x, sheaf):
    """Ring ground, or per vertex: flat stalk, in-degree 1 or out-degree 1."""
    if sheaf.ground is None:
        return True  # empty base
    if sheaf.ground.is_ring:
        return True
    for v in x.vertices:
        indeg, outdeg = x.degrees(v)
        if indeg == 1 or outdeg == 1:
            continue
        if is_certified_flat(sheaf.stalks[v]):
            continue
        return False
    return True


def h1_direct(x, sheaf):
    """The un-subdivided conservation equalizer; raises when the local
    criteria fail."""
    if not equalizer_criteria_hold(x, sheaf):
        raise CriteriaNotMet("direct equalizer criteria fail")
    if sheaf.is_finite_stalked():
        flows = enumerate_flows_finite(sheaf)
        return HomologyResult(flows=flows, computed_via="DirectEqualizer")
    col_info, sols = flow_equalizer_linear(sheaf)
    flows = flows_from_solutions(sheaf, col_info, sols)
    return HomologyResult(generators=flows, computed_via="DirectEqualizer",
                          col_info=(col_info, sols))


def h1_via_duality(x, sheaf, orientation=None):
    """H1(X;F) as sections of the orientation-twisted cochain diagram."""
    from .sheaf import tensor_sheaf
    omega = orientation or orientation_sheaf(x, sheaf.ground)
    twisted = twist_by_orientation(omega, sheaf)
    sections = h0(full_cellset(x), twisted)
    flows = _twisted_sections_to_flows(x, sheaf, omega, twisted, sections)
    if sections.is_finite():
        return HomologyResult(flows=flows, computed_via="DualityH0Twisted")
    return HomologyResult(generators=flows, computed_via="DualityH0Twisted")


def twist_by_orientation(omega, sheaf):
    """Omega (x) F with the edge identification Omega(e) (x) F(e) = F(e)."""
    x = sheaf.base
    stalks = {}
    restrictions = {}
    for e in x.edges:
        stalks[e] = sheaf.stalks[e]
    for v in x.vertices:
        stalks[v] = _tensor_stalk(omega.stalks[v], sheaf.stalks[v])
    for e in x.edges:
        for v, _ in x.incidences(e):
            restrictions[(v, e)] = _twisted_restriction(
                omega, sheaf, stalks[v], v, e)
    return CellSheaf(x, stalks, restrictions)


def _tensor_stalk(om, fs):
    """Omega(v) (x) F(v), tracking the pair of factors for restrictions."""
    from .semimodule import tensor
    if isinstance(fs.ambient, FreeSemimodule) and fs.is_total() and \
            len(fs.ambient.generators()) == 1:
        # F(v) = S: the twist is the orientation stalk itself
        t = om
    else:
        t = tensor(om.ambient, fs)
        t = as_partial(t)
    t = as_partial(t) if not isinstance(t, PartialSemimodule) else t
    t.tensor_factors = (om, fs)
    return t


def _twisted_restriction(omega, sheaf, twisted_stalk, v, e):
    om, fs = twisted_stalk.tensor_factors
    om_r = omega.restriction(v, e)
    f_r = sheaf.restriction(v, e)
    target = sheaf.stalks[e]
    ground = sheaf.ground

    if om is twisted_stalk:
        # F(v) = S case: generators are the orientation generators
        def imgs():
            out = []
            for g in om.ambient.generators():
                c = om_r.apply(g)
                out.append(None if c is None else
                           target.ambient.smul(c[0], _one_vec(target)))
            return out
        images = imgs()
        if all(i is not None for i in images):
            return Hom(twisted_stalk, target, gen_images=images, name="tw")
        raise UnsupportedRepresentation("partial twisted restriction")

    if twisted_stalk.ambient.is_finite() or twisted_stalk.is_finite():
        elem_map = {}
        for t in twisted_stalk.elements():
            val = _apply_twist_elem(om, fs, om_r, f_r, target, t)
            if val is not None:
                elem_map[t] = val
        return Hom(twisted_stalk, target, elem_map=elem_map, name="tw")

    # coordinate mode: generators of the tensor are pairs (omega gen, F gen)
    om_gens = om.ambient.generators()
    f_gens = fs.ambient.generators()
    images = []
    for g_om in om_gens:
        c = om_r.apply(g_om)
        for g_f in f_gens:
            y = f_r.apply(g_f)
            if c is None or y is None:
                raise UnsupportedRepresentation("partial twisted restriction")
            images.append(target.ambient.smul(c[0], y))
    return Hom(twisted_stalk, target, gen_images=images, name="tw")


def _one_vec(p):
    gens = p.ambient.generators()
    return gens[0]


def _apply_twist_elem(om, fs, om_r, f_r, target, t):
    """Evaluate the twisted restriction on a finite tensor element."""
    # finite tensor elements are flat tuples over (omega gen, F element) pairs
    # produced by direct enumeration; the finite-ground tensor materializes
    # elements as vectors over its presentation generators.
    raise UnsupportedRepresentation("finite twisted stalks are built as "
                                    "orientation-only or product stalks")


def _twisted_sections_to_flows(x, sheaf, omega, twisted, sections):
    """Edge evaluation of twisted sections gives the corresponding flows."""
    flows = []
    source = sections.elements() if sections.is_finite() else sections.gens()
    for s in source:
        secs = {}
        ok = True
        for e in sorted(x.edges):
            ends = sorted(set(v for v, _ in x.incidences(e)))
            vals = {}
            imgs = []
            for v in ends:
                tv = sections.space.project(s, v)
                img = twisted.restriction(v, e).apply(tv)
                if img is None:
                    ok = False
                    break
                imgs.append(img)
            if not ok:
                break
            sec = {}
            if imgs and any(i != imgs[0] for i in imgs):
                ok = False
                break
            value = imgs[0] if imgs else sheaf.stalks[e].zero()
            # endpoint data in F requires a lift; constant and weight sheaves
            # lift along the identity, which is what edge evaluation needs
            for v in ends:
                lift = _lift_to_vertex(sheaf, v, e, value)
                if lift is None:
                    ok = False
                    break
                sec[v] = lift
            if not ok:
                break
            sec["value"] = value
            secs[e] = sec
        if ok:
            flows.append(Flow(sheaf, secs))
    return flows


def _lift_to_vertex(sheaf, v, e, value):
    """A vertex-stalk preimage of an edge value under the restriction."""
    r = sheaf.restriction(v, e)
    stalk_v = sheaf.stalks[v]
    if stalk_v.is_finite() or stalk_v.ambient.is_finite():
        for cand in stalk_v.elements():
            if r.apply(cand) == value:
                return cand
        return None
    amb_v = stalk_v.ambient
    amb_e = sheaf.stalks[e].ambient
    if isinstance(amb_v, FreeSemimodule) and isinstance(amb_e, FreeSemimodule) \
            and amb_v.gens == amb_e.gens:
        return value if stalk_v.contains(value) else None
    # linear solve on generators
    gens = amb_v.generators()
    imgs = [r.apply(g) for g in gens]
    if any(i is None for i in imgs):
        return None
    A = [[imgs[j][i] for j in range(len(gens))]
         for i in range(len(amb_e.generators()))]
    kind = sheaf.ground.kind
    if kind == NAT_KIND:
        sol = _nat_solve(A, list(value))
        return tuple(sol) if sol is not None else None
    if kind == INT_KIND:
        sol = intlinalg.solve_integer(A, list(value))
        return tuple(sol) if sol is not None else None
    return None


def _nat_solve(A, b, cap=None):
    """One nonnegative integer solution of A x = b (small bounded search)."""
    n = len(A[0]) if A else 0
    if cap is None:
        cap = max([abs(x) for x in b] + [1]) + 2

    def rec(j, residual):
        if j == n:
            return [] if not any(residual) else None
        for k in range(cap + 1):
            new = [r - k * A[i][j] for i, r in enumerate(residual)]
            rest = rec(j + 1, new)
            if rest is not None:
                return [k] + rest
        return None

    return rec(0, list(b))


def h1(x, sheaf, orientation=None):
    """First homology with the strategy ladder."""
    try:
        return h1_direct(x, sheaf)
    except CriteriaNotMet:
        pass
    if sheaf.is_finite_stalked():
        flows = enumerate_flows_finite(sheaf)
        kept = [f for f in flows if is_locally_decomposable(f, sheaf)[0]]
        return HomologyResult(flows=kept, computed_via="Resolution")
    return h1_via_duality(x, sheaf, orientation=orientation)


# ---------------------------------------------------------------------------
# local decomposability
# ---------------------------------------------------------------------------

def cycle_section_values(sheaf, cycle_cells):
    """Transportable stalk data around a directed loop: the sections of F
    over the loop, evaluated on its edges."""
    sub = sheaf.restrict_to(cycle_cells)
    sec = h0(full_cellset(sub.base), sub)
    edges = sorted(sub.base.edges)
    vals = []
    source = sec.elements() if sec.is_finite() else sec.gens()
    for s in source:
        v = {}
        for e in edges:
            v[e] = sec.edge_value(s, e)
        vals.append(v)
    return edges, vals


def is_locally_decomposable(flow, sheaf, search_bound=24):
    """Does the flow lift through the canonical free cover?

    Operationally: is it a defined sum of loop-supported section flows
    (cycle summands of the cover; path summands carry no circulation)?
    Returns (bool, witness or None).
    """
    x = sheaf.base
    if sheaf.ground.is_ring:
        return True, "ring ground: covers split"
    moves = getattr(sheaf, "_loop_moves", None)
    if moves is None:
        moves = []
        for loop in simple_directed_loops(x):
            edges, vals = cycle_section_values(sheaf, loop)
            for v in vals:
                if all(val == sheaf.stalks[e].zero() for e, val in v.items()):
                    continue
                moves.append((loop, v))
        sheaf._loop_moves = moves
    target = {e: flow.edge_value(e) for e in sorted(x.edges)}

    if sheaf.is_finite_stalked():
        return _decompose_finite(sheaf, target, moves, search_bound)
    return _decompose_linear(sheaf, target, moves, search_bound)


def _decompose_finite(sheaf, target, moves, bound):
    span = _finite_decomposable_span(sheaf, moves, bound)
    key = tuple(target.values())  # in sorted edge order, like the states
    if key in span:
        return True, span[key]
    return False, None


def _finite_decomposable_span(sheaf, moves, bound):
    """All defined sums of loop-section flows, with one witness path each.

    Computed once per sheaf: the state space is bounded by the flow count,
    so a single closure replaces a search per queried flow.  A state is the
    tuple of edge values in sorted edge order; each move memoises, per edge
    it touches, the partial sums it has taken (None: undefined).
    """
    cache = getattr(sheaf, "_decomposable_span", None)
    if cache is not None:
        return cache
    edges = sorted(sheaf.base.edges)
    stalks = [sheaf.stalks[e] for e in edges]
    deltas = [[(edges.index(e), v, {}) for e, v in vals.items()]
              for _loop, vals in moves]
    zero = tuple(stalk.zero() for stalk in stalks)
    span = {zero: []}
    frontier = [(zero, [])]
    steps = 0
    while frontier:
        state, path = frontier.pop()
        steps += 1
        if steps > 200000:
            from .errors import SearchBoundExceeded
            raise SearchBoundExceeded("decomposability span budget")
        for k, delta in enumerate(deltas):
            nxt = list(state)
            for i, v, sums in delta:
                if nxt[i] not in sums:
                    sums[nxt[i]] = stalks[i].padd(nxt[i], v)
                s = sums[nxt[i]]
                if s is None:
                    break
                nxt[i] = s
            else:
                key = tuple(nxt)
                if key not in span:
                    span[key] = path + [k]
                    frontier.append((key, path + [k]))
    sheaf._decomposable_span = span
    return span


def _decompose_linear(sheaf, target, moves, bound):
    """Nat/qpos weight-style stalks: nonnegative combination search."""
    edges = sorted(target)
    kind = sheaf.ground.kind
    vecs = []
    for loop, vals in moves:
        vecs.append([vals.get(e, sheaf.stalks[e].ambient.zero())
                     for e in edges])
    flat_target = []
    for e in edges:
        flat_target.extend(target[e])
    flat_moves = []
    for mv in vecs:
        row = []
        for val in mv:
            row.extend(val)
        flat_moves.append(tuple(row))
    if kind == NAT_KIND:
        ok = hilbert.is_nat_combination(tuple(flat_target), flat_moves)
        return ok, ("loops" if ok else None)
    if kind == QPOS_KIND:
        ok = cones.in_cone(tuple(flat_target), flat_moves)
        return ok, ("loops" if ok else None)
    raise UnsupportedRepresentation("decomposability over %s" %
                                    sheaf.ground.name)


# ---------------------------------------------------------------------------
# H0 (chain coequalizer over the subdivision)
# ---------------------------------------------------------------------------

def h0_homology(cells, sheaf, bound=DEFAULT_BOUND):
    """Zeroth homology of an open subset: stalk data modulo transport.

    Computed on the subdivision of the subset: one slot per cell, with the
    identifications induced by the sections over the subdivided edges.
    """
    x = sheaf.base
    cs = cells if isinstance(cells, CellSet) else CellSet(x, cells)
    sub = sheaf.restrict_to(cs)
    return _h0_chain(sub)


class H0HomologyResult:
    def __init__(self, space, class_map=None, classes=None, presented=None,
                 complete=True):
        self.space = space        # SumSpace over the cells (as sd vertices)
        self._class_map = class_map
        self.classes = classes
        self.presented = presented
        self.complete = complete

    def class_of(self, flat):
        if self._class_map is not None:
            return self._class_map[flat]
        nf, _ = self.presented.normal_form(flat)
        return nf

    def eq(self, a, b):
        return self.class_of(a) == self.class_of(b)

    def elements(self):
        if self.classes is None:
            raise UnsupportedRepresentation("H0 not enumerable")
        return self.classes

    def nonzero_classes(self):
        z = self.class_of(self.space.zero())
        return [c for c in self.elements() if c != z]


def _h0_chain(sheaf):
    """Coequalizer of the subdivided chain diagram of a whole (sub)sheaf."""
    x = sheaf.base
    cells = sorted(x.cells)
    space = SumSpace(sheaf, cells)
    pairs = []
    for e in sorted(x.edges):
        for v, _sign in x.incidences(e):
            r = sheaf.restriction(v, e)
            stalk_v = sheaf.stalks[v]
            if space.mode == "finite":
                for val in stalk_v.elements():
                    img = r.apply(val)
                    if img is None:
                        continue
                    pairs.append((space.embed(v, val), space.embed(e, img)))
            else:
                for g in stalk_v.ambient.generators():
                    img = r.apply(g)
                    if img is None:
                        continue
                    pairs.append((space.embed(v, g), space.embed(e, img)))
    if space.mode == "finite":
        return _finite_quotient(space, pairs)
    kind = space.ground.kind
    if kind not in (NAT_KIND, INT_KIND):
        raise UnsupportedRepresentation("H0 over %s" % space.ground.name)
    rels = space.relations() + pairs
    pres = PresentedSemimodule(space.ground,
                               ["s%d" % i for i in range(space.total)],
                               rels, name="H0")
    complete = True
    if kind == NAT_KIND:
        for g in pres.generators():
            _, c = pres.normal_form(g)
            complete = complete and c
    return H0HomologyResult(space, presented=pres, complete=complete)


def _finite_quotient(space, pairs):
    rep = space.congruence(pairs)
    classes = sorted(set(rep.values()), key=repr)
    return H0HomologyResult(space, class_map=rep, classes=classes)


# ---------------------------------------------------------------------------
# relative homology and connecting maps
# ---------------------------------------------------------------------------

def relative_twist(x, open_cells, sheaf):
    """(X-U < X)_* S (x) F: stalks zeroed on the open subset."""
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)
    if not u.is_open:
        raise SheafflowError("relative homology needs an open subset")
    region = u.complement()
    return pushforward(region, sheaf), region


def h1_relative(x, open_cells, sheaf):
    twisted, _region = relative_twist(x, open_cells, sheaf)
    return h1(x, twisted)


def delta_homology(x, open_cells, sheaf, sign):
    """The boundary evaluation from relative H1 into H0 of the open subset.

    Returns (map, H0 result); the map takes a relative flow to a flat vector
    in the H0 space (a class representative).
    """
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)
    h0res = h0_homology(u, sheaf)

    def apply(rel_flow):
        out = h0res.space.zero()
        for e in sorted(u.cells & x.edges):
            if sign == "-":
                v = x.tgt[e]
            else:
                v = x.src[e]
            if v is None or v in u.cells:
                continue
            sec = rel_flow.sections.get(e)
            if sec is None:
                continue
            boundary_val = sec.get(v)
            if boundary_val is None:
                continue
            img = sheaf.restriction(v, e).apply(boundary_val)
            if img is None:
                return None
            out = h0res.space.add(out, h0res.space.embed(e, img))
        return out

    return apply, h0res


def h0_inclusion_map(x, open_cells, sheaf, h0_sub, h0_full):
    """H0(U) -> H0(X): slot-preserving on classes."""
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)

    def apply(flat):
        out = h0_full.space.zero()
        for c in sorted(u.cells):
            out = h0_full.space.add(
                out, h0_full.space.embed(c, h0_sub.space.project(flat, c)))
        return out

    return apply


def restrict_flow_to_relative(x, open_cells, sheaf, twisted, flow):
    """Image of an absolute flow in the relative theory."""
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)
    sections = {}
    for e in sorted(x.edges):
        sec = flow.sections[e]
        new = {}
        for k, v in sec.items():
            if k == "value":
                new["value"] = v if e not in u.cells else \
                    twisted.stalks[e].zero()
            elif k in u.cells:
                new[k] = twisted.stalks[k].zero()
            else:
                new[k] = v
        sections[e] = new
    return Flow(twisted, sections)


def check_exactness_at(x, open_cells, sheaf, verbose=False):
    """Exactness of the connecting sequence at an open subset.

    Checks, on generators: (i) the square commutes (absolute flows have equal
    boundary evaluations), (ii) H0(U) modulo the delta identifications maps
    bijectively onto H0(X), and (iii) every relative class with equal
    boundary evaluations comes from an absolute flow.  The weighted
    single-edge case has a semilattice fast path in the network layer.
    """
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)
    twisted, _ = relative_twist(x, u, sheaf)
    rel = h1(x, twisted)
    dminus, h0u = delta_homology(x, u, sheaf, "-")
    dplus, _ = delta_homology(x, u, sheaf, "+")
    absolute = h1(x, sheaf)
    incl_images = []
    for f in absolute.generating_flows():
        rf = restrict_flow_to_relative(x, u, sheaf, twisted, f)
        dm, dp = dminus(rf), dplus(rf)
        if dm is None or dp is None or not h0u.eq(dm, dp):
            return False
    # (ii) the coequalizer comparison with H0(X)
    pairs = []
    for rf in rel.generating_flows():
        dm, dp = dminus(rf), dplus(rf)
        if dm is not None and dp is not None:
            pairs.append((dm, dp))
    if not _coequalizer_comparison(x, u, sheaf, h0u, pairs):
        return False
    # (iii) relative classes with equal boundary evaluations must be images
    if not _equalizer_containment(x, u, sheaf, twisted, rel, absolute,
                                  dminus, dplus, h0u):
        return False
    return True


def _coequalizer_comparison(x, u, sheaf, h0u, pairs):
    h0x = h0_homology(full_cellset(x), sheaf)
    inc = h0_inclusion_map(x, u, sheaf, h0u, h0x)
    if h0u.classes is not None and h0x.classes is not None:
        # build the quotient of H0(U) by the delta pairs and compare
        reps = {c: c for c in h0u.classes}
        parent = {c: c for c in h0u.classes}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        changed = True
        pair_classes = [(h0u.class_of(a), h0u.class_of(b)) for a, b in pairs]
        while changed:
            changed = False
            for a, b in pair_classes:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    changed = True
            # congruence: close under addition
            groups = {}
            for c in h0u.classes:
                groups.setdefault(find(c), []).append(c)
            for grp in groups.values():
                base = grp[0]
                for other in grp[1:]:
                    for w in h0u.classes:
                        a = h0u.class_of(h0u.space.add(w, base))
                        b = h0u.class_of(h0u.space.add(w, other))
                        if find(a) != find(b):
                            parent[find(a)] = find(b)
                            changed = True
        quot_classes = {find(c) for c in h0u.classes}
        images = {repr(h0x.class_of(inc(c))) for c in h0u.classes}
        # bijectivity: the quotient size must match the image classes and the
        # image must be all of H0(X)
        if len(quot_classes) != len(set(images)):
            return False
        if len(set(images)) != len(h0x.classes):
            return False
        # injectivity class-by-class
        seen = {}
        for c in h0u.classes:
            key = repr(h0x.class_of(inc(c)))
            if key in seen and find(seen[key]) != find(c):
                return False
            seen[key] = c
        return True
    if h0u.presented is not None and h0x.presented is not None:
        ground = h0u.presented.ground
        rels = list(h0u.presented.relations) + pairs
        quot = PresentedSemimodule(ground, h0u.presented.gens, rels)
        if ground.kind == INT_KIND:
            inv_q = _z_invariants_of(quot)
            inv_x = h0x.presented.z_invariants()
            return inv_q == inv_x
        # nat: compare bounded class counts through the inclusion
        window = 2
        cls_q = quot._cong.classes_up_to(window)
        mapped = {}
        for nf in cls_q:
            img = inc(nf)
            nf_x, _ = h0x.presented.normal_form(img)
            if nf_x in mapped and mapped[nf_x] != nf:
                return False
            mapped[nf_x] = nf
        cls_x = h0x.presented._cong.classes_up_to(window)
        return len(mapped) == len(cls_x)
    return False


def _z_invariants_of(pres):
    return pres.z_invariants()


def _equalizer_containment(x, u, sheaf, twisted, rel, absolute,
                           dminus, dplus, h0u):
    abs_rel_images = set()
    for f in absolute.generating_flows():
        rf = restrict_flow_to_relative(x, u, sheaf, twisted, f)
        abs_rel_images.add(rf)
    if rel.flows is not None:
        span = _flow_span(twisted, abs_rel_images)
        for rf in rel.flows:
            dm, dp = dminus(rf), dplus(rf)
            if dm is None or dp is None:
                continue
            if h0u.eq(dm, dp) and rf not in span:
                return False
        return True
    # linear mode: generators with equal boundary evaluations must be
    # nonnegative combinations of restricted absolute generators, compared
    # through their boundary evaluations
    for rf in rel.generating_flows():
        dm, dp = dminus(rf), dplus(rf)
        if dm is None or dp is None or not h0u.eq(dm, dp):
            continue
        if not _flow_in_image(x, u, sheaf, twisted, rf, abs_rel_images):
            return False
    return True


def _flow_span(twisted, gens):
    zero_secs = {}
    for e in sorted(twisted.base.edges):
        ends = sorted(set(v for v, _ in twisted.base.incidences(e)
                          if twisted.stalks[v].ambient.generators() or True))
        sec = {}
        for v, _ in twisted.base.incidences(e):
            sec[v] = twisted.stalks[v].zero()
        sec["value"] = twisted.stalks[e].zero()
        zero_secs[e] = sec
    zero = Flow(twisted, zero_secs)
    span = {zero}
    frontier = [zero]
    while frontier:
        f = frontier.pop()
        for g in gens:
            s = _flow_add(twisted, f, g)
            if s is not None and s not in span:
                span.add(s)
                frontier.append(s)
    return span


def _flow_add(sheaf, f, g):
    sections = {}
    for e in sorted(sheaf.base.edges):
        sf, sg = f.sections[e], g.sections[e]
        sec = {}
        for k in sf:
            if k == "value":
                amb = sheaf.stalks[e].ambient
                val = amb.add(sf["value"], sg["value"])
                if not sheaf.stalks[e].contains(val):
                    return None
                sec["value"] = val
            else:
                amb = sheaf.stalks[k].ambient
                val = amb.add(sf[k], sg[k])
                if not sheaf.stalks[k].contains(val):
                    return None
                sec[k] = val
        sections[e] = sec
    return Flow(sheaf, sections)


def _flow_in_image(x, u, sheaf, twisted, rf, abs_images):
    vec_target = []
    edges = sorted(x.edges)
    for e in edges:
        vec_target.extend(rf.edge_value(e))
        sec = rf.sections[e]
        for k in sorted(kk for kk in sec if kk != "value"):
            vec_target.extend(sec[k])
    rows = []
    for f in abs_images:
        row = []
        for e in edges:
            row.extend(f.edge_value(e))
            sec = f.sections[e]
            for k in sorted(kk for kk in sec if kk != "value"):
                row.extend(sec[k])
        rows.append(tuple(row))
    kind = sheaf.ground.kind
    if kind == NAT_KIND:
        return hilbert.is_nat_combination(tuple(vec_target), rows)
    if kind == INT_KIND:
        return intlinalg.in_lattice_span(tuple(vec_target), rows)
    if kind == QPOS_KIND:
        return cones.in_cone(tuple(vec_target), rows)
    raise UnsupportedRepresentation("image test over %s" % sheaf.ground.name)


# ---------------------------------------------------------------------------
# duality and coefficients
# ---------------------------------------------------------------------------

def poincare_duality_check(x, open_cells, sheaf):
    """Verify the duality square: top arrow iso, bottom arrow surjective,
    bottom iso under the degree/ring conditions.  Returns a report dict."""
    u = open_cells if isinstance(open_cells, CellSet) else CellSet(x, open_cells)
    region = u.complement()
    omega = orientation_sheaf(x, sheaf.ground)
    twisted = twist_by_orientation(omega, sheaf)
    report = {}
    # top arrow: sections of the twisted sheaf over X-U vs relative H1
    top_src = h0(region, twisted)
    rel = h1_relative(x, u, sheaf)
    report["top_iso"] = _top_arrow_iso(x, u, sheaf, omega, twisted,
                                       top_src, rel)
    # bottom arrow: first cohomology of the twisted sheaf on the open
    # subset, mapped into H0(U;F) through the edge slots
    h1_u = coh_h1(u, twisted)
    h0_u = h0_homology(u, sheaf)
    surj, inj = _bottom_arrow(x, u, sheaf, twisted, h1_u, h0_u)
    report["bottom_surjective"] = surj
    report["bottom_injective"] = inj
    ring = sheaf.ground.is_ring
    degree_ok = all(x.degrees(v)[0] > 0 and x.degrees(v)[1] > 0
                    for v in x.vertices)
    total_ok = all(sum(x.degrees(v)) > 0 for v in x.vertices)
    report["bottom_iso_expected"] = (ring and total_ok) or degree_ok
    report["bottom_iso"] = surj and inj
    return report


def _top_arrow_iso(x, u, sheaf, omega, twisted, top_src, rel):
    """Compare twisted sections over X-U with relative flows through their
    boundary-inclusive edge evaluations."""
    region_edges = sorted((u.complement().cells) & x.edges)
    u_edges = sorted(u.cells & x.edges)

    def signature_from_section(s):
        sig = []
        for e in region_edges + u_edges:
            ends = [v for v, _ in x.incidences(e) if v not in u.cells]
            val = None
            for v in ends:
                img = twisted.restriction(v, e).apply(
                    top_src.space.project(s, v))
                if img is None:
                    return None
                val = img if val is None else val
            sig.append((e, repr(val)))
        return tuple(sig)

    def signature_from_flow(f):
        sig = []
        for e in region_edges + u_edges:
            ends = [v for v, _ in x.incidences(e) if v not in u.cells]
            if e in u_edges:
                vals = [sheaf.restriction(v, e).apply(f.sections[e].get(v))
                        for v in ends if f.sections[e].get(v) is not None]
                val = vals[0] if vals else None
                if len(vals) == 2 and vals[0] != vals[1]:
                    # two independent boundary values: keep both
                    sig.append((e, repr(tuple(map(repr, vals)))))
                    continue
            else:
                val = f.edge_value(e)
            sig.append((e, repr(val)))
        return tuple(sig)

    src = top_src.elements() if top_src.is_finite() else top_src.gens()
    sec_sigs = {signature_from_section(s) for s in src}
    flows = rel.generating_flows()
    flow_sigs = {signature_from_flow(f) for f in flows}
    if top_src.is_finite() and rel.flows is not None:
        return sec_sigs == flow_sigs and None not in sec_sigs
    # generator-level: every section signature realizable by a flow and back
    return sec_sigs <= flow_sigs or flow_sigs <= sec_sigs


def _bottom_arrow(x, u, sheaf, twisted, h1_u, h0_u):
    """[z at f] -> [z at f-slot]; surjectivity and injectivity checks."""
    # surjectivity: every H0 class is edge-representable
    if h0_u.classes is not None:
        edge_class = set()
        if h1_u.is_finite():
            for c in h1_u.elements():
                flat = h0_u.space.zero()
                for e in sorted(u.cells & x.edges):
                    flat = h0_u.space.add(
                        flat, h0_u.space.embed(e, h1_u.space.project(c, e)))
                edge_class.add(repr(h0_u.class_of(flat)))
            surj = edge_class >= {repr(c) for c in h0_u.classes}
            inj = len(edge_class) == len(h1_u.elements())
            return surj, inj
    if h1_u.presented is not None and h0_u.presented is not None:
        if h1_u.presented.ground.kind == INT_KIND:
            inv1 = h1_u.presented.z_invariants()
            inv0 = h0_u.presented.z_invariants()
            return True, inv1 == inv0
        # nat: compare bounded classes through the slot map
        window = 2
        cls1 = h1_u.presented._cong.classes_up_to(window)
        images = {}
        clash = False
        for nf in cls1:
            flat = h0_u.space.zero()
            for e in sorted(u.cells & x.edges):
                flat = h0_u.space.add(
                    flat, h0_u.space.embed(e, h1_u.space.project(nf, e)))
            key, _ = h0_u.presented.normal_form(flat)
            if key in images and images[key] != nf:
                clash = True
            images[key] = nf
        cls0 = h0_u.presented._cong.classes_up_to(window)
        surj = len(images) == len(cls0)
        return surj, not clash
    return False, False


def universal_coefficients_check(x, sheaf, coeff, bound=6):
    """H1(X;F) (x) M vs H1(X;F (x) M~) for a flat-certified M."""
    if not is_certified_flat(coeff):
        raise NoFlatCertificate("no flat certificate for %r" % (coeff,))
    base = h1(x, sheaf)
    if isinstance(coeff, FreeSemimodule) and coeff.ground.kind == QPOS_KIND:
        # F (x) Q>=0: recompute over the rational ground
        from .semiring import QPOS
        q = QPOS()
        lifted = constant_sheaf(x, FreeSemimodule(q, ("u",)))
        other = h1(x, lifted)
        lhs = _ray_span(base.edge_value_vectors(sorted(x.edges)))
        rhs = _ray_span(other.edge_value_vectors(sorted(x.edges)))
        return lhs == rhs
    if coeff is sheaf.ground or (isinstance(coeff, FreeSemimodule)
                                 and len(coeff.gens) == 1
                                 and coeff.ground == sheaf.ground):
        return True
    raise UnsupportedRepresentation("universal coefficients with %r" % (coeff,))


def _ray_span(vectors):
    flat = []
    for v in vectors:
        row = []
        for comp in v:
            row.extend(comp)
        flat.append(tuple(map(float, row)))
    rays = set()
    for r in flat:
        if not any(r):
            continue
        scale = max(abs(c) for c in r)
        rays.add(tuple(round(c / scale, 9) for c in r))
    return rays


def h1_rank_over_q(x):
    """Rank of H1(X;N) (x) Q>=0: the number of extreme rays of the
    circulation cone (the minimal generating set of the cone)."""
    edges = sorted(x.edges)
    verts = sorted(x.vertices)
    rows = []
    for v in verts:
        row = []
        for e in edges:
            c = 0
            if x.src[e] == v:
                c += 1
            if x.tgt[e] == v:
                c -= 1
            row.append(c)
        rows.append(row)
    if not rows:
        rows = [[0] * len(edges)]
    rays = cones.extreme_rays(rows, n=len(edges))
    return len(rays)


def check_sd_invariance_homology(x, sheaf):
    """H1 and H0 agree between X and its subdivision."""
    sdF, sd, corr = sd_sheaf(sheaf)
    base_h1 = h1(x, sheaf)
    sd_h1 = h1(sd, sdF)
    edges = sorted(x.edges)

    def collapse_flow(f):
        # a flow on sd X is determined by its values on either half
        return tuple(repr(f.edge_value(corr.halves(e)[0])) for e in edges)

    base_sigs = {tuple(repr(f.edge_value(e)) for e in edges)
                 for f in base_h1.generating_flows()}
    sd_sigs = {collapse_flow(f) for f in sd_h1.generating_flows()}
    ok_h1 = base_sigs == sd_sigs
    base_h0 = h0_homology(full_cellset(x), sheaf)
    sd_h0 = h0_homology(full_cellset(sd), sdF)
    ok_h0 = _compare_h0_chain(x, sheaf, sd, sdF, corr, base_h0, sd_h0)
    return ok_h1 and ok_h0


def _compare_h0_chain(x, sheaf, sd, sdF, corr, base_h0, sd_h0):
    def collapse(flat):
        out = base_h0.space.zero()
        for c in sorted(x.cells):
            out = base_h0.space.add(
                out, base_h0.space.embed(c, sd_h0.space.project(flat, c)))
        for e in sorted(x.edges):
            for half in corr.halves(e):
                # half-edge slots carry the edge stalk; fold them onto e
                out = base_h0.space.add(
                    out, base_h0.space.embed(e, sd_h0.space.project(flat, half)))
        return out

    if sd_h0.classes is not None and base_h0.classes is not None:
        image = {repr(base_h0.class_of(collapse(c))) for c in sd_h0.elements()}
        return len(image) == len(sd_h0.elements()) == len(base_h0.elements())
    if sd_h0.presented is not None and base_h0.presented is not None:
        ground = sd_h0.presented.ground
        if ground.kind == INT_KIND:
            return sd_h0.presented.z_invariants() == \
                base_h0.presented.z_invariants()
        window = 2
        cls_sd = sd_h0.presented._cong.classes_up_to(window)
        mapped = {}
        for nf in cls_sd:
            img = collapse(nf)
            key, _ = base_h0.presented.normal_form(img)
            mapped[key] = nf
        cls_base = base_h0.presented._cong.classes_up_to(window)
        return len(mapped) == len(cls_base)
    return False
