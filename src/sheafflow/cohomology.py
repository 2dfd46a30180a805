"""Directed cohomology of partial-semimodule sheaves on finite digraphs.

H0 is the equalizer and H1 the coequalizer of the cochain diagram

    (+)_v F(v)  ==>  (+)_e F(e)

with the upper arrow collecting source-side restrictions and the lower
arrow target-side restrictions.  Cells outside the computation region and
missing endpoints contribute zero, which is the compactly-supported
convention: a section must push to zero across a dangling edge.

Two execution modes cover the library's closed ground family:

* finite  - every stalk is finite; sections and classes are enumerated.
* linear  - stalks are free / presented / generated subsemimodules over
  nat, int or the nonnegative rationals with total restriction maps; the
  equalizer runs on Hilbert bases, integer kernels or extreme rays, and the
  coequalizer on congruence closure or Smith normal form.
"""

from __future__ import annotations

from itertools import product

from .congruence import DEFAULT_BOUND, congruence_closure_finite
from .digraph import CellSet, closure, full_cellset
from .errors import SheafflowError, UnsupportedRepresentation
from .semimodule import (FreeSemimodule, PresentedSemimodule,
                         SubSemimodule)
from . import cones, hilbert, intlinalg


# ---------------------------------------------------------------------------
# flattened sums of stalks
# ---------------------------------------------------------------------------

class SumSpace:
    """The direct sum of the stalks of `sheaf` at `cells`, flattened.

    In linear mode elements are coordinate tuples over the concatenated
    stalk generators; in finite mode they are tuples of local stalk
    elements aligned with the sorted cell list.
    """

    def __init__(self, sheaf, cells):
        self.sheaf = sheaf
        self.cells = sorted(cells)
        self.ground = sheaf.ground
        stalks = [sheaf.stalks[c] for c in self.cells]
        self.stalks = dict(zip(self.cells, stalks))
        self.index = {c: i for i, c in enumerate(self.cells)}
        if all(p.is_finite() for p in stalks):
            self.mode = "finite"
            self._zero = tuple(p.zero() for p in stalks)
            self._adds = [p.ambient.add for p in stalks]
        else:
            self.mode = "linear"
            self.offsets = {}
            self.dims = {}
            off = 0
            for c, p in zip(self.cells, stalks):
                amb = p.ambient
                if not isinstance(amb, (FreeSemimodule, PresentedSemimodule,
                                        SubSemimodule)):
                    raise UnsupportedRepresentation(
                        "stalk at %r is neither finite nor coordinate-based" % c)
                d = len(amb.generators())
                self.offsets[c] = off
                self.dims[c] = d
                off += d
            self.total = off
            self._zero = tuple(self.ground.zero for _ in range(off))

    # -- element structure --------------------------------------------------

    def zero(self):
        return self._zero

    def add(self, x, y):
        if self.mode == "finite":
            return tuple(add(a, b) for add, a, b in zip(self._adds, x, y))
        return tuple(self.ground.add(a, b) for a, b in zip(x, y))

    def smul(self, lam, x):
        if self.mode == "finite":
            return tuple(self.stalks[c].ambient.smul(lam, a)
                         for c, a in zip(self.cells, x))
        return tuple(self.ground.mul(lam, a) for a in x)

    def defined(self, x):
        if self.mode == "finite":
            return all(self.stalks[c].contains(a)
                       for c, a in zip(self.cells, x))
        for c in self.cells:
            if not self.stalks[c].contains(self.project(x, c)):
                return False
        return True

    def embed(self, cell, local):
        return self.assemble({cell: local})

    def assemble(self, locals_):
        """The sum of the embeddings of distinct cells' local values
        ({cell: local}): those values at their cells, zero elsewhere."""
        if self.mode == "finite":
            return tuple(locals_.get(c, z)
                         for c, z in zip(self.cells, self._zero))
        out = list(self._zero)
        for cell, local in locals_.items():
            off = self.offsets[cell]
            out[off: off + len(local)] = local
        return tuple(out)

    def project(self, x, cell):
        if self.mode == "finite":
            return x[self.index[cell]]
        off = self.offsets[cell]
        return tuple(x[off: off + self.dims[cell]])

    def enumerate_defined(self):
        if self.mode != "finite":
            raise UnsupportedRepresentation("enumeration needs finite stalks")
        locals_ = [self.stalks[c].elements() for c in self.cells]
        return [tuple(combo) for combo in product(*locals_)]

    def congruence(self, pairs):
        """Representative map of the congruence that `pairs` generate on the
        enumerated finite space.  With total stalks every sum is defined and
        the embedded local elements generate the space, so merged pairs are
        translated by those alone."""
        els = self.enumerate_defined()
        if all(p.is_total() for p in self.stalks.values()):
            shifts = [self.embed(c, y) for c in self.cells
                      for y in self.stalks[c].elements()]
            return congruence_closure_finite(els, pairs, self.add,
                                             shifts=shifts)
        return congruence_closure_finite(els, pairs, self.add,
                                         defined=self.defined)

    def generators(self):
        """(cell, local generator, flat vector) triples, linear mode."""
        out = []
        for c in self.cells:
            amb = self.stalks[c].ambient
            for g in amb.generators():
                out.append((c, g, self.embed(c, g)))
        return out

    def relations(self):
        """Relations inherited from presented stalks, as flat pairs."""
        rels = []
        for c in self.cells:
            amb = self.stalks[c].ambient
            if isinstance(amb, PresentedSemimodule):
                for u, v in amb.relations:
                    rels.append((self.embed(c, u), self.embed(c, v)))
        return rels


# ---------------------------------------------------------------------------
# the cochain parallel pair
# ---------------------------------------------------------------------------

class CochainDiagram:
    """d-, d+ : (+)_v F(v) -> (+)_e F(e), restricted to a cell subset."""

    def __init__(self, cells, sheaf):
        cs = cells if isinstance(cells, CellSet) else CellSet(sheaf.base, cells)
        self.region = cs
        self.sheaf = sheaf
        x = sheaf.base
        self.vcells = sorted(cs.cells & x.vertices)
        self.ecells = sorted(cs.cells & x.edges)
        self.vspace = SumSpace(sheaf, self.vcells)
        self.espace = SumSpace(sheaf, self.ecells)

    def _push(self, x, side):
        """side '-' pushes along sources, '+' along targets."""
        g = self.sheaf.base
        images = {}
        for e in self.ecells:
            v = g.src[e] if side == "-" else g.tgt[e]
            if v is None or v not in self.vcells:
                continue
            local = self.vspace.project(x, v)
            img = self.sheaf.restriction(v, e).apply(local)
            if img is None:
                return None
            images[e] = img
        return self.espace.assemble(images)

    def d_minus(self, x):
        return self._push(x, "-")

    def d_plus(self, x):
        return self._push(x, "+")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class H0Result:
    """Sections of F over a cell subset: the equalizer of the cochain pair."""

    def __init__(self, diagram, sections=None, generators=None, complete=True):
        self.diagram = diagram
        self.space = diagram.vspace
        self.sections = sections          # finite mode: every section
        self.generators = generators      # linear mode: generating sections
        self.complete = complete

    def is_finite(self):
        return self.sections is not None

    def elements(self):
        if self.sections is None:
            raise UnsupportedRepresentation("H0 has infinitely many sections")
        return self.sections

    def gens(self):
        if self.generators is not None:
            return self.generators
        z = self.space.zero()
        return [s for s in self.sections if s != z]

    def contains(self, x):
        if self.sections is not None:
            return x in self.sections
        if not self.space.defined(x):
            # partial stalks: generators describe the ambient solution set,
            # sections are its intersection with the defined region
            return False
        kind = self.space.ground.kind
        if kind == "nat":
            return hilbert.is_nat_combination(x, self.generators)
        if kind == "int":
            return intlinalg.in_lattice_span(x, self.generators)
        return cones.in_cone(x, self.generators)

    def value_at(self, x, cell):
        return self.space.project(x, cell)

    def edge_value(self, x, e):
        """The common image of a section across edge e (either endpoint)."""
        g = self.diagram.sheaf.base
        for v in (g.src[e], g.tgt[e]):
            if v is not None and v in self.diagram.vcells:
                img = self.diagram.sheaf.restriction(v, e).apply(
                    self.space.project(x, v))
                return img
        return None


class H1Result:
    """Classes of edge data modulo parallel transport: the coequalizer."""

    def __init__(self, diagram, class_map=None, classes=None,
                 presented=None, complete=True):
        self.diagram = diagram
        self.space = diagram.espace
        self._class_map = class_map      # finite mode: element -> representative
        self.classes = classes           # finite mode: representatives
        self.presented = presented       # linear mode: PresentedSemimodule
        self.complete = complete

    def is_finite(self):
        return self._class_map is not None

    def class_of(self, x):
        if self._class_map is not None:
            return self._class_map[x]
        nf, _ = self.presented.normal_form(x)
        return nf

    def eq(self, x, y):
        if self._class_map is not None:
            return self._class_map[x] == self._class_map[y]
        return self.presented.eq(x, y)

    def elements(self):
        if self.classes is None:
            raise UnsupportedRepresentation("H1 is not enumerable")
        return self.classes

    def invariants(self):
        """Ground-int invariants (free rank, torsion) when available."""
        if self.presented is not None and \
                self.presented.ground.kind == "int":
            return self.presented.z_invariants()
        raise UnsupportedRepresentation("invariants need ground int")


# ---------------------------------------------------------------------------
# H0 / H1
# ---------------------------------------------------------------------------

def h0(cells, sheaf):
    """Sections over a finite cell subset (compactly supported convention)."""
    diag = CochainDiagram(cells, sheaf)
    if diag.vspace.mode == "finite" and diag.espace.mode == "finite":
        sections = []
        for x in diag.vspace.enumerate_defined():
            dm = diag.d_minus(x)
            dp = diag.d_plus(x)
            if dm is not None and dp is not None and dm == dp:
                sections.append(x)
        return H0Result(diag, sections=sections)
    return _h0_linear(diag)


def _h0_linear(diag):
    vs, es = diag.vspace, diag.espace
    if vs.mode == "finite":
        # no coordinates to solve over; treat via enumeration against a
        # linear edge space is unsupported
        raise UnsupportedRepresentation("mixed finite/linear cochain diagram")
    cols_m, cols_p = [], []
    for c, g, flat in vs.generators():
        dm = diag.d_minus(flat)
        dp = diag.d_plus(flat)
        if dm is None or dp is None:
            raise UnsupportedRepresentation(
                "partial restriction maps need finite stalks")
        cols_m.append(dm)
        cols_p.append(dp)
    n = vs.total
    m = es.total if es.mode == "linear" else 0
    if es.mode == "finite" and es.cells:
        raise UnsupportedRepresentation("mixed finite/linear cochain diagram")
    A = [[int(cols_m[j][i]) if vs.ground.kind != "nonneg_rational"
          else cols_m[j][i] for j in range(n)] for i in range(m)]
    B = [[int(cols_p[j][i]) if vs.ground.kind != "nonneg_rational"
          else cols_p[j][i] for j in range(n)] for i in range(m)]
    kind = vs.ground.kind
    if not A:
        A = [[0] * n]
        B = [[0] * n]
    if kind == "nat":
        gens = hilbert.hilbert_basis_eq(A, B)
    elif kind == "int":
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        gens = intlinalg.kernel_basis(diff)
    elif kind == "nonneg_rational":
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        gens = cones.extreme_rays(diff, n=n)
    else:
        raise UnsupportedRepresentation("H0 over %s" % vs.ground.name)
    gens = [tuple(g) for g in gens]
    # presented vertex stalks: distinct cover solutions can be congruent;
    # drop duplicates modulo the stalk congruences
    gens = _dedup_mod_relations(vs, gens)
    return H0Result(diag, generators=gens)


def _dedup_mod_relations(space, gens):
    rels = space.relations()
    if not rels:
        return gens
    pres = PresentedSemimodule(space.ground,
                               ["x%d" % i for i in range(space.total)],
                               rels)
    out = []
    seen = []
    for g in gens:
        nf, _ = pres.normal_form(g)
        if nf not in seen:
            seen.append(nf)
            out.append(g)
    return out


def h1(cells, sheaf, bound=DEFAULT_BOUND):
    """Edge data modulo transport over a finite cell subset."""
    diag = CochainDiagram(cells, sheaf)
    vs, es = diag.vspace, diag.espace
    if not es.cells:
        pres = PresentedSemimodule(sheaf.ground, (), [], name="H1")
        return H1Result(diag, presented=pres) if vs.mode == "linear" \
            else _h1_finite(diag)
    if es.mode == "finite" and vs.mode == "finite":
        return _h1_finite(diag)
    if es.mode != "linear":
        raise UnsupportedRepresentation("mixed finite/linear cochain diagram")
    pairs = []
    if vs.mode == "linear":
        sources = [flat for _, _, flat in vs.generators()]
    else:
        sources = vs.enumerate_defined()
    for x in sources:
        dm = diag.d_minus(x)
        dp = diag.d_plus(x)
        if dm is not None and dp is not None and dm != dp:
            pairs.append((dm, dp))
    kind = es.ground.kind
    if kind not in ("nat", "int"):
        raise UnsupportedRepresentation("H1 over %s" % es.ground.name)
    rels = es.relations() + pairs
    pres = PresentedSemimodule(es.ground,
                               ["c%d" % i for i in range(es.total)],
                               rels, bound=bound, name="H1")
    complete = True
    if kind == "nat":
        for g in pres.generators():
            _, c = pres.normal_form(g)
            complete = complete and c
    return H1Result(diag, presented=pres, complete=complete)


def _h1_finite(diag):
    es = diag.espace
    pairs = []
    for x in diag.vspace.enumerate_defined():
        dm = diag.d_minus(x)
        dp = diag.d_plus(x)
        if dm is not None and dp is not None:
            pairs.append((dm, dp))
    rep = es.congruence(pairs)
    classes = sorted(set(rep.values()), key=lambda t: repr(t))
    return H1Result(diag, class_map=rep, classes=classes)


def h0_sections(cells, sheaf):
    """Finite-stalk sections as {cell: value} dicts (cover construction)."""
    res = h0(cells, sheaf)
    out = []
    for x in res.elements():
        d = {}
        for c in res.diagram.vcells:
            d[c] = res.space.project(x, c)
        for e in res.diagram.ecells:
            val = res.edge_value(x, e)
            if val is not None:
                d[e] = val
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# functoriality and connecting maps
# ---------------------------------------------------------------------------

def h0_restriction(sub, sup, sheaf):
    """The partial restriction map H0(sup) -> H0(sub) on section data.

    Defined on those sections whose truncation still equalizes; evaluation at
    a vertex is the special case sub = {v}.
    """
    res_sup = h0(sup, sheaf)
    diag_sub = CochainDiagram(sub, sheaf)

    def apply(x):
        y = diag_sub.vspace.zero()
        for v in diag_sub.vcells:
            y = diag_sub.vspace.add(
                y, diag_sub.vspace.embed(v, res_sup.value_at(x, v)))
        dm, dp = diag_sub.d_minus(y), diag_sub.d_plus(y)
        if dm is None or dp is None or dm != dp:
            return None
        return y

    return apply


def delta_cohomology(closed_cells, sheaf, sign):
    """The connecting map from sections over a closed subset into the first
    cohomology of the open complement.

    sign '-' routes section values through outside edges arriving at the
    subset, '+' through outside edges leaving it.  Returns (map, H1Result of
    the complement) where map sends a section flat vector to a flat edge
    vector (class representative lives in the returned H1).
    """
    cs = closed_cells if isinstance(closed_cells, CellSet) else \
        CellSet(sheaf.base, closed_cells)
    if not cs.is_closed:
        raise SheafflowError("delta needs a closed subset")
    x = sheaf.base
    comp = cs.complement()
    h1_comp = h1(comp, sheaf)
    region_v = sorted(cs.cells & x.vertices)
    diag_c = CochainDiagram(cs, sheaf)

    def apply(section):
        out = h1_comp.space.zero()
        for e in sorted(comp.cells & x.edges):
            if sign == "-":
                v = x.tgt[e]
            else:
                v = x.src[e]
            if v is None or v not in region_v:
                continue
            local = diag_c.vspace.project(section, v)
            img = sheaf.restriction(v, e).apply(local)
            if img is None:
                return None
            out = h1_comp.space.add(out, h1_comp.space.embed(e, img))
        return out

    return apply, h1_comp


def check_sd_invariance_cohomology(x, sheaf, verbose=False):
    """Compare H0/H1 on X against the subdivision, via the projection map."""
    from .sheaf import sd_sheaf
    sdF, sd, corr = sd_sheaf(sheaf)
    ok_h0 = _compare_h0(x, sheaf, sd, sdF, corr)
    ok_h1 = _compare_h1(x, sheaf, sd, sdF, corr)
    return ok_h0 and ok_h1


def _compare_h0(x, sheaf, sd, sdF, corr):
    a = h0(full_cellset(x), sheaf)
    b = h0(full_cellset(sd), sdF)

    def project(sd_section):
        y = a.space.zero()
        for v in a.diagram.vcells:
            y = a.space.add(y, a.space.embed(v, b.space.project(sd_section, v)))
        return y

    if a.is_finite() and b.is_finite():
        images = [project(s) for s in b.elements()]
        return sorted(map(repr, images)) == sorted(map(repr, a.elements())) \
            and len(set(map(repr, images))) == len(images)
    # linear: projected generators must generate and lift back
    proj = [project(g) for g in b.gens()]
    if not all(a.contains(p) for p in proj):
        return False
    if not all(_in_span(a.space.ground.kind, g, proj) for g in a.gens()):
        return False
    return True


def _in_span(kind, x, gens):
    if kind == "nat":
        return hilbert.is_nat_combination(x, gens)
    if kind == "int":
        return intlinalg.in_lattice_span(x, gens)
    return cones.in_cone(x, gens)


def _compare_h1(x, sheaf, sd, sdF, corr):
    a = h1(full_cellset(x), sheaf)
    b = h1(full_cellset(sd), sdF)

    def collapse(sd_edge_vec):
        """Sum the two half-edge components into the base edge component."""
        y = a.space.zero()
        for e in sorted(x.edges):
            em, ep = corr.halves(e)
            for half in (em, ep):
                local = b.space.project(sd_edge_vec, half)
                y = a.space.add(y, a.space.embed(e, local))
        return y

    if a.is_finite() and b.is_finite():
        # the induced map on classes must be a bijection
        image = {}
        for cl in b.elements():
            image[repr(cl)] = a.class_of(collapse(cl))
        vals = sorted(repr(v) for v in image.values())
        return len(set(vals)) == len(a.elements()) and \
            sorted(repr(a.class_of(c)) for c in a.elements()) == vals
    if a.presented is not None and b.presented is not None:
        ground = a.presented.ground
        if ground.kind == "int":
            return a.presented.z_invariants() == b.presented.z_invariants()
        # nat: compare graded class counts through a modest window and check
        # the collapse map is a bijection on classes of that window
        window = 2
        cls_a = a.presented._cong.classes_up_to(window) if \
            hasattr(a.presented, "_cong") else None
        cls_b = b.presented._cong.classes_up_to(window)
        if cls_a is None:
            return False
        mapped = set()
        for nf_b in cls_b:
            img = collapse(nf_b)
            nf, _ = a.presented.normal_form(img)
            mapped.add(nf)
        return mapped >= set(nf for nf in cls_a)
    return False
