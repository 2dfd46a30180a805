"""Finite digraphs with partial endpoint maps and their face-poset topology.

A digraph doubles as a two-level poset: vertices below their incident edges.
Endpoint maps may be partial ("self-loops and missing vertices" are both
allowed), so every operation tolerates dangling edges.
"""

from __future__ import annotations

from .errors import NotComplete, SheafflowError


class Digraph:
    """Immutable by convention: never mutate vertices/edges/src/tgt."""

    def __init__(self, vertices, edges, src, tgt):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(edges)
        if self.vertices & self.edges:
            raise SheafflowError("vertex and edge ids must be disjoint: %r" %
                                 (self.vertices & self.edges,))
        self.src = {e: src.get(e) for e in self.edges}
        self.tgt = {e: tgt.get(e) for e in self.edges}
        for e in self.edges:
            for v in (self.src[e], self.tgt[e]):
                if v is not None and v not in self.vertices:
                    raise SheafflowError("endpoint %r of %r undeclared" % (v, e))

    # -- poset structure ----------------------------------------------------

    @property
    def cells(self):
        return self.vertices | self.edges

    def incidences(self, e):
        """Defined endpoints of an edge, as (vertex, sign) with '-' = source."""
        out = []
        if self.src[e] is not None:
            out.append((self.src[e], "-"))
        if self.tgt[e] is not None:
            out.append((self.tgt[e], "+"))
        return out

    def edges_at(self, v):
        return sorted(e for e in self.edges
                      if self.src[e] == v or self.tgt[e] == v)

    def out_edges(self, v):
        return sorted(e for e in self.edges if self.src[e] == v)

    def in_edges(self, v):
        return sorted(e for e in self.edges if self.tgt[e] == v)

    def degrees(self, v):
        """(in-degree, out-degree) = (|tgt^-1 v|, |src^-1 v|)."""
        if v not in self.vertices:
            raise SheafflowError("%r is not a vertex" % (v,))
        return len(self.in_edges(v)), len(self.out_edges(v))

    def is_complete(self):
        return all(self.src[e] is not None and self.tgt[e] is not None
                   for e in self.edges)

    def boundaries(self):
        """(source-only vertices, target-only vertices); requires total maps."""
        if not self.is_complete():
            raise NotComplete("boundaries need total endpoint maps")
        srcs = {self.src[e] for e in self.edges}
        tgts = {self.tgt[e] for e in self.edges}
        return frozenset(srcs - tgts), frozenset(tgts - srcs)

    def subgraph(self, cells):
        """The cell subset as a digraph: endpoints outside become undefined."""
        cells = frozenset(cells)
        vs = self.vertices & cells
        es = self.edges & cells
        src = {e: (self.src[e] if self.src[e] in vs else None) for e in es}
        tgt = {e: (self.tgt[e] if self.tgt[e] in vs else None) for e in es}
        return Digraph(vs, es, src, tgt)

    def __repr__(self):
        return "Digraph(%d vertices, %d edges)" % (len(self.vertices),
                                                   len(self.edges))


class CellSet:
    """A subset of the cells of a digraph, with openness flags cached."""

    def __init__(self, digraph, cells):
        self.digraph = digraph
        self.cells = frozenset(cells)
        unknown = self.cells - digraph.cells
        if unknown:
            raise SheafflowError("cells %r not in digraph" % (unknown,))
        self.is_open = all(e in self.cells
                           for v in self.cells & digraph.vertices
                           for e in digraph.edges_at(v))
        self.is_closed = all(v in self.cells
                             for e in self.cells & digraph.edges
                             for v, _ in digraph.incidences(e))

    @property
    def vertices(self):
        return self.cells & self.digraph.vertices

    @property
    def edges(self):
        return self.cells & self.digraph.edges

    def complement(self):
        return CellSet(self.digraph, self.digraph.cells - self.cells)

    def __contains__(self, c):
        return c in self.cells

    def __iter__(self):
        return iter(sorted(self.cells))

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, CellSet) and self.cells == other.cells \
            and self.digraph is other.digraph

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return "CellSet(%s)" % ", ".join(sorted(self.cells))


def full_cellset(x):
    return CellSet(x, x.cells)


def closure(c):
    """C together with the defined endpoints of its edges."""
    x = c.digraph
    cells = set(c.cells)
    for e in c.cells & x.edges:
        for v, _ in x.incidences(e):
            cells.add(v)
    return CellSet(x, cells)


def edge_closure(x, e):
    return closure(CellSet(x, {e}))


def subdivide(x):
    """The subdivision: old cells become vertices, each edge splits in two.

    Returns (sd_digraph, correspondence) where the correspondence maps each
    cell of x to its vertex in sd x and each edge to its (minus, plus) pair.
    """
    vertices = set(x.cells)
    edges = set()
    src, tgt = {}, {}
    corr = {}
    for c in x.cells:
        corr[c] = c
    half = {}
    for e in sorted(x.edges):
        em, ep = e + "-", e + "+"
        while em in vertices or ep in vertices:
            em, ep = em + "_", ep + "_"
        edges.add(em)
        edges.add(ep)
        src[em] = x.src[e]
        tgt[em] = e
        src[ep] = e
        tgt[ep] = x.tgt[e]
        half[e] = (em, ep)
    sd = Digraph(vertices, edges, src, tgt)
    return sd, SdCorrespondence(x, sd, half)


class SdCorrespondence:
    def __init__(self, base, sd, half):
        self.base = base
        self.sd = sd
        self.half = half

    def halves(self, e):
        return self.half[e]


def is_acyclic(c):
    """No directed loop inside the cell set (edges need both endpoints in C)."""
    x = c.digraph if isinstance(c, CellSet) else None
    if x is None:
        x, c = c, full_cellset(c)
    usable = [e for e in c.cells & x.edges
              if x.src[e] in c.cells and x.tgt[e] in c.cells
              and x.src[e] is not None and x.tgt[e] is not None]
    adj = {}
    for e in usable:
        if x.src[e] == x.tgt[e]:
            return False
        adj.setdefault(x.src[e], []).append(x.tgt[e])
    color = {}

    def dfs(v):
        color[v] = 1
        for w in adj.get(v, ()):
            if color.get(w) == 1:
                return False
            if color.get(w, 0) == 0 and not dfs(w):
                return False
        color[v] = 2
        return True

    return all(dfs(v) for v in list(adj) if color.get(v, 0) == 0)


def simple_directed_loops(x):
    """All simple directed loops, as frozensets of cells.

    A loop is a compact subset whose vertices all have in- and out-degree 1
    inside the subset; simple means no proper subset is itself a loop.
    Enumeration: self-loop edges directly, then vertex-simple cycles by DFS
    with all parallel-edge choices.
    """
    loops = set()
    for e in x.edges:
        if x.src[e] is not None and x.src[e] == x.tgt[e]:
            loops.add(frozenset({e, x.src[e]}))
    verts = sorted(x.vertices)
    order = {v: i for i, v in enumerate(verts)}
    edge_between = {}
    for e in x.edges:
        s, t = x.src[e], x.tgt[e]
        if s is None or t is None or s == t:
            continue
        edge_between.setdefault((s, t), []).append(e)

    def cycles_from(start):
        # vertex-simple cycles whose least vertex is start
        results = []

        def dfs(v, path_vertices, path_edges):
            for (s, t), es in edge_between.items():
                if s != v:
                    continue
                if t == start:
                    for e in es:
                        results.append((path_vertices[:], path_edges + [e]))
                elif t not in path_vertices and order[t] > order[start]:
                    for e in es:
                        path_vertices.append(t)
                        dfs(t, path_vertices, path_edges + [e])
                        path_vertices.pop()

        dfs(start, [start], [])
        return results

    for v in verts:
        for pv, pe in cycles_from(v):
            loops.add(frozenset(pv) | frozenset(pe))
    return sorted(loops, key=lambda s: (len(s), sorted(s)))


def brute_force_loops(x):
    """Oracle for `simple_directed_loops` on digraphs with few cells."""
    from itertools import combinations
    cells = sorted(x.cells)
    found = []
    for r in range(1, len(cells) + 1):
        for combo in combinations(cells, r):
            c = frozenset(combo)
            if _is_loop(x, c):
                found.append(c)
    simple = [c for c in found
              if not any(o < c for o in found)]
    return sorted(simple, key=lambda s: (len(s), sorted(s)))


def _is_loop(x, cells):
    vs = cells & x.vertices
    es = cells & x.edges
    if not es:
        return False
    for e in es:
        if x.src[e] not in vs or x.tgt[e] not in vs:
            return False
    for v in vs:
        indeg = sum(1 for e in es if x.tgt[e] == v)
        outdeg = sum(1 for e in es if x.src[e] == v)
        if indeg != 1 or outdeg != 1:
            return False
    # connectivity: a disjoint union of loops has a proper subset loop, so
    # minimality filtering handles it; still require every vertex touched
    return all(any(x.src[e] == v or x.tgt[e] == v for e in es) for v in vs)
