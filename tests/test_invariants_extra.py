"""Scaled-up invariant checks: exhaustive closure laws on a 12-cell base,
randomized route agreement, orientation constancy, the cut-value formula."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from fixtures import nat_constant, three_cycle

from sheafflow.digraph import CellSet, Digraph, closure, full_cellset
from sheafflow.homology import (h1_direct, h1_via_duality,
                                equalizer_criteria_hold, orientation_sheaf)
from sheafflow.hilbert import is_nat_combination
from sheafflow.semiring import INT, NAT
from sheafflow.sheaf import constant_sheaf
from sheafflow.weights import (BoxSet, SupportSet, WeightedNetwork,
                               cut_value_set, enumerate_e_cuts,
                               weighted_exactness_at_edge)


def twelve_cell_digraph():
    verts = {"a", "b", "c", "d", "q"}
    edges = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a"),
             "e4": ("c", "d"), "e5": ("q", None), "e6": ("d", "d"),
             "e7": (None, "q")}
    return Digraph(verts, edges.keys(),
                   {e: st[0] for e, st in edges.items()},
                   {e: st[1] for e, st in edges.items()})


def test_closure_laws_exhaustive_on_twelve_cells():
    x = twelve_cell_digraph()
    cells = sorted(x.cells)
    assert len(cells) == 12
    subsets = []
    for r in range(len(cells) + 1):
        subsets.extend(frozenset(s) for s in combinations(cells, r))
    closures = {}
    for s in subsets:
        cl = closure(CellSet(x, s)).cells
        closures[s] = cl
        assert s <= cl                      # extensive
        assert closures.get(cl, closure(CellSet(x, cl)).cells) == cl  # idem
    rng = random.Random(5)
    pool = list(subsets)
    for _ in range(4000):
        s = rng.choice(pool)
        t = rng.choice(pool)
        if s <= t:
            assert closures[s] <= closures[t]  # monotone


def random_small_digraph(rng, max_cells=8):
    nv = rng.randint(1, 4)
    verts = ["v%d" % i for i in range(nv)]
    ne = rng.randint(0, max_cells - nv)
    edges = {}
    for k in range(ne):
        edges["f%d" % k] = (rng.choice(verts), rng.choice(verts))
    return Digraph(verts, edges.keys(),
                   {e: st[0] for e, st in edges.items()},
                   {e: st[1] for e, st in edges.items()})


def test_direct_equals_duality_on_generated_instances():
    rng = random.Random(61)
    checked = 0
    while checked < 15:
        x = random_small_digraph(rng)
        f = nat_constant(x)
        if not equalizer_criteria_hold(x, f):
            continue
        edges = sorted(x.edges)

        def flat(fl):
            return tuple(c for e in edges for c in fl.edge_value(e))

        a = [flat(fl) for fl in h1_direct(x, f).generating_flows()]
        b = [flat(fl) for fl in h1_via_duality(x, f).generating_flows()]
        assert all(is_nat_combination(v, b) for v in a), (x.src, x.tgt)
        assert all(is_nat_combination(v, a) for v in b), (x.src, x.tgt)
        checked += 1


def test_orientation_constant_on_in_out_one_digraphs():
    # every vertex with in = out = 1: all orientation stalks are rank one
    # and the restrictions hit the edge generator
    x = three_cycle()
    for ground in (NAT(), INT()):
        om = orientation_sheaf(x, ground)
        for v in x.vertices:
            gens = om.stalks[v].ambient.generators()
            assert len(gens) == 1
            for e in x.edges_at(v):
                img = om.restriction(v, e).apply(gens[0])
                assert img == (ground.one,)


def test_orientation_constant_over_ring_on_degree_two_digraph():
    # two parallel arcs: total degree 2 everywhere without in = out = 1;
    # the orientation sheaf is constant over a ring but collapses over N
    x = Digraph({"a", "b"}, {"e1", "e2"},
                {"e1": "a", "e2": "a"}, {"e1": "b", "e2": "b"})
    om_z = orientation_sheaf(x, INT())
    for v in x.vertices:
        gens = om_z.stalks[v].ambient.generators()
        assert len(gens) == 1
        nonzero = [om_z.restriction(v, e).apply(gens[0]) for e in x.edges]
        assert all(val in ((1,), (-1,)) for val in nonzero)
    om_n = orientation_sheaf(x, NAT())
    assert len(om_n.stalks["a"].ambient.generators()) == 0
    assert len(om_n.stalks["b"].ambient.generators()) == 0


def test_orientation_commutes_with_subdivision():
    # subdivision vertices have in = out = 1, so their stalks are rank one,
    # and the stalk at an original vertex is unchanged (its star corresponds
    # edge-for-edge to the half-edges)
    from sheafflow.digraph import subdivide
    from fixtures import figure_eight, two_path
    for x in (three_cycle(), figure_eight(), two_path()):
        sd, corr = subdivide(x)
        for ground in (NAT(), INT()):
            om = orientation_sheaf(x, ground)
            om_sd = orientation_sheaf(sd, ground)
            for e in x.edges:
                gens = om_sd.stalks[e].ambient.generators()
                assert len(gens) == 1
            for v in x.vertices:
                a = om.stalks[v].ambient.generators()
                b = om_sd.stalks[v].ambient.generators()
                assert len(a) == len(b)
                if hasattr(om.stalks[v].ambient, "relations"):
                    assert len(om.stalks[v].ambient.relations) == \
                        len(om_sd.stalks[v].ambient.relations)


def test_cut_value_formula_on_random_weighted_instances():
    rng = random.Random(314)
    for _ in range(25):
        nv = rng.randint(2, 6)
        verts = ["v%d" % i for i in range(nv)]
        edges = {}
        for k in range(rng.randint(1, 9)):
            i = rng.randrange(nv - 1) if nv > 1 else 0
            j = rng.randrange(i + 1, nv) if i + 1 < nv else i
            if i == j:
                continue
            edges["f%d" % k] = (verts[i], verts[j])
        edges["e"] = (verts[-1], verts[0])
        x = Digraph(verts, edges.keys(),
                    {e: st[0] for e, st in edges.items()},
                    {e: st[1] for e, st in edges.items()})
        caps = {e: rng.randint(0, 9) for e in edges}
        net = WeightedNetwork(x, "nat",
                              {e: BoxSet.principal(caps[e]) for e in edges},
                              "e")
        for cut in enumerate_e_cuts(x, "e"):
            expected = BoxSet.principal(sum(caps[f] for f in cut.edges)) \
                if cut.edges else BoxSet.principal(0)
            assert cut_value_set(net, cut) == expected


def test_h0_square_commutes_for_weight_inclusion():
    # the inclusion of a weight sheaf into its constant sheaf is a sheaf
    # morphism; sections restrict compatibly
    from sheafflow.cohomology import h0
    from sheafflow.semimodule import FreeSemimodule, down_set
    from sheafflow.sheaf import weight_sheaf
    x = three_cycle()
    m = FreeSemimodule(NAT(), ("u",))
    w = weight_sheaf(x, m, {e: down_set(m, (2,)) for e in x.edges})
    cst = nat_constant(x)
    diag_w = h0(full_cellset(x), w)
    diag_c = h0(full_cellset(x), cst)
    # every weight-sheaf section maps (identically on vertex data) to a
    # constant-sheaf section, and evaluation at edges agrees
    for g in diag_w.gens():
        assert diag_c.contains(g)
        for e in sorted(x.edges):
            assert diag_w.edge_value(g, e) == diag_c.edge_value(g, e)


def test_cover_surjectivity_on_nine_cell_base():
    from sheafflow.cohomology import h0_sections
    from sheafflow.semimodule import join_semilattice_from_leq
    from sheafflow.sheaf import csection_surjection_cover
    chain2 = join_semilattice_from_leq("c2", ("0", "1"), [("0", "1")], "0")
    x = Digraph({"a", "b", "c", "d", "q"}, {"e1", "e2", "e3", "e4"},
                {"e1": "a", "e2": "b", "e3": "c", "e4": "q"},
                {"e1": "b", "e2": "c", "e3": "d", "e4": "b"})
    f = constant_sheaf(x, chain2)
    summands = csection_surjection_cover(f)
    cells = sorted(x.cells)
    opens = 0
    for r in range(len(cells) + 1):
        for combo in combinations(cells, r):
            cs = CellSet(x, combo)
            if not cs.is_open:
                continue
            opens += 1
            for target in h0_sections(cs, f):
                filled = {c: target.get(c, "0") for c in cs.cells}
                assert _reachable(f, cs, summands, filled)
    assert opens > 10


def _reachable(f, cs, summands, target):
    pool = []
    for sum_cs, cover, named in summands:
        for s in named:
            pool.append({c: s.get(c, "0") for c in cs.cells})
    state = {c: "0" for c in cs.cells}
    seen = {tuple(sorted(state.items()))}
    frontier = [state]
    while frontier:
        cur = frontier.pop()
        if cur == target:
            return True
        for p in pool:
            nxt = {c: f.stalks[c].ambient.add(cur[c], p[c])
                   for c in cs.cells}
            key = tuple(sorted(nxt.items()))
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return state == target


@st.composite
def forward_networks(draw):
    """Random nat or qpos^2 networks: forward edges v_i -> v_j (i < j), so
    X - e is acyclic, and the marked edge e from the last vertex back to
    the first."""
    nv = draw(st.integers(2, 5))
    verts = ["v%d" % i for i in range(nv)]
    forward = st.integers(0, nv - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, nv - 1)))
    ends = {"f%d" % k: (verts[i], verts[j]) for k, (i, j) in
            enumerate(draw(st.lists(forward, max_size=6)))}
    ends["e"] = (verts[-1], verts[0])
    x = Digraph(verts, ends.keys(), {f: ends[f][0] for f in ends},
                {f: ends[f][1] for f in ends})
    if draw(st.booleans()):
        stalks = {f: BoxSet.principal(draw(st.integers(0, 4)))
                  for f in sorted(ends)}
        return WeightedNetwork(x, "nat", stalks, "e")
    pieces = st.lists(st.frozensets(st.integers(0, 1)), min_size=1,
                      max_size=2)
    stalks = {f: SupportSet(2, draw(pieces)) for f in sorted(ends)}
    return WeightedNetwork(x, "qpos", stalks, "e", dim=2)


@settings(max_examples=40, deadline=None)
@given(forward_networks())
def test_report_independent_of_cut_choice_and_matches_exactness(net):
    from sheafflow.flowcut import mfmc_report
    rep = mfmc_report(net)
    assert vars(mfmc_report(net, minimal_only=False)) == vars(rep)
    assert weighted_exactness_at_edge(net) == rep.exact_at_e


@st.composite
def nat_networks(draw):
    """Random N networks on at most 7 vertices: up to 11 forward edges (so
    X - e is acyclic, with parallel edges and zero capacities), sometimes
    none into the sink, and a marked stalk of 0-15 that sometimes binds."""
    nv = draw(st.integers(2, 7))
    verts = ["v%d" % i for i in range(nv)]
    sink = nv - 1
    forward = st.integers(0, nv - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, nv - 1)))
    pairs = draw(st.lists(forward, max_size=11))
    if draw(st.integers(0, 4)) == 0:
        pairs = [(i, j) for i, j in pairs if j != sink]
    ends = {"f%d" % k: (verts[i], verts[j]) for k, (i, j) in enumerate(pairs)}
    ends["e"] = (verts[sink], verts[0])
    x = Digraph(verts, ends.keys(), {f: ends[f][0] for f in ends},
                {f: ends[f][1] for f in ends})
    stalks = {f: BoxSet.principal(draw(st.integers(0, 5))) for f in ends}
    stalks["e"] = BoxSet.principal(draw(st.integers(0, 15)))
    return WeightedNetwork(x, "nat", stalks, "e")


@settings(max_examples=150, deadline=None)
@given(nat_networks())
def test_max_flow_is_the_oracle_clipped_by_the_marked_stalk(net):
    from sheafflow.flowcut import ford_fulkerson_oracle
    from sheafflow.weights import max_flow_by_cycles
    assert max_flow_by_cycles(net) == min(net.stalks["e"].max_scalar(),
                                          ford_fulkerson_oracle(net))
