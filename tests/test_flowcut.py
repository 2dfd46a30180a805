"""Flows, cuts, values, MFMC verification, duality gap."""

from fractions import Fraction

import pytest

from fixtures import three_cycle

from sheafflow.digraph import CellSet, Digraph
from sheafflow.errors import NotAcyclic
from sheafflow.flowcut import (algebraic_mfmc, ford_fulkerson_oracle,
                               gap_check, h1_equals_flows_check, mfmc_report)
from sheafflow.maxflow import ford_fulkerson
from sheafflow.weights import (BoxSet, LatticeSet, SupportSet,
                               WeightedNetwork, cut_is_cocycle_over_z,
                               cut_value_set, enumerate_e_cuts,
                               flow_value_set, holim_cut_values,
                               intersect_cut_values, max_flow_by_cycles,
                               weighted_exactness_at_edge)
from sheafflow.semimodule import join_semilattice_from_leq


def series_network(caps=(3, 5)):
    """s -> a -> t with the marked edge e: t -> s."""
    x = Digraph({"s", "a", "t"}, {"f1", "f2", "e"},
                {"f1": "s", "f2": "a", "e": "t"},
                {"f1": "a", "f2": "t", "e": "s"})
    stalks = {"f1": BoxSet.principal(caps[0]),
              "f2": BoxSet.principal(caps[1]),
              "e": BoxSet.principal(caps[0] + caps[1] + 1)}
    return WeightedNetwork(x, "nat", stalks, "e")


def diamond_network(caps=(1, 1, 1, 1), cap_e=None):
    x = Digraph({"s", "a", "b", "t"}, {"f1", "f2", "f3", "f4", "e"},
                {"f1": "s", "f2": "s", "f3": "a", "f4": "b", "e": "t"},
                {"f1": "a", "f2": "b", "f3": "t", "f4": "t", "e": "s"})
    if cap_e is None:
        cap_e = sum(caps) + 1
    stalks = {"f1": BoxSet.principal(caps[0]),
              "f2": BoxSet.principal(caps[1]),
              "f3": BoxSet.principal(caps[2]),
              "f4": BoxSet.principal(caps[3]),
              "e": BoxSet.principal(cap_e)}
    return WeightedNetwork(x, "nat", stalks, "e")


def gap_network():
    """The multicommodity duality-gap instance over Q>=0^2.

    Stalks: a carries x=0, d carries y=0, the bottom path carries xy=0, c
    and the marked edge are unconstrained.
    """
    x = Digraph(
        {"u1", "u2", "u3", "u4", "u5", "u6"},
        {"a", "c", "d", "b", "g", "h", "e"},
        {"a": "u1", "c": "u2", "d": "u3", "b": "u1", "g": "u5", "h": "u6",
         "e": "u4"},
        {"a": "u2", "c": "u3", "d": "u4", "b": "u5", "g": "u6", "h": "u4",
         "e": "u1"})
    axis_x = SupportSet(2, [frozenset({0})])
    axis_y = SupportSet(2, [frozenset({1})])
    axes = SupportSet.axes(2)
    full = SupportSet.full(2)
    stalks = {"a": axis_y, "c": full, "d": axis_x,
              "b": axes, "g": axes, "h": axes, "e": full}
    return WeightedNetwork(x, "qpos", stalks, "e", dim=2)


# -- cuts -----------------------------------------------------------------------

def test_cut_enumeration_series():
    net = series_network()
    cuts = enumerate_e_cuts(net.digraph, "e")
    edge_sets = sorted(sorted(c.edges) for c in cuts)
    assert edge_sets == [["f1"], ["f2"]]
    assert all(c.minimal for c in cuts)


def test_cut_enumeration_requires_acyclicity():
    x = Digraph({"s", "t"}, {"f", "g", "e"},
                {"f": "s", "g": "t", "e": "t"},
                {"f": "t", "g": "s", "e": "s"})
    with pytest.raises(NotAcyclic):
        enumerate_e_cuts(x, "e")


def test_cut_cocycle_condition_over_z():
    net = diamond_network()
    for cut in enumerate_e_cuts(net.digraph, "e"):
        assert cut_is_cocycle_over_z(net.digraph, "e", cut)
    # a non-cut edge set fails the cocycle condition
    from sheafflow.weights import Cut
    assert not cut_is_cocycle_over_z(net.digraph, "e", Cut({"f1"}, {"s"}))


def test_parallel_edge_cut():
    x = Digraph({"s", "t"}, {"f", "e"}, {"f": "s", "e": "t"},
                {"f": "t", "e": "s"})
    net = WeightedNetwork(x, "nat", {"f": BoxSet.principal(2),
                                     "e": BoxSet.principal(9)}, "e")
    cuts = enumerate_e_cuts(x, "e")
    assert [sorted(c.edges) for c in cuts] == [["f"]]
    assert cut_value_set(net, cuts[0]) == BoxSet.principal(2)


# -- classical values -------------------------------------------------------------

def test_series_flow_value_is_min():
    net = series_network((3, 5))
    assert flow_value_set(net) == BoxSet.principal(3)
    assert max_flow_by_cycles(net) == 3
    assert ford_fulkerson_oracle(net) == 3


def test_diamond_flow_value():
    net = diamond_network((1, 1, 1, 1))
    assert max_flow_by_cycles(net) == 2
    assert ford_fulkerson_oracle(net) == 2
    vmax, vmin, equal = algebraic_mfmc(net)
    assert (vmax, vmin, equal) == (2, 2, True)


def test_diamond_bottleneck_at_e():
    net = diamond_network((1, 1, 1, 1), cap_e=1)
    assert max_flow_by_cycles(net) == 1


def test_mfmc_report_classical():
    net = diamond_network((2, 1, 1, 2))
    rep = mfmc_report(net)
    assert not rep.gap
    assert rep.flow_equals_holim
    assert rep.exact_at_e
    vmax, vmin, equal = algebraic_mfmc(net)
    assert equal and vmax == ford_fulkerson_oracle(net) == 2


def test_cut_value_is_minkowski_sum():
    net = diamond_network((2, 3, 1, 4))
    cuts = enumerate_e_cuts(net.digraph, "e")
    top = next(c for c in cuts if sorted(c.edges) == ["f1", "f2"])
    assert cut_value_set(net, top) == BoxSet.principal(5)


def test_intersection_over_minimal_vs_all():
    net = diamond_network((2, 1, 1, 2))
    inter_min, _ = intersect_cut_values(net, minimal_only=True)
    inter_all, _ = intersect_cut_values(net, minimal_only=False)
    assert inter_min == inter_all == BoxSet.principal(2)


def test_no_path_network_flow_zero():
    x = Digraph({"s", "t", "m"}, {"f", "e"},
                {"f": "s", "e": "t"}, {"f": "m", "e": "s"})
    net = WeightedNetwork(x, "nat", {"f": BoxSet.principal(4),
                                     "e": BoxSet.principal(9)}, "e")
    assert flow_value_set(net) == BoxSet.principal(0)
    rep = mfmc_report(net)
    assert not rep.gap


def test_zero_capacity_network():
    net = series_network((0, 5))
    rep = mfmc_report(net)
    assert rep.flow_values == BoxSet.principal(0)
    assert rep.cut_intersection == BoxSet.principal(0)
    assert not rep.gap


# -- oracle ------------------------------------------------------------------------

def test_oracle_diamond_unit_caps():
    vs = {"s", "a", "b", "t"}
    arcs = [("s", "a", 1), ("s", "b", 1), ("a", "t", 1), ("b", "t", 1)]
    assert ford_fulkerson(vs, arcs, "s", "t") == 2


def test_oracle_series_min_edge():
    vs = {"s", "a", "t"}
    arcs = [("s", "a", 3), ("a", "t", 7)]
    assert ford_fulkerson(vs, arcs, "s", "t") == 3


def test_oracle_disconnected():
    assert ford_fulkerson({"s", "t"}, [], "s", "t") == 0


# -- duality gap ---------------------------------------------------------------------

def test_gap_flow_values_are_the_axes():
    net = gap_network()
    flows = flow_value_set(net)
    assert flows == SupportSet.axes(2)


def test_gap_every_cut_value_full():
    net = gap_network()
    cuts = enumerate_e_cuts(net.digraph, "e")
    assert cuts
    for c in cuts:
        assert cut_value_set(net, c).is_full(), c


def test_gap_witness_and_exactness():
    net = gap_network()
    gap, witness, rep = gap_check(net)
    assert gap
    assert witness == (Fraction(1), Fraction(1))
    assert not rep.exact_at_e
    assert rep.flow_equals_holim
    assert rep.flow_values == SupportSet.axes(2)
    assert rep.cut_intersection.is_full()


def test_weighted_exactness_fast_path_on_classical():
    net = diamond_network((1, 2, 2, 1))
    assert weighted_exactness_at_edge(net)


def _count_calls(monkeypatch, name):
    """Record each call to the `weights` function `name`, made through any
    module that holds it."""
    import sheafflow.flowcut
    import sheafflow.weights
    orig = getattr(sheafflow.weights, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in (sheafflow.weights, sheafflow.flowcut):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("minimal_only", [True, False])
def test_mfmc_report_solves_max_flow_and_enumerates_cuts_once(
        monkeypatch, minimal_only):
    net = diamond_network((2, 1, 1, 2))
    solves = _count_calls(monkeypatch, "max_flow_by_cycles")
    enumerations = _count_calls(monkeypatch, "enumerate_e_cuts")
    rep = mfmc_report(net, minimal_only=minimal_only)
    assert (len(solves), len(enumerations)) == (1, 1)
    assert rep.flow_values == rep.holim == BoxSet.principal(2)


def test_mfmc_report_on_gap_file_enumerates_once(monkeypatch):
    import os
    from sheafflow.cli import build_network, parse
    path = os.path.join(os.path.dirname(__file__), "netfiles", "gap.net")
    with open(path, "r", encoding="utf-8") as fh:
        nf, x, _marked = parse(fh.read())
    net = build_network(nf, x)
    enumerations = _count_calls(monkeypatch, "enumerate_e_cuts")
    supports = _count_calls(monkeypatch, "_qpos_feasible_supports")
    rep = mfmc_report(net)
    assert (len(enumerations), len(supports)) == (1, 1)
    assert rep.gap and not rep.exact_at_e


def test_report_and_algebraic_mfmc_share_one_solve_and_one_cut_walk(
        monkeypatch):
    import sheafflow.cones
    net = diamond_network((2, 1, 1, 2))
    calls = {"lp_maximize": 0, "lp_feasible": 0}
    for name in calls:
        orig = getattr(sheafflow.cones, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(sheafflow.cones, name, counted)
    walks = _count_calls(monkeypatch, "enumerate_e_cuts")
    rep = mfmc_report(net)
    assert algebraic_mfmc(net) == (2, 2, True)
    assert calls == {"lp_maximize": 1, "lp_feasible": 0}
    assert len(walks) == 1
    assert [sorted(c.edges) for c in rep.cuts] == \
        [["f1", "f2"], ["f1", "f4"], ["f2", "f3"], ["f3", "f4"]]
    # a mutated stalk is a new network state: the max-flow is solved again
    net.stalks["f1"] = BoxSet.principal(0)
    assert algebraic_mfmc(net) == (1, 1, True)
    assert mfmc_report(net).flow_values == BoxSet.principal(1)
    assert calls == {"lp_maximize": 2, "lp_feasible": 0}


def test_max_flow_rejects_a_fractional_optimum(monkeypatch):
    import sheafflow.cones
    from sheafflow.errors import SheafflowError
    monkeypatch.setattr(sheafflow.cones, "lp_maximize",
                        lambda *args, **kwargs: ((), Fraction(3, 2)))
    with pytest.raises(SheafflowError, match="fractional"):
        max_flow_by_cycles(diamond_network())


# -- lattice weights ----------------------------------------------------------------

def chain3():
    return join_semilattice_from_leq("chain3", ("0", "m", "1"),
                                     [("0", "m"), ("m", "1")], "0")


def lattice_series():
    x = Digraph({"s", "a", "t"}, {"f1", "f2", "e"},
                {"f1": "s", "f2": "a", "e": "t"},
                {"f1": "a", "f2": "t", "e": "s"})
    m = chain3()
    stalks = {"f1": LatticeSet.down(m, "m"),
              "f2": LatticeSet.down(m, "1"),
              "e": LatticeSet(m, set(m.elements()))}
    return WeightedNetwork(x, "lattice", stalks, "e", module=m)


def test_lattice_series_meet_of_labels():
    net = lattice_series()
    vmax, vmin, equal = algebraic_mfmc(net)
    assert equal
    assert vmax == "m"  # meet of the two edge labels m and 1


def test_lattice_flow_values():
    net = lattice_series()
    vals = flow_value_set(net)
    assert vals.members == {"0", "m"}
    assert holim_cut_values(net).members == {"0", "m"}


# -- h1 = flows --------------------------------------------------------------------

def test_h1_equals_flows_on_three_cycle():
    from fixtures import nat_constant
    x = three_cycle()
    assert h1_equals_flows_check(x, nat_constant(x))


def test_h1_excludes_indecomposable_on_bifurcation():
    from fixtures import bifurcation_digraph, star6_lattice
    from sheafflow.sheaf import constant_sheaf
    x = bifurcation_digraph()
    f = constant_sheaf(x, star6_lattice())
    assert h1_equals_flows_check(x, f)


def test_algebraic_mfmc_needs_semilattice_flags():
    from sheafflow.errors import NotSemilattice, SheafflowError
    net = gap_network()
    with pytest.raises(NotSemilattice):
        algebraic_mfmc(net)
    with pytest.raises(SheafflowError):
        ford_fulkerson_oracle(net)


def test_empty_digraph_flows():
    from sheafflow.flowcut import enumerate_flows
    from sheafflow.sheaf import constant_sheaf
    from sheafflow.semimodule import FreeSemimodule
    from sheafflow.semiring import NAT
    x = Digraph(set(), set(), {}, {})
    f = constant_sheaf(x, FreeSemimodule(NAT(), ("u",)))
    assert [fl.signature() for fl in enumerate_flows(f)] == [()]
