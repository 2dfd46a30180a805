"""The four benchmark workloads: seeded input streams, ops and their checks.

Every workload is an endless stream of *blocks*.  A block has a fixed
composition (the same number of inputs of each kind and size class for
every seed); the seed only decides the random structure inside each input
and the order within the block.  That keeps the cost of a run nearly the
same from seed to seed, so run-to-run spread measures the program, not the
luck of the draw.

An op is one call (or a fixed pair of calls) into the library's public API
or `cli.run`.  Its `check` runs outside the op's timed interval and returns
`Verdict` with the outcome digest used by the reference comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
NETFILES = os.path.join(HERE, "netfiles")

CLI_COMMANDS = ("h0", "h1", "homology", "orientation", "flows", "cuts",
                "cutvalue", "maxflow", "mfmc-check", "gap-check", "sd-check",
                "pd-check", "exactness-check")
SHEAF_COMMANDS = ("h0", "h1", "homology", "orientation", "sd-check",
                  "pd-check")
NETWORK_COMMANDS = ("flows", "cuts", "cutvalue", "maxflow", "mfmc-check",
                    "gap-check", "exactness-check")


# -- outcomes and digests ------------------------------------------------------

class Verdict:
    """ok: every check passed.  known: the failure has the shape of a
    defect recorded at the baseline (see README); `run.judge` uses it for
    ops the reference does not cover.  incomplete: the library flagged
    the result as incomplete.  digest: canonical digest of the outcome."""

    __slots__ = ("ok", "known", "incomplete", "digest", "why")

    def __init__(self, ok, digest, incomplete=False, known=False, why=""):
        self.ok = ok
        self.known = known
        self.incomplete = incomplete
        self.digest = digest
        self.why = why


def canon(obj):
    """A JSON-able canonical form that does not depend on set order, hash
    seeds or object identity."""
    name = type(obj).__name__
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if name == "BoxSet":
        return ["BoxSet", sorted(list(c) for c in obj.caps)]
    if name == "SupportSet":
        return ["SupportSet", sorted(sorted(t) for t in obj.supports)]
    if name == "LatticeSet":
        return ["LatticeSet", sorted(repr(m) for m in obj.members)]
    if isinstance(obj, dict):
        return sorted([json.dumps(canon(k), sort_keys=True), canon(v)]
                      for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canon(v), sort_keys=True) for v in obj)
    text = repr(obj)
    return [name] if " at 0x" in text else [name, text]


def digest(obj):
    blob = json.dumps(canon(obj), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _supports_le(a, b):
    """a is contained in b, for SupportSets."""
    return all(b.contains_support(t) for t in a.supports)


# -- small shared builders -----------------------------------------------------

class NetSpec:
    """A network description that renders both as library objects and as
    `.net` text for `cli.run`.

    edges: {id: (src or None, tgt or None)}; weights: {id: literal}; the
    marked edge runs from t back to s (the `sink-source` convention)."""

    def __init__(self, semiring, vertices, edges, weights, s=None, t=None,
                 marked_weight=None):
        self.semiring = semiring
        self.vertices = vertices
        self.edges = edges
        self.weights = weights
        self.s, self.t = s, t
        self.marked_weight = marked_weight

    def text(self):
        lines = ["semiring %s" % self.semiring]
        lines += ["vertex %s" % v for v in self.vertices]
        for e, (a, b) in self.edges.items():
            lines.append("edge %s %s %s" % (e, a or "?", b or "?"))
        for e, w in self.weights.items():
            lines.append("weight %s %s" % (e, w))
        if self.s is not None:
            lines.append("sink-source e %s %s" % (self.s, self.t))
            if self.marked_weight is not None:
                lines.append("weight e %s" % self.marked_weight)
        return "\n".join(lines) + "\n"

    def digraph(self, lib):
        edges = dict(self.edges)
        if self.s is not None:
            edges["e"] = (self.t, self.s)
        return lib.Digraph(self.vertices, edges.keys(),
                           {e: st[0] for e, st in edges.items()},
                           {e: st[1] for e, st in edges.items()})

    def h1_defect_shape(self):
        """The shapes on which the baseline's h1_equals_flows_check can
        return False (README, known defect 2): a self-loop at a vertex
        that another edge touches, or two distinct directed 2-cycles."""
        pairs = list(self.edges.values())
        looped = {a for a, b in pairs if a == b}
        if any(a != b and (a in looped or b in looped) for a, b in pairs):
            return True
        return len({frozenset(p) for p in pairs
                    if p[0] != p[1] and p[::-1] in pairs}) >= 2


def _qpos_support_set(lib, literal):
    pieces = []
    for p in literal.split("|"):
        comps = p.strip()[1:-1].split(",")
        pieces.append(frozenset(i for i, c in enumerate(comps)
                                if Fraction(c) != 0))
    return lib.SupportSet(2, pieces)


def _block_rng(seed, workload, block):
    return random.Random("%s:%s:%d" % (workload, seed, block))


class Op:
    """kind names the op type ("cli ..." for cli.run ops)."""

    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, label, call, check):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check


# -- classical-mfmc ------------------------------------------------------------

def classical_network(rng, nv, ne):
    """The criterion-1 generator at a given (|V|, forward-edge count):
    capacities 0-10 and a marked stalk of 141, above any possible flow."""
    verts = ["v%d" % i for i in range(nv)]
    edges, weights = {}, {}
    for k in range(ne):
        i = rng.randrange(nv - 1)
        j = rng.randrange(i + 1, nv)
        edges["f%d" % k] = (verts[i], verts[j])
    for f in edges:
        weights[f] = str(rng.randint(0, 10))
    return NetSpec("nat", verts, edges, weights, s=verts[0], t=verts[-1],
                   marked_weight="141")


def nat_network(lib, spec):
    x = spec.digraph(lib)
    stalks = {f: lib.BoxSet.principal(int(w)) for f, w in spec.weights.items()}
    stalks["e"] = lib.BoxSet.principal(int(spec.marked_weight))
    return lib.WeightedNetwork(x, "nat", stalks, "e")


def classical_block(lib, rng):
    """32 networks: every edge count 5..14 twice and 1..4 three times,
    with |V| = 2 + (3 * edges mod 7), paired the same way in every block
    so that a run's size mix does not depend on how many blocks it
    completes.  Cost rises with the edge count in steps; with an equal
    number of each, the median op fell on the step between 7 and 8 edges
    (about +25 %), and the extra small networks move it into the middle of
    the 6-7 edge networks.  A block takes about 13 s at the baseline, so a
    20 s run always holds two."""
    sizes = [(2 + 3 * ne % 7, ne) for ne in range(1, 15)] * 2 + \
        [(2 + 3 * ne % 7, ne) for ne in range(1, 5)]
    rng.shuffle(sizes)
    return [_classical_op(lib, classical_network(rng, nv, ne))
            for nv, ne in sizes]


def _classical_op(lib, spec):
    net = nat_network(lib, spec)

    def call():
        return lib.flowcut.mfmc_report(net), lib.flowcut.algebraic_mfmc(net)

    def check(result):
        rep, (vmax, vmin, equal) = result
        oracle = lib.flowcut.ford_fulkerson_oracle(net)
        box = lib.BoxSet.principal(oracle)
        problems = []
        if not (vmax == vmin == oracle and equal):
            problems.append("maxflow %s mincut %s oracle %s" %
                            (vmax, vmin, oracle))
        if not (rep.flow_values == rep.cut_intersection == rep.holim == box):
            problems.append("value sets differ from the oracle box")
        if rep.gap or not rep.exact_at_e:
            problems.append("gap or inexact on a classical network")
        d = digest([vmax, vmin, equal, rep.flow_values, rep.holim,
                    rep.cut_intersection, rep.gap, rep.exact_at_e,
                    len(rep.cuts)])
        return Verdict(not problems, d, why="; ".join(problems))

    return Op("classical", "nat |V|=%d |E|=%d" % (len(spec.vertices),
                                                  len(spec.edges)),
              call, check)


# -- multicommodity-gap --------------------------------------------------------

def _gap_gadget(rng, k, u, w, edges, weights, verts):
    """The two-commodity gadget of `gap.net`: a top path that carries one
    commodity per segment in opposite orders, and a bottom path of axis
    pieces.  Adds four internal vertices."""
    p1, p2, q1, q2 = ("g%dp1" % k, "g%dp2" % k, "g%dq1" % k, "g%dq2" % k)
    verts += [p1, p2, q1, q2]
    top = [(u, p1, "(0,1)"), (p1, p2, "(1,1)"), (p2, w, "(1,0)")]
    if rng.random() < 0.5:  # mirror the commodity order
        top = [(u, p1, "(1,0)"), (p1, p2, "(1,1)"), (p2, w, "(0,1)")]
    bottom = [(u, q1), (q1, q2), (q2, w)]
    for i, (a, b, lit) in enumerate(top):
        edges["g%dt%d" % (k, i)] = (a, b)
        weights["g%dt%d" % (k, i)] = lit
    for i, (a, b) in enumerate(bottom):
        edges["g%db%d" % (k, i)] = (a, b)
        weights["g%db%d" % (k, i)] = "(1,0)|(0,1)"


def gap_network(rng, nv, rotation=None):
    """A series chain of stages from s to t with exactly `nv` vertices: the
    gap gadget (5 new vertices) when it fits, a parallel block of three
    paths (one edge, two two-edge paths; 3 new vertices) when it fits, then
    two-edge paths and at most one single edge.  The stage order is that
    list rotated by `rotation`, or shuffled when it is None; the cost of
    cut enumeration depends on where the gadget sits.  The seed sets the
    gadget's commodity order and which one stage carries a
    single-commodity edge; every other edge outside the gadget has full
    support.  A gap shows exactly when the restricted stage is the
    parallel block (about a third of the networks at |V| 11-15)."""
    left = nv - 1
    stages = []
    for kind, size in (("gadget", 5), ("parallel", 3)):
        if left >= size:
            stages.append(kind)
            left -= size
    stages += ["path"] * (left // 2) + ["edge"] * (left % 2)
    if rotation is None:
        rng.shuffle(stages)
    else:
        r = rotation % len(stages)
        stages = stages[r:] + stages[:r]
    plain = [k for k, kind in enumerate(stages) if kind != "gadget"]
    restricted = rng.choice(plain) if plain else None
    verts = ["s"]
    edges, weights = {}, {}
    u = "s"
    for k, kind in enumerate(stages):
        w = "w%d" % k
        verts.append(w)
        if kind == "gadget":
            _gap_gadget(rng, k, u, w, edges, weights, verts)
            u = w
            continue
        if kind == "edge":
            paths = [["x%d" % k]]
        elif kind == "path":
            paths = [["x%da" % k, "x%db" % k]]
        else:
            paths = [["y%d" % k], ["y%dp1a" % k, "y%dp1b" % k],
                     ["y%dp2a" % k, "y%dp2b" % k]]
        for path in paths:
            if len(path) == 1:
                edges[path[0]] = (u, w)
            else:
                m = "m%s" % path[0][1:-1]
                verts.append(m)
                edges[path[0]] = (u, m)
                edges[path[1]] = (m, w)
            for f in path:
                weights[f] = "(1,1)"
        if k == restricted:
            weights[rng.choice(paths[0])] = rng.choice(("(1,0)", "(0,1)"))
        u = w
    return NetSpec("nonneg-rational dim 2", verts, edges, weights, s="s",
                   t=u, marked_weight="(1,1)")


def qpos_network(lib, spec):
    x = spec.digraph(lib)
    stalks = {f: _qpos_support_set(lib, w) for f, w in spec.weights.items()}
    stalks["e"] = lib.SupportSet.full(2)
    return lib.WeightedNetwork(x, "qpos", stalks, "e", dim=2)


GAP_SIZES = (11, 12, 13, 14, 15)


def gap_block(lib, rng):
    """Ten networks, each |V| in GAP_SIZES twice, with the stages rotated
    by the slot number: the same sizes and stage orders in every block and
    for every seed."""
    ops = [_gap_op(lib, gap_network(rng, nv, rotation=slot))
           for slot, nv in enumerate(GAP_SIZES * 2)]
    rng.shuffle(ops)
    return ops


def _gap_op(lib, spec):
    net = qpos_network(lib, spec)

    def call():
        return lib.flowcut.gap_check(net)

    def check(result):
        gap, witness, rep = result
        flows, holim, inter = rep.flow_values, rep.holim, rep.cut_intersection
        problems = []
        if not (_supports_le(flows, holim) and _supports_le(holim, inter)):
            problems.append("flows <= holim <= cut intersection fails")
        if gap == _supports_le(inter, flows):
            problems.append("gap flag disagrees with the value sets")
        in_gap = witness is not None and inter.contains(witness) and \
            not flows.contains(witness)
        if gap != in_gap:
            problems.append("gap flag disagrees with its witness")
        if gap and rep.exact_at_e:
            problems.append("gap on a network flagged exact")
        d = digest([gap, witness, flows, holim, inter, rep.exact_at_e,
                    len(rep.cuts)])
        return Verdict(not problems, d, why="; ".join(problems))

    return Op("gap", "qpos |V|=%d |E|=%d" % (len(spec.vertices),
                                             len(spec.edges)),
              call, check)


# -- finite-lattice ------------------------------------------------------------

def random_digraph_spec(rng, nv, ne, loops):
    """Digraph on nv vertices and ne edges, `loops` of them self-loops (all
    of them when nv is 1); parallel edges allowed."""
    verts = ["v%d" % i for i in range(nv)]
    pairs = []
    for k in range(ne):
        a = rng.choice(verts)
        if nv == 1 or k < loops:
            pairs.append((a, a))
        else:
            pairs.append((a, rng.choice([v for v in verts if v != a])))
    rng.shuffle(pairs)
    return NetSpec("table", verts, {"f%d" % k: p for k, p in enumerate(pairs)},
                   {})


def loop_count(nv, ne, share):
    """The `share` quantile of the self-loop count when each end of every
    edge is drawn uniformly: Binomial(ne, 1/nv).  The cost of H1 grows
    steeply with self-loops, so the copies of a shape take evenly spaced
    quantiles rather than a random draw."""
    acc = 0.0
    for k in range(ne + 1):
        acc += math.comb(ne, k) * (1 / nv) ** k * (1 - 1 / nv) ** (ne - k)
        if acc >= share:
            return k
    return ne


def _h1_op(lib, lattice_name, spec, kind):
    x = spec.digraph(lib)
    sheaf = lib.constant_sheaf(x, lib.cli.builtin_lattice(lattice_name))

    def call():
        res = lib.homology.h1(x, sheaf)
        return res, lib.flowcut.h1_equals_flows_check(x, sheaf)

    def check(result):
        res, equal = result
        sigs = sorted(f.signature() for f in res.flows)
        d = digest([res.computed_via, sigs, equal])
        known = not equal and spec.h1_defect_shape()
        return Verdict(bool(equal), d, known=known,
                       why="" if equal else "h1_equals_flows_check False")

    label = "%s |V|=%d |E|=%d" % (lattice_name, len(spec.vertices),
                                  len(spec.edges))
    return Op(kind, label, call, check)


def bifurcation_spec():
    """The indecomposability fixture: two bifurcations chained into a cycle
    through v, over the four-atom star."""
    edges = {"a1": ("v", "n1"), "a2": ("v", "n3"), "b1": ("n1", "n2"),
             "b2": ("n3", "n2"), "c1": ("n2", "n4"), "c2": ("n2", "n5"),
             "d1": ("n4", "v"), "d2": ("n5", "v")}
    return NetSpec("table", ["v", "n1", "n2", "n3", "n4", "n5"], edges, {})


def _chain_sheaf(lib, name, els):
    leq = [(els[i], els[i + 1]) for i in range(len(els) - 1)]
    return lib.join_semilattice_from_leq(name, tuple(els), leq, els[0])


def sd_fixtures(lib):
    """The criterion-5 finite fixtures, as (label, digraph, sheaf) makers."""
    def single_edge():
        return NetSpec("table", ["v1", "v2"], {"e": ("v1", "v2")}, {})

    def two_path():
        return NetSpec("table", ["u", "v", "w"],
                       {"e1": ("u", "v"), "e2": ("v", "w")}, {})

    def etale():
        x = single_edge().digraph(lib)
        f_v1 = _chain_sheaf(lib, "F(v1)", ["l11", "l12"])
        f_e = _chain_sheaf(lib, "F(e)", ["l1", "l2"])
        f_v2 = _chain_sheaf(lib, "F(v2)", ["z", "l21", "l22"])
        r1 = lib.Hom(f_v1, f_e, elem_map={"l11": "l1", "l12": "l2"})
        r2 = lib.Hom(f_v2, f_e, elem_map={"z": "l1", "l21": "l2",
                                           "l22": "l2"})
        return x, lib.CellSheaf(x, {"v1": f_v1, "e": f_e, "v2": f_v2},
                                {("v1", "e"): r1, ("v2", "e"): r2})

    def constant(spec_fn, name, els):
        def make():
            x = spec_fn().digraph(lib)
            return x, lib.constant_sheaf(x, _chain_sheaf(lib, name, els))
        return make

    return [("etale", etale),
            ("chain2 edge", constant(single_edge, "c2", ["0", "1"])),
            ("chain2 two-path", constant(two_path, "c2", ["0", "1"])),
            ("chain3 edge", constant(single_edge, "c3", ["0", "m", "1"]))]


def _sd_op(lib, label, make):
    x, sheaf = make()

    def call():
        return (lib.cohomology.check_sd_invariance_cohomology(x, sheaf),
                lib.homology.check_sd_invariance_homology(x, sheaf))

    def check(result):
        ok = all(result)
        return Verdict(ok, digest(list(result)),
                       why="" if ok else "subdivision invariance fails")

    return Op("sd", "sd " + label, call, check)


def lattice_network(rng, lattice_name):
    """Series-parallel networks weighted in a finite chain: |V| 3-5."""
    els = {"chain2": ("0", "1"), "chain3": ("0", "m", "1")}[lattice_name]
    nv = rng.randint(3, 5)
    verts = ["v%d" % i for i in range(nv)]
    edges, weights = {}, {}
    for k in range(rng.randint(nv - 1, nv + 1)):
        i = k if k < nv - 1 else rng.randrange(nv - 1)
        j = i + 1 if k < nv - 1 else rng.randrange(i + 1, nv)
        edges["f%d" % k] = (verts[i], verts[j])
        weights["f%d" % k] = rng.choice(els[1:])
    return NetSpec("table %s" % lattice_name, verts, edges, weights,
                   s=verts[0], t=verts[-1])


def _lattice_net_op(lib, spec, lattice_name):
    text = spec.text()
    nf, x, _marked = lib.cli.parse(text)
    net = lib.cli.build_network(nf, x)

    def call():
        return lib.flowcut.mfmc_report(net), lib.flowcut.algebraic_mfmc(net)

    def check(result):
        rep, (vmax, vmin, equal) = result
        problems = []
        if not rep.flow_values.members <= rep.cut_intersection.members:
            problems.append("flows escape the cut intersection")
        if vmax not in rep.flow_values.members:
            problems.append("maxflow is not a flow value")
        d = digest([rep.flow_values, rep.holim, rep.cut_intersection,
                    rep.gap, rep.exact_at_e, vmax, vmin, equal])
        return Verdict(not problems, d, why="; ".join(problems))

    return Op("lattice-net", "%s |V|=%d |E|=%d" % (
        lattice_name, len(spec.vertices), len(spec.edges)), call, check)


# constant sheaves per (|V| <= 5, |E| <= 6) shape, by lattice.  With three
# of each, the median op lay where latencies thin out between the cheap
# ops and the 40-60 ms chain3 ops and moved by up to a third between seeds;
# three more chain2 sheaves (0.3-2.4 ms each) move it among denser ones.
H1_COPIES = {"chain2": 6, "chain3": 3, "diamond4": 3}
H1_SHAPES = [(nv, ne) for nv in range(1, 6) for ne in range(1, 7)]


def finite_lattice_block(lib, rng):
    """One block is about one run at the baseline: constant sheaves on
    every H1_SHAPES shape (H1_COPIES of each per lattice, the copies
    taking evenly spaced quantiles of the self-loop count), 6 star6
    sheaves on directed paths or cycles, 12 lattice-weighted
    networks, the four subdivision fixtures and the star6 bifurcation
    fixture (the op that reaches the star6 flatness probe).  The cheap
    ops are shuffled; the bifurcation fixture and the two costly
    subdivision fixtures sit at a quarter, half and the end of the block,
    so that host-speed probes are taken on both sides of each."""
    cheap = []
    for name, copies in H1_COPIES.items():
        for copy in range(copies):
            for nv, ne in H1_SHAPES:
                loops = loop_count(nv, ne, (2 * copy + 1) / (2 * copies))
                spec = random_digraph_spec(rng, nv, ne, loops)
                cheap.append(_h1_op(lib, name, spec, "h1"))
    for _ in range(6):
        cheap.append(_h1_op(lib, "star6", star6_digraph_spec(rng), "star6"))
    names = ["chain2", "chain3"] * 6
    rng.shuffle(names)
    for name in names:
        cheap.append(_lattice_net_op(lib, lattice_network(rng, name), name))
    fixtures = sd_fixtures(lib)
    for label, make in fixtures[:2]:
        cheap.append(_sd_op(lib, label, make))
    rng.shuffle(cheap)
    q, mid = len(cheap) // 4, len(cheap) // 2
    return cheap[:q] + [_h1_op(lib, "star6", bifurcation_spec(), "star6")] + \
        cheap[q:mid] + [_sd_op(lib, *fixtures[3])] + cheap[mid:] + \
        [_sd_op(lib, *fixtures[2])]


def star6_digraph_spec(rng):
    """A directed path or cycle on 2-4 vertices: every vertex has in- or
    out-degree 1, so the star6 stalks never reach the flatness probe."""
    verts = ["v%d" % i for i in range(rng.randint(2, 4))]
    rng.shuffle(verts)
    edges = {"f%d" % k: (verts[k], verts[k + 1])
             for k in range(len(verts) - 1)}
    if rng.random() < 0.5:
        edges["f%d" % len(edges)] = (verts[-1], verts[0])
    return NetSpec("table", sorted(verts), edges, {})


# -- sheaf-cli -----------------------------------------------------------------

def fixture_texts():
    out = []
    for name in sorted(os.listdir(NETFILES)):
        if name.endswith(".net"):
            with open(os.path.join(NETFILES, name), encoding="utf-8") as fh:
                out.append((name, fh.read()))
    return out


def digraph_text(rng, semiring, ne):
    """A nat/int digraph on 1-3 vertices with `ne` edges, self-loops and
    dangling (`?`) ends allowed.  Its cost grows steeply with the edge
    count (the nat congruence search), so the count is set by the caller."""
    verts = ["v%d" % i for i in range(rng.randint(1, 3))]
    edges = {}
    for k in range(ne):
        a = rng.choice(verts)
        b = rng.choice(verts)
        r = rng.random()
        if r < 0.15:
            a = None
        elif r < 0.3:
            b = None
        edges["f%d" % k] = (a, b)
    return NetSpec(semiring, verts, edges, {}).text()


def network_text(rng, kind, slot):
    """A network text whose size is set by the slot, not the seed."""
    if kind == "nat":
        return classical_network(rng, 3 + slot % 3, 2 + slot % 5).text()
    if kind == "qpos":
        return gap_network(rng, 4 + slot % 4, rotation=slot).text()
    return lattice_network(rng, "chain3").text()


def cli_outcome(lib, command, text, minimal_cuts):
    """(exit code, payload or error class) as `sheafflow.cli.main` would
    report it; "crash" for an exception outside the documented types."""
    try:
        report = lib.cli.run(command, text, minimal_cuts=minimal_cuts)
    except lib.ParseError as exc:
        return 1, type(exc).__name__
    except lib.SaturationBoundExceeded as exc:
        return 3, type(exc).__name__
    except lib.SheafflowError as exc:
        return 2, type(exc).__name__
    return 0, report.payload


def _cli_op(lib, command, text, label, minimal_cuts=True):
    def call():
        return cli_outcome(lib, command, text, minimal_cuts)

    def check(result):
        code, payload = result
        problems = _payload_problems(command, payload) if code == 0 else []
        return Verdict(not problems, digest([code, payload]),
                       incomplete=code == 3, why="; ".join(problems))

    return Op("cli " + command, label, call, check)


def _payload_problems(command, p):
    if command == "sd-check":
        if not (p["cohomology"] and p["homology"]):
            return ["subdivision invariance fails"]
    elif command in ("maxflow", "mfmc-check") and "oracle" in p:
        if not (p["maxflow"] == p["mincut"] == p["oracle"]):
            return ["maxflow/mincut/oracle disagree"]
    elif command == "cuts":
        if not set(map(tuple, p["minimal"])) <= set(map(tuple, p["cuts"])):
            return ["minimal cuts outside the cut list"]
    return []


def sheaf_cli_block(lib, rng):
    """Every command on every fixture file; 24 seeded digraph texts through
    the sheaf commands (each command on nat and int texts with one and two
    edges); 14 seeded nat/qpos/chain3 network texts through the network
    commands (each command twice, one of the two with --all-cuts).  Kinds
    and sizes follow the slot, so every block has the same mix."""
    ops = []
    for name, text in fixture_texts():
        for command in CLI_COMMANDS:
            ops.append(_cli_op(lib, command, text, "%s %s" % (command, name)))
    for command in SHEAF_COMMANDS:
        for semiring, ne in (("nat", 1), ("nat", 2), ("int", 1), ("int", 2)):
            ops.append(_cli_op(lib, command, digraph_text(rng, semiring, ne),
                               "%s %s digraph" % (command, semiring)))
    for i, command in enumerate(sorted(NETWORK_COMMANDS * 2)):
        kind = ("nat", "qpos", "chain3")[i % 3]
        minimal = i % 2 == 0
        ops.append(_cli_op(lib, command, network_text(rng, kind, i),
                           "%s %s%s" % (command, kind,
                                        "" if minimal else " --all-cuts"),
                           minimal_cuts=minimal))
    rng.shuffle(ops)
    return ops


# -- registry ------------------------------------------------------------------

class Workload:
    """A named endless stream of op blocks; `pregen_blocks` of them are
    built during set-up (about one run's worth at the baseline).  A run
    whose known baseline defects exceed `known_cap` of its ops is not
    correct: at the baseline they are at most 13.3 % of a finite-lattice
    block (51 of 383 over 30 seeds) and 5 of the 103 ops of a sheaf-cli
    block."""

    def __init__(self, name, block_fn, pregen_blocks, known_cap=0.0):
        self.name = name
        self.block_fn = block_fn
        self.pregen_blocks = pregen_blocks
        self.known_cap = known_cap

    def blocks(self, lib, seed):
        """Endless stream of op blocks for a seed."""
        b = 0
        while True:
            yield self.block_fn(lib, _block_rng(seed, self.name, b))
            b += 1


# why each workload exists: bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("classical-mfmc", classical_block, 3),
    Workload("multicommodity-gap", gap_block, 16),
    Workload("finite-lattice", finite_lattice_block, 1, known_cap=0.18),
    Workload("sheaf-cli", sheaf_cli_block, 16, known_cap=0.06),
)}
