"""Line-oriented batch front end.

Network file grammar (one declaration per line, `#` starts a comment):

    semiring nat | int | bool | nonneg-rational [dim k] | table NAME
    vertex ID
    edge ID SRC|? TGT|?
    weight EDGE LITERAL            # LITERAL: int, p/q, (a,b,...), name, or
                                   # unions joined by |
    stalk CELL chain E0 E1 ...     # finite chain semilattice, bottom first
    restrict VERTEX EDGE a>b,c>d   # finite map literal (0 maps to 0)
    sink-source EDGE S T           # adjoin the marked edge from T to S

Commands: h0 h1 homology orientation flows cuts cutvalue maxflow
mfmc-check gap-check sd-check pd-check exactness-check.
Exit codes: 0 ok, 1 parse error, 2 unsupported, 3 saturation or search
bound hit (incomplete).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from .digraph import Digraph, full_cellset
from .errors import (NotAcyclic, ParseError, SaturationBoundExceeded,
                     SearchBoundExceeded, SheafflowError, UndeclaredId,
                     UnsupportedRepresentation, WeightOutOfSemimodule)
from .flowcut import (algebraic_mfmc, enumerate_e_cuts, ford_fulkerson_oracle,
                      mfmc_report)
from .homology import (check_sd_invariance_homology, h0_homology,
                       orientation_stalk_invariants, poincare_duality_check)
from .cohomology import check_sd_invariance_cohomology, h0, h1
from .semiring import BOOL, INT, NAT, QPOS
from .semimodule import FreeSemimodule, Hom, join_semilattice_from_leq
from .sheaf import CellSheaf, constant_sheaf
from .weights import (BoxSet, LatticeSet, SupportSet, WeightedNetwork,
                      cut_value_set, weighted_exactness_at_edge)

COMMANDS = ("h0", "h1", "homology", "orientation", "flows", "cuts",
            "cutvalue", "maxflow", "mfmc-check", "gap-check", "sd-check",
            "pd-check", "exactness-check")


BUILTIN_LATTICES = {
    # the two semilattices from the flatness example: the diamond is free on
    # two generators (flat), the star of four atoms is not flat
    "diamond4": (("0", "a", "b", "1"),
                 [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "0"),
    "star6": (("0", "l1", "l2", "l3", "l4", "1"),
              [("0", "l1"), ("0", "l2"), ("0", "l3"), ("0", "l4"),
               ("l1", "1"), ("l2", "1"), ("l3", "1"), ("l4", "1")], "0"),
    "chain2": (("0", "1"), [("0", "1")], "0"),
    "chain3": (("0", "m", "1"), [("0", "m"), ("m", "1")], "0"),
}


def builtin_lattice(name):
    if name not in BUILTIN_LATTICES:
        raise ParseError("unknown lattice table %r" % name)
    els, leq, bottom = BUILTIN_LATTICES[name]
    return join_semilattice_from_leq(name, els, leq, bottom)


class NetworkFile:
    def __init__(self):
        self.semiring = None
        self.dim = 1
        self.table_name = None
        self.vertices = []
        self.edges = {}
        self.weights = {}
        self.stalk_decls = {}
        self.restrict_decls = {}
        self.marked = None
        self.lines = []

    def digest(self):
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()[:16]


def parse(text):
    """Parse a network file into (NetworkFile, Digraph, marked edge)."""
    nf = NetworkFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        nf.lines.append(line)
        parts = line.split()
        head = parts[0]
        try:
            _parse_line(nf, head, parts[1:], lineno)
        except (ParseError, SheafflowError):
            raise
        except Exception as exc:
            raise ParseError(str(exc), line=lineno)
    if nf.semiring is None:
        raise ParseError("missing semiring declaration")
    digraph = _build_digraph(nf)
    return nf, digraph, nf.marked


def _parse_line(nf, head, args, lineno):
    if head == "semiring":
        if not args:
            raise ParseError("semiring needs a kind", line=lineno)
        kind = args[0]
        if kind == "nat":
            nf.semiring = "nat"
        elif kind == "int":
            nf.semiring = "int"
        elif kind == "bool":
            nf.semiring = "bool"
        elif kind == "nonneg-rational":
            nf.semiring = "qpos"
            if len(args) >= 3 and args[1] == "dim":
                nf.dim = int(args[2])
        elif kind == "table":
            nf.semiring = "table"
            nf.table_name = args[1]
        else:
            raise ParseError("unknown semiring %r" % kind, line=lineno)
    elif head == "vertex":
        nf.vertices.append(args[0])
    elif head == "edge":
        eid, src, tgt = args[0], args[1], args[2]
        nf.edges[eid] = (None if src == "?" else src,
                         None if tgt == "?" else tgt)
    elif head == "weight":
        if args[0] not in nf.edges:
            raise UndeclaredId("weight for undeclared edge %r" % args[0],
                               line=lineno)
        nf.weights[args[0]] = " ".join(args[1:])
    elif head == "stalk":
        cell = args[0]
        if args[1] != "chain":
            raise ParseError("only chain stalk literals are supported",
                             line=lineno)
        nf.stalk_decls[cell] = list(args[2:])
    elif head == "restrict":
        v, e = args[0], args[1]
        nf.restrict_decls[(v, e)] = args[2]
    elif head == "sink-source":
        eid, s, t = args[0], args[1], args[2]
        for v in (s, t):
            if v not in nf.vertices:
                raise UndeclaredId("sink-source endpoint %r undeclared" % v,
                                   line=lineno)
        if eid in nf.edges:
            raise ParseError("edge id %r already declared" % eid, line=lineno)
        # the marked edge runs from the sink back to the source
        nf.edges[eid] = (t, s)
        nf.marked = eid
    else:
        raise ParseError("unknown declaration %r" % head, line=lineno)


def serialize(nf):
    """Canonical text for a parsed network file; parse(serialize(nf))
    reproduces the same declarations."""
    out = []
    if nf.semiring == "nat":
        out.append("semiring nat")
    elif nf.semiring == "int":
        out.append("semiring int")
    elif nf.semiring == "bool":
        out.append("semiring bool")
    elif nf.semiring == "qpos":
        out.append("semiring nonneg-rational dim %d" % nf.dim)
    else:
        out.append("semiring table %s" % nf.table_name)
    for v in nf.vertices:
        out.append("vertex %s" % v)
    for e, (s, t) in nf.edges.items():
        if e == nf.marked:
            continue
        out.append("edge %s %s %s" % (e, s or "?", t or "?"))
    if nf.marked is not None:
        t, s = nf.edges[nf.marked]
        out.append("sink-source %s %s %s" % (nf.marked, s, t))
    for e, lit in nf.weights.items():
        out.append("weight %s %s" % (e, lit))
    for cell, els in nf.stalk_decls.items():
        out.append("stalk %s chain %s" % (cell, " ".join(els)))
    for (v, e), lit in nf.restrict_decls.items():
        out.append("restrict %s %s %s" % (v, e, lit))
    return "\n".join(out) + "\n"


def _build_digraph(nf):
    for e, (s, t) in nf.edges.items():
        for v in (s, t):
            if v is not None and v not in nf.vertices:
                raise UndeclaredId("endpoint %r of edge %r undeclared" % (v, e))
    return Digraph(nf.vertices, nf.edges.keys(),
                   {e: st[0] for e, st in nf.edges.items()},
                   {e: st[1] for e, st in nf.edges.items()})


def _parse_scalar(tok, want_fraction=False):
    if "/" in tok:
        return Fraction(tok)
    return Fraction(tok) if want_fraction else int(tok)


def _parse_vector(tok, dim, want_fraction):
    tok = tok.strip()
    if tok.startswith("(") and tok.endswith(")"):
        comps = [c.strip() for c in tok[1:-1].split(",")]
        if len(comps) != dim:
            raise WeightOutOfSemimodule("expected %d components in %r"
                                        % (dim, tok))
        return tuple(_parse_scalar(c, want_fraction) for c in comps)
    if dim != 1:
        raise WeightOutOfSemimodule("expected a tuple literal in dim %d" % dim)
    return (_parse_scalar(tok, want_fraction),)


def build_network(nf, digraph):
    """Weighted-network view of the file (nat / qpos / lattice weights)."""
    if nf.marked is None:
        raise ParseError("network commands need a sink-source declaration")
    if nf.semiring == "nat":
        caps = {}
        declared = []
        for e in digraph.edges:
            if e in nf.weights:
                vec = _parse_vector(nf.weights[e], 1, False)
                if vec[0] < 0:
                    raise WeightOutOfSemimodule("negative nat weight %r" %
                                                (vec,))
                caps[e] = vec
                declared.append(vec[0])
        default = (sum(declared) + 1 if declared else 1,)
        stalks = {e: BoxSet.principal(caps.get(e, default))
                  for e in digraph.edges}
        return WeightedNetwork(digraph, "nat", stalks, nf.marked, dim=1)
    if nf.semiring == "qpos":
        dim = nf.dim
        stalks = {}
        for e in digraph.edges:
            if e in nf.weights:
                pieces = [p.strip() for p in nf.weights[e].split("|")]
                vs = [_parse_vector(p, dim, True) for p in pieces]
                stalks[e] = SupportSet(
                    dim, [frozenset(i for i, c in enumerate(v) if c)
                          for v in vs])
            else:
                stalks[e] = SupportSet.full(dim)
        return WeightedNetwork(digraph, "qpos", stalks, nf.marked, dim=dim)
    if nf.semiring in ("bool", "table"):
        if nf.semiring == "bool":
            mod = join_semilattice_from_leq("bool2", ("0", "1"),
                                            [("0", "1")], "0")
        else:
            mod = builtin_lattice(nf.table_name)
        stalks = {}
        for e in digraph.edges:
            if e in nf.weights:
                names = [p.strip() for p in nf.weights[e].split("|")]
                for n in names:
                    if n not in mod.elements():
                        raise WeightOutOfSemimodule(
                            "%r is not an element of %s" % (n, mod.name))
                down = set()
                for n in names:
                    down |= LatticeSet.down(mod, n).members
                stalks[e] = LatticeSet(mod, down)
            else:
                stalks[e] = LatticeSet(mod, set(mod.elements()))
        return WeightedNetwork(digraph, "lattice", stalks, nf.marked,
                               module=mod)
    raise UnsupportedRepresentation("no network backend over %r" % nf.semiring)


def build_sheaf(nf, digraph):
    """Explicit finite sheaf (stalk/restrict lines) or a constant sheaf."""
    if nf.stalk_decls:
        mods = {}
        for cell in digraph.cells:
            if cell not in nf.stalk_decls:
                raise ParseError("missing stalk for cell %r" % cell)
            els = nf.stalk_decls[cell]
            leq = [(els[i], els[i + 1]) for i in range(len(els) - 1)]
            mods[cell] = join_semilattice_from_leq(
                "stalk(%s)" % cell, tuple(els), leq, els[0])
        restr = {}
        for e in digraph.edges:
            for v, _ in digraph.incidences(e):
                lit = nf.restrict_decls.get((v, e))
                if lit is None:
                    raise ParseError("missing restrict %s %s" % (v, e))
                mapping = {mods[v].zero(): mods[e].zero()}
                for pair in lit.split(","):
                    a, b = pair.split(">")
                    mapping[a] = b
                for el in mods[v].elements():
                    if el not in mapping:
                        raise ParseError("restrict %s %s misses %r"
                                         % (v, e, el))
                restr[(v, e)] = Hom(mods[v], mods[e], elem_map=mapping)
        return CellSheaf(digraph, mods, restr)
    grounds = {"nat": NAT, "int": INT, "bool": BOOL, "qpos": QPOS}
    if nf.semiring not in grounds:
        raise UnsupportedRepresentation(
            "no constant sheaf over %r; declare stalk lines" % nf.semiring)
    return constant_sheaf(digraph, FreeSemimodule(grounds[nf.semiring](),
                                                  ("u",)))


class Report:
    def __init__(self, command, digest, payload, flags=None):
        self.command = command
        self.digest = digest
        self.payload = payload
        self.flags = flags or {}

    def to_json(self):
        return json.dumps({"command": self.command, "input": self.digest,
                           "result": self.payload, "flags": self.flags},
                          sort_keys=True, default=repr, indent=2)

    def to_text(self):
        lines = ["%s (input %s)" % (self.command, self.digest)]
        for k in sorted(self.payload):
            lines.append("  %s = %s" % (k, self.payload[k]))
        for k in sorted(self.flags):
            lines.append("  [%s: %s]" % (k, self.flags[k]))
        return "\n".join(lines)


def run(command, text, saturation_bound=64, minimal_cuts=True, parallel=1):
    """Parse, dispatch and report.  Raises the library's error types."""
    nf, digraph, marked = parse(text)
    payload = {}
    flags = {}
    if command in ("maxflow", "mfmc-check", "gap-check", "flows", "cuts",
                   "cutvalue", "exactness-check"):
        net = build_network(nf, digraph)
        if command == "maxflow":
            vmax, vmin, equal = algebraic_mfmc(net)
            payload = {"maxflow": vmax, "mincut": vmin, "equal": equal}
            if net.kind == "nat":
                payload["oracle"] = ford_fulkerson_oracle(net)
        elif command == "flows":
            rep = mfmc_report(net, minimal_only=minimal_cuts)
            payload = {"flow_values": rep.flow_values}
        elif command == "cuts":
            cuts = enumerate_e_cuts(digraph, marked)
            payload = {"count": len(cuts),
                       "cuts": [sorted(c.edges) for c in cuts],
                       "minimal": [sorted(c.edges) for c in cuts if c.minimal]}
        elif command == "cutvalue":
            cuts = enumerate_e_cuts(digraph, marked)
            if parallel > 1:
                from concurrent.futures import ThreadPoolExecutor
                with ThreadPoolExecutor(max_workers=parallel) as pool:
                    values = list(pool.map(
                        lambda c: cut_value_set(net, c), cuts))
            else:
                values = [cut_value_set(net, c) for c in cuts]
            payload = {repr(sorted(c.edges)): v
                       for c, v in zip(cuts, values)}
        elif command == "exactness-check":
            payload = {"exact_at_e": weighted_exactness_at_edge(net)}
        else:
            rep = mfmc_report(net, minimal_only=minimal_cuts)
            payload = {"flow_values": rep.flow_values, "holim": rep.holim,
                       "cut_intersection": rep.cut_intersection,
                       "flow_equals_holim": rep.flow_equals_holim,
                       "gap": rep.gap, "witness": rep.witness,
                       "exact_at_e": rep.exact_at_e}
            if command == "mfmc-check" and net.kind == "nat":
                vmax, vmin, equal = algebraic_mfmc(net)
                payload["maxflow"] = vmax
                payload["mincut"] = vmin
                payload["oracle"] = ford_fulkerson_oracle(net)
                payload["summary"] = "maxflow = mincut = %s" % vmax if equal \
                    else "maxflow %s != mincut %s" % (vmax, vmin)
    elif command == "orientation":
        ground = {"nat": NAT, "int": INT}.get(nf.semiring, NAT)()
        payload = {}
        for v in sorted(digraph.vertices):
            ngen, nrel, _basis, rels = orientation_stalk_invariants(
                digraph, v, ground)
            payload[v] = {"generators": ngen, "relations": nrel,
                          "relation_list": rels}
    elif command in ("h0", "h1", "homology", "sd-check", "pd-check"):
        sheaf = build_sheaf(nf, digraph)
        cells = full_cellset(digraph)
        if command == "h0":
            res = h0(cells, sheaf)
            if res.is_finite():
                payload = {"sections": len(res.elements())}
            else:
                payload = {"generators": res.gens()}
        elif command == "h1":
            res = h1(cells, sheaf, bound=saturation_bound)
            if res.is_finite():
                payload = {"classes": len(res.elements())}
            else:
                payload = {"presentation": repr(res.presented)}
                flags["complete"] = res.complete
                if not res.complete:
                    raise SaturationBoundExceeded("H1 congruence saturation")
        elif command == "homology":
            res = h0_homology(cells, sheaf)
            if res.classes is not None:
                payload = {"h0_classes": len(res.elements())}
            else:
                payload = {"h0_presentation": repr(res.presented)}
        elif command == "sd-check":
            payload = {
                "cohomology": check_sd_invariance_cohomology(digraph, sheaf),
                "homology": check_sd_invariance_homology(digraph, sheaf)}
        else:
            rep = poincare_duality_check(digraph, full_cellset(digraph)
                                         .complement(), sheaf)
            payload = rep
    else:
        raise UnsupportedRepresentation("unknown command %r" % command)
    return Report(command, nf.digest(), payload, flags)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sheafflow",
        description="directed sheaf (co)homology and generalized max-flow")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="network file, or - for stdin")
    parser.add_argument("--saturation-bound", type=int, default=64)
    cuts = parser.add_mutually_exclusive_group()
    cuts.add_argument("--all-cuts", action="store_true")
    cuts.add_argument("--minimal-cuts", action="store_true", default=True)
    parser.add_argument("--parallel", type=int, default=1)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    try:
        text = sys.stdin.read() if args.file == "-" else \
            open(args.file, "r", encoding="utf-8").read()
        report = run(args.command, text,
                     saturation_bound=args.saturation_bound,
                     minimal_cuts=not args.all_cuts,
                     parallel=args.parallel)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except (SaturationBoundExceeded, SearchBoundExceeded) as exc:
        print("incomplete: %s" % exc, file=sys.stderr)
        return 3
    except (UnsupportedRepresentation, NotAcyclic, SheafflowError) as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
