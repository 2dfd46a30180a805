"""CLI: grammar, round-trip, commands, exit codes."""

import json
import os

import pytest

from sheafflow.cli import main, parse, run, serialize
from sheafflow.errors import (ParseError, UndeclaredId,
                              UnsupportedRepresentation)

HERE = os.path.dirname(__file__)
NETFILES = os.path.join(HERE, "netfiles")


def read(name):
    with open(os.path.join(NETFILES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_parse_minimal():
    nf, digraph, marked = parse(read("minimal.net"))
    assert len(digraph.vertices) == 2
    assert len(digraph.edges) == 2  # e added by sink-source
    assert marked == "e"
    assert digraph.src["e"] == "t" and digraph.tgt["e"] == "s"


def test_parse_gap_counts():
    nf, digraph, marked = parse(read("gap.net"))
    assert len(digraph.vertices) == 6
    assert len(digraph.edges) == 9
    assert marked == "e"


def test_parse_dangling_edge():
    nf, digraph, _ = parse("semiring nat\nvertex s\nedge e1 s ?\n")
    assert digraph.src["e1"] == "s" and digraph.tgt["e1"] is None


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("vertex s\n")  # missing semiring
    with pytest.raises(ParseError):
        parse("semiring nat\nfrobnicate x\n")
    with pytest.raises(UndeclaredId):
        parse("semiring nat\nvertex s\nedge e1 s q\n")
    with pytest.raises(UndeclaredId):
        parse("semiring nat\nvertex s\nweight e9 3\n")


def test_round_trip_all_fixture_files():
    for name in sorted(os.listdir(NETFILES)):
        text = read(name)
        nf1, _, _ = parse(text)
        text2 = serialize(nf1)
        nf2, _, _ = parse(text2)
        assert nf1.semiring == nf2.semiring
        assert nf1.dim == nf2.dim
        assert sorted(nf1.vertices) == sorted(nf2.vertices)
        assert nf1.edges == nf2.edges
        assert nf1.weights == nf2.weights
        assert nf1.stalk_decls == nf2.stalk_decls
        assert nf1.restrict_decls == nf2.restrict_decls
        assert nf1.marked == nf2.marked


def test_run_maxflow_minimal():
    rep = run("maxflow", read("minimal.net"))
    assert rep.payload["maxflow"] == 3
    assert rep.payload["mincut"] == 3
    assert rep.payload["oracle"] == 3
    assert rep.payload["equal"]


def test_run_mfmc_check_diamond():
    rep = run("mfmc-check", read("diamond.net"))
    assert rep.payload["maxflow"] == rep.payload["mincut"] == 2
    assert rep.payload["oracle"] == 2
    assert not rep.payload["gap"]
    assert "maxflow = mincut = 2" in rep.payload["summary"]


def test_run_gap_check():
    rep = run("gap-check", read("gap.net"))
    assert rep.payload["gap"]
    assert rep.payload["witness"] is not None
    assert not rep.payload["exact_at_e"]


def test_run_cuts_and_cutvalue():
    rep = run("cuts", read("diamond.net"))
    assert rep.payload["count"] >= 3
    rep2 = run("cutvalue", read("diamond.net"), parallel=2)
    assert rep2.payload


def test_run_orientation():
    rep = run("orientation", read("diamond.net"))
    assert rep.payload["s"]["generators"] >= 1


def test_run_h0_h1_on_etale():
    rep = run("h0", read("etale.net"))
    assert rep.payload["sections"] == 3
    rep2 = run("homology", read("etale.net"))
    assert rep2.payload["h0_classes"] == 2


def test_run_sd_check_etale():
    rep = run("sd-check", read("etale.net"))
    assert rep.payload["cohomology"] and rep.payload["homology"]


def test_run_exactness_lattice():
    rep = run("exactness-check", read("lattice_series.net"))
    assert rep.payload["exact_at_e"]


def test_run_maxflow_lattice_series():
    rep = run("maxflow", read("lattice_series.net"))
    assert rep.payload["maxflow"] == "m"
    assert rep.payload["equal"]


def test_report_formats():
    rep = run("maxflow", read("minimal.net"))
    data = json.loads(rep.to_json())
    assert data["command"] == "maxflow"
    assert "maxflow" in data["result"]
    assert "maxflow" in rep.to_text()


def test_main_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.net"
    ok.write_text(read("minimal.net"))
    assert main(["maxflow", str(ok)]) == 0
    bad = tmp_path / "bad.net"
    bad.write_text("semiring nat\nfrobnicate\n")
    assert main(["maxflow", str(bad)]) == 1
    cyclic = tmp_path / "cyclic.net"
    cyclic.write_text("semiring nat\nvertex s\nvertex t\nvertex m\n"
                      "edge f1 s m\nedge f2 m s\nedge f3 m t\n"
                      "sink-source e s t\n")
    assert main(["cuts", str(cyclic)]) == 2
    # growing congruence: a two-pronged source makes the H1 congruence
    # class of the edge sum unbounded, tripping the saturation flag
    outstar = tmp_path / "outstar.net"
    outstar.write_text("semiring nat\nvertex s\nvertex a\nvertex b\n"
                       "edge f1 s a\nedge f2 s b\n")
    assert main(["h1", str(outstar)]) == 3
    capsys.readouterr()


def test_main_exits_incomplete_on_search_bound(tmp_path, monkeypatch,
                                               capsys):
    import sheafflow.cli
    from sheafflow.errors import SearchBoundExceeded

    def exhausted(*args, **kwargs):
        raise SearchBoundExceeded("decomposability span budget")

    monkeypatch.setattr(sheafflow.cli, "run", exhausted)
    ok = tmp_path / "ok.net"
    ok.write_text(read("minimal.net"))
    assert main(["h1", str(ok)]) == 3
    assert "incomplete" in capsys.readouterr().err


def test_sheaf_commands_reject_table_network_without_stalks(capsys):
    path = os.path.join(NETFILES, "lattice_series.net")
    for command in ("h0", "h1", "homology", "sd-check", "pd-check"):
        with pytest.raises(UnsupportedRepresentation, match="table"):
            run(command, read("lattice_series.net"))
        assert main([command, path]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_main_json_output(tmp_path, capsys):
    ok = tmp_path / "ok.net"
    ok.write_text(read("minimal.net"))
    assert main(["gap-check", str(ok), "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["result"]["gap"] is False
