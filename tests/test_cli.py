import io
import itertools
import json
import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryserlab import cli
from ryserlab import constructions as cn
from ryserlab import exact as ex
from ryserlab.core import ColoredMultigraph, GraphError, make_certificate
from ryserlab.duality import ColoredHypergraph, HypergraphError, check_duality

K4_AFFINE = """\
cg 4 3
e 0 1 1
e 2 3 1
e 0 2 2
e 1 3 2
e 0 3 3
e 1 2 3
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_graph_roundtrip():
    g = cli.parse_graph(K4_AFFINE)
    assert g.n == 4 and g.r == 3
    text = cli.write_graph(g)
    assert cli.parse_graph(text) == g
    # repeats merge color sets
    merged = cli.parse_graph("cg 2 2\ne 0 1 1\ne 0 1 2\n")
    assert merged.colors_of(0, 1) == frozenset({1, 2})


def test_graph_parse_errors():
    with pytest.raises(cli.FormatError):
        cli.parse_graph("cg 2 1\ne 0 0 1\n")
    with pytest.raises(cli.FormatError):
        cli.parse_graph("cg 2\ne 0 1 1\n")
    with pytest.raises(cli.FormatError):
        cli.parse_graph("e 0 1 1\n")
    with pytest.raises(cli.FormatError):
        cli.parse_graph("cg 2 1\nedge 0 1 1\n")


def test_hypergraph_roundtrip():
    text = ("hg 6 3 2\n"
            "part 0 0 1\npart 1 2 3\npart 2 4 5\n"
            "e 1 0 2 4\ne 2 1 3 5\n")
    h = cli.parse_hypergraph(text)
    assert h.n == 6 and h.k == 3 and h.r == 2
    assert cli.write_hypergraph(h) .strip() == text.strip()
    # a repeated hyperedge is legal in the type, so in files too
    twice = cli.parse_hypergraph("hg 3 2 0\ne 0 1\ne 0 1\n")
    assert twice.edges() == ((None, (0, 1)), (None, (0, 1)))
    assert cli.parse_hypergraph(cli.write_hypergraph(twice)).edges() == twice.edges()


@st.composite
def graphs(draw):
    """n <= 8, r <= 4, n = 0 and r = 0 included; a pair carries any subset of the colors."""
    n, r = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        cols = draw(st.frozensets(st.integers(1, r), max_size=r)) if r else ()
        if cols:
            edges.append((u, v, cols))
    return ColoredMultigraph(n, r, edges)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_written_graphs_parse_back(g):
    assert cli.parse_graph(cli.write_graph(g)) == g


@st.composite
def hypergraphs(draw):
    """n <= 6, r <= 3, with or without parts and colors; edges may repeat."""
    n, k, r = draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    parts = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        label = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        parts = [[v for v in range(n) if label[v] == i] for i in range(m)]
    cls = list(range(n)) if parts is None else [label[v] for v in range(n)]
    shapes = [e for size in range(1, n + 1) for e in itertools.combinations(range(n), size)
              if k in (0, size) and len({cls[v] for v in e}) == size]
    chosen = draw(st.lists(st.sampled_from(shapes), max_size=6)) if shapes else []
    colored = r > 0 and draw(st.booleans())
    edges = [(draw(st.integers(1, r)) if colored else None, draw(st.permutations(e)))
             for e in chosen]
    return ColoredHypergraph(n, k, r, parts, edges)


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_written_hypergraphs_parse_back(h):
    back = cli.parse_hypergraph(cli.write_hypergraph(h))
    assert (back.n, back.k, back.parts, back.edges()) == (h.n, h.k, h.parts, h.edges())
    # r survives unless the edges are uncolored, which the file says with r = 0
    uncolored = h.edges() and h.edges()[0][0] is None
    assert back.r == (0 if uncolored else h.r)


def test_cover_roundtrip():
    cert = make_certificate([(1, (0, 1)), (2, (2, 3))])
    text = cli.write_cover(cert)
    back = cli.parse_cover(text)
    assert back.pieces == cert.pieces


def test_tc_command(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    code, out = run_cli(["tc", "--input", str(p)], capsys)
    assert code == 0
    assert out.startswith("tc = 2")


def test_tc_colors_needs_a_value(tmp_path, capsys):
    # an empty color list would mean "no color", not "every color"
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tc", "--input", str(p), "--colors"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--colors" in captured.err
    code, out = run_cli(["tc", "--input", str(p), "--colors", "1"], capsys)
    assert code == 0 and out == "tc = 2\ncover cover 2\npiece 1 0 1\npiece 1 2 3\n"


def test_verify_command(tmp_path, capsys):
    g = tmp_path / "g.cg"
    g.write_text(K4_AFFINE)
    cov = tmp_path / "c.cover"
    cov.write_text("cover cover 2\npiece 1 0 1\npiece 1 2 3\n")
    code, out = run_cli(["verify", "--input", str(g), "--cover", str(cov)], capsys)
    assert code == 0 and out.strip() == "accept"
    bad = tmp_path / "bad.cover"
    bad.write_text("cover cover 1\npiece 1 0 1\n")
    code, out = run_cli(["verify", "--input", str(g), "--cover", str(bad)], capsys)
    assert code == 1 and out.startswith("violation")


def test_zrd_command(capsys):
    code, out = run_cli(["zrd", "--r", "3", "--d", "3"], capsys)
    assert code == 0 and out.startswith("Z(3,3) = 5")
    code, out = run_cli(["zrd", "--r", "5", "--d", "2", "--format", "csv"], capsys)
    assert code == 0 and out.splitlines()[0] == "r,d,lower,upper,exact,witness"


def test_signatures_command(capsys):
    code, out = run_cli(["signatures", "--n", "5", "--p", "3",
                         "--stage", "residual"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("= 2") and len(lines) == 3


def test_signatures_residual_64_manifest(tmp_path, capsys):
    m = tmp_path / "m.json"
    code, out = run_cli(["--manifest", str(m), "signatures", "--n", "6", "--p", "4",
                         "--stage", "residual"], capsys)
    assert code == 0 and out.startswith("# residual(6,4) = 173")
    assert json.loads(m.read_text())["count"] == 173


@pytest.mark.parametrize("stage, n, p", [("valid", "7", "5"), ("residual", "6", "4")])
def test_signatures_budget_exits_2_with_stats(tmp_path, capsys, stage, n, p):
    m = tmp_path / "m.json"
    code = cli.main(["--budget-seconds", "0", "--manifest", str(m), "signatures",
                     "--n", n, "--p", p, "--stage", stage])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert captured.out.startswith("inconclusive: signature search budget exhausted")
    assert json.loads(m.read_text())["stats"]["nodes"] > 0


@pytest.mark.parametrize("budget, n, p", [("0", "7", "5"), ("600", "12", "8")])
def test_signatures_enumerate_budget_exits_2_with_stats(tmp_path, capsys, budget, n, p):
    # (12, 8) has 43 595 145 594 signatures, far past the default node
    # allowance, so the run stops before it builds any of them
    m = tmp_path / "m.json"
    code = cli.main(["--budget-seconds", budget, "--manifest", str(m), "signatures",
                     "--n", n, "--p", p, "--stage", "enumerate"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert captured.out.startswith("inconclusive: signature enumeration budget exhausted")
    stats = json.loads(m.read_text())["stats"]
    assert stats["stage"] == "signature enumeration" and stats["nodes"] > 0


@pytest.mark.parametrize("argv, named", [
    (["--n", "4", "--p", "2", "--stage", "residual"], "(4,2)"),
    (["--n", "0", "--p", "2", "--stage", "enumerate"], "n=0"),
])
def test_signatures_bad_sizes_exit_3(argv, named, capsys):
    code = cli.main(["signatures"] + argv)
    err = capsys.readouterr().err
    assert code == 3
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("spec, named", [("0;x", "'0;x'"), ("0;0", "'0;0'")])
def test_bad_parts_exit_3(tmp_path, capsys, spec, named):
    g = tmp_path / "g.cg"
    g.write_text(K4_AFFINE)
    code = cli.main(["classify", "--input", str(g), "--parts", spec])
    err = capsys.readouterr().err
    assert code == 3
    assert named in err and "Traceback" not in err


def test_hunt_command(capsys):
    code, out = run_cli(["hunt", "--n", "4", "--r", "3", "--bound", "1"], capsys)
    assert code == 1 and out.startswith("counterexample: tc = 2")
    code, out = run_cli(["hunt", "--n", "4", "--r", "2", "--bound", "alpha"], capsys)
    assert code == 0 and out.strip() == "none"


def test_hunt_manifest_records_the_counters(tmp_path, capsys):
    # a settled hunt records how it was reached: every canonical (5, 3)
    # coloring that the star cover leaves is solved
    m = tmp_path / "m.json"
    code, out = run_cli(["--manifest", str(m), "hunt", "--n", "5", "--r", "3",
                         "--bound", "2alpha"], capsys)
    assert code == 0 and out.strip() == "none"
    walk = ex.SolveBudget()
    assert sum(1 for _ in ex._canonical_colorings(5, 3, walk, star_bound=2)) == 2
    d = json.loads(m.read_text())
    assert d["stats"] == {"enumerated": walk.counts["enumerated"],
                          "stars": walk.counts["stars"], "canonical": 2, "solved": 2}
    assert "tc" not in d and d["nodes"] > walk.counts["enumerated"]
    # a find records its tc beside the counters
    code, out = run_cli(["--manifest", str(m), "hunt", "--n", "4", "--r", "3",
                         "--bound", "1"], capsys)
    assert code == 1 and out.startswith("counterexample: tc = 2")
    d = json.loads(m.read_text())
    assert d["tc"] == 2
    assert d["stats"]["solved"] == d["stats"]["canonical"] > 0


def test_manifest_command_is_the_parsed_argv(tmp_path, capsys, monkeypatch):
    # main(argv) records argv, not the arguments of the script that called it
    monkeypatch.setattr(sys, "argv", ["script.py", "extra", "args", "here"])
    m = tmp_path / "m.json"
    argv = ["--manifest", str(m), "hunt", "--n", "4", "--r", "2", "--bound", "alpha"]
    assert run_cli(argv, capsys)[0] == 0
    assert json.loads(m.read_text())["command"] == " ".join(argv)


def test_manifest_command_can_be_rerun(tmp_path, capsys):
    # an argument that holds a space is quoted, so the command splits back
    # into the argv that ran
    g = tmp_path / "my k4.cg"
    g.write_text(K4_AFFINE)
    m = tmp_path / "m.json"
    argv = ["--manifest", str(m), "tc", "--input", str(g)]
    assert run_cli(argv, capsys)[0] == 0
    assert shlex.split(json.loads(m.read_text())["command"]) == argv


@pytest.mark.parametrize("argv, named", [
    (["--n", "4", "--r", "3", "--bound", "foo"], "'foo'"),
    (["--n", "4", "--r", "0", "--bound", "1"], "r=0"),
    (["--n", "0", "--r", "2", "--bound", "alpha"], "n=0"),
])
def test_hunt_bad_arguments_exit_3(argv, named, capsys):
    code = cli.main(["hunt"] + argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["classify", "--parts", "0,1,2,3"],
    ["cover", "--method", "bip3", "--parts", "0,1,2,3"],
    ["cover", "--method", "bip2", "--parts", "0;1;2,3"],
    ["goodpart", "--parts", "0,1,2,3"],
])
def test_two_part_commands_need_two_parts(tmp_path, capsys, argv):
    g = tmp_path / "g.cg"
    g.write_text(K4_AFFINE)
    code = cli.main(argv[:1] + ["--input", str(g)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 3
    assert "exactly two parts" in err and "Traceback" not in err


def test_goodpart_needs_complete_bipartite(tmp_path, capsys):
    g = tmp_path / "g.cg"
    g.write_text("cg 4 2\ne 0 2 1\ne 1 2 1\ne 1 3 2\n")
    code = cli.main(["goodpart", "--input", str(g), "--parts", "0,1;2,3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "complete bipartite" in err and "0,3" in err


def test_construct_and_cover_pipeline(tmp_path, capsys):
    code, out = run_cli(["construct", "star", "--k", "2", "--r", "3"], capsys)
    assert code == 0
    p = tmp_path / "star.cg"
    p.write_text(out)
    code, out = run_cli(["tc", "--input", str(p)], capsys)
    assert code == 0 and out.startswith("tc = 3")


def test_cover_methods(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    code, out = run_cli(["cover", "--input", str(p), "--method", "r3"], capsys)
    assert code == 0 and out.startswith("cover cover")
    code, out = run_cli(["cover", "--input", str(p), "--method", "restricted",
                         "--r", "3", "--restrict-colors", "2", "3"], capsys)
    assert code == 0


def test_classify_command(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    code, out = run_cli(["classify", "--input", str(p)], capsys)
    assert code == 0 and out.startswith("Type")


def test_hyper_command(tmp_path, capsys):
    lines = ["hg 5 3 3"]
    import itertools
    for i, e in enumerate(itertools.combinations(range(5), 3)):
        lines.append("e " + " ".join(map(str, (i % 3 + 1,) + e)))
    p = tmp_path / "h.hg"
    p.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["hyper", "--input", str(p), "--method", "tight"], capsys)
    assert code == 0 and "spanning tight component" in out
    code, out = run_cli(["hyper", "--input", str(p), "--c", "1", "--ell", "2",
                         "--method", "exact"], capsys)
    assert code == 0


def test_manifest_determinism(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run_cli(["--manifest", str(m1), "tc", "--input", str(p)], capsys)
    run_cli(["--manifest", str(m2), "tc", "--input", str(p)], capsys)
    d1 = json.loads(m1.read_text())
    d2 = json.loads(m2.read_text())
    assert d1["digest"] == d2["digest"]
    assert d1["version"]


def test_dualize_command(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text("cg 3 3\ne 0 1 1\ne 0 2 2\ne 1 2 3\n")
    code, out = run_cli(["dualize", "--input", str(p)], capsys)
    assert code == 0 and out.startswith("hg 3 0 0\n")


@pytest.mark.parametrize("argv, text, want", [
    # the dual of the rainbow triangle: three pairwise meeting 2-edges
    (["dualize", "--input", "{f}"], "cg 3 3\ne 0 1 1\ne 0 2 2\ne 1 2 3\n",
     "tau = 2 cover = 0 1\nnu = 1 matching-edges = 0\n"),
    (["construct", "plane", "--q", "3", "--plane-kind", "truncated"], None,
     "tau = 3 cover = 0 10 11\nnu = 1 matching-edges = 0\n"),
], ids=["dualize", "truncated-plane"])
def test_written_hypergraphs_feed_taunu(tmp_path, capsys, argv, text, want):
    f = tmp_path / "input.txt"
    if text is not None:
        f.write_text(text)
    code, out = run_cli([a.format(f=f) for a in argv], capsys)
    assert code == 0
    h = tmp_path / "h.hg"
    h.write_text(out)
    assert run_cli(["taunu", "--input", str(h)], capsys) == (0, want)


@pytest.mark.parametrize("q", [2, 3])
def test_truncated_plane_file_keeps_its_parts(capsys, q):
    code, out = run_cli(["construct", "plane", "--q", str(q), "--plane-kind", "truncated"],
                        capsys)
    assert code == 0
    h = cli.parse_hypergraph(out)
    assert (h.n, h.k, len(h.parts)) == (q * q + q, q + 1, q + 1)
    assert sorted(vs for _, vs in h.edges()) == sorted(cn.galois_plane(q, "truncated").lines)
    assert check_duality(h).ok


def test_inconclusive_exits_2_with_stats(tmp_path, capsys):
    # the path 0-2-1-3 in colors 2, 1, 2: the greedy partition takes the
    # color-1 edge first and has three parts, a seeded assignment ends the
    # bound at 2, so the partition search's first node reads the clock
    p = tmp_path / "path.cg"
    p.write_text("cg 4 2\ne 0 2 2\ne 1 2 1\ne 1 3 2\n")
    m = tmp_path / "m.json"
    code, out = run_cli(["--budget-seconds", "0", "--manifest", str(m),
                         "tp", "--input", str(p)], capsys)
    assert code == 2
    assert out.startswith("inconclusive: partition search budget exhausted")
    assert "'nodes'" in out
    stats = json.loads(m.read_text())["stats"]
    assert stats["nodes"] > 0
    assert (stats["lower"], stats["upper"]) == (2, 3)
    code, out = run_cli(["tp", "--input", str(p)], capsys)
    assert code == 0 and out.startswith("tp = 2")


def test_cover_budget_reaches_the_proof_search(tmp_path, capsys):
    # vertex 0 sends colors 1..4 to 1..4, and the other pairs put the r = 4
    # proof in its final case, which ends in a set cover search
    p = tmp_path / "k5.cg"
    p.write_text("cg 5 4\n" + "".join(f"e {u} {v} {c}\n" for u, v, c in [
        (0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4), (1, 2, 3), (1, 3, 2), (1, 4, 2),
        (2, 3, 1), (2, 4, 1), (3, 4, 1)]))
    m = tmp_path / "m.json"
    code = cli.main(["--budget-seconds", "0", "--manifest", str(m), "cover",
                     "--input", str(p), "--method", "r4"])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert captured.out.startswith("inconclusive: set cover budget exhausted")
    assert json.loads(m.read_text())["stats"]["nodes"] >= 1


def test_zrd_stopped_in_milp_records_the_stop(tmp_path, capsys):
    m = tmp_path / "m.json"
    code, out = run_cli(["--budget-seconds", "0", "--manifest", str(m),
                         "zrd", "--r", "4", "--d", "4"], capsys)
    assert code == 2 and out.startswith("Z(4,4) in [")
    stats = json.loads(m.read_text())["stats"]
    assert stats["stopped"].startswith("MILP stopped")
    assert "nodes" in stats


MALFORMED = [
    (["verify", "--input", "{g}", "--cover", "{f}"], "cover\n", "line 1, field 2"),
    (["verify", "--input", "{g}", "--cover", "{f}"],
     "cover cover 1\npiece 1 0 x\n", "line 2, field 4"),
    (["verify", "--input", "{g}", "--cover", "{f}"], "cover cover two\n", "line 1, field 3"),
    (["taunu", "--input", "{f}"], "hg x 3 1\n", "line 1, field 2"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 1 0 y\n", "line 2, field 4"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\npart\n", "line 2, field 2"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne\n", "line 2, field 2"),
    (["mc", "--input", "{f}"], "cg 3 1\ne 0 1 1\ne 0 5 1\n", "line 3, field 3"),
    (["mc", "--input", "{f}"], "cg -1 2\n", "line 1, field 2"),
    (["mc", "--input", "{f}"], "cg 3 -2\n", "line 1, field 3"),
    (["mc", "--input", "{f}"], "cg 3 1\ne 3 1 1\n", "line 2, field 2"),
    (["mc", "--input", "{f}"], "cg 3 1\ne 1 1 1\n", "line 2, field 3"),
    (["mc", "--input", "{f}"], "cg 3 1\ne 0 1 2\n", "line 2, field 4"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 1 0 5\n", "line 2, field 4"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 2 0 1\n", "line 2, field 2"),
    (["taunu", "--input", "{f}"], "hg 3 0 0\ne 0 1 3\n", "line 2, field 4"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 1 0 1 2\n", "line 2, field 5"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 1 0\n", "line 2, field 4"),
    (["taunu", "--input", "{f}"], "hg 3 2 1\ne 1 0 1\ne 1 0 0\n", "line 3, field 4"),
    (["taunu", "--input", "{f}"],
     "hg 4 2 0\npart 0 0 1\npart 1 2 3\ne 0 2\ne 0 1\n", "line 5, field 3"),
    (["taunu", "--input", "{f}"], "hg 3 2 0\npart 0 0 1\npart 1 1 2\n", "line 3, field 3"),
    (["taunu", "--input", "{f}"], "hg 3 2 0\npart 0 0 1\npart 0 2\n", "line 3, field 2"),
    (["taunu", "--input", "{f}"], "hg 3 2 0\npart 0 0 1\n", "line 1, field 2"),
    (["taunu", "--input", "{f}"], "hg -1 2 0\n", "line 1, field 2"),
    (["taunu", "--input", "{f}"], "hg 3 -2 0\ne 0 1\n", "line 1, field 3"),
    (["taunu", "--input", "{f}"], "hg 3 2 -1\n", "line 1, field 4"),
]


@pytest.mark.parametrize("argv, text, where", MALFORMED)
def test_malformed_files_exit_3(tmp_path, capsys, argv, text, where):
    g = tmp_path / "g.cg"
    g.write_text(K4_AFFINE)
    f = tmp_path / "input.txt"
    f.write_text(text)
    code = cli.main([a.format(g=g, f=f) for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert where in err and "Traceback" not in err


G, H = ColoredMultigraph, ColoredHypergraph
# Per cg/hg file of MALFORMED: its message, and the same data built directly
# when the rule is the type's (None: a token, arity or directive rule, which
# is the parser's own).
MESSAGES = {
    "hg x 3 1\n": ("expected an integer, got 'x'", None),
    "hg 3 2 1\ne 1 0 y\n": ("expected an integer, got 'y'", None),
    "hg 3 2 1\npart\n": ("expected 'part <i> <v...>'", None),
    "hg 3 2 1\ne\n": ("expected 'e <c> <v...>'", None),
    "cg 3 1\ne 0 1 1\ne 0 5 1\n": ("edge (0,5) out of range for n=3",
                                  lambda: G(3, 1, [(0, 1, 1), (0, 5, 1)])),
    "cg -1 2\n": ("vertex count must be nonnegative", lambda: G(-1, 2, [])),
    "cg 3 -2\n": ("color count must be nonnegative", lambda: G(3, -2, [])),
    "cg 3 1\ne 3 1 1\n": ("edge (1,3) out of range for n=3", lambda: G(3, 1, [(3, 1, 1)])),
    "cg 3 1\ne 1 1 1\n": ("loop at vertex 1", lambda: G(3, 1, [(1, 1, 1)])),
    "cg 3 1\ne 0 1 2\n": ("color 2 on edge (0,1) out of range for r=1",
                          lambda: G(3, 1, [(0, 1, 2)])),
    "hg 3 2 1\ne 1 0 5\n": ("vertex 5 out of range", lambda: H(3, 2, 1, None, [(1, (0, 5))])),
    "hg 3 2 1\ne 2 0 1\n": ("edge color 2 out of range",
                            lambda: H(3, 2, 1, None, [(2, (0, 1))])),
    "hg 3 0 0\ne 0 1 3\n": ("vertex 3 out of range",
                            lambda: H(3, 0, 0, None, [(None, (0, 1, 3))])),
    "hg 3 2 1\ne 1 0 1 2\n": ("edge (0, 1, 2) is not 2-uniform",
                              lambda: H(3, 2, 1, None, [(1, (0, 1, 2))])),
    "hg 3 2 1\ne 1 0\n": ("edge (0,) is not 2-uniform", lambda: H(3, 2, 1, None, [(1, (0,))])),
    "hg 3 2 1\ne 1 0 1\ne 1 0 0\n": ("edge (0, 0) repeats a vertex",
                                    lambda: H(3, 2, 1, None, [(1, (0, 1)), (1, (0, 0))])),
    "hg 4 2 0\npart 0 0 1\npart 1 2 3\ne 0 2\ne 0 1\n": (
        "edge (0, 1) meets a class twice",
        lambda: H(4, 2, 0, [(0, 1), (2, 3)], [(None, (0, 2)), (None, (0, 1))])),
    "hg 3 2 0\npart 0 0 1\npart 1 1 2\n": ("vertex 1 is in two parts",
                                          lambda: H(3, 2, 0, [(0, 1), (1, 2)])),
    "hg 3 2 0\npart 0 0 1\npart 0 2\n": ("part 0 given twice", None),
    "hg 3 2 0\npart 0 0 1\n": ("vertex 2 is in no part", lambda: H(3, 2, 0, [(0, 1)])),
    "hg -1 2 0\n": ("vertex count n must be nonnegative, got -1", lambda: H(-1, 2, 0)),
    "hg 3 -2 0\ne 0 1\n": ("uniformity k must be nonnegative, got -2",
                           lambda: H(3, -2, 0, None, [(None, (0, 1))])),
    "hg 3 2 -1\n": ("color count r must be nonnegative, got -1", lambda: H(3, 2, -1)),
}


@pytest.mark.parametrize("text, where", [(text, where) for _, text, where in MALFORMED
                                         if text.startswith(("cg", "hg"))])
def test_file_errors_are_the_types_errors(text, where):
    # each rule is checked once: a file reports the type's own error at its line
    message, build = MESSAGES[text]
    parse = cli.parse_graph if text.startswith("cg") else cli.parse_hypergraph
    with pytest.raises(cli.FormatError) as got:
        parse(text)
    assert str(got.value) == f"{where}: {message}"
    if build is not None:
        with pytest.raises((GraphError, HypergraphError)) as direct:
            build()
        assert str(direct.value) == message


def test_manifest_records_what_ran(tmp_path, capsys):
    p = tmp_path / "g.cg"
    p.write_text(K4_AFFINE)
    m = tmp_path / "m.json"
    run_cli(["--manifest", str(m), "tc", "--input", str(p)], capsys)
    d = json.loads(m.read_text())
    assert "seed" not in d and "generator" not in d
    assert d["nodes"] > 0


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "mc", "--input", "g.cg"],
    ["--format", "md", "mc", "--input", "g.cg"],
    ["tc", "--input", "g.cg", "--exact"],
    ["--threads", "4", "mc", "--input", "g.cg"],
    # --format is an option of zrd, not of the program
    ["--format", "csv", "zrd", "--r", "5", "--d", "2"],
    ["--format", "csv", "tc", "--input", "g.cg"],
])
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3


HG_2_UNIFORM = "hg 4 2 2\ne 1 0 1\ne 2 1 2\ne 1 2 3\ne 2 0 3\n"
# K_6^4 with three of its fifteen edges
HG_SPARSE_64 = "hg 6 4 2\ne 1 0 1 2 3\ne 2 2 3 4 5\ne 1 0 1 4 5\n"
PATH_25 = "cg 25 1\n" + "".join(f"e {v} {v + 1} 1\n" for v in range(24))
K3_RAINBOW = "cg 3 3\ne 0 1 1\ne 0 2 2\ne 1 2 3\n"


@pytest.mark.parametrize("argv, text", [
    (["zrd", "--r", "1", "--d", "2"], None),
    (["construct", "badmulti", "--k", "1"], None),
    (["construct", "plane", "--q", "6"], None),
    (["construct", "half-r", "--r", "2"], None),
    (["construct", "star", "--k", "1"], None),
    (["hyper", "--c", "3", "--method", "exact"], HG_2_UNIFORM),
    (["hyper", "--method", "kiraly"], HG_2_UNIFORM),
    (["hyper", "--method", "tight"], HG_2_UNIFORM),
    (["dualize"], "cg 3 1\ne 0 1 1\n"),
    (["classify"], "cg 4 2\ne 0 1 1\ne 1 2 2\n"),
    (["mc"], "cg 0 1\n"),
    (["classify"], "cg 0 1\n"),
    # the diameter-constrained cover's size limit is a domain limit, not a budget
    (["tc", "--max-diam", "2"], PATH_25),
    # pairs whose only color lies outside 1..3 are outside the r = 3 proof
    (["cover", "--method", "r3"],
     "cg 4 4\ne 0 1 1\ne 0 2 2\ne 0 3 3\ne 1 2 4\ne 1 3 4\ne 2 3 4\n"),
    # alpha = 2, but two pairs carry only color 3
    (["cover", "--method", "alpha2"], "cg 4 3\ne 0 1 3\ne 2 3 3\ne 0 2 1\n"),
    # the midrange cover needs colored hyperedges
    (["hyper", "--method", "midrange", "--c", "2", "--ell", "1"],
     "hg 4 3 0\ne 0 1 2\ne 0 1 3\ne 0 2 3\ne 1 2 3\n"),
    # the product and midrange covers need a complete K_n^k
    (["hyper", "--method", "product", "--c", "1", "--ell", "1"], HG_SPARSE_64),
    (["hyper", "--method", "midrange", "--c", "3", "--ell", "2"], HG_SPARSE_64),
    # the restricted cover needs its two colors
    (["cover", "--method", "restricted"], K3_RAINBOW),
    # --r 0 is a value, not an unset option
    (["cover", "--method", "restricted", "--r", "0", "--restrict-colors", "2", "3"],
     K3_RAINBOW),
    (["cover", "--method", "multipartite", "--r", "0", "--parts", "0;1;2"], K3_RAINBOW),
    # a negative diameter bound is a bad argument, not a solver failure
    (["tc", "--max-diam", "-1"], K3_RAINBOW),
    (["cover", "--method", "exact", "--max-diam", "-1"], K3_RAINBOW),
])
def test_out_of_domain_arguments_exit_3(tmp_path, capsys, argv, text):
    if text is not None:
        f = tmp_path / "input.txt"
        f.write_text(text)
        argv = argv[:1] + ["--input", str(f)] + argv[1:]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


K53_FOUR_COLORS = "hg 5 3 4\n" + "".join(
    f"e {sum(e) % 4 + 1} {e[0]} {e[1]} {e[2]}\n"
    for e in itertools.combinations(range(5), 3))


@pytest.mark.parametrize("argv, text, message", [
    (["cover", "--method", "alpha2"], "cg 2 0\n", "cover_alpha2 needs colors 1 and 2"),
    (["cover", "--method", "alpha2"], "cg 3 1\ne 0 1 1\ne 1 2 1\n",
     "cover_alpha2 needs colors 1 and 2"),
    (["hyper", "--method", "tight"], "hg 6 3 1\npart 0 0 1\npart 1 2 3\npart 2 4 5\n",
     "tight_spanning expects a complete K_n^k"),
    (["hyper", "--method", "tight"], K53_FOUR_COLORS, "tight_spanning needs colors 1..3"),
], ids=["alpha2-r0", "alpha2-r1", "tight-no-edges", "tight-four-colors"])
def test_inputs_outside_a_proof_exit_3_not_1(tmp_path, capsys, argv, text, message):
    f = tmp_path / "input.txt"
    f.write_text(text)
    code = cli.main(argv[:1] + ["--input", str(f)] + argv[1:])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_cover_restricted_names_its_missing_flag(tmp_path, capsys):
    g = tmp_path / "g.cg"
    g.write_text(K3_RAINBOW)
    assert cli.main(["cover", "--input", str(g), "--method", "restricted"]) == 3
    assert capsys.readouterr().err == \
        "error: --method restricted needs --restrict-colors\n"


def test_hyper_exact_infeasible_names_the_c_set(tmp_path, capsys):
    p = tmp_path / "h.hg"
    p.write_text(HG_SPARSE_64)
    code, out = run_cli(["hyper", "--input", str(p), "--method", "exact",
                         "--c", "3", "--ell", "3"], capsys)
    assert code == 1
    assert out.strip() == "infeasible: c-set (0, 2, 4) is not coverable"


def test_goodpart_inconclusive_exits_2(tmp_path, capsys):
    # the first candidate word (1, 1) is everywhere-different from the row
    # (2, 3), so the search needs more than one candidate
    g = tmp_path / "g.cg"
    g.write_text(K4_AFFINE)
    code, out = run_cli(["--budget-seconds", "0", "goodpart", "--input", str(g),
                         "--parts", "0,1;2,3"], capsys)
    assert code == 2 and out.startswith("inconclusive: good partition budget")
    code, out = run_cli(["goodpart", "--input", str(g), "--parts", "0,1;2,3"], capsys)
    assert code == 0
