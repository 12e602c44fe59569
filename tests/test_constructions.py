import hashlib
import itertools
import os
import subprocess
import sys
import textwrap

import pytest

from ryserlab import constructions as cn
from ryserlab import exact as ex
from ryserlab.core import ColoredMultigraph, alpha, components
from ryserlab.duality import check_duality
from ryserlab.exact import Infeasible


def test_projective_planes():
    fano = cn.galois_plane(2, "projective")
    assert fano.points == 7 and len(fano.lines) == 7
    assert all(len(l) == 3 for l in fano.lines)
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        d = cn.galois_plane(q, "projective")
        assert d.points == q * q + q + 1 == len(d.lines)
        # pair coverage and pairwise line meets are asserted inside the builder
        for l1, l2 in itertools.combinations(d.lines[:12], 2):
            assert len(set(l1) & set(l2)) == 1


def test_truncated_and_affine():
    t = cn.galois_plane(2, "truncated")
    assert t.points == 6 and len(t.lines) == 4
    a = cn.galois_plane(3, "affine")
    assert a.points == 9 and len(a.lines) == 12
    assert len(a.parallel_classes()) == 4
    with pytest.raises(cn.UnsupportedOrder):
        cn.galois_plane(6)
    with pytest.raises(cn.UnsupportedOrder):
        cn.galois_plane(10)


def test_truncated_duality_tau_nu():
    # Ryser-tight for r = q + 1: (q+1)-partite, intersecting, tau = q = (r - 1) nu
    for q in (2, 3, 4, 5, 7, 8, 9):
        h = cn.truncated_plane_hypergraph(q)
        assert (h.k, len(h.parts)) == (q + 1, q + 1)
        tau, _, nu, _ = ex.tau_nu(h)
        assert (nu, tau) == (1, q)
        assert check_duality(h).ok
    for q in (2, 3):
        h = cn.design_to_hypergraph(cn.galois_plane(q, "truncated"))
        tau, _, nu, _ = ex.tau_nu(h)
        assert (nu, tau) == (1, q)


def test_affine_coloring_structure():
    g = cn.affine_tc_coloring(3, 1)
    assert g.n == 4 and alpha(g)[0] == 1
    # components of each color are the lines of one parallel class
    plane = cn.galois_plane(2, "affine")
    classes = plane.parallel_classes()
    for ci, cls in enumerate(classes, start=1):
        parts = {p for p in components(g, ci).parts if len(p) > 1}
        lines = {tuple(sorted(plane.lines[li])) for li in cls}
        assert parts == lines


def ref_affine_tc_coloring(r, alpha_copies):
    """Each pair colored by the parallel class of the line through it, read
    from a table of line classes and a table of pair colors."""
    q = r - 1
    plane = cn.galois_plane(q, "affine")
    line_class = {li: ci for ci, cls in enumerate(plane.parallel_classes(), start=1)
                  for li in cls}
    pair_color = {pair: line_class[li] for li, line in enumerate(plane.lines)
                  for pair in itertools.combinations(line, 2)}
    nn = q * q
    edges = [(copy * nn + u, copy * nn + v, c) for copy in range(alpha_copies)
             for (u, v), c in sorted(pair_color.items())]
    return ColoredMultigraph.from_edges(alpha_copies * nn, r, edges)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha_copies", [1, 2])
def test_affine_coloring_matches_the_pair_table(r, alpha_copies):
    assert cn.affine_tc_coloring(r, alpha_copies) == ref_affine_tc_coloring(r, alpha_copies)


def test_affine_coloring_tc_values():
    assert ex.tc_exact(cn.affine_tc_coloring(3, 1))[0] == 2
    g = cn.affine_tc_coloring(3, 2)
    assert g.n == 8 and alpha(g)[0] == 2
    assert ex.tc_exact(g)[0] == 4
    g4 = cn.affine_tc_coloring(4, 1)
    assert g4.n == 9 and ex.tc_exact(g4)[0] == 3


def test_half_r_example():
    h4 = cn.half_r_example(4, 4)
    assert h4.n == 16
    for c in range(1, 5):
        try:
            size, _ = ex.tc_exact(h4, allowed_colors={c})
            assert size > 3
        except Infeasible:
            pass
    h3 = cn.half_r_example(3, 3)
    assert h3.n == 9
    for c in range(1, 4):
        try:
            size, _ = ex.tc_exact(h3, allowed_colors={c})
            assert size > 2
        except Infeasible:
            pass


def test_star_examples():
    assert ex.tc_exact(cn.multipartite_star_example(2, 3))[0] == 3
    assert ex.tc_exact(cn.multipartite_star_example(3, 2))[0] == 2
    assert ex.tc_exact(cn.multipartite_star_example(3, 3))[0] == 3


def test_alpha2_variant():
    g = cn.alpha2_multipartite_example(3)
    assert alpha(g)[0] == 2
    assert ex.tc_exact(g)[0] == 3
    g4 = cn.alpha2_multipartite_example(4)
    assert alpha(g4)[0] == 2
    assert ex.tc_exact(g4)[0] >= 3


def test_gf_arithmetic():
    for q in (2, 3, 4, 8, 9, 16, 25, 27):
        f = cn.GF(q)
        add, mul, els = f.add, f.mul, range(q)
        for a in els:
            assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
            assert sorted(add[a]) == list(els)
            assert a == 0 or sorted(mul[a]) == list(els)
            assert all(add[a][b] == add[b][a] and mul[a][b] == mul[b][a] for b in els)
        if q <= 9:
            assert all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                       for a in els for b in els for c in els)


def test_gf_modpoly_is_the_first_irreducible_monic():
    # little-endian coefficients, so [1, 1, 1] is t^2 + t + 1
    want = {4: [1, 1, 1], 8: [1, 0, 1, 1], 9: [1, 0, 1], 16: [1, 0, 0, 1, 1],
            27: [1, 0, 2, 1], 81: [1, 0, 1, 1, 1]}
    assert {q: cn.GF(q).modpoly for q in want} == want
    # a prime field reduces modulo x, so its tables are arithmetic mod p
    f7 = cn.GF(7)
    assert f7.modpoly == [0, 1]
    assert f7.mul == [[a * b % 7 for b in range(7)] for a in range(7)]


def test_plane_digest():
    # pins the numbering of points and lines, which the incidence checks leave free
    planes = [(q, kind, d.points, d.lines) for q in (4, 8, 9, 16)
              for kind in ("projective", "truncated", "affine")
              for d in [cn.galois_plane(q, kind)]]
    assert hashlib.sha256(repr(planes).encode()).hexdigest() == (
        "3446cef6464e3668934757e0d869f8d6fde2e0e0b48f9a66a95947fa57e712a7")


def test_unknown_kind_is_refused_before_any_plane_is_built(monkeypatch):
    def no_field(q):
        raise AssertionError("a field was built for an unknown kind")

    monkeypatch.setattr(cn, "GF", no_field)
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        cn.galois_plane(4, "bogus")


def test_plane_checks_survive_python_O():
    # every line (0, 1, 2): the counts hold, but pairs lie on several lines
    src = os.path.dirname(os.path.dirname(cn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.constructions as cn
        bad = cn.IncidenceDesign(7, ((0, 1, 2),) * 7, 2, "projective")
        try:
            cn._check_projective(bad)
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("a design with repeated lines passed the check")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "plane check failed: pair on two lines"
