import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

from ryserlab import exact as ex
from ryserlab import hypercover as hc
from ryserlab.duality import ColoredHypergraph, HypergraphError, complete_uniform


def rand_uniform(n, k, r, rng):
    h = complete_uniform(n, k, lambda e: rng.randint(1, r))
    return ColoredHypergraph(n, k, r, None, h.edges())


def test_cl_components_examples():
    mono = rand_uniform(4, 3, 1, random.Random(0))
    comps = hc.cl_components(mono, 1, 2)
    assert len(comps) == 1 and len(comps[0].shadow) == 4
    two = ColoredHypergraph(5, 3, 1, None, [(1, (0, 1, 2)), (1, (2, 3, 4))])
    assert len(hc.cl_components(two, 1, 2)) == 2
    assert len(hc.cl_components(two, 1, 1)) == 1
    with pytest.raises(HypergraphError):
        hc.cl_components(two, 3, 1)


def test_shadow_disjointness_when_c_geq_ell():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(4, 7)
        h = rand_uniform(n, 3, 3, rng)
        for (c, ell) in ((1, 1), (2, 1), (2, 2)):
            comps = hc.cl_components(h, c, ell)
            per_color = {}
            for comp in comps:
                per_color.setdefault(comp.color, []).append(comp.shadow)
            for shadows in per_color.values():
                for a, b in itertools.combinations(shadows, 2):
                    assert not (a & b)


def test_ell_connectivity_is_walkwise_sound():
    # any two c-sets in one shadow really are ell-connected by brute walks
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(4, 6)
        h = rand_uniform(n, 3, 2, rng)
        for (c, ell) in ((1, 2), (2, 2)):
            for comp in hc.cl_components(h, c, ell):
                core = list(comp.edge_core)
                # core edges pairwise reachable with >= ell overlaps
                adj = {i: set() for i in range(len(core))}
                for i in range(len(core)):
                    for j in range(i + 1, len(core)):
                        if len(set(core[i]) & set(core[j])) >= ell:
                            adj[i].add(j)
                            adj[j].add(i)
                seen = {0}
                stack = [0]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert len(seen) == len(core)


def test_kiraly_examples():
    for r in (1, 2, 3):
        rng = random.Random(r)
        h = rand_uniform(6, 3, r, rng)
        assert len(hc.kiraly_cover(h)) <= 1
    kc = hc.hyper_lower_coloring("KC", r=4, c=1, ell=1, k=3, n=12)
    assert len(hc.kiraly_cover(kc)) == 2
    size, _ = ex.tc_cl_exact(kc, 1, 1)
    assert size == 2 == hc.kc_lower_bound(4, 1, 3)
    with pytest.raises(HypergraphError):
        hc.kiraly_cover(rand_uniform(4, 2, 2, random.Random(0)))


def test_kiraly_random_five_colors():
    rng = random.Random(3)
    for _ in range(60):
        h = rand_uniform(8, 3, 5, rng)
        cov = hc.kiraly_cover(h)
        assert len(cov) <= 2
        covered = set()
        for comp in cov:
            covered |= {v for (v,) in comp.shadow}
        assert covered == set(range(8))


def test_coverage_gate_survives_python_O():
    # under -O an assert would vanish; the coverage gate must still raise
    src = os.path.dirname(os.path.dirname(hc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.hypercover as hc
        from ryserlab.duality import complete_uniform
        hc.kiraly_cover = lambda aux: []
        try:
            hc.cover_product(complete_uniform(7, 6, lambda e: 1 + sum(e) % 2), 2, 1)
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("cover_product returned a cover that misses c-sets")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "product cover must span all c-sets" in res.stdout


def test_exact_cover_gate_survives_python_O():
    # a kernel that drops a piece of its cover must make tc_cl_exact raise,
    # under -O too
    src = os.path.dirname(os.path.dirname(hc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.exact as ex
        from ryserlab.duality import complete_uniform
        solve = ex.min_cover
        ex.min_cover = lambda *args: (lambda size, pieces: (size, pieces[1:]))(*solve(*args))
        try:
            ex.tc_cl_exact(complete_uniform(6, 3, lambda e: 1 + sum(e) % 3), 1, 1)
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("tc_cl_exact returned a cover that misses c-sets")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "exact cover must span all c-sets\n"


def test_cover_product_examples():
    rng = random.Random(4)
    h = rand_uniform(7, 3, 6, rng)
    assert len(hc.cover_product(h, 1, 1)) <= 2
    h = rand_uniform(7, 6, 2, rng)
    assert len(hc.cover_product(h, 2, 1)) == 1
    h = rand_uniform(8, 6, 3, rng)
    cov = hc.cover_product(h, 2, 2)
    assert len(cov) <= 1
    size, _ = ex.tc_cl_exact(h, 2, 2)
    assert size <= len(cov)


def test_cover_midrange_examples():
    rng = random.Random(5)
    for _ in range(40):
        h = rand_uniform(6, 3, 2, rng)
        assert len(hc.cover_midrange(h, 2, 1)) <= 2
    # two colors: the exact kernel's search runs on the given budget
    with pytest.raises(ex.Inconclusive):
        hc.cover_midrange(h, 2, 1, ex.SolveBudget(max_seconds=0))
    mono = rand_uniform(6, 3, 1, rng)
    mono2 = ColoredHypergraph(6, 3, 2, None, mono.edges())
    assert len(hc.cover_midrange(mono2, 2, 1)) == 1
    h = rand_uniform(7, 5, 3, rng)
    cov = hc.cover_midrange(h, 3, 3)
    assert len(cov) <= 9
    size, _ = ex.tc_cl_exact(h, 3, 3)
    assert size <= 6


def test_tight_spanning_examples():
    mono = rand_uniform(4, 3, 1, random.Random(6))
    comp = hc.tight_spanning(mono)
    assert len(comp.shadow) == 4
    rng = random.Random(7)
    for _ in range(50):
        h = rand_uniform(6, 3, 3, rng)
        comp = hc.tight_spanning(h)
        assert len(comp.shadow) == 6


@pytest.mark.parametrize("h, message", [
    (ColoredHypergraph(6, 3, 1, [(0, 1), (2, 3), (4, 5)], []),
     "tight_spanning expects a complete K_n^k with n >= k"),
    (ColoredHypergraph(3, 3, 1, None, [(None, (0, 1, 2))]),
     "tight_spanning needs an edge-colored hypergraph"),
    (complete_uniform(5, 3, lambda e: sum(e) % 4 + 1),
     "tight_spanning needs colors 1..3: edge (0, 1, 2) has color 4"),
], ids=["no-edges", "uncolored", "four-colors"])
def test_tight_spanning_rejects_what_the_theorem_excludes(h, message):
    with pytest.raises(HypergraphError) as err:
        hc.tight_spanning(h)
    assert str(err.value) == message


def test_exhaustive_matches_component_scan():
    # the lean exhaustive checker agrees with tight_spanning on samples
    rng = random.Random(8)
    edges5 = list(itertools.combinations(range(5), 3))
    for _ in range(30):
        coloring = [rng.randint(1, 3) for _ in edges5]
        h = ColoredHypergraph(5, 3, 3, None, list(zip(coloring, edges5)))
        comp = hc.tight_spanning(h)
        assert len(comp.shadow) == 5


def test_nc_lower_bound_instance():
    nc = hc.hyper_lower_coloring("NC", r=2, c=3, ell=3, k=4, n=7)
    size, _ = ex.tc_cl_exact(nc, 3, 3)
    assert size >= hc.nc_lower_bound(7, 3) == 3
    with pytest.raises(HypergraphError):
        hc.hyper_lower_coloring("NC", r=2, c=2, ell=1, k=3, n=6)


def test_mc_cl_examples():
    mono = rand_uniform(5, 3, 1, random.Random(9))
    size, color, shadow = hc.mc_cl(mono, 2, 1)
    assert size == 10 and color == 1
    rng = random.Random(10)
    for _ in range(20):
        h = rand_uniform(6, 3, 3, rng)
        size, _, _ = hc.mc_cl(h, 1, 2)
        assert size == 6


def test_monotonicity_observations():
    # restriction comparisons on matched colorings (obs:basic(i) and obs:c<l)
    rng = random.Random(11)
    for _ in range(10):
        n = 6
        color4 = {e: rng.randint(1, 2)
                  for e in itertools.combinations(range(n), 4)}
        h4 = ColoredHypergraph(n, 4, 2, None,
                               [(c, e) for e, c in sorted(color4.items())])
        # induced coloring of the 3-sets: color of the first superedge
        color3 = {}
        for e in itertools.combinations(range(n), 3):
            sup = next(s for s in sorted(color4) if set(e) <= set(s))
            color3[e] = color4[sup]
        h3 = ColoredHypergraph(n, 3, 2, None,
                               [(c, e) for e, c in sorted(color3.items())])
        t4, _ = ex.tc_cl_exact(h4, 1, 1)
        t3, _ = ex.tc_cl_exact(h3, 1, 1)
        assert t4 <= t3
        # obs:c<l via the link of vertex n-1: a (1,1)-cover of the link gives a
        # (1,2)-cover of h4 restricted appropriately
        link_edges = [(color4[tuple(sorted(e + (n - 1,)))], e)
                      for e in itertools.combinations(range(n - 1), 3)]
        hlink = ColoredHypergraph(n - 1, 3, 2, None, link_edges)
        tl, _ = ex.tc_cl_exact(hlink, 1, 1)
        t12, _ = ex.tc_cl_exact(h4, 1, 2)
        assert t12 <= tl


def _check_pieces(h, c, ell, pieces):
    """Independent check of a cover's pieces: each core is a set of h's edges
    in the piece's color, ell-overlap connected (own BFS), and the c-subsets
    of the cores cover every c-set of the vertices."""
    color_of = {vs: col for col, vs in h.edges()}
    covered = set()
    for piece in pieces:
        core = piece.edge_core
        assert core and all(color_of[e] == piece.color for e in core)
        reached, frontier = {core[0]}, [core[0]]
        while frontier:
            e = frontier.pop()
            for f in core:
                if f not in reached and len(set(e) & set(f)) >= ell:
                    reached.add(f)
                    frontier.append(f)
        assert reached == set(core), "core is not ell-overlap connected"
        shadow = {s for e in core for s in itertools.combinations(e, c)}
        assert shadow == piece.shadow
        covered |= shadow
    assert covered == set(itertools.combinations(range(h.n), c))


def test_covers_hold_under_an_independent_checker():
    rng = random.Random(12)
    for _ in range(30):
        k = rng.choice((3, 4))
        h = rand_uniform(rng.randint(k, 7), k, rng.randint(1, 6), rng)
        pieces = hc.kiraly_cover(h)
        _check_pieces(h, 1, 1, pieces)
        assert len(pieces) <= -(-h.r // k)
    for k, c, ell in ((4, 1, 1), (4, 2, 1), (4, 2, 2), (6, 1, 1), (6, 2, 1),
                      (6, 2, 2), (6, 3, 2)):
        for _ in range(3):
            h = rand_uniform(rng.randint(k, 7), k, rng.randint(1, 5), rng)
            _check_pieces(h, c, ell, hc.cover_product(h, c, ell))
    # each (k, c, ell, r) inside k/2 < c <= k - (1 - 1/r) ell
    for k, c, ell, r in ((3, 2, 1, 2), (3, 2, 2, 2), (4, 3, 1, 2), (4, 3, 2, 2),
                         (5, 3, 2, 2), (5, 4, 2, 2), (3, 2, 1, 3), (4, 3, 1, 3),
                         (5, 3, 2, 4), (5, 4, 1, 4)):
        for _ in range(3):
            h = rand_uniform(rng.randint(k, 7), k, r, rng)
            h = ColoredHypergraph(h.n, k, r, None, h.edges())
            pieces = hc.cover_midrange(h, c, ell)
            _check_pieces(h, c, ell, pieces)
            if r == 2:
                assert len(pieces) <= 2
                assert len(pieces) == ex.tc_cl_exact(h, c, ell)[0]


def test_covers_need_a_complete_hypergraph():
    # K_6^4 with three of its fifteen edges, and K_5^3 with (0, 1, 2) listed
    # twice in place of (2, 3, 4): both have a k-set that is no edge
    sparse = ColoredHypergraph(6, 4, 2, None, [(1, (0, 1, 2, 3)), (2, (2, 3, 4, 5)),
                                               (1, (0, 1, 4, 5))])
    edges = [(1 + sum(e) % 2, e) for e in itertools.combinations(range(5), 3)]
    twice = ColoredHypergraph(5, 3, 2, None, edges[:-1] + [(2, (0, 1, 2))])
    for h, c, ell in ((sparse, 3, 2), (twice, 2, 1)):
        for cover, args in ((hc.kiraly_cover, ()), (hc.cover_product, (1, 1)),
                            (hc.cover_midrange, (c, ell))):
            with pytest.raises(HypergraphError, match="complete K_n"):
                cover(h, *args)


def test_hypercover_checks_survive_python_O():
    # python -O strips assert statements, so every check here must raise
    with open(hc.__file__) as f:
        tree = ast.parse(f.read())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
