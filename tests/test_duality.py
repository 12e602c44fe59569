import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryserlab import cli
from ryserlab import duality as du
from ryserlab import exact as ex
from ryserlab.core import (ColoredMultigraph, alpha, closure, components,
                           monochromatic_complete)


def rainbow_triangle():
    return ColoredMultigraph.from_edges(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


def test_graph_to_hypergraph_examples():
    h, comps = du.graph_to_hypergraph(rainbow_triangle())
    assert h.n == 3
    assert len(h.edges()) == 3
    assert all(len(vs) == 2 for _, vs in h.edges())
    mono = monochromatic_complete(3)
    h, comps = du.graph_to_hypergraph(mono)
    assert h.n == 1 and h.edges()[0][1] == (0,)
    two = ColoredMultigraph.from_edges(2, 2, [(0, 1, (1, 2))])
    h, comps = du.graph_to_hypergraph(two)
    assert h.n == 2 and len(h.edges()) == 1 and len(h.edges()[0][1]) == 2


def test_hypergraph_to_graph_examples():
    from ryserlab.constructions import truncated_plane_hypergraph

    ht = truncated_plane_hypergraph(2)
    g = du.hypergraph_to_graph(ht)
    assert g.n == 4
    assert alpha(g)[0] == 1
    rep = du.check_duality(ht, g)
    assert rep.ok and rep.nu == 1 and rep.tau == 2
    two = du.ColoredHypergraph(4, 2, 0, [(0, 2), (1, 3)],
                               [(None, (0, 1)), (None, (2, 3))])
    gg = du.hypergraph_to_graph(two)
    assert gg.n == 2 and not gg.edges()
    m = du.ColoredHypergraph(6, 2, 0, [(0, 2, 4), (1, 3, 5)],
                             [(None, (0, 1)), (None, (2, 3)), (None, (4, 5))])
    gm = du.hypergraph_to_graph(m)
    assert alpha(gm)[0] == 3


def test_check_duality_examples():
    m = du.ColoredHypergraph(6, 2, 0, [(0, 2, 4), (1, 3, 5)],
                             [(None, (0, 1)), (None, (2, 3)), (None, (4, 5))])
    rep = du.check_duality(m)
    assert rep.ok and rep.nu == 3 == rep.alpha
    single = du.ColoredHypergraph(2, 2, 0, [(0,), (1,)], [(None, (0, 1))])
    rep = du.check_duality(single)
    assert rep.ok and rep.nu == rep.tau == 1


@pytest.mark.parametrize("edge", [(0, 1), (0, 1, 2), [0, 2], 5, ("a", (0, 1))])
def test_hyperedge_must_be_a_color_vertices_pair(edge):
    # a bare vertex tuple is no longer read as an uncolored edge
    with pytest.raises(du.HypergraphError, match="edge"):
        du.ColoredHypergraph(3, 0, 1, None, [(None, (0, 1)), edge])


def test_edge_colors_lie_in_1_to_r():
    # r = 0 means uncolored edges, so no color is in range there
    for r, color in ((0, 1), (0, 0), (0, 2), (2, 3), (2, 0)):
        with pytest.raises(du.HypergraphError, match=f"^edge color {color} out of range"):
            du.ColoredHypergraph(3, 2, r, None, [(color, (0, 1))])
    assert du.ColoredHypergraph(3, 2, 0, None, [(None, (0, 1))]).edges() == ((None, (0, 1)),)
    assert du.ColoredHypergraph(3, 2, 2, None, [(2, (0, 1))]).edges() == ((2, (0, 1)),)


def test_edges_are_colored_all_or_none():
    # a partly colored edge list was once accepted and written as r = 0
    for edges in ([(1, (0, 1)), (None, (1, 2))], [(None, (0, 1)), (None, (1, 2)), (2, (0, 2))]):
        with pytest.raises(du.HypergraphError, match="color every edge or none$") as exc:
            du.ColoredHypergraph(3, 2, 2, None, edges)
        assert exc.value.where == ("edge", len(edges) - 1, 0)
    uncolored = du.ColoredHypergraph(3, 2, 2, None, [(None, (0, 1)), (None, (1, 2))])
    assert cli.write_hypergraph(uncolored) == "hg 3 2 0\ne 0 1\ne 1 2\n"


def random_rpartite(rng):
    r = rng.randint(2, 4)
    sizes = [rng.randint(1, 3) for _ in range(r)]
    parts = []
    acc = 0
    for s in sizes:
        parts.append(tuple(range(acc, acc + s)))
        acc += s
    edges = set()
    for _ in range(rng.randint(1, 8)):
        e = []
        for p in parts:
            if rng.random() < 0.8:
                e.append(rng.choice(p))
        if len(e) >= 1:
            edges.add(tuple(sorted(e)))
    if not edges:
        edges = {(parts[0][0],)}
    return du.ColoredHypergraph(acc, 0, 0, parts, [(None, e) for e in edges])


def test_duality_roundtrip_random():
    rng = random.Random(7)
    for _ in range(120):
        h = random_rpartite(rng)
        rep = du.check_duality(h)
        assert rep.ok, (h.edges(), rep)


def test_same_components_same_hypergraph():
    g1 = ColoredMultigraph.from_edges(4, 2, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
    g2 = ColoredMultigraph.from_edges(4, 2, [(0, 2, 1), (1, 2, 1), (2, 3, 2)])
    h1, _ = du.graph_to_hypergraph(g1)
    h2, _ = du.graph_to_hypergraph(g2)
    assert h1.edges() == h2.edges() and h1.parts == h2.parts


def ref_graph_to_hypergraph(g):
    """The dual read from the closure's components, each vertex's hyperedge
    found by scanning every component's vertex tuple; None when a vertex lies
    in no nontrivial component."""
    cg = closure(g)
    comps, classes = [], []
    for c in range(1, cg.r + 1):
        parts = [p for p in components(cg, c).parts if len(p) > 1]
        classes.append(tuple(range(len(comps), len(comps) + len(parts))))
        comps += [(c, p) for p in parts]
    raw = []
    for v in range(cg.n):
        e = frozenset(i for i, (_, p) in enumerate(comps) if v in p)
        if not e:
            return None
        raw.append(e)
    maximal = sorted(tuple(sorted(e)) for e in set(raw) if not any(e < f for f in raw))
    return du.ColoredHypergraph(len(comps), 0, cg.r, classes,
                                [(None, e) for e in maximal]), comps


@st.composite
def colored_graphs(draw):
    """n <= 9, r <= 4; a pair carries any subset of the colors."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(1, 4))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        cols = draw(st.frozensets(st.integers(1, r), max_size=r))
        if cols:
            edges.append((u, v, cols))
    return ColoredMultigraph(n, r, edges)


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_graph_to_hypergraph_matches_the_closure_reference(g):
    want = ref_graph_to_hypergraph(g)
    if want is None:
        with pytest.raises(du.HypergraphError):
            du.graph_to_hypergraph(g)
        return
    (h, comps), (wh, wcomps) = du.graph_to_hypergraph(g), want
    assert comps == wcomps
    assert (h.n, h.k, h.r, h.parts, h.edges()) == (wh.n, wh.k, wh.r, wh.parts, wh.edges())


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_written_duals_parse_back(g):
    # the dual's edges are uncolored while its r is g's, so the writer says
    # r = 0; the parser then reads every e line as vertices only
    try:
        h, _ = du.graph_to_hypergraph(g)
    except du.HypergraphError:
        return
    back = cli.parse_hypergraph(cli.write_hypergraph(h))
    assert (back.n, back.k, back.r, back.parts, back.edges()) == (h.n, h.k, 0, h.parts,
                                                                    h.edges())


def test_dual_of_the_empty_graph_round_trips():
    # its dual has no vertices and no parts, so the file has no part line;
    # read back, the hypergraph still has the one partition of no vertices
    h, _ = du.graph_to_hypergraph(cli.parse_graph("cg 0 0\n"))
    text = cli.write_hypergraph(h)
    assert text == "hg 0 0 0\n"
    back = cli.parse_hypergraph(text)
    assert back.parts == h.parts == ()
    assert du.hypergraph_to_graph(back) == ColoredMultigraph(0, 0, [])
    assert du.check_duality(back).ok
    assert du.ColoredHypergraph(0).parts == ()


@pytest.mark.parametrize("n, k, r, what", [(-1, 2, 0, "vertex count n"),
                                           (3, -2, 0, "uniformity k"),
                                           (3, 2, -1, "color count r")])
def test_negative_header_values_rejected(n, k, r, what):
    with pytest.raises(du.HypergraphError, match=f"^{what} must be nonnegative"):
        du.ColoredHypergraph(n, k, r)


def ref_hypergraph_to_graph(h):
    """Color i on a pair of hyperedges that share a vertex of class i, found
    by intersecting every pair of hyperedges."""
    cls = {v: i + 1 for i, p in enumerate(h.parts) for v in p}
    sets = h.edge_vertex_sets()
    edges = []
    for i in range(len(sets)):
        si = set(sets[i])
        for j in range(i + 1, len(sets)):
            cols = sorted({cls[v] for v in si.intersection(sets[j])})
            if cols:
                edges.append((i, j, cols))
    return ColoredMultigraph.from_edges(len(sets), len(h.parts), edges)


@st.composite
def rpartite_hypergraphs(draw):
    """r <= 4 classes of 1..3 vertices and up to 10 edges, each meeting a
    class in at most one vertex; edges may repeat."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    parts, acc = [], 0
    for s in sizes:
        parts.append(tuple(range(acc, acc + s)))
        acc += s
    picks = st.tuples(*(st.one_of(st.none(), st.sampled_from(p)) for p in parts))
    edges = [tuple(v for v in e if v is not None)
             for e in draw(st.lists(picks, max_size=10))]
    return du.ColoredHypergraph(acc, 0, 0, parts, [(None, e) for e in edges if e])


@settings(max_examples=200, deadline=None)
@given(rpartite_hypergraphs())
def test_hypergraph_to_graph_matches_the_pairwise_reference(h):
    assert du.hypergraph_to_graph(h) == ref_hypergraph_to_graph(h)


def test_isolated_vertex_rejected():
    g = ColoredMultigraph.from_edges(3, 2, [(0, 2, 1)])
    with pytest.raises(du.HypergraphError):
        du.graph_to_hypergraph(g)


def test_dual_is_r_partite():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = [(u, v, rng.randint(1, 3))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.8]
        touched = {w for e in edges for w in e[:2]}
        edges += [(v, (v + 1) % n, 1) for v in range(n) if v not in touched]
        g = ColoredMultigraph.from_edges(n, 3, edges)
        h, comps = du.graph_to_hypergraph(g)
        cls = {}
        for i, p in enumerate(h.parts):
            for v in p:
                cls[v] = i
        for _, vs in h.edges():
            hit = [cls[v] for v in vs]
            assert len(hit) == len(set(hit))
