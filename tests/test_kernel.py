"""The bitmask connectivity kernel against plain breadth-first references.

Every reference below works on neighbor sets built from the public edge list,
so it shares no code with the kernel in ryserlab.core.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ryserlab import hypercover as hc
from ryserlab.core import (ColoredMultigraph, _connected_diameter, closure, components,
                           connected_subsets, diameter, layers, mask_of)
from ryserlab.duality import ColoredHypergraph
from ryserlab.signatures import SignatureSet, signature_of

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def multigraphs(draw):
    """n <= 10, r <= 4; a pair carries any subset of the colors, so edges may be multi-colored."""
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, 4))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        cols = draw(st.frozensets(st.integers(1, r), max_size=r))
        if cols:
            edges.append((u, v, cols))
    return ColoredMultigraph(n, r, edges)


@st.composite
def graph_and_subset(draw):
    g = draw(multigraphs())
    vs = draw(st.frozensets(st.integers(0, g.n - 1), min_size=1))
    return g, sorted(vs)


def ref_neighbors(g, c):
    nb = {v: set() for v in range(g.n)}
    for u, v, cols in g.edges():
        if c in cols:
            nb[u].add(v)
            nb[v].add(u)
    return nb


def ref_dist(nb, src, inside):
    dist = {src: 0}
    queue = [src]
    for u in queue:
        for w in sorted(nb[u]):
            if w in inside and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def ref_components(nb, inside):
    parts, seen = [], set()
    for v in sorted(inside):
        if v not in seen:
            comp = set(ref_dist(nb, v, inside))
            seen |= comp
            parts.append(tuple(sorted(comp)))
    return sorted(parts)


def ref_diameter(nb, vs):
    inside = set(vs)
    best = 0
    for v in vs:
        dist = ref_dist(nb, v, inside)
        if len(dist) < len(inside):
            return math.inf
        best = max(best, max(dist.values()))
    return best


@SETTINGS
@given(multigraphs())
def test_components_match_bfs(g):
    for c in range(1, g.r + 1):
        assert list(components(g, c).parts) == ref_components(ref_neighbors(g, c),
                                                              set(range(g.n)))


@SETTINGS
@given(multigraphs())
def test_closure_matches_bfs(g):
    want = {}
    for u, v, cols in g.edges():
        want.setdefault((u, v), set()).update(cols)
    for c in range(1, g.r + 1):
        for part in ref_components(ref_neighbors(g, c), set(range(g.n))):
            for pair in itertools.combinations(part, 2):
                want.setdefault(pair, set()).add(c)
    got = {(u, v): set(cols) for u, v, cols in closure(g).edges()}
    assert got == want


@SETTINGS
@given(graph_and_subset())
def test_induced_diameter_matches_bfs(gv):
    g, vs = gv
    for c in range(1, g.r + 1):
        assert diameter(g, vs, c) == ref_diameter(ref_neighbors(g, c), vs)


@st.composite
def connected_pieces(draw):
    """(g, c, vertex list) with the list connected in color c: n <= 12,
    r <= 3, a drawn edge density so that paths and long diameters come up,
    and the color-c component of a drawn vertex inside a drawn vertex set."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, 3))
    density = draw(st.integers(1, 8))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.integers(0, 9)) < density:
            edges.append((u, v, draw(st.frozensets(st.integers(1, r), min_size=1))))
    g = ColoredMultigraph(n, r, edges)
    c = draw(st.integers(1, r))
    inside = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    start = draw(st.sampled_from(sorted(inside)))
    return g, c, sorted(ref_dist(ref_neighbors(g, c), start, inside))


@settings(max_examples=200, deadline=None)
@given(connected_pieces())
def test_eccentricity_bounds_match_all_pairs_bfs(gcv):
    g, c, vs = gcv
    want = ref_diameter(ref_neighbors(g, c), vs)
    adj, mask = g.adjacency(c), mask_of(vs)
    assert diameter(g, vs, c) == want
    assert _connected_diameter(adj, mask) == want
    # the bounded test settles "diameter <= k" for every k, by a value on the
    # same side of k as the diameter
    for k in range(g.n + 1):
        assert (_connected_diameter(adj, mask, at_most=k) <= k) == (want <= k)


def test_eccentricity_bounds_on_a_path():
    # one BFS from the end 0 gives 5; the bounded test stops there below 5
    p6 = ColoredMultigraph(6, 1, [(i, i + 1, 1) for i in range(5)])
    adj = p6.adjacency(1)
    assert _connected_diameter(adj, 0b111111) == 5
    assert _connected_diameter(adj, 0b111111, at_most=4) == 5
    assert _connected_diameter(adj, 0b111111, at_most=5) <= 5
    assert _connected_diameter(adj, 0b011110) == 3
    assert _connected_diameter(adj, 0b1) == 0


@SETTINGS
@given(multigraphs(), st.data())
def test_ball_matches_bfs(g, data):
    center = data.draw(st.integers(0, g.n - 1))
    for c in range(1, g.r + 1):
        dist = ref_dist(ref_neighbors(g, c), center, set(range(g.n)))
        for radius in (1, 2, 3):
            want = mask_of(v for v, d in dist.items() if d <= radius)
            # the layers are disjoint, so their sum is the ball
            assert sum(layers(g.adjacency(c), center, radius=radius)) == want


@SETTINGS
@given(graph_and_subset(), st.data())
def test_signature_matches_bfs(gv, data):
    g, X = gv
    S = data.draw(st.frozensets(st.integers(1, g.r), min_size=1))
    want = []
    for c in sorted(S):
        parts = ref_components(ref_neighbors(g, c), set(X))
        want.append(tuple(sorted((len(p) for p in parts), reverse=True)))
    assert signature_of(g, X, S) == SignatureSet.of(len(X), want)


def ref_connected_sets(nb, v, inside):
    """Every connected vertex set inside `inside` that contains v, as sets."""
    rest = sorted(inside - {v})
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            s = {v, *extra}
            if len(ref_dist(nb, v, s)) == len(s):
                out.append(s)
    return out


@SETTINGS
@given(graph_and_subset(), st.data())
def test_connected_subsets_match_brute_force(gv, data):
    g, vs = gv
    v = data.draw(st.sampled_from(vs))
    inside = set(vs)
    nbs = [ref_neighbors(g, c) for c in range(1, g.r + 1)]
    # with twins (the same neighbors in every color, apart from each other),
    # sets grown from the lowest vertex keep a prefix of each twin class
    twin = [[all(nb[u] - {w} == nb[w] - {u} for nb in nbs) for w in range(g.n)]
            for u in range(g.n)]
    lower_twins = [mask_of(u for u in range(w) if twin[u][w]) for w in range(g.n)]
    for c, nb in enumerate(nbs, 1):
        want = {mask_of(s) for s in ref_connected_sets(nb, v, inside)}
        got = list(connected_subsets(g.adjacency(c), v, mask_of(vs)))
        assert len(got) == len(set(got))
        assert set(got) == want
        want = {mask_of(s) for s in ref_connected_sets(nb, vs[0], inside)
                if all(u in s for w in s for u in inside if u < w and twin[u][w])}
        got = list(connected_subsets(g.adjacency(c), vs[0], mask_of(vs), lower_twins))
        assert len(got) == len(set(got))
        assert set(got) == want


@SETTINGS
@given(graph_and_subset(), st.data())
def test_connected_subsets_prune_hook(gv, data):
    g, vs = gv
    v, w = data.draw(st.sampled_from(vs)), data.draw(st.sampled_from(vs))
    for c in range(1, g.r + 1):
        adj = g.adjacency(c)
        every = [mask_of(s) for s in ref_connected_sets(ref_neighbors(g, c), v, set(vs))]
        calls = []
        got = list(connected_subsets(adj, v, mask_of(vs),
                                     prune=lambda s, excluded: calls.append((s, excluded))))
        assert [s for s, _ in calls] == got and set(got) == set(every)
        # the sets grown from s come right after it, as the supersets of s
        # that follow; they are exactly the connected sets holding s and
        # avoiding excluded
        for i, (s, excluded) in enumerate(calls):
            j = i + 1
            while j < len(got) and got[j] & s == s:
                j += 1
            assert set(got[i:j]) == {t for t in every if t & s == s and not t & excluded}
        # a true result drops the set and every set grown from it
        bit = 1 << w
        got = list(connected_subsets(adj, v, mask_of(vs), prune=lambda s, excluded: s & bit))
        assert set(got) == {t for t in every if not t & bit}


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(4, 7))
    r = draw(st.integers(1, 3))
    edges = []
    for e in itertools.combinations(range(n), 3):
        c = draw(st.integers(0, r))
        if c:
            edges.append((c, e))
    return ColoredHypergraph(n, 3, r, None, edges)


@SETTINGS
@given(hypergraphs(), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
def test_cl_components_match_pairwise_overlap(h, cl):
    c, ell = cl
    want = []
    for color in sorted({col for col, _ in h.edges()}):
        es = [vs for col, vs in h.edges() if col == color]
        nb = {i: {j for j in range(len(es))
                  if j != i and len(set(es[i]) & set(es[j])) >= ell}
              for i in range(len(es))}
        groups = ref_components(nb, set(range(len(es))))
        cores = sorted((tuple(sorted(es[i] for i in grp)) for grp in groups),
                       key=lambda core: core[0])
        for core in cores:
            shadow = {s for e in core for s in itertools.combinations(e, c)}
            want.append((color, core, frozenset(shadow)))
    got = [(comp.color, comp.edge_core, comp.shadow) for comp in hc.cl_components(h, c, ell)]
    assert got == want
