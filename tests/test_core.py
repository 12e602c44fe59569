import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryserlab.core import (ColoredMultigraph, CoverCertificate, GraphError,
                           alpha, closed_graph, closure, complete_graph,
                           components, diameter, make_certificate, mask_of,
                           monochromatic_complete, verify)


def rainbow_triangle():
    return ColoredMultigraph.from_edges(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


def k4_affine():
    return ColoredMultigraph.from_edges(
        4, 3, [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)])


def random_graph(n, r, rng, p=0.7):
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.append((u, v, rng.randint(1, r)))
    return ColoredMultigraph.from_edges(n, r, edges)


def test_invariants_enforced():
    with pytest.raises(GraphError):
        ColoredMultigraph.from_edges(2, 1, [(0, 0, 1)])
    with pytest.raises(GraphError):
        ColoredMultigraph.from_edges(2, 1, [(0, 1, 2)])
    with pytest.raises(GraphError):
        ColoredMultigraph(2, 1, [(0, 1, frozenset())])


def test_components_examples():
    g = k4_affine()
    assert components(g, 1).parts == ((0, 1), (2, 3))
    assert components(monochromatic_complete(5), 1).parts == (tuple(range(5)),)
    assert components(rainbow_triangle(), 2).parts == ((0, 2), (1,))
    with pytest.raises(GraphError):
        components(g, 4)


def test_components_partition_property():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(n, 3, rng)
        for c in range(1, 4):
            parts = components(g, c).parts
            flat = sorted(v for p in parts for v in p)
            assert flat == list(range(n))


def test_closure_examples():
    path = ColoredMultigraph.from_edges(3, 1, [(0, 1, 1), (1, 2, 1)])
    cl = closure(path)
    assert cl.has_color(0, 2, 1)
    assert closure(cl) == cl
    two = ColoredMultigraph.from_edges(3, 2, [(0, 1, 1), (1, 2, 2)])
    assert closure(two) == two


def test_closure_idempotent_random():
    rng = random.Random(1)
    for _ in range(100):
        g = random_graph(rng.randint(1, 10), 3, rng)
        cg = closure(g)
        assert closure(cg) == cg


def test_closure_preserves_tc_tp():
    from ryserlab.exact import tc_exact, tp_exact

    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = complete_graph(n, lambda u, v: rng.randint(1, 3), 3)
        cg = closure(g)
        assert tc_exact(g)[0] == tc_exact(cg)[0]
        assert tp_exact(g)[0] == tp_exact(cg)[0]


@st.composite
def block_partitions(draw):
    """n <= 9 and, per color of r <= 4, a set partition of 0..n-1 as vertex
    lists in a drawn order."""
    n = draw(st.integers(0, 9))
    r = draw(st.integers(0, 4))
    blocks = []
    for _ in range(r):
        label = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        parts = [[v for v in range(n) if label[v] == b] for b in set(label)]
        blocks.append(draw(st.permutations(parts)))
    return n, blocks


@settings(max_examples=200, deadline=None)
@given(block_partitions())
def test_closed_graph_matches_from_edges(case):
    n, blocks = case
    ref = ColoredMultigraph.from_edges(
        n, len(blocks), [(u, v, c) for c, parts in enumerate(blocks, start=1)
                         for b in parts for u, v in itertools.combinations(b, 2)])
    assert closed_graph(n, [[mask_of(b) for b in parts] for parts in blocks]) == ref


@pytest.mark.parametrize("n, blocks, message", [
    (4, [[0b0011], [0b0110, 0b1100]], "color 2 blocks overlap at vertex 2"),
    (4, [[0b0011, -2]], "color 1 block -0x2 is not a vertex mask for n=4"),
    (4, [[0b0011], [0b10000]], "color 2 block 0x10 is not a vertex mask for n=4"),
    (-1, [], "vertex count must be nonnegative"),
])
def test_closed_graph_rejects_bad_blocks(n, blocks, message):
    with pytest.raises(GraphError) as err:
        closed_graph(n, blocks)
    assert str(err.value) == message


def test_diameter_examples():
    p4 = ColoredMultigraph.from_edges(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert diameter(p4, range(4), 1) == 3
    iso = ColoredMultigraph(2, 1, [])
    assert diameter(iso, [0, 1], 1) == math.inf
    c5 = ColoredMultigraph.from_edges(5, 1, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert diameter(c5, range(5), 1) == 2
    assert diameter(c5, [3], 1) == 0
    with pytest.raises(GraphError):
        diameter(c5, [], 1)
    # induced subgraph uses only inside edges
    assert diameter(p4, [0, 3], 1) == math.inf


def test_diameter_rejects_a_color_out_of_range():
    # colour 0 once read an empty row (inf) and r + 1 an IndexError
    g = monochromatic_complete(3, r=2)
    for bad in (0, 3):
        with pytest.raises(GraphError, match=f"color {bad} out of range 1..2"):
            diameter(g, [0, 1, 2], bad)


def test_alpha_examples_and_bruteforce():
    assert alpha(monochromatic_complete(6))[0] == 1
    assert alpha(ColoredMultigraph(4, 1, []))[0] == 4
    c5 = ColoredMultigraph.from_edges(5, 1, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert alpha(c5)[0] == 2
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = random_graph(n, 2, rng, p=0.5)
        size, wit = alpha(g)
        # brute force oracle
        best = 0
        for k in range(n, 0, -1):
            if any(all(not g.colors_of(u, v) for u, v in itertools.combinations(s, 2))
                   for s in itertools.combinations(range(n), k)):
                best = k
                break
        assert size == best
        assert all(not g.colors_of(u, v) for u, v in itertools.combinations(wit, 2))


def test_verify_examples():
    k4 = monochromatic_complete(4)
    ok = verify(k4, make_certificate([(1, range(4))], max_size=1))
    assert ok.ok
    bad = verify(k4, make_certificate([(1, [0, 1, 2])]))
    assert not bad.ok and "3" in bad.reason
    p5 = ColoredMultigraph.from_edges(
        5, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    too_wide = verify(p5, make_certificate([(1, range(5))], max_diam=3))
    assert not too_wide.ok and "diameter" in too_wide.reason


def test_verify_partition_mode_and_colors():
    g = k4_affine()
    overlap = make_certificate([(1, [0, 1]), (1, [1, 2, 3])], mode="partition")
    assert not verify(g, overlap).ok
    disjoint = make_certificate([(1, [0, 1]), (1, [2, 3])], mode="partition")
    assert verify(g, disjoint).ok
    wrong_color = make_certificate([(2, [0, 1])])
    assert not verify(g, wrong_color).ok
    restricted = make_certificate([(1, [0, 1]), (1, [2, 3])], allowed_colors={2, 3})
    assert not verify(g, restricted).ok


def _ref_eccentricities(vs, nbrs):
    """Per vertex of vs, its BFS eccentricity on neighbor sets; None if vs is
    disconnected."""
    out = []
    for s in vs:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < len(vs):
            return None
        out.append(max(dist.values()))
    return out


def brute_verify(g, cert):
    """Reference judge on plain sets and g.has_color; shares no code with verify.

    The diameter is the largest eccentricity and the radius the least."""
    covered = set()
    used = set()
    for c, vs in cert.pieces:
        vs = set(vs)
        if not vs or not (1 <= c <= g.r):
            return False
        if any(not 0 <= v < g.n for v in vs):
            return False
        if cert.allowed_colors is not None and c not in cert.allowed_colors:
            return False
        if cert.mode == "partition" and used & vs:
            return False
        used |= vs
        nbrs = {u: {w for w in vs if g.has_color(u, w, c)} for u in vs}
        ecc = _ref_eccentricities(vs, nbrs)
        if ecc is None:
            return False
        if cert.declared_max_diam is not None and max(ecc) > cert.declared_max_diam:
            return False
        if cert.declared_max_radius is not None and min(ecc) > cert.declared_max_radius:
            return False
        covered |= vs
    if cert.declared_max_size is not None and len(cert.pieces) > cert.declared_max_size:
        return False
    return covered == set(range(g.n))


def _near_valid_mutants(cert, n, r):
    """Every certificate one vertex (dropped, added or swapped in one piece) or
    one piece color away from cert."""
    def rebuilt(i, c, vs):
        pieces = list(cert.pieces)
        pieces[i] = (c, vs)
        return make_certificate(pieces, mode=cert.mode,
                                max_size=cert.declared_max_size,
                                max_diam=cert.declared_max_diam,
                                allowed_colors=cert.allowed_colors,
                                max_radius=cert.declared_max_radius)

    for i, (c, vs) in enumerate(cert.pieces):
        outside = [v for v in range(n) if v not in vs]
        for u in vs:
            yield rebuilt(i, c, [w for w in vs if w != u])
            for v in outside:
                yield rebuilt(i, c, [v if w == u else w for w in vs])
        for v in outside:
            yield rebuilt(i, c, list(vs) + [v])
        for c2 in range(0, r + 2):
            if c2 != c:
                yield rebuilt(i, c2, vs)


def test_verify_judges_near_valid_certificates_like_bruteforce():
    from ryserlab.exact import tc_exact, tp_exact

    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_graph(n, 3, rng)
        for _, cert in (tc_exact(g), tc_exact(g, max_diam=1), tp_exact(g)):
            rejected = 0
            for mutant in _near_valid_mutants(cert, n, g.r):
                ok = verify(g, mutant).ok
                assert ok == brute_verify(g, mutant), mutant
                rejected += not ok
            assert rejected >= 1


def test_verify_matches_bruteforce():
    rng = random.Random(4)
    agree = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        g = random_graph(n, 3, rng)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, n)
            pieces.append((rng.randint(1, 3), rng.sample(range(n), k)))
        cert = make_certificate(
            pieces, mode=rng.choice(["cover", "partition"]),
            max_diam=rng.choice([None, 1, 2, 3, 4]), max_radius=rng.choice([None, 1, 2]))
        assert verify(g, cert).ok == brute_verify(g, cert)
        agree += 1
    assert agree == 300


def test_make_certificate_rejects_a_piece_that_is_not_a_pair():
    with pytest.raises(GraphError, match="piece 1 is not a"):
        make_certificate([(1, [0, 1]), (1, [2, 3], [(2, 3)])])
    with pytest.raises(GraphError, match="piece 0 is not a"):
        make_certificate([1])


# a 4-cycle 0-1-2-3 with 4 hung on 1: vertex 0 has eccentricity 2, but the
# distance from 4 to 3 is 3
CYCLE_WITH_PENDANT = ColoredMultigraph.from_edges(
    5, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (1, 4, 1)])


def _p5():
    return ColoredMultigraph.from_edges(5, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])


@pytest.mark.parametrize("graph, cert, reason", [
    (monochromatic_complete(4),
     CoverCertificate(((1, (0, 1)), (1, (2, 3))), declared_max_size=1),
     "2 pieces exceed declared max 1"),
    (k4_affine(), CoverCertificate(((1, ()),)), "piece 0 is empty"),
    (k4_affine(), CoverCertificate(((1, (0, 1)), (4, (2, 3)))),
     "piece 1 has color 4 out of range"),
    (k4_affine(), CoverCertificate(((2, (0, 2)), (1, (0, 1))), allowed_colors=frozenset({2})),
     "piece 1 uses disallowed color 1"),
    # the first offender in the piece's own order is named
    (k4_affine(), CoverCertificate(((1, (2, 7, -1)),)),
     "piece 0 contains vertex 7 out of range"),
    (k4_affine(), CoverCertificate(((1, (0, 1)), (3, (0, 1, 2, 3))), mode="partition"),
     "piece 1 overlaps vertex 0"),
    (_p5(), CoverCertificate(((1, (0, 1, 2, 3, 4)),), declared_max_radius=1),
     "piece 0 has radius > 1"),
    # 2e = 4 from vertex 0 does not settle the bound 2: the exact diameter is 3
    (CYCLE_WITH_PENDANT, CoverCertificate(((1, (0, 1, 2, 3, 4)),), declared_max_diam=2),
     "piece 0 has diameter 3 > 2"),
    # the radius is checked before the diameter
    (_p5(), CoverCertificate(((1, (0, 1, 2, 3, 4)),), declared_max_diam=3,
                             declared_max_radius=1),
     "piece 0 has radius > 1"),
    # radius 2 about vertex 2 holds, and 2R = 4 exceeds the bound 3
    (_p5(), CoverCertificate(((1, (0, 1, 2, 3, 4)),), declared_max_diam=3,
                             declared_max_radius=2),
     "piece 0 has diameter 4 > 3"),
    (k4_affine(), CoverCertificate(((2, (0, 1)),)), "piece 0 (color 2) is not connected"),
    (_p5(), CoverCertificate(((1, (0, 1, 2, 3)),), declared_max_diam=2),
     "piece 0 has diameter 3 > 2"),
    (_p5(), CoverCertificate(((1, (0, 1, 2, 3, 4)),), declared_max_diam=3),
     "piece 0 has diameter 4 > 3"),
    (k4_affine(), CoverCertificate(((1, (0, 1)),)), "vertex 2 uncovered"),
])
def test_verify_reason_strings(graph, cert, reason):
    got = verify(graph, cert)
    assert not got.ok and got.reason == reason
