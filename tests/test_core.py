import itertools
import math
import random

import pytest

from ryserlab.core import (ColoredMultigraph, GraphError, alpha, closure,
                           complete_graph, components, diameter,
                           make_certificate, monochromatic_complete, verify)


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
        ColoredMultigraph(2, 1, {(0, 1): frozenset()})


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


def test_diameter_examples():
    p4 = ColoredMultigraph.from_edges(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert diameter(p4, range(4), 1) == 3
    iso = ColoredMultigraph(2, 1, {})
    assert diameter(iso, [0, 1], 1) == math.inf
    c5 = ColoredMultigraph.from_edges(5, 1, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert diameter(c5, range(5), 1) == 2
    assert diameter(c5, [3], 1) == 0
    with pytest.raises(GraphError):
        diameter(c5, [], 1)
    # induced subgraph uses only inside edges
    assert diameter(p4, [0, 3], 1) == math.inf


def test_alpha_examples_and_bruteforce():
    assert alpha(monochromatic_complete(6))[0] == 1
    assert alpha(ColoredMultigraph(4, 1, {}))[0] == 4
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


def brute_verify(g, cert):
    covered = set()
    used = set()
    for piece in cert.pieces:
        c, vs = piece[0], set(piece[1])
        if not vs or not (1 <= c <= g.r):
            return False
        if cert.allowed_colors is not None and c not in cert.allowed_colors:
            return False
        if cert.mode == "partition" and used & vs:
            return False
        used |= vs
        # connectivity from scratch
        start = min(vs)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in vs:
                if w not in seen and g.has_color(u, w, c):
                    seen.add(w)
                    stack.append(w)
        if seen != vs:
            return False
        if cert.declared_max_diam is not None:
            if diameter(g, vs, c) > cert.declared_max_diam:
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
                                allowed_colors=cert.allowed_colors)

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
            max_diam=rng.choice([None, 2, 4]))
        assert verify(g, cert).ok == brute_verify(g, cert)
        agree += 1
    assert agree == 300
