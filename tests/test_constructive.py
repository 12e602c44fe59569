import hashlib
import itertools
import random

import pytest

from ryserlab import cli
from ryserlab import constructive as cv
from ryserlab import exact as ex
from ryserlab.core import (ColoredMultigraph, GraphError, alpha, closure,
                           complete_graph, monochromatic_complete, verify)
from ryserlab.signatures import signature_of


def rand_complete(n, r, rng):
    return complete_graph(n, lambda u, v: rng.randint(1, r), r)


def rand_bip(nx, ny, r, rng):
    edges = [(x, y, rng.randint(1, r))
             for x in range(nx) for y in range(nx, nx + ny)]
    g = ColoredMultigraph.from_edges(nx + ny, r, edges)
    return g, list(range(nx)), list(range(nx, nx + ny))


# ---------------------------------------------------------------- complete


def test_cover_complete2():
    rng = random.Random(0)
    for _ in range(100):
        g = rand_complete(rng.randint(1, 20), 2, rng)
        cert = cv.cover_complete(g, 2)
        assert len(cert.pieces) <= 1 and verify(g, cert).ok
        assert cert.declared_max_diam == 4


def test_cover_complete3_examples():
    mono = monochromatic_complete(5, r=3)
    cert = cv.cover_complete(mono, 3)
    assert len(cert.pieces) == 1

    def seven_cycles(u, v):
        d = (v - u) % 7
        return min(d, 7 - d)

    g7 = complete_graph(7, seven_cycles, 3)
    cert = cv.cover_complete(g7, 3)
    assert len(cert.pieces) <= 2 and verify(g7, cert).ok
    # each color class is a 7-cycle: no 2-cover with diameter <= 2 exists
    size2, _ = ex.tc_exact(g7, max_diam=2)
    assert size2 > 2


def test_cover_complete3_exhaustive_k4():
    pairs = list(itertools.combinations(range(4), 2))
    for colv in itertools.product((1, 2, 3), repeat=6):
        g = ColoredMultigraph.from_edges(
            4, 3, [(u, v, c) for (u, v), c in zip(pairs, colv)])
        cert = cv.cover_complete(g, 3)
        assert len(cert.pieces) <= 2


def test_cover_complete4_exhaustive_k4():
    pairs = list(itertools.combinations(range(4), 2))
    for colv in itertools.product((1, 2, 3, 4), repeat=6):
        g = ColoredMultigraph.from_edges(
            4, 4, [(u, v, c) for (u, v), c in zip(pairs, colv)])
        cert = cv.cover_complete(g, 4)
        assert len(cert.pieces) <= 3


def test_cover_complete4_final_case_on_every_k5(monkeypatch):
    # vertex 0 sends colors 1, 2, 3, 4 to vertices 1, 2, 3, 4; 64 of the 4^6
    # colorings of the other pairs fall through (C1)-(C3) into the final
    # case, which ends in a two-piece zone cover
    zones, real = [], cv._zone_cover

    def spy(g, zone, max_pieces, budget):
        zones.append(max_pieces)
        return real(g, zone, max_pieces, budget)

    monkeypatch.setattr(cv, "_zone_cover", spy)
    pairs = list(itertools.combinations(range(1, 5), 2))
    for colv in itertools.product((1, 2, 3, 4), repeat=6):
        g = ColoredMultigraph.from_edges(5, 4, [(0, v, v) for v in range(1, 5)] + [
            (u, v, c) for (u, v), c in zip(pairs, colv)])
        cert = cv.cover_complete(g, 4)
        assert len(cert.pieces) <= 3 and cert.declared_max_diam == 6
        assert verify(g, cert).ok
    assert zones == [2] * 64


def test_cover_complete_needs_complete():
    g = ColoredMultigraph.from_edges(3, 2, [(0, 1, 1)])
    message = r"^cover_complete needs every pair to carry a color in 1\.\.2$"
    with pytest.raises(GraphError, match=message):
        cv.cover_complete(g, 2)
    # complete, but in a color outside 1..2
    with pytest.raises(GraphError, match=message):
        cv.cover_complete(monochromatic_complete(3, r=3, color=3), 2)


def test_cover_complete_fewer_colors_than_r():
    # the graph's own r is below the cover's r: the missing colors' A_i are empty
    rng = random.Random(5)
    graphs = [monochromatic_complete(5), monochromatic_complete(1)]
    graphs += [rand_complete(n, 2, rng) for n in (2, 4, 6, 8)]
    for g in graphs:
        for r in range(max(2, g.r), 5):
            cert = cv.cover_complete(g, r)
            assert verify(g, cert).ok and len(cert.pieces) <= r - 1


def test_cover_bound_vs_exact():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = rand_complete(n, 3, rng)
        cert = cv.cover_complete(g, 3)
        tc, _ = ex.tc_exact(g)
        assert tc <= len(cert.pieces) <= 2


# ---------------------------------------------------------------- bipartite


def test_classify_bipartite2_structures():
    # engineered P2
    edges = []
    for x in (0, 1, 2):
        for y in (3, 4, 5, 6):
            c = 1 if ((x <= 1) == (y <= 4)) else 2
            edges.append((x, y, c))
    g = ColoredMultigraph.from_edges(7, 2, edges)
    cls, cert = cv.classify_bipartite2(g, [0, 1, 2], [3, 4, 5, 6])
    assert cls.tag == "P2" and len(cert.pieces) <= 2

    # engineered P1: x0 all color 1, x1 all color 2
    edges = [(0, y, 1) for y in (3, 4, 5)] + [(1, y, 2) for y in (3, 4, 5)]
    edges += [(2, 3, 1), (2, 4, 2), (2, 5, 1)]
    g = ColoredMultigraph.from_edges(6, 2, edges)
    cls, cert = cv.classify_bipartite2(g, [0, 1, 2], [3, 4, 5])
    assert cls.tag == "P1" and cls.data[0] == "Y"


def test_classify_bipartite2_p7_example():
    # red path P_7 against its blue bipartite complement: both colors end up
    # with diameter exactly 3, the classification lands in P3
    red = {(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3)}
    edges = [(x, y, 1 if (x, y) in red else 2)
             for x in range(4) for y in range(4, 7)]
    g = ColoredMultigraph.from_edges(7, 2, edges)
    cls, cert = cv.classify_bipartite2(g, list(range(4)), [4, 5, 6])
    assert cls.tag == "P3"
    assert len(cert.pieces) <= 2 and verify(g, cert).ok


def reference_class2(g, X, Y, ca=1, cb=2):
    """The tag, with the P1 or P2 data, of the (ca,cb)-coloring of [X, Y],
    read off the definitions; a pair carrying both colors counts as ca."""
    X, Y = sorted(X), sorted(Y)

    def col(u, v):
        return ca if g.has_color(u, v, ca) else cb

    def one_colored(v, others, c):
        return all(col(v, w) == c for w in others)

    for side, other, covered in ((X, Y, "Y"), (Y, X, "X")):
        pa = [v for v in side if one_colored(v, other, ca)]
        pb = [v for v in side if one_colored(v, other, cb)]
        if pa and pb:
            return "P1", (covered, pa[0], pb[0])

    def component(c, v):
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for w in (Y if u in X else X):
                if w not in seen and col(u, w) == c:
                    seen.add(w)
                    todo.append(w)
        return seen

    if all(len(component(c, X[0])) < len(X) + len(Y) for c in (ca, cb)):
        C = component(cb, X[0])
        return "P2", (tuple(x for x in X if x in C), tuple(x for x in X if x not in C),
                      tuple(y for y in Y if y not in C), tuple(y for y in Y if y in C))
    return "P3", None


def check_class2(g, X, Y):
    cls, cert = cv.classify_bipartite2(g, X, Y)
    assert len(cert.pieces) <= 2 and verify(g, cert).ok
    tag, data = reference_class2(g, X, Y)
    assert cls.tag == tag
    if data is not None:
        assert cls.data == data


def test_classify_bipartite2_random_and_exhaustive():
    rng = random.Random(2)
    for k in range(200):
        g, X, Y = rand_bip(rng.randint(1, 10), rng.randint(1, 10), 2, rng)
        if k % 2:
            # some pairs carry both colors
            g = ColoredMultigraph.from_edges(g.n, 2, [
                (u, v, (1, 2) if rng.random() < 0.2 else cs) for u, v, cs in g.edges()])
        check_class2(g, X, Y)
    for nx, ny in ((2, 2), (2, 3), (3, 3), (3, 4)):
        X, Y = list(range(nx)), list(range(nx, nx + ny))
        for colv in itertools.product((1, 2), repeat=nx * ny):
            edges = [(x, y, c) for (x, y), c in zip(itertools.product(X, Y), colv)]
            check_class2(ColoredMultigraph.from_edges(nx + ny, 2, edges), X, Y)


def test_classification_precedence():
    # a coloring satisfying P1 must return P1 even if a color is connected
    edges = [(0, y, 1) for y in (2, 3)] + [(1, y, 2) for y in (2, 3)]
    g = ColoredMultigraph.from_edges(4, 2, edges)
    cls, _ = cv.classify_bipartite2(g, [0, 1], [2, 3])
    assert cls.tag == "P1"


def test_cover_bipartite3_random():
    rng = random.Random(3)
    for _ in range(150):
        g, X, Y = rand_bip(rng.randint(1, 10), rng.randint(1, 10), 3, rng)
        cert = cv.cover_bipartite3(g, X, Y)
        assert len(cert.pieces) <= 4 and verify(g, cert).ok


def test_cover_bipartite3_names_a_pair_outside_its_colors():
    g = ColoredMultigraph.from_edges(
        4, 4, [(0, 2, 4), (0, 3, 1), (1, 2, 2), (1, 3, 3)])
    with pytest.raises(GraphError, match=r"^pair \(0,2\) carries none of the colors 1, 2, 3$"):
        cv.cover_bipartite3(g, [0, 1], [2, 3])


def test_cover_bipartite3_monochrome_and_layered():
    g, X, Y = rand_bip(4, 4, 1, random.Random(4))
    g = ColoredMultigraph.from_edges(g.n, 3, g.edges())
    cert = cv.cover_bipartite3(g, X, Y)
    assert len(cert.pieces) == 1
    # layered: a color-3 path component of diameter >= 6 spanning Y
    X, Y = list(range(8)), list(range(8, 16))
    edges = []
    for i in range(8):
        edges.append((X[i], Y[i], 3))
        if i + 1 < 8:
            edges.append((X[i + 1], Y[i], 3))
    have = {(min(u, v), max(u, v)) for (u, v, c) in edges}
    rng = random.Random(5)
    for x in X:
        for y in Y:
            if (min(x, y), max(x, y)) not in have:
                edges.append((x, y, rng.randint(1, 2)))
    g = ColoredMultigraph.from_edges(16, 3, edges)
    cert = cv.cover_bipartite3(g, X, Y)
    assert len(cert.pieces) <= 4 and verify(g, cert).ok


# ---------------------------------------------------------------- alpha = 2


def rand_alpha2(n, rng):
    side = [rng.randint(0, 1) for _ in range(n)]
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if not (side[u] != side[v] and rng.random() < 0.5):
            edges.append((u, v, rng.randint(1, 2)))
    if not edges:
        return None
    return ColoredMultigraph.from_edges(n, 2, edges)


def test_cover_alpha2_random():
    rng = random.Random(6)
    done = 0
    while done < 150:
        g = rand_alpha2(rng.randint(3, 14), rng)
        if g is None or alpha(g)[0] != 2:
            continue
        done += 1
        cert = cv.cover_alpha2(g)
        assert len(cert.pieces) <= 2 and verify(g, cert).ok
        assert cert.declared_max_diam == 6


@pytest.mark.parametrize("cover", [cv.cover_bipartite3, cv.classify_bipartite2])
@pytest.mark.parametrize("X, Y, message", [
    ([0, 9], [1, 2], "vertex 9 is outside 0..3"),
    ([0, -1], [1, 2], "vertex -1 is outside 0..3"),
    ([0, 1, 2], [2, 3], "vertex 2 is on both sides"),
], ids=["past-n", "negative", "overlap"])
def test_bipartite_covers_check_their_sides(cover, X, Y, message):
    with pytest.raises(GraphError) as err:
        cover(monochromatic_complete(4, r=3), X, Y)
    assert str(err.value) == message


@pytest.mark.parametrize("g", [
    ColoredMultigraph.from_edges(2, 0, []),
    ColoredMultigraph.from_edges(3, 1, [(0, 1, 1), (1, 2, 1)]),
], ids=["r0", "r1"])
def test_cover_alpha2_needs_two_colors(g):
    with pytest.raises(GraphError, match=r"^cover_alpha2 needs colors 1 and 2"):
        cv.cover_alpha2(g)


def test_cover_alpha2_cliques_and_guard():
    edges = [(u, v, 1) for u, v in itertools.combinations(range(3), 2)]
    edges += [(u, v, 2) for u, v in itertools.combinations(range(3, 6), 2)]
    g = ColoredMultigraph.from_edges(6, 2, edges)
    cert = cv.cover_alpha2(g)
    assert len(cert.pieces) == 2
    with pytest.raises(GraphError):
        cv.cover_alpha2(monochromatic_complete(4, r=2))


def test_cover_alpha2_case22_isolated_w():
    # engineered: A11 empty, A22 nonempty with a vertex w sending only color 2
    # to A_x and A_y (case 2.2's last branch)
    #   x=0, y=1 nonadjacent; Ax={2}, Ay={3}, A22={4}, w=4
    edges = [(0, 2, 1), (1, 3, 1), (0, 4, 2), (1, 4, 2), (2, 4, 2), (3, 4, 2),
             (2, 3, 1)]
    g = ColoredMultigraph.from_edges(5, 2, edges)
    assert alpha(g)[0] == 2
    cert = cv.cover_alpha2(g)
    assert len(cert.pieces) <= 2 and verify(g, cert).ok


# ---------------------------------------------------------------- input checks
#
# The proofs check their inputs on the least-color rows they read anyway.  The
# references below check them the plain way, pair by pair or row sum by row
# sum, and each proof must reject exactly what its reference rejects, with
# the same message.


def reference_complete_error(g, r):
    if r not in (2, 3, 4):
        return "cover_complete supports r in {2, 3, 4}"
    if not g.subgraph_colors(range(1, r + 1)).is_complete():
        return f"cover_complete needs every pair to carry a color in 1..{r}"
    if g.n and not g.r:
        return "cover_complete needs a color to cover vertex 0, got r=0"
    return None


def reference_bipartite_error(g, X, Y, who, colors):
    X, Y = sorted(X), sorted(Y)
    if not X or not Y:
        return f"{who} needs two nonempty sides"
    for v in (*X, *Y):
        if not 0 <= v < g.n:
            return f"vertex {v} is outside 0..{g.n - 1}"
    if set(X) & set(Y):
        return f"vertex {min(set(X) & set(Y))} is on both sides"
    if set(range(g.n)) - set(X) - set(Y):
        return f"vertex {min(set(range(g.n)) - set(X) - set(Y))} is on neither side"
    # per color, the rows of the pairs whose first color in the order it is
    least, lower = [], [0] * g.n
    for c in colors:
        row = g.adjacency(c) if c <= g.r else [0] * g.n
        least.append([m & ~s for m, s in zip(row, lower)])
        lower = [m | s for m, s in zip(row, lower)]
    ym = sum(1 << y for y in Y)
    for x in X:
        # the rows are disjoint, so their sum is their union
        missing = ym & ~sum(rows[x] & ym for rows in least)
        if missing:
            y = (missing & -missing).bit_length() - 1
            return f"pair ({x},{y}) carries none of the colors {', '.join(map(str, colors))}"
    return None


def reference_alpha2_error(g):
    if g.r < 2:
        return f"cover_alpha2 needs colors 1 and 2, got r={g.r}"
    stray = [(u, v) for u, v, cs in g.edges() if not cs & {1, 2}]
    if stray:
        return (f"cover_alpha2 needs colors 1 and 2: pair "
                f"({stray[0][0]},{stray[0][1]}) carries neither")
    a = alpha(g)[0]
    if a != 2:
        return f"cover_alpha2 needs alpha = 2, got {a}"
    return None


# a phrase of each rejection message
REJECTIONS = ("supports r", "carry a color", "cover vertex 0", "nonempty sides",
              "outside", "both sides", "neither side", "carries none", "got r=",
              "carries neither", "alpha = 2")


def assert_rejects_as(expected, call, seen):
    """call() raises GraphError with the message expected, or, where that is
    None, raises none; seen counts the expected outcomes by kind."""
    kind = "accepted" if expected is None else next(
        k for k in REJECTIONS if k in expected)
    seen[kind] = seen.get(kind, 0) + 1
    if expected is None:
        call()
        return
    with pytest.raises(GraphError) as err:
        call()
    assert str(err.value) == expected


def rand_multicolored(n, r, rng, absent):
    """n vertices; each pair is absent with probability absent, else carries
    one color of 1..r, or now and then two."""
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if r and rng.random() >= absent:
            cs = {rng.randint(1, r)}
            if rng.random() < 0.2:
                cs.add(rng.randint(1, r))
            edges.append((u, v, cs))
    return ColoredMultigraph(n, r, edges)


def test_cover_complete_rejects_what_its_reference_rejects():
    rng = random.Random(40)
    seen = {}
    for n in range(8):
        for gr in range(6):
            for _ in range(6):
                g = rand_multicolored(n, gr, rng, rng.choice((0, 0, 0.05, 0.3)))
                for r in range(1, 6):
                    assert_rejects_as(reference_complete_error(g, r),
                                      lambda: cv.cover_complete(g, r), seen)
    assert seen.keys() == {"accepted", "supports r", "carry a color", "cover vertex 0"}
    assert seen["accepted"] >= 300


@pytest.mark.parametrize("who, cover, colors", [
    ("cover_bipartite3", cv.cover_bipartite3, (1, 2, 3)),
    ("classify2", cv.classify_bipartite2, (1, 2)),
], ids=["bip3", "bip2"])
def test_bipartite_covers_reject_what_their_reference_rejects(who, cover, colors):
    rng = random.Random(41)
    seen = {}
    for n in range(9):
        for gr in range(5):
            for _ in range(20):
                g = rand_multicolored(n, gr, rng, rng.choice((0, 0, 0, 0.1)))
                # sides: mostly a split of 0..n-1, sometimes empty, with a
                # vertex out of range or on both sides, or missing a vertex
                side = [rng.randint(0, 1) for _ in range(n)]
                X = [v for v in range(n) if side[v] == 0]
                Y = [v for v in range(n) if side[v] == 1]
                fault = rng.random()
                if fault < 0.04:
                    X.append(rng.choice((-1, n, n + 3)))
                elif fault < 0.08 and Y:
                    X.append(Y[0])
                elif fault < 0.12 and Y:
                    Y.pop()
                assert_rejects_as(reference_bipartite_error(g, X, Y, who, colors),
                                  lambda: cover(g, X, Y), seen)
    assert seen.keys() == {"accepted", "nonempty sides", "outside", "both sides",
                           "neither side", "carries none"}
    assert seen["accepted"] >= 200


def test_cover_alpha2_rejects_what_its_reference_rejects():
    rng = random.Random(42)
    seen = {}
    for n in range(9):
        for gr in range(5):
            for _ in range(15):
                g = rand_multicolored(n, gr, rng, rng.choice((0.2, 0.5)))
                assert_rejects_as(reference_alpha2_error(g), lambda: cv.cover_alpha2(g), seen)
    assert seen.keys() == {"accepted", "got r=", "carries neither", "alpha = 2"}
    assert seen["accepted"] >= 50


# ---------------------------------------------------------------- multipartite


def rand_multi(parts, r, rng):
    bounds, acc = [], 0
    for s in parts:
        bounds.append((acc, acc + s))
        acc += s
    part_of = [i for i, (a, b) in enumerate(bounds) for _ in range(b - a)]
    edges = [(u, v, rng.randint(1, r))
             for u, v in itertools.combinations(range(acc), 2)
             if part_of[u] != part_of[v]]
    return (ColoredMultigraph.from_edges(acc, r, edges),
            [list(range(a, b)) for a, b in bounds])


# The 5-cycle 0-2-3-1-4-0, whose first independent pair is x = 0, y = 1: it
# ends case 2.1 in the Z1/Z2 branch, Z1 + Z2 = {2, 3}, and the color of the
# pair 23 picks the return.
@pytest.mark.parametrize("c23, pieces", [
    (2, ((2, (0, 2, 3)), (2, (1, 4)))),
    (1, ((1, (1, 2, 3)), (1, (0, 4)))),
], ids=["dz-c1", "dz-c2"])
def test_cover_alpha2_case21_z_endings(monkeypatch, c23, pieces):
    g = cli.parse_graph(f"cg 5 2\ne 0 2 2\ne 1 3 1\ne 0 4 1\ne 1 4 2\ne 2 3 {c23}\n")
    masks, real = [], cv._induced_diameter

    def spy(adj, mask):
        masks.append(mask)
        return real(adj, mask)

    monkeypatch.setattr(cv, "_induced_diameter", spy)
    cert = cv.cover_alpha2(g)
    # the blobs in both colors, then Z1 + Z2 in both
    assert masks[4:] == [0b1100, 0b1100]
    assert cert.pieces == pieces and verify(g, cert).ok


def test_cover_multipartite_2():
    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(2, 5)
        g, parts = rand_multi([rng.randint(1, 5) for _ in range(k)], 2, rng)
        cert = cv.cover_multipartite(g, parts, 2)
        assert len(cert.pieces) <= 2 and verify(g, cert).ok


def test_cover_multipartite_3():
    rng = random.Random(8)
    for _ in range(150):
        g, parts = rand_multi([rng.randint(1, 5) for _ in range(3)], 3, rng)
        cert = cv.cover_multipartite(g, parts, 3)
        assert len(cert.pieces) <= 3 and verify(g, cert).ok


def test_covers_of_the_empty_graph():
    for r, parts in ((2, []), (3, [[], [], []])):
        g = ColoredMultigraph(0, r, [])
        cert = cv.cover_multipartite(g, parts, r)
        assert cert.pieces == () and verify(g, cert).ok
    cert = cv.restricted_cover(ColoredMultigraph(0, 3, []), 3, [1, 2])
    assert cert.pieces == () and cert.allowed_colors == frozenset({1, 2})


@pytest.mark.parametrize("r, parts, index", [
    (2, [[], [0, 1], [2, 3]], 0),
    (2, [[0, 1], [2, 3], []], 2),
    (3, [[0, 1], [2, 3], []], 2),
    (3, [[0, 1], [], [2, 3]], 1),
])
def test_cover_multipartite_rejects_an_empty_part(r, parts, index):
    # a 2-colored K_{2,2} in which neither color spans: wherever the empty
    # part stands, it is named
    g = ColoredMultigraph(4, r, [(0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2)])
    with pytest.raises(GraphError, match=rf"^part {index} is empty$"):
        cv.cover_multipartite(g, parts, r)


def test_cover_multipartite_3_general_case(monkeypatch):
    # no component spans V or contains a whole part, so only the exact
    # component cover settles it
    edges = [(0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 1), (0, 4, 3), (0, 5, 3),
             (0, 6, 2), (1, 4, 1), (1, 5, 1), (1, 6, 3), (2, 4, 2), (2, 5, 2),
             (2, 6, 1), (3, 4, 3), (3, 5, 3), (3, 6, 2)]
    g = ColoredMultigraph.from_edges(7, 3, edges)
    calls = []
    real = ex.min_cover

    def spy(universe, candidates, budget):
        calls.append(universe)
        return real(universe, candidates, budget)

    monkeypatch.setattr(ex, "min_cover", spy)
    cert = cv.cover_multipartite(g, [[0, 1], [2, 3], [4, 5, 6]], 3)
    assert calls == [(1 << 7) - 1]
    assert len(cert.pieces) <= 3 and verify(g, cert).ok
    # tc_exact's certificate, which declares its own size
    assert cert.declared_max_size == len(cert.pieces)
    with pytest.raises(ex.Inconclusive):
        cv.cover_multipartite(g, [[0, 1], [2, 3], [4, 5, 6]], 3, ex.SolveBudget(max_seconds=0))


def test_cover_bipartite3_zone_fallback(monkeypatch):
    # the layered decomposition ends in its cases (d)/(e), whose pieces come
    # from the exact cover of the zone X + Y
    # row x holds the colors of the edges from x to 6, 7, ..., 10
    cols = ["22311", "33212", "21121", "11223", "32223", "13331"]
    edges = [(x, 6 + i, int(c)) for x, row in enumerate(cols)
             for i, c in enumerate(row)]
    g = ColoredMultigraph.from_edges(11, 3, edges)
    calls = []
    real = cv.min_cover

    def spy(universe, candidates, budget):
        calls.append(universe)
        return real(universe, candidates, budget)

    monkeypatch.setattr(cv, "min_cover", spy)
    cert = cv.cover_bipartite3(g, range(6), range(6, 11))
    assert calls == [(1 << 11) - 1]
    assert len(cert.pieces) <= 4 and verify(g, cert).ok
    # the zone cover searches on the budget the proof is given
    with pytest.raises(ex.Inconclusive):
        cv.cover_bipartite3(g, range(6), range(6, 11), ex.SolveBudget(max_seconds=0))


# Inputs on which the layered decomposition reaches cases (d)/(e), tagged with
# the classes of [X1, Y1] and [X2, Y2]: found in a seeded stream of uniform
# 3-colorings (random.Random(5), sides 3..10) and shrunk by dropping vertices
# while (d)/(e) still fires.  Row x holds the colors from x to the Y side.
LAYERED_DE = [
    (("P2", "P1"), ["23323", "12112", "31321", "21233", "22131"]),
    (("P2", "P1"), ["2133", "2213", "1211", "2331", "3223", "3121"]),
    (("P2", "P1"), ["1323", "3213", "3222", "2233", "1132", "2111"]),
    (("P2", "P1"), ["1231333", "1223231", "2133211", "3322312"]),
    (("P2", "P1"), ["1332", "2321", "3133", "3131", "1213", "2211", "3122"]),
]


@pytest.mark.parametrize("tags, rows", LAYERED_DE)
def test_cover_bipartite3_layered_cases_d_e(monkeypatch, tags, rows):
    nx, ny = len(rows), len(rows[0])
    g = ColoredMultigraph.from_edges(nx + ny, 3, [
        (x, nx + y, int(c)) for x, row in enumerate(rows) for y, c in enumerate(row)])
    classes, covers = [], []
    real_classify, real_cover = cv._classify2, cv.min_cover

    def classify(*args):
        got = real_classify(*args)
        classes.append(got[0].tag)
        return got

    def cover(universe, candidates, budget):
        covers.append(universe)
        return real_cover(universe, candidates, budget)

    monkeypatch.setattr(cv, "_classify2", classify)
    monkeypatch.setattr(cv, "min_cover", cover)
    cert = cv.cover_bipartite3(g, range(nx), range(nx, nx + ny))
    # only the layered decomposition classifies here, and it returned None
    assert tuple(classes) == tags
    assert covers == [(1 << (nx + ny)) - 1]
    assert len(cert.pieces) <= 4 and verify(g, cert).ok


def test_multipartite_star_needs_r():
    from ryserlab.constructions import multipartite_star_example

    g = multipartite_star_example(3, 3)
    cert = cv.cover_multipartite(g, [[0, 1, 2], [3, 4], [5, 6]], 3)
    assert len(cert.pieces) == 3
    assert ex.tc_exact(g)[0] == 3


# ---------------------------------------------------------------- restricted


def test_restricted_cover_random():
    rng = random.Random(9)
    for r in (3, 4, 5):
        for _ in range(60):
            n = rng.randint(2, 16)
            g = closure(rand_complete(n, r, rng))
            S = sorted(rng.sample(range(1, r + 1), 2))
            cert = cv.restricted_cover(g, r, S)
            assert len(cert.pieces) <= r - 1
            cols = {p[0] for p in cert.pieces}
            assert cols <= set(S) or cols <= set(range(1, r + 1)) - set(S)
            assert verify(g, cert).ok


def test_restricted_cover_of_a_graph_that_is_not_closed():
    # color 3 is a star at 0, not a clique, and color 1 a triangle on the rest
    g = ColoredMultigraph(4, 3, [(0, 1, 3), (0, 2, 3), (0, 3, 3),
                                 (1, 2, 1), (1, 3, 1), (2, 3, 1)])
    cert = cv.restricted_cover(g, 3, [2, 3])
    assert len(cert.pieces) <= 2 and verify(g, cert).ok
    assert cert == cv.restricted_cover(closure(g), 3, [2, 3])


def test_restricted_cover_random_graphs_that_are_not_closed():
    # the proof runs on the closure, whose components are g's, so the cover
    # is the closure's and verifies on g
    rng = random.Random(12)
    seen = 0
    for r in (3, 4, 5):
        for _ in range(80):
            g = rand_complete(rng.randint(2, 12), r, rng)
            S = sorted(rng.sample(range(1, r + 1), 2))
            if g == closure(g):
                continue
            seen += 1
            cert = cv.restricted_cover(g, r, S)
            cols = {c for c, _ in cert.pieces}
            assert cols <= set(S) or cols <= set(range(1, r + 1)) - set(S)
            assert len(cert.pieces) <= r - 1 and verify(g, cert).ok
            assert cert == cv.restricted_cover(closure(g), r, S)
    assert seen >= 200


@pytest.mark.parametrize("S", [[1, 1], [2], [1, 2, 3], [0, 1], [1, 4]])
def test_restricted_cover_needs_two_distinct_colors(S):
    g = monochromatic_complete(4, r=3)
    with pytest.raises(GraphError, match=r"^S must be two distinct colors in 1\.\.r$"):
        cv.restricted_cover(g, 3, S)


@pytest.mark.parametrize("g, r, S, message", [
    # every pair in color 4 only, outside 1..3
    (monochromatic_complete(4, r=4, color=4), 3, [1, 2],
     r"pair \(0,1\) carries none"),
    (ColoredMultigraph(3, 3, [(0, 1, 1), (1, 2, 2)]), 3, [1, 2],
     r"pair \(0,2\) carries none"),
    # r above g.r, whichever branch the coloring would take
    (complete_graph(4, lambda u, v: 3 if (u, v) == (0, 1) else 1, 3), 4, [3, 4],
     r"r <= g.r = 3, got r=4"),
    (monochromatic_complete(6, r=3, color=3), 4, [1, 2], r"r <= g.r = 3, got r=4"),
    (monochromatic_complete(6, r=3, color=3), 5, [4, 5], r"r <= g.r = 3, got r=5"),
], ids=["color-above-r", "missing-pair", "konig-r-above", "r4-above", "r5-above"])
def test_restricted_cover_checks_its_colors(g, r, S, message):
    with pytest.raises(GraphError, match=f"^restricted_cover needs .*{message}"):
        cv.restricted_cover(g, r, S)


def test_restricted_cover_konig_branch_is_minimum():
    rng = random.Random(11)
    checked = 0
    for r in (3, 4, 5):
        for _ in range(40):
            n = rng.randint(2, 10)
            g = closure(rand_complete(n, r, rng))
            S = sorted(rng.sample(range(1, r + 1), 2))
            if alpha(g.subgraph_colors(S))[0] > r - 1:
                continue
            comps = [set(p) for c in S for p in
                     {tuple(sorted(v for v in range(n) if v == u or c in
                                   g.colors_of(u, v))) for u in range(n)}]
            best = next(k for k in range(len(comps) + 1)
                        if any(set().union(*sub) == set(range(n))
                               for sub in itertools.combinations(comps, k)))
            cert = cv.restricted_cover(g, r, S)
            assert len(cert.pieces) == cert.declared_max_size == best
            assert cert.allowed_colors == frozenset(S) and verify(g, cert).ok
            checked += 1
    assert checked >= 60
    # the S-colored search runs on the budget the proof is given
    with pytest.raises(ex.Inconclusive):
        cv.restricted_cover(monochromatic_complete(3, r=3, color=2), 3, [2, 3],
                            ex.SolveBudget(max_seconds=0))


def engineer_residual(case):
    if case == 1:
        comps = {1: [(0, 1, 2), (3, 4)], 2: [(0, 1, 3), (2, 4)],
                 3: [(0, 1, 4), (2, 3)]}
    else:
        comps = {1: [(0, 1, 2, 3), (4,)], 2: [(0, 1, 4), (2, 3)],
                 3: [(2, 3, 4), (0, 1)]}
    edges = []
    for c, blocks in comps.items():
        for b in blocks:
            for u, v in itertools.combinations(b, 2):
                edges.append((u, v, c))
    a1 = comps[1][0]
    for wi, w in enumerate(range(5, 9)):
        edges.append((w, wi, 4))
        edges.append((w, wi + 1, 5))
        for x in range(5):
            if x in (wi, wi + 1):
                continue
            if x in a1:
                edges.append((w, x, 1))
            elif case == 1:
                edges.append((w, x, 2 if x == 3 else 3))
            else:
                edges.append((w, x, 2))
    for w1, w2 in itertools.combinations(range(5, 9), 2):
        edges.append((w1, w2, 1))
    return closure(ColoredMultigraph.from_edges(9, 5, edges))


@pytest.mark.parametrize("case,shape", [
    (1, ((3, 2), (3, 2), (3, 2))),
    (2, ((4, 1), (3, 2), (3, 2))),
])
def test_restricted5_residual_cases(case, shape):
    g = engineer_residual(case)
    sig = signature_of(g, range(5), (1, 2, 3))
    assert sig.shapes() == shape
    cert = cv.restricted_cover(g, 5, [4, 5])
    assert len(cert.pieces) <= 4
    assert {p[0] for p in cert.pieces} <= {1, 2, 3}
    assert verify(g, cert).ok


def engineer_deep(extra=0, drop=()):
    """A complete 5-colored graph on which restricted_cover(g, 5, [4, 5])
    takes _restricted5's deep branch.

    X = 0..4 opens the independent set that alpha finds in the {4, 5}-colored
    graph (its only one of size 5 on the vertices 0..6).  On
    X, color A = 1 has the blocks 0123 and 4, color 2 the blocks 014 and 23,
    color 3 the blocks 234 and 01: the residual shape (4,1), (3,2), (3,2).
    Vertex u = 5 joins 234 in color 3 and 0, 1 in colors 4, 5, so no cover
    by A's and color 2's components of X holds it; vertex v = 6 joins 014
    in color 2 and 2, 3 in colors 4, 5, so none by A's and color 3's holds
    it.  The pair uv is in color A, and so the third A-component A3 through
    u and v and color 2's first component make the cover.  extra = 1 adds
    vertex 7 to A3, joined to u and v in A and to X in colors 2 and 3;
    extra = 2 adds vertex 8 too, joined in A to 7 alone, so A3 is no
    clique.  drop lists (u, v, color) entries taken off the pairs.
    """
    cols = {}

    def put(u, v, c):
        cols.setdefault((min(u, v), max(u, v)), set()).add(c)

    for block, c in (((0, 1, 2, 3), 1), ((0, 1, 4), 2), ((2, 3), 2),
                     ((2, 3, 4), 3), ((0, 1), 3)):
        for u, v in itertools.combinations(block, 2):
            put(u, v, c)
    for x, c in ((0, 4), (1, 5), (2, 3), (3, 3), (4, 3)):
        put(5, x, c)
    for x, c in ((0, 2), (1, 2), (2, 4), (3, 5), (4, 2)):
        put(6, x, c)
    put(5, 6, 1)
    # the vertices past 6 lie in the components 0146 of color 2 and 2345 of
    # color 3
    for w, a_nbrs, b_nbr in ((7, (5, 6), None), (8, (7,), 6))[:extra]:
        for x in (0, 1, 4):
            put(w, x, 2)
        for x in (2, 3):
            put(w, x, 3)
        for a in a_nbrs:
            put(w, a, 1)
        if b_nbr is not None:
            put(w, 5, 3)
            put(w, b_nbr, 2)
    for u, v, c in drop:
        cols[(u, v)].discard(c)
    return ColoredMultigraph(6 + 1 + extra, 5, [(u, v, cs) for (u, v), cs in cols.items()])


@pytest.mark.parametrize("extra, drop, closed", [
    (0, (), True),
    # 01 and 23 keep one of their three colors less; their components stay
    (0, ((0, 1, 2), (2, 3, 3)), False),
    (1, (), False),
    (2, (), False),
], ids=["closed", "open-X", "A3-clique", "A3-open"])
def test_restricted5_deep_branch(extra, drop, closed):
    g = engineer_deep(extra, drop)
    assert g.is_complete() and (g == closure(g)) == closed
    assert alpha(closure(g).subgraph_colors([4, 5]))[1][:5] == (0, 1, 2, 3, 4)
    cert = cv.restricted_cover(g, 5, [4, 5])
    assert cert == cv.restricted_cover(closure(g), 5, [4, 5])
    assert verify(g, cert).ok
    # only the deep branch's candidates hold three A-components: A1, A2 and
    # the one through u = 5 and v = 6, which meets no vertex of X
    a3 = (1, tuple(range(5, 7 + extra)))
    assert cert.pieces == ((1, (0, 1, 2, 3)), (1, (4,)), a3,
                           (2, (0, 1, 4, 6, *range(7, 7 + extra))))


def test_restricted3_single_component_branch():
    # alpha(G_{2,3}) >= 3 forces one color-1 component to cover everything
    n = 7
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if u < 3 and v < 3:
            edges.append((u, v, 1))
        elif u < 3:
            edges.append((u, v, [1, 2, 3][(u + v) % 3]))
        else:
            edges.append((u, v, 1))
    g = closure(ColoredMultigraph.from_edges(n, 3, edges))
    gS = g.subgraph_colors({2, 3})
    if alpha(gS)[0] >= 3:
        cert = cv.restricted_cover(g, 3, [2, 3])
        assert len(cert.pieces) == 1 and cert.pieces[0][0] == 1


# ---------------------------------------------------------------- classify3


def check_type(g, res):
    if res.tag == "TypeI":
        c, span = res.data
        assert len(span) == g.n
        from ryserlab.core import diameter
        assert diameter(g, span, c) < float("inf")
        return
    (blue, red, green), parts = res.data
    W, X, Y, Z = [set(p) for p in parts]

    def colf(a, b):
        return min(g.colors_of(a, b))

    assert sorted(W | X | Y | Z) == list(range(g.n))
    if res.tag == "TypeII":
        assert W and X and Y and Z
        blocks = ((W, X, blue), (Y, Z, blue), (W, Y, red), (X, Z, red),
                  (W, Z, green), (X, Y, green))
        for A, B, c in blocks:
            for a in A:
                for b in B:
                    assert colf(min(a, b), max(a, b)) == c
    else:
        assert X and Y and Z
        for A, B, c in ((X, Y, blue), (X, Z, red), (Y, Z, green)):
            for a in A:
                for b in B:
                    assert colf(min(a, b), max(a, b)) == c
        for A, B, banned in ((W, X, green), (W, Y, red), (W, Z, blue)):
            for a in A:
                for b in B:
                    assert colf(min(a, b), max(a, b)) != banned


def test_classify3_examples():
    assert cv.classify3(monochromatic_complete(4, r=3)).tag == "TypeI"
    tri = ColoredMultigraph.from_edges(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
    res = cv.classify3(tri)
    assert res.tag == "TypeIII"
    W, X, Y, Z = res.data[1]
    assert W == () and all(len(p) == 1 for p in (X, Y, Z))

    def blowup(u, v):
        pu, pv = u // 2, v // 2
        if pu == pv:
            return 1
        pair = frozenset((pu, pv))
        if pair in (frozenset((0, 1)), frozenset((2, 3))):
            return 1
        if pair in (frozenset((0, 2)), frozenset((1, 3))):
            return 2
        return 3

    res = cv.classify3(complete_graph(8, blowup, 3))
    assert res.tag == "TypeII"
    check_type(complete_graph(8, blowup, 3), res)


def test_classify3_exhaustive_k4():
    pairs = list(itertools.combinations(range(4), 2))
    for colv in itertools.product((1, 2, 3), repeat=6):
        g = ColoredMultigraph.from_edges(
            4, 3, [(u, v, c) for (u, v), c in zip(pairs, colv)])
        check_type(g, cv.classify3(g))


def test_classify3_random():
    rng = random.Random(10)
    for _ in range(100):
        g = rand_complete(rng.randint(2, 12), 3, rng)
        check_type(g, cv.classify3(g))


# ---------------------------------------------------------------- cover format


def test_every_constructive_cover_round_trips_through_the_cover_format():
    """The cover format writes a piece as its color and vertices, so a
    certificate read back from it is the certificate that verify checked."""
    rng = random.Random(13)
    certs = []
    for _ in range(25):
        for r in (2, 3, 4):
            certs.append(cv.cover_complete(rand_complete(rng.randint(1, 20), r, rng), r))
        g, X, Y = rand_bip(rng.randint(1, 8), rng.randint(1, 8), 2, rng)
        certs.append(cv.classify_bipartite2(g, X, Y)[1])
        g, X, Y = rand_bip(rng.randint(1, 8), rng.randint(1, 8), 3, rng)
        certs.append(cv.cover_bipartite3(g, X, Y))
        for r, k in ((2, rng.randint(2, 4)), (3, 3)):
            g, parts = rand_multi([rng.randint(1, 4) for _ in range(k)], r, rng)
            certs.append(cv.cover_multipartite(g, parts, r))
        r = rng.randint(3, 5)
        certs.append(cv.restricted_cover(closure(rand_complete(rng.randint(2, 10), r, rng)),
                                         r, sorted(rng.sample(range(1, r + 1), 2))))
        g = None
        while g is None or alpha(g)[0] != 2:
            g = rand_alpha2(rng.randint(3, 10), rng)
        certs.append(cv.cover_alpha2(g))
    for cert in certs:
        back = cli.parse_cover(cli.write_cover(cert))
        assert (back.pieces, back.mode) == (cert.pieces, cert.mode)


# ---------------------------------------------------------------- pinned answers


def rand_blowup(r, rng):
    """K_n whose vertices fall into types, vertex 0 a type of its own; a pair
    across two types mostly takes that type pair's color."""
    sizes = [1] + [rng.randint(1, 3) for _ in range(rng.randint(r - 1, r + 1))]
    types = [t for t, s in enumerate(sizes) for _ in range(s)]
    tcol = {}

    def col(u, v):
        a, b = sorted((types[u], types[v]))
        if a == b or rng.random() < 0.15:
            return rng.randint(1, r)
        return tcol.setdefault((a, b), rng.randint(1, r))
    return complete_graph(len(types), col, r)


def rand_rooted(r, rng):
    """Vertex 0 joins part i in color i; a pair across parts i and j mostly
    avoids both colors, so cover_complete's sets B_ij are rarely empty and
    its endgames run."""
    part = [0] + [i for i in range(1, r + 1) for _ in range(rng.randint(1, 3))]

    def col(u, v):
        if u == 0:
            return part[v]
        others = [c for c in range(1, r + 1) if c not in (part[u], part[v])]
        if part[u] == part[v] or not others or rng.random() < 0.25:
            return rng.randint(1, r)
        return rng.choice(others)
    return complete_graph(len(part), col, r)


def rand_layered(n, rng):
    """K_{n,n} with a color-3 path through all of it and colors 1, 2 elsewhere,
    so cover_bipartite3 reaches its layered decomposition."""
    X, Y = list(range(n)), list(range(n, 2 * n))
    path = {(X[i], Y[i]) for i in range(n)} | {(X[i + 1], Y[i]) for i in range(n - 1)}
    edges = [(x, y, 3 if (x, y) in path else rng.randint(1, 2)) for x in X for y in Y]
    return ColoredMultigraph(2 * n, 3, edges), X, Y


def constructive_stream():
    """The cover text and declared bounds of every constructive cover, and
    the tag and data of every classification, on a seeded stream."""
    rng = random.Random(30)
    out = []

    def cover(cert):
        out.append(cli.write_cover(cert))
        out.append(f"{cert.declared_max_size} {cert.declared_max_diam} "
                   f"{cert.declared_max_radius} {sorted(cert.allowed_colors or ())}\n")

    def tag(cls):
        out.append(f"{cls.tag} {cls.data!r}\n")

    for _ in range(150):
        for r in (2, 3, 4):
            cover(cv.cover_complete(rand_complete(rng.randint(1, 12), r, rng), r))
            cover(cv.cover_complete(rand_blowup(r, rng), r))
            cover(cv.cover_complete(rand_rooted(r, rng), r))
        g, X, Y = rand_bip(rng.randint(1, 7), rng.randint(1, 7), 2, rng)
        cls, cert = cv.classify_bipartite2(g, X, Y)
        tag(cls)
        cover(cert)
        g, X, Y = rand_bip(rng.randint(2, 9), rng.randint(2, 9), 3, rng)
        cover(cv.cover_bipartite3(g, X, Y))
        cover(cv.cover_bipartite3(*rand_layered(rng.randint(4, 8), rng)))
        g = None
        while g is None or alpha(g)[0] != 2:
            g = rand_alpha2(rng.randint(3, 14), rng)
        cover(cv.cover_alpha2(g))
        # two blobs, each mostly in its own color
        g = None
        while g is None or alpha(g)[0] != 2:
            n = rng.randint(4, 12)
            side = [rng.randint(0, 1) for _ in range(n)]
            g = ColoredMultigraph(n, 2, [
                (u, v, side[u] + 1 if side[u] == side[v] and rng.random() < 0.8
                 else rng.randint(1, 2)) for u, v in itertools.combinations(range(n), 2)
                if side[u] == side[v] or rng.random() < 0.4])
        cover(cv.cover_alpha2(g))
        for r, k in ((2, rng.randint(2, 4)), (3, 3)):
            g, parts = rand_multi([rng.randint(1, 5) for _ in range(k)], r, rng)
            cover(cv.cover_multipartite(g, parts, r))
        # two parts whose colors both split by a vertex label
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        lab = [rng.randint(0, 1) for _ in range(nx + ny)]
        g = ColoredMultigraph(nx + ny, 2, [(x, y, 1 if lab[x] == lab[y] else 2)
                                           for x in range(nx) for y in range(nx, nx + ny)])
        cover(cv.cover_multipartite(g, [range(nx), range(nx, nx + ny)], 2))
        for r in (3, 4, 5):
            S = sorted(rng.sample(range(1, r + 1), 2))
            P = [c for c in range(1, r + 1) if c not in S]
            g = closure(rand_complete(rng.randint(2, 16), r, rng))
            cover(cv.restricted_cover(g, r, S))
            # S rare, so alpha of its colors is large
            g = closure(complete_graph(rng.randint(r, 16), lambda u, v: rng.choice(
                S if rng.random() < 0.15 else P), r))
            cover(cv.restricted_cover(g, r, S))
        tag(cv.classify3(rand_complete(rng.randint(1, 10), 3, rng)))
        tag(cv.classify3(rand_blowup(3, rng)))
    for case in (1, 2):
        cover(cv.restricted_cover(engineer_residual(case), 5, [4, 5]))
    for _, rows in LAYERED_DE:
        nx, ny = len(rows), len(rows[0])
        g = ColoredMultigraph(nx + ny, 3, [(x, nx + y, int(c)) for x, row in enumerate(rows)
                                           for y, c in enumerate(row)])
        cover(cv.cover_bipartite3(g, range(nx), range(nx, nx + ny)))
    return "".join(out)


def test_constructive_answers_are_pinned():
    # a refactor of the proofs must not change any cover or classification
    digest = hashlib.sha256(constructive_stream().encode()).hexdigest()
    assert digest == "9711c590d792d741c78ef9f560d23430866be5d0cff9a1c6ef9b8c4dffeac471"
