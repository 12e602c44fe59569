"""Executable versions of the constructive cover proofs.

Every routine turns a proof into a deterministic algorithm: each "without loss
of generality" choice becomes "lowest index satisfying the case condition",
and every returned certificate is re-verified before being handed back.  Where
a proof's endgame is a case analysis over a handful of named covers, the
implementation generates the candidates and returns the first that verifies
(an exhausted candidate list is an internal failure and raises with the
witness coloring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (ColoredMultigraph, CoverCertificate, GraphError,
                   _connected_diameter, alpha, checked, component_masks, diameter,
                   layers, lowest_vertex, make_certificate, mask_of, reach, verify,
                   vertices_of)
from .exact import SolveBudget, min_cover, tc_exact


# ---------------------------------------------------------------------------
# small helpers


def _least_colors(g: ColoredMultigraph, colors) -> dict:
    """The reduced coloring, in which each pair keeps its first color in the
    given order: per color, the mask adjacency of the pairs it keeps (a color
    above g.r has empty rows)."""
    out, lower = {}, [0] * g.n
    for c in colors:
        row = g.adjacency(c) if c <= g.r else [0] * g.n
        out[c] = [m & ~s for m, s in zip(row, lower)]
        lower = [m | s for m, s in zip(row, lower)]
    return out


def _color_reader(least: dict):
    """col(u, v): the color that the table least keeps on the pair uv, or None."""
    rows = tuple(least.items())

    def col(u, v):
        for c, adj in rows:
            if adj[u] >> v & 1:
                return c
        return None
    return col


def _bipartite_colors(g: ColoredMultigraph, X, Y, colors) -> dict:
    """The least-color table of the X-Y pairs alone; every such pair must
    carry one of the colors.  The sides must be disjoint sets of vertices
    of g."""
    for v in (*X, *Y):
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} is outside 0..{g.n - 1}")
    xm, ym = mask_of(X), mask_of(Y)
    if xm & ym:
        raise GraphError(f"vertex {lowest_vertex(xm & ym)} is on both sides")
    # per vertex, the other side
    side = [xm if ym >> v & 1 else ym if xm >> v & 1 else 0 for v in range(g.n)]
    least = {c: [m & s for m, s in zip(rows, side)]
             for c, rows in _least_colors(g, colors).items()}
    for x in X:
        # the rows are disjoint, so their sum is their union
        missing = ym & ~sum(rows[x] for rows in least.values())
        if missing:
            names = ", ".join(map(str, colors))
            raise GraphError(f"pair ({x},{lowest_vertex(missing)}) carries none "
                             f"of the colors {names}")
    return least


def _vertex_pieces(pairs):
    """The (color, vertex list) pieces of (color, mask) pairs, each pair once,
    in first-seen order."""
    return [(c, vertices_of(m)) for c, m in dict.fromkeys(pairs)]


def _tree(c, x, leaves, attach=()):
    """The color-c piece on x, its color-c neighbors leaves and the vertices
    attach that the proof hangs on them."""
    return (c, [x] + list(leaves) + list(attach))


def _zone_cover(g, zone: int, max_pieces):
    """The pieces of a minimum cover of the vertex mask zone by monochromatic
    pieces of diameter <= 6, which the calling proof bounds by max_pieces.

    Candidates: the radius-3 ball of every color around every zone vertex
    (its induced diameter is <= 6) and whole components of induced diameter
    <= 6.  Smaller balls add nothing: a radius-1 or radius-2 ball lies in the
    radius-3 ball about the same center, so cut to the zone it never covers
    more.  The candidates need no seed pieces from the proofs that end here:
    cut to the zone, each named piece of theirs lies in such a ball (a color-c
    tree of radius t <= 3 about v in ball_c(v, 3); the color-j star from x to
    B_ji in ball_j(b, 3) for any b in B_ji).  A minimum above max_pieces is an
    internal failure and raises with the coloring.
    """
    cands = {}

    def add(c, m):
        if m & zone:
            cands.setdefault((c, m & zone), (m, (c, vertices_of(m))))

    for c in range(1, g.r + 1):
        adj = g.adjacency(c)
        for m in component_masks(adj, (1 << g.n) - 1):
            if m & (m - 1) and m & zone and _connected_diameter(adj, m, 6) <= 6:
                add(c, m)
        for v in vertices_of(zone):
            # the layers are disjoint, so their sum is their union
            add(c, sum(layers(adj, v, radius=3)))
    size, pieces = min_cover(zone, list(cands.values()), SolveBudget())
    if size > max_pieces:
        raise AssertionError(f"no cover of the zone by {max_pieces} pieces: "
                             f"graph={g!r} edges={g.edges()}")
    return pieces


# ---------------------------------------------------------------------------
# the 2-colored complete bipartite classifier


@dataclass(frozen=True)
class BipartiteClass:
    """Which case of the 2-coloring classification holds, with its witness data.

    tag P1: data = (double_covered_side, special_for_color_a, special_for_color_b)
    tag P2: data = (X1, X2, Y1, Y2) with [X1,Y1]+[X2,Y2] in color a and the
            cross blocks in color b
    tag P3: data = the color whose class has diameter at most 6 on X+Y
    """

    tag: str
    data: tuple


@dataclass
class _Bip2:
    cls: BipartiteClass
    tree_pieces: list      # <= 2 (color, verts), each of radius <= 2 in its color
    single_piece: tuple | None  # one spanning (color, verts) of diameter <= 6, P3 only


def _classify2(g: ColoredMultigraph, X, Y, ca: int, cb: int) -> _Bip2:
    """Classify the (ca,cb)-coloring of the complete bipartite graph [X, Y].

    Every X-Y pair must carry ca or cb; a pair that carries both counts as
    ca.  Precedence P1 > P2 > P3.
    """
    X = sorted(X)
    Y = sorted(Y)
    if not X or not Y:
        raise GraphError("classify2 needs two nonempty sides")
    adj = _bipartite_colors(g, X, Y, (ca, cb))
    both = X + Y
    xm, ym = mask_of(X), mask_of(Y)
    full = xm | ym
    # every X-Y pair keeps one color, so a vertex is one-colored in c exactly
    # when it keeps no pair in the other color
    other_color = {ca: cb, cb: ca}

    # P1: two one-colored vertices on a common side
    for side, other, dc_side in ((X, Y, "Y"), (Y, X, "X")):
        pa = [v for v in side if not adj[cb][v]]
        pb = [v for v in side if not adj[ca][v]]
        if pa and pb:
            va, vb = pa[0], pb[0]
            # cover: the color-ca star from va with the ca-neighbors of the
            # lowest vertex of the covered side hung on it, and that vertex's
            # cb star
            anchor = other[0]
            t1 = (ca, [va] + other + vertices_of(adj[ca][anchor] & ~(1 << va)))
            t2 = _tree(cb, anchor, vertices_of(adj[cb][anchor]))
            return _Bip2(BipartiteClass("P1", (dc_side, va, vb)), [t1, t2], None)

    # a single one-colored vertex forces its color to span (P3)
    for c in (ca, cb):
        v = next((v for v in both if not adj[other_color[c]][v]), None)
        if v is not None:
            # v joins its whole other side in c: radius <= 2 about v
            return _Bip2(BipartiteClass("P3", (c,)), [(c, both)], (c, sorted(both)))

    conn = {c: reach(adj[c], both[0]) == full for c in (ca, cb)}

    if not conn[ca] and not conn[cb]:
        # P2: both classes disconnected; the cb-component of X[0] holds
        # X1 and Y2, and [X1,Y1], [X2,Y2] are the color-ca blocks
        C = reach(adj[cb], both[0])
        X1, X2, Y1, Y2 = (tuple(vertices_of(m))
                          for m in (xm & C, xm & ~C, ym & ~C, ym & C))
        assert all(adj[ca][x] & ym & ~C == ym & ~C for x in X1)
        cls = BipartiteClass("P2", (X1, X2, Y1, Y2))
        return _Bip2(cls, [(ca, X1 + Y1), (ca, X2 + Y2)], None)

    c = ca if conn[ca] else cb
    oc = other_color[c]
    # eccentricities in the connected class
    eccs = {v: len(layers(adj[c], v)) - 1 for v in both}
    d = max(eccs.values())
    v0 = min(v for v in both if eccs[v] == d)
    dist = layers(adj[c], v0)
    by_dist = [vertices_of(m) for m in dist]

    # the color-c ball of radius 2 about v0
    t1 = (c, [v for vs in by_dist[:3] for v in vs])
    if d <= 2:
        return _Bip2(BipartiteClass("P3", (c,)), [t1], (c, sorted(both)))

    if d == 3:
        trees = [t1, (oc, [v0] + by_dist[3])]
    elif d == 4:
        # two radius-2 pieces in the other color, about v0 and w0: a middle
        # vertex hangs on layer 3 if it sees it in the other color, else on
        # layer 1
        t1_verts = [v0] + by_dist[3]
        w0 = by_dist[4][0]
        t2_verts = [w0] + by_dist[1] + by_dist[4][1:]
        for u in by_dist[2]:
            if adj[oc][u] & dist[3]:
                t1_verts.append(u)
            else:
                assert adj[oc][u] & dist[1], "every middle vertex sees the other color"
                t2_verts.append(u)
        trees = [(oc, t1_verts), (oc, t2_verts)]
    else:
        # d >= 5: two double stars in the other color, on the pairs v0 z and
        # w4 y1: v0 joins the odd layers from 3 and z layer 2 and the even
        # layers from 8; w4 joins layer 1 and y1 layers 4 and 6
        z = by_dist[5][0]
        y1 = by_dist[1][0]
        w4 = by_dist[4][0]
        t1_verts = [v0, z]
        t2_verts = [y1, w4]
        for i, vs in enumerate(by_dist[1:], start=1):
            for u in vs:
                if u not in (z, y1, w4):
                    (t2_verts if i in (1, 4, 6) else t1_verts).append(u)
        trees = [(oc, t1_verts), (oc, t2_verts)]

    if d <= 6:
        single = (c, sorted(both))
    else:
        # the other class spans with radius <= 3 (anchored in layer 3)
        single = (oc, sorted(both))
    return _Bip2(BipartiteClass("P3", (c if d <= 6 else oc,)), trees, single)


def classify_bipartite2(g: ColoredMultigraph, X, Y):
    """Public classification of a 2-colored complete bipartite graph.

    Returns (BipartiteClass, CoverCertificate of <= 2 pieces of radius <= 2,
    so each holds a spanning tree of diameter <= 4).
    """
    res = _classify2(g, X, Y, 1, 2)
    cert = checked(g, res.tree_pieces, 2, 4, max_radius=2)
    return res.cls, cert


# ---------------------------------------------------------------------------
# complete graphs, r = 2, 3, 4


def cover_complete(g: ColoredMultigraph, r: int) -> CoverCertificate:
    """At most r - 1 monochromatic pieces covering a complete graph whose
    pairs all carry a color in 1..r (r in {2, 3, 4}): trees of diameter <= 4
    for r <= 3, pieces of diameter <= 6 for r = 4.

    The proofs share their opening.  Let x = 0, A_i the vertices joined to x
    in least color i, and B_ij the part of A_i that sends no color j to A_j.
    If some B_ij is empty, A_i hangs on the color-j star and the other stars
    finish the cover.  For r = 2 that always happens: u in B_21 and v in B_12
    would leave the pair uv with neither color.  Only r = 3 and r = 4 go on
    to an endgame.
    """
    if r not in (2, 3, 4):
        raise GraphError("cover_complete supports r in {2, 3, 4}")
    if not g.subgraph_colors(range(1, r + 1)).is_complete():
        raise GraphError(f"cover_complete needs every pair to carry a color in 1..{r}")
    if r == 4:
        return checked(g, _complete_pieces(g, r), 3, 6)
    return checked(g, _complete_pieces(g, r), r - 1, 4, max_radius=2)


def _complete_pieces(g, r):
    n = g.n
    if n <= 1:
        return [(1, list(range(n)))] if n else []
    x = 0
    colors = range(1, r + 1)
    # col(u, v) == i exactly when bit v of least[i][u] is set
    least = _least_colors(g, colors)
    col = _color_reader(least)
    amask = {i: least[i][x] for i in colors}
    A = {i: vertices_of(amask[i]) for i in colors}
    if not all(A.values()):
        return [_tree(i, x, A[i]) for i in colors if A[i]]
    B = {(i, j): [v for v in A[i] if not least[j][v] & amask[j]]
         for i, j in itertools.permutations(colors, 2)}
    for (i, j), Bij in B.items():
        if not Bij:
            return [_tree(j, x, A[j], A[i])] + \
                   [_tree(m, x, A[m]) for m in colors if m not in (i, j)]
    endgame = _complete3_endgame if r == 3 else _complete4_endgame
    return endgame(g, col, x, A, B)


def _complete3_endgame(g, col, x, A, B):
    """Two trees of diameter <= 4 once every B_ij is nonempty."""
    for i, j, k in itertools.permutations((1, 2, 3)):
        extra = [z for z in B[(i, j)] if z not in B[(i, k)]]
        if not extra:
            continue
        z = extra[0]
        t1 = _tree(k, x, A[k], [z])
        for w in B[(j, i)]:
            assert col(w, z) == k, "B_ij x B_ji edges carry the third color"
            t1[1].append(w)
        t2 = _tree(i, x, A[i], [v for v in A[j] if v not in B[(j, i)]])
        return [t1, t2]

    # B_ij = B_ik =: B_i for all i
    Bi = {1: B[(1, 2)], 2: B[(2, 1)], 3: B[(3, 1)]}
    for i in (1, 2, 3):
        j, k = [m for m in (1, 2, 3) if m != i]
        assert set(B[(i, j)]) == set(B[(i, k)])

    unequal = [i for i in (1, 2, 3) if set(A[i]) != set(Bi[i])]
    if unequal:
        i = unequal[0]
        j, k = [m for m in (1, 2, 3) if m != i]
        bj, bk = Bi[j], Bi[k]
        hang = [v for v in A[j] + A[k] if v not in bj and v not in bk]
        t1 = _tree(i, x, A[i], hang)
        assert bj and bk
        for b in bj:
            for w in bk:
                assert col(b, w) == i
        return [t1, (i, bj + bk)]

    # A_i = B_i for all i: [A_2, A_3] is complete in color 1
    return [_tree(1, x, A[1]), (1, A[2] + A[3])]


def _complete4_endgame(g, col, x, A, B):
    """Three pieces of diameter <= 6 once every B_ij is nonempty."""
    # (C1): some triple intersection empty
    for i in (1, 2, 3, 4):
        others = [m for m in (1, 2, 3, 4) if m != i]
        triple = set(B[(i, others[0])]) & set(B[(i, others[1])]) & set(B[(i, others[2])])
        if not triple:
            return [_tree(m, x, A[m], [v for v in A[i] if v not in B[(i, m)]])
                    for m in others]

    # (C2): B_ij minus (B_ik + B_il) nonempty
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        pool = [u for u in B[(i, j)] if u not in B[(i, k)] and u not in B[(i, l)]]
        if not pool:
            continue
        u = pool[0]
        p1 = _tree(i, x, A[i], [v for v in A[j] if v not in B[(j, i)]])
        p2 = _tree(k, x, A[k], [u])
        p3 = _tree(l, x, A[l], [u])
        for w in B[(j, i)]:
            cw = col(w, u)
            assert cw in (k, l), "B_ij x B_ji edges avoid colors i and j"
            (p2 if cw == k else p3)[1].append(w)
        return [p1, p2, p3]

    # (C3): B_ik minus B_ij and B_ki minus B_kl both nonempty
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        pi = [u for u in B[(i, k)] if u not in B[(i, j)]]
        pk = [u for u in B[(k, i)] if u not in B[(k, l)]]
        if not pi or not pk:
            continue
        ui, uk = pi[0], pk[0]
        cuv = col(ui, uk)
        assert cuv in (j, l)
        if cuv == l:
            i, j, k, l = k, l, i, j
            ui, uk = uk, ui
        # now the ui-uk edge has color j
        p1 = _tree(k, x, A[k], [v for v in A[i] if v not in B[(i, k)]])
        # ui hangs on A_j and uk on ui
        p2 = _tree(j, x, A[j], [ui, uk])
        p3 = _tree(l, x, A[l], [uk])
        for w in B[(i, k)]:
            cw = col(w, uk)
            assert cw in (j, l)
            (p2 if cw == j else p3)[1].append(w)
        return [p1, p2, p3]

    # final case: B_ij = B_ik, B_jk+B_jl in B_ji, B_kj+B_kl in B_ki
    chosen = None
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        if set(B[(i, j)]) != set(B[(i, k)]):
            continue
        if not set(B[(j, k)]) | set(B[(j, l)]) <= set(B[(j, i)]):
            continue
        if not set(B[(k, j)]) | set(B[(k, l)]) <= set(B[(k, i)]):
            continue
        if not set(B[(i, l)]) <= set(B[(i, j)]):
            continue
        chosen = (i, j, k, l)
        break
    assert chosen is not None, f"claim structure missing: {g.edges()}"
    i, j, k, l = chosen
    Bij, Bji, Bki = B[(i, j)], B[(j, i)], B[(k, i)]
    h1 = _tree(l, x, A[l], [v for m, bb in ((i, Bij), (j, Bji), (k, Bki))
                            for v in A[m] if v not in bb])
    return [h1] + _zone_cover(g, mask_of(Bij + Bji + Bki), 2)


# ---------------------------------------------------------------------------
# alpha = 2, two colors


def cover_alpha2(g: ColoredMultigraph) -> CoverCertificate:
    """Two monochromatic subgraphs of diameter <= 6 covering a graph whose
    pairs carry colors 1 and 2 only, with independence number exactly 2.

    The cases are exhaustive, so no search ending is needed: by the folklore
    bound each blob (A_x + x, A_y + y) has diameter <= 3 in some color, so
    either a blob's smaller diameter is exactly 3 (case 1) or both blobs have
    a color of diameter <= 2 (case 2, the same color or two different ones),
    and every branch of each case returns its two pieces.
    """
    if g.r < 2:
        raise GraphError(f"cover_alpha2 needs colors 1 and 2, got r={g.r}")
    stray = [(u, v) for u, v, cs in g.edges() if not cs & {1, 2}]
    if stray:
        raise GraphError(f"cover_alpha2 needs colors 1 and 2: pair "
                         f"({stray[0][0]},{stray[0][1]}) carries neither")
    a, wit = alpha(g)
    if a != 2:
        raise GraphError(f"cover_alpha2 needs alpha = 2, got {a}")
    least = _least_colors(g, (1, 2))
    col = _color_reader(least)
    n = g.n
    nb = [m1 | m2 for m1, m2 in zip(least[1], least[2])]
    # lexicographically first independent pair
    x, y = next((u, v) for u in range(n) for v in range(u + 1, n)
                if not nb[u] >> v & 1)
    Ax = vertices_of(nb[x] & ~nb[y])
    Ay = vertices_of(nb[y] & ~nb[x])
    Aij = {(i, j): vertices_of(least[i][x] & least[j][y])
           for i in (1, 2) for j in (1, 2)}

    def blob_diams(side, anchor):
        vs = side + [anchor]
        return {c: diameter(g, vs, c) if len(vs) > 1 else 0 for c in (1, 2)}

    dx = blob_diams(Ax, x)
    dy = blob_diams(Ay, y)
    assert min(dx.values()) <= 3 and min(dy.values()) <= 3, "folklore bound"

    return checked(g, _alpha2_cases(g, col, x, y, Ax, Ay, Aij, dx, dy), 2, 6)


def _alpha2_cases(g, col, x, y, Ax, Ay, Aij, dx, dy):
    # Case 1: some side has diameter exactly 3 in both colors
    for (sx, sy, ax, ay, aij, ddx, ddy) in (
            (x, y, Ax, Ay, Aij, dx, dy),
            (y, x, Ay, Ax, {(i, j): Aij[(j, i)] for i in (1, 2) for j in (1, 2)},
             dy, dx)):
        if min(ddx.values()) == 3:
            # color 1 below means: a color with diameter <= 3 on the other blob
            c1 = 1 if ddy[1] <= 3 else 2
            c2 = 3 - c1
            a11 = aij[(c1, c1)]
            a22 = aij[(c2, c2)]
            a12 = aij[(c1, c2)]
            a21 = aij[(c2, c1)]
            if a11:
                h1 = (c1, [sx] + a11 + a12 + a21 + [sy] + ay)
                h2 = (c2, ax + [sx] + a22)
                return [h1, h2]
            if a22:
                h1 = (c2, ax + [sx] + a11 + a12 + a21 + a22 + [sy])
                h2 = (c1, ay + [sy])
                return [h1, h2]
            h1 = (c1, ax + [sx] + a12)
            h2 = (c1, ay + [sy] + a21)
            return [h1, h2]

    # Case 2: both blobs have a color of diameter <= 2
    cx = 1 if dx[1] <= 2 else 2
    cy = 1 if dy[1] <= 2 else 2
    if cx == cy:
        return _alpha2_case22(g, col, x, y, Ax, Ay, Aij, cx)
    return _alpha2_case21(g, col, x, y, Ax, Ay, Aij, cx, cy)


def _alpha2_case21(g, col, x, y, Ax, Ay, Aij, c1, c2):
    """diam(G_c1 on Ax+x) <= 2 and diam(G_c2 on Ay+y) <= 2, c1 != c2."""
    a11 = Aij[(c1, c1)]
    a22 = Aij[(c2, c2)]
    a12 = Aij[(c1, c2)]
    a21 = Aij[(c2, c1)]
    if a11:
        h1 = (c1, Ax + [x, y] + a11 + a12 + a21)
        h2 = (c2, Ay + [y] + a22)
        return [h1, h2]
    if a22:
        # mirror of the a11 branch under (x<->y, c1<->c2)
        h1 = (c2, Ay + [y, x] + a22 + a21 + a12)
        h2 = (c1, Ax + [x] + a11)
        return [h1, h2]
    # a11 = a22 = empty
    if not a21:
        h1 = (c1, Ax + [x] + a12)
        h2 = (c2, Ay + [y])
        return [h1, h2]
    edge1 = next(((a, b) for a in Ax for b in a21 if col(a, b) == c1), None)
    if edge1 is not None:
        h1 = (c1, [x, y] + Ax + a21)
        h2 = (c2, [y] + a12 + Ay)
        return [h1, h2]
    edge2 = next(((a, b) for a in Ay for b in a21 if col(a, b) == c2), None)
    if edge2 is not None:
        h1 = (c2, [y, x] + Ay + a21)
        h2 = (c1, [x] + a12 + Ax)
        return [h1, h2]
    # every Ax,a21-edge is c2; every Ay,a21-edge is c1 (missing pairs allowed)
    z1 = [v for v in Ax if not any(g.colors_of(v, b) for b in a21)]
    z2 = [v for v in Ay if not any(g.colors_of(v, b) for b in a21)]
    if not z1:
        h1 = (c2, [x] + Ax + a21)
        h2 = (c2, [y] + Ay + a12)
        return [h1, h2]
    if not z2:
        h1 = (c1, [y] + Ay + a21)
        h2 = (c1, [x] + Ax + a12)
        return [h1, h2]
    dz = {c: diameter(g, z1 + z2, c) if len(z1 + z2) > 1 else 0 for c in (1, 2)}
    assert min(dz.values()) <= 3, "Z1 x Z2 is complete so folklore applies"
    if dz[c1] <= 3:
        h1 = (c1, [x] + Ax + a12 + z2)
        h2 = (c1, [y] + a21 + [v for v in Ay if v not in z2])
        return [h1, h2]
    h1 = (c2, [y] + Ay + a12 + z1)
    h2 = (c2, [x] + a21 + [v for v in Ax if v not in z1])
    return [h1, h2]


def _alpha2_case22(g, col, x, y, Ax, Ay, Aij, c1):
    """Both blobs have diameter <= 2 in the same color c1."""
    c2 = 3 - c1
    a11 = Aij[(c1, c1)]
    a22 = Aij[(c2, c2)]
    a12 = Aij[(c1, c2)]
    a21 = Aij[(c2, c1)]
    if a11:
        h1 = (c1, [x, y] + Ax + Ay + a11 + a12 + a21)
        h2 = (c2, [x] + a22)
        return [h1, h2]
    if not a22:
        h1 = (c1, [x] + Ax + a12)
        h2 = (c1, [y] + Ay + a21)
        return [h1, h2]
    # a11 empty, a22 nonempty
    bad = [w for w in a22
           if not any(col(w, u) == c1 for u in Ax + Ay if g.colors_of(w, u))]
    if not bad:
        u1 = [w for w in a22 if any(col(w, u) == c1 for u in Ax if g.colors_of(w, u))]
        u2 = [w for w in a22 if w not in u1]
        h1 = (c1, [x] + Ax + a12 + u1)
        h2 = (c1, [y] + Ay + a21 + u2)
        return [h1, h2]
    w = bad[0]
    Z = [v for v in Ax + Ay if not g.colors_of(w, v)]
    pieces = []
    if Z:
        dz = {c: diameter(g, Z, c) if len(Z) > 1 else 0 for c in (1, 2)}
        assert min(dz.values()) <= 3, "G[Z] is complete"
        cz = c1 if dz[c1] <= 3 else c2
        pieces.append((cz, Z))
    n2w = [v for v in Ax + Ay if g.colors_of(w, v) and col(w, v) == c2]
    pieces.append((c2, [x, y] + a12 + a21 + a22 + n2w))
    return pieces


# ---------------------------------------------------------------------------
# complete bipartite graphs, three colors


def cover_bipartite3(g: ColoredMultigraph, X, Y) -> CoverCertificate:
    """At most four monochromatic subgraphs of diameter <= 6 covering a
    complete bipartite graph with sides X and Y whose pairs each carry a
    color in 1..3."""
    X = sorted(X)
    Y = sorted(Y)
    if not X or not Y:
        raise GraphError("cover_bipartite3 needs two nonempty sides")
    adj = _bipartite_colors(g, X, Y, (1, 2, 3))
    xm, ym = mask_of(X), mask_of(Y)

    # all two-sided components as (color, mask): per color, by lowest X vertex
    comps = []
    for c in (1, 2, 3):
        two_sided = [m for m in component_masks(adj[c], xm | ym) if m & xm and m & ym]
        comps += [(c, m) for m in sorted(two_sided, key=lambda m: lowest_vertex(m & xm))]

    other = {1: (2, 3), 2: (1, 3), 3: (1, 2)}

    def sub_bip_cover(a, b, colors):
        """<= 2 tree pieces of diameter <= 4 covering the 2-colored [a, b]."""
        return _classify2(g, vertices_of(a), vertices_of(b), *colors).tree_pieces

    # Step 1: a component missing part of both sides (it meets both)
    for c, comp in comps:
        if xm & ~comp and ym & ~comp:
            return checked(g, sub_bip_cover(xm & ~comp, ym & comp, other[c])
                           + sub_bip_cover(ym & ~comp, xm & comp, other[c]), 4, 6)

    # Step 2: every two-sided component contains a full side; pick one with
    # small diameter if possible
    side_comps = [(c, comp) for c, comp in comps
                  if comp & xm == xm or comp & ym == ym]
    assert side_comps, "a component of any edge contains a side here"
    for c, comp in side_comps:
        # comp is connected in g's color c, as it is in adj[c]
        if _connected_diameter(g.adjacency(c), comp, 5) <= 5:
            pieces = [(c, vertices_of(comp))]
            if xm & ~comp:
                pieces += sub_bip_cover(xm & ~comp, ym & comp, other[c])
            if ym & ~comp:
                pieces += sub_bip_cover(ym & ~comp, xm & comp, other[c])
            return checked(g, pieces, 4, 6)

    got = _bip3_layered(g, xm, ym, side_comps[0], other, adj)
    if got is None:
        got = _zone_cover(g, xm | ym, 4)
    return checked(g, got, 4, 6)


def _bip3_layered(g, xm, ym, side_comp, other, adj):
    """The distance-layer decomposition for a wide side-containing component
    (color, mask) of the complete bipartite graph on the vertex masks xm and
    ym; adj is the least-color table of its pairs.  None where the caller's
    zone cover ends the proof."""
    c3, comp = side_comp
    if comp & ym != ym:
        xm, ym = ym, xm  # make Y the contained side
    ca, cb = other[c3]

    # the deepest layering inside the component from an X-side vertex
    dist = max((layers(adj[c3], v, comp) for v in vertices_of(comp & xm)),
               key=len, default=())
    d = len(dist) - 1
    if d < 5:
        return None
    by_dist = [vertices_of(m) for m in dist]
    X1 = by_dist[0] + by_dist[2]
    X2 = vertices_of(xm & ~comp) + \
        [u for i in range(4, d + 1, 2) for u in by_dist[i]]
    Y2 = by_dist[1]
    Y0 = by_dist[3]
    Y1 = [u for i in range(5, d + 1, 2) for u in by_dist[i]]
    if not Y1 or not X2:
        return None
    far_x2 = [v for v in X2 if not dist[4] >> v & 1]

    r1 = _classify2(g, X1, Y1, ca, cb)
    r2 = _classify2(g, X2, Y2, ca, cb)
    cstar = (c3, vertices_of(dist[0] | dist[1] | dist[2] | dist[3]))

    # (a) one of the sub-bipartite graphs has a spanning piece of diameter <= 6
    for rr, oo in ((r1, r2), (r2, r1)):
        if rr.single_piece is not None:
            return [rr.single_piece] + oo.tree_pieces + [cstar]

    # (b) P1 with the X side double covered: specials live in Y_i
    for rr, Ai, Bi, oo in ((r1, X1, Y1, r2), (r2, X2, Y2, r1)):
        if rr.cls.tag != "P1":
            continue
        dc, va, vb = rr.cls.data
        if va in set(Bi):  # specials on the Y side cover X_i
            xf = by_dist[0] if Ai is X1 else far_x2
            if not xf:
                continue
            # vertices reached in each color through va/vb/xf[0]
            ha_verts = [va] + list(Ai)
            hb_verts = [vb] + list(Ai)
            for y in Bi:
                if y not in (va, vb):
                    (ha_verts if adj[ca][y] >> Ai[0] & 1 else hb_verts).append(y)
            for w in Y0:
                (ha_verts if adj[ca][w] >> xf[0] & 1 else hb_verts).append(w)
            return [(ca, ha_verts), (cb, hb_verts)] + oo.tree_pieces
    # (c) [X1, Y1] is P1 with Y1 double covered: specials in X1
    if r1.cls.tag == "P1":
        dc, va, vb = r1.cls.data
        if va in set(X1):
            h1 = (ca, [va] + list(Y1))
            return [h1, cstar] + r2.tree_pieces

    # (d)/(e): [X1, Y1] is P2 or another P1 orientation
    return None


# ---------------------------------------------------------------------------
# complete multipartite graphs


def cover_multipartite(g: ColoredMultigraph, parts, r: int) -> CoverCertificate:
    """tc-style covers of complete multipartite graphs: <= 2 components for
    two colors, <= 3 components for three colors on three parts."""
    parts = [sorted(p) for p in parts]
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(g.n)):
        raise GraphError("parts must partition the vertex set")
    if r not in (2, 3):
        raise GraphError("cover_multipartite supports r in {2, 3}")
    if r == 3 and len(parts) != 3:
        raise GraphError("the three-color bound needs exactly three parts")
    if not g.n:
        return checked(g, [], r)
    # a spanning color is a one-piece cover
    full = (1 << g.n) - 1
    for c in range(1, g.r + 1):
        if reach(g.adjacency(c), 0) == full:
            return checked(g, [(c, vertices_of(full))], r)
    return _multipartite2(g, parts) if r == 2 else _multipartite3(g, parts)


def _multipartite2(g, parts):
    V1 = parts[0]
    R = sorted(v for p in parts[1:] for v in p)
    res = _classify2(g, V1, R, 1, 2)
    if res.cls.tag == "P1":
        _, va, vb = res.cls.data
        roots = [(1, va), (2, vb)]
    elif res.cls.tag == "P2":
        X1, X2, Y1, Y2 = res.cls.data
        roots = [(1, X1[0]), (1, X2[0])]
    else:
        roots = [(res.cls.data[0], V1[0])]
    # the global components through the roots
    return checked(g, _vertex_pieces((c, reach(g.adjacency(c), v)) for c, v in roots), 2)


def _multipartite3(g, parts):
    full = (1 << g.n) - 1
    # a component covering a full part leaves a 2-colored bipartite rest; the
    # caller has ruled out a spanning one
    part_masks = [(part, mask_of(part)) for part in parts]
    for c in (1, 2, 3):
        for comp in component_masks(g.adjacency(c), full):
            for part, pm in part_masks:
                if pm & ~comp:
                    continue
                oc = [cc for cc in (1, 2, 3) if cc != c]
                res = _classify2(g, vertices_of(full & ~comp), part, *oc)
                extra = [(pc, reach(g.adjacency(pc), pvs[0]))
                         for pc, pvs in res.tree_pieces]
                return checked(g, _vertex_pieces([(c, comp)] + extra), 3)
    # general case: the proof guarantees a 3-component cover exists, and
    # tc_exact's certificate is already verified
    size, cert = tc_exact(g)
    if size > 3:
        raise AssertionError(f"three-part cover missing: graph={g!r} "
                             f"edges={g.edges()}")
    return cert


# ---------------------------------------------------------------------------
# restricted covers (two-sided color classes)


def restricted_cover(g: ColoredMultigraph, r: int, S) -> CoverCertificate:
    """An (r-1)-cover of a closed complete r-colored graph whose pieces are all
    colored inside S or all inside its complement (|S| = 2, r in {3,4,5})."""
    if r not in (3, 4, 5):
        raise GraphError("restricted_cover supports r in {3, 4, 5}")
    S = sorted(S)
    if len(S) != 2 or S[0] == S[1] or any(not 1 <= c <= r for c in S):
        raise GraphError("S must be two distinct colors in 1..r")
    if not g.is_complete():
        raise GraphError("restricted_cover needs a complete graph")
    aS, witness = alpha(g.subgraph_colors(S))
    if aS <= r - 1:
        # A minimum cover by S-colored components has König's size: it equals
        # a maximum set of vertices in pairwise different components of each
        # color of S, and such vertices are independent in the S-colored graph.
        size, cert = tc_exact(g, allowed_colors=S)
        if size > r - 1:
            raise AssertionError(f"no {r - 1}-cover in the colors {S}: "
                                 f"graph={g!r} edges={g.edges()}")
        return cert
    X = sorted(witness)[:r]
    P = [c for c in range(1, r + 1) if c not in S]
    if r == 3:
        comp = reach(g.adjacency(P[0]), X[0])
        assert comp == (1 << g.n) - 1, "a single component must cover"
        return checked(g, [(P[0], vertices_of(comp))], r - 1, None, allowed_colors=P)
    if r == 4:
        return _restricted4(g, X, P)
    return _restricted5(g, X, P)


def _on_x_comps(g, c, xm):
    """Global components (masks) of color c meeting the vertex mask xm, by
    decreasing X-count; one color's components are disjoint, so ties go to
    the lowest vertex."""
    adj = g.adjacency(c)
    comps = dict.fromkeys(reach(adj, v) for v in vertices_of(xm))
    return sorted(comps, key=lambda m: (-(m & xm).bit_count(), lowest_vertex(m)))


def _restricted4(g, X, P):
    xm = mask_of(X)
    # a spanning color on X: c1 connected on X, else c2
    for span, oc in (P, P[::-1]):
        comp = reach(g.adjacency(span), X[0])
        if comp & xm == xm:
            break
    else:
        raise AssertionError("one of two colors always spans a K_4")
    greedy = [m for m in _on_x_comps(g, oc, xm) if (m & xm).bit_count() >= 2]
    pieces = [(span, comp)] + [(oc, m) for m in greedy[:2]]
    return checked(g, _vertex_pieces(pieces), 3, None, allowed_colors=P)


def _restricted5(g, X, P):
    xm = mask_of(X)
    comps_by_color = {c: _on_x_comps(g, c, xm) for c in P}
    tX = {c: [(m & xm).bit_count() for m in comps_by_color[c]] for c in P}

    def pieces_for(cond, roles):
        i, j, k = roles
        if cond == 1:
            ps = [(i, comp) for comp in comps_by_color[i]]
            ps += [(j, comp) for comp in comps_by_color[j]]
            ps += [(k, comp) for comp, sz in zip(comps_by_color[k], tX[k]) if sz >= 3]
        else:
            ps = [(i, comp) for comp in comps_by_color[i]]
            ps += [(j, comp) for comp, sz in zip(comps_by_color[j], tX[j]) if sz >= 2]
            ps += [(k, comp) for comp, sz in zip(comps_by_color[k], tX[k]) if sz >= 2]
        return _vertex_pieces(ps)

    for i, j, k in itertools.permutations(P):
        if len(tX[i]) + len(tX[j]) + sum(1 for s in tX[k] if s >= 3) <= 4:
            ps = pieces_for(1, (i, j, k))
            return checked(g, ps, 4, None, allowed_colors=P)
        if len(tX[i]) + sum(1 for s in tX[j] if s >= 2) + \
                sum(1 for s in tX[k] if s >= 2) <= 4:
            ps = pieces_for(2, (i, j, k))
            return checked(g, ps, 4, None, allowed_colors=P)

    shapes = sorted((tuple(sorted(t, reverse=True)) for t in tX.values()),
                    reverse=True)
    assert shapes in ([(3, 2), (3, 2), (3, 2)], [(4, 1), (3, 2), (3, 2)]), \
        f"residual signature expected, got {shapes}"

    candidates = []
    if shapes == [(3, 2), (3, 2), (3, 2)]:
        for A, Bc, Cc in itertools.permutations(P):
            A1, A2 = comps_by_color[A][0], comps_by_color[A][1]
            B1, B2 = comps_by_color[Bc][0], comps_by_color[Bc][1]
            C1, C2 = comps_by_color[Cc][0], comps_by_color[Cc][1]
            candidates.append([(Bc, B1), (Bc, B2), (Cc, C1), (Cc, C2)])
            candidates.append([(A, A1), (A, A2), (Bc, B1), (Cc, C1)])
    else:
        A = next(c for c in P if tuple(sorted(tX[c], reverse=True)) == (4, 1))
        rest = [c for c in P if c != A]
        A1, A2 = comps_by_color[A][0], comps_by_color[A][1]
        for Bc, Cc in itertools.permutations(rest):
            B1, B2 = comps_by_color[Bc][0], comps_by_color[Bc][1]
            C1, C2 = comps_by_color[Cc][0], comps_by_color[Cc][1]
            candidates.append([(A, A1), (A, A2), (Bc, B1), (Bc, B2)])
            candidates.append([(A, A1), (A, A2), (Cc, C1), (Cc, C2)])
        # the deep branch: u, v outside both candidate covers join in color A
        out1, out2 = (1 << g.n) - 1, (1 << g.n) - 1
        for (_, m1), (_, m2) in zip(candidates[0], candidates[1]):
            out1 &= ~m1
            out2 &= ~m2
        if out1 and out2:
            u, v = lowest_vertex(out1), lowest_vertex(out2)
            if A in g.colors_of(u, v):
                A3 = reach(g.adjacency(A), u)
                for Bc in rest:
                    B1 = comps_by_color[Bc][0]
                    candidates.append([(A, A1), (A, A2), (A, A3), (Bc, B1)])

    for cand in candidates:
        cert = make_certificate(_vertex_pieces(cand), max_size=4,
                                allowed_colors=frozenset(P))
        if verify(g, cert).ok:
            return cert
    raise AssertionError(f"no residual-case cover verified: {g.edges()}")


# ---------------------------------------------------------------------------
# the 3-coloring classification of complete graphs


@dataclass(frozen=True)
class ThreeColorClass:
    """tag TypeI: data = (color, spanning vertex set);
    tag TypeII: data = (colors (blue, red, green), (W, X, Y, Z));
    tag TypeIII: same data layout, W possibly empty."""

    tag: str
    data: tuple


def classify3(g: ColoredMultigraph) -> ThreeColorClass:
    """The spanning/blow-up/broom trichotomy for <= 3-colored complete graphs."""
    if g.n == 0:
        raise GraphError("classify3 needs at least one vertex")
    if not g.is_complete():
        raise GraphError("classify3 needs a complete graph")
    if g.r > 3:
        raise GraphError("classify3 needs at most three colors")
    n = g.n
    if n == 1:
        return ThreeColorClass("TypeI", (1, (0,)))
    adj = _least_colors(g, (1, 2, 3))

    # maximal monochromatic component: largest, ties to lowest color/vertex
    best = None
    for c in (1, 2, 3):
        for m in component_masks(adj[c], (1 << n) - 1):
            red_comp = tuple(vertices_of(m))
            key = (-len(red_comp), c, red_comp)
            if best is None or key < best:
                best = key
    blue = best[1]
    B = set(best[2])
    if len(B) == n:
        return ThreeColorClass("TypeI", (blue, tuple(sorted(B))))
    U = [v for v in range(n) if v not in B]
    # component of the lowest B-U edge
    eb, eu = min((b, u) for b in sorted(B) for u in U)
    red = _color_reader(adj)(eb, eu)
    R = set(vertices_of(reach(adj[red], eb)))
    assert red != blue
    green = next(c for c in (1, 2, 3) if c not in (blue, red))
    Bs, Us = B, set(U)
    W = sorted(Bs & R)
    if Us - R:
        Xp = sorted(Bs - R)
        Yp = sorted(Us & R)
        Zp = sorted(Us - R)
        return ThreeColorClass("TypeII", ((blue, red, green),
                                          (tuple(W), tuple(Xp), tuple(Yp), tuple(Zp))))
    # U inside R: the green component swallows U and B-R
    gverts = sorted(Bs - R) + sorted(Us)
    G = set(vertices_of(reach(adj[green], gverts[0])))
    Wc = sorted(Bs & R & G)
    Xp = sorted(Bs - G)
    Yp = sorted(Bs - R)
    Zp = sorted(Us)
    return ThreeColorClass("TypeIII", ((blue, red, green),
                                       (tuple(Wc), tuple(Xp), tuple(Yp), tuple(Zp))))
