"""Executable versions of the constructive cover proofs.

Every routine turns a proof into a deterministic algorithm: each "without loss
of generality" choice becomes "lowest index satisfying the case condition",
and every returned certificate is re-verified before being handed back.  Where
a proof's endgame is a case analysis over a handful of named covers, the
implementation generates the candidates and returns the first that verifies
(an exhausted candidate list is an internal failure and raises with the
witness coloring).  A proof whose last case is an exact search runs it on the
budget it is given.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (ColoredMultigraph, CoverCertificate, GraphError,
                   _connected_diameter, _induced_diameter, alpha, checked, closed_graph,
                   component_masks, layers, lowest_vertex, mask_of, max_independent, reach,
                   vertices_of)
from .exact import min_cover, tc_exact


# ---------------------------------------------------------------------------
# small helpers
#
# A proof holds every vertex set as a mask, and its pieces as (color, mask)
# pairs, which core.checked turns into the certificate.


def _least_colors(g: ColoredMultigraph, colors) -> tuple:
    """The reduced coloring, in which each pair keeps its first color in the
    given order, and the union of the rows it read.

    The first is, per color, the mask adjacency of the pairs it keeps (a
    color above g.r has empty rows).  A pair keeps one color, so the rows of
    two colors are disjoint, and pair uv keeps c exactly when bit v of row u
    of c is set.  The second is, per vertex, the mask of the vertices it is
    joined to in some of the colors."""
    out, union = {}, None
    for c in colors:
        row = g.adjacency(c) if c <= g.r else (0,) * g.n
        if union is None:
            out[c] = union = row
        else:
            out[c] = [m & ~s for m, s in zip(row, union)]
            union = [m | s for m, s in zip(row, union)]
    return out, (0,) * g.n if union is None else union


def _around(adj, mask: int) -> int:
    """The vertices joined in the mask adjacency adj to some vertex of mask."""
    out = 0
    for v in vertices_of(mask):
        out |= adj[v]
    return out


def _side_masks(g: ColoredMultigraph, X, Y, who: str):
    """The masks of the sides X and Y that a caller gives a bipartite proof:
    nonempty, disjoint sets of vertices of g that hold every vertex."""
    X, Y = sorted(X), sorted(Y)
    if not X or not Y:
        raise GraphError(f"{who} needs two nonempty sides")
    for v in (*X, *Y):
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} is outside 0..{g.n - 1}")
    xm, ym = mask_of(X), mask_of(Y)
    if xm & ym:
        raise GraphError(f"vertex {lowest_vertex(xm & ym)} is on both sides")
    rest = (1 << g.n) - 1 & ~(xm | ym)
    if rest:
        raise GraphError(f"vertex {lowest_vertex(rest)} is on neither side")
    return xm, ym


def _bipartite_colors(g: ColoredMultigraph, xm: int, ym: int, colors) -> dict:
    """The least-color table of the pairs between the disjoint vertex masks
    xm and ym alone; every such pair must carry one of the colors."""
    least, union = _least_colors(g, colors)
    for x in vertices_of(xm):
        missing = ym & ~union[x]
        if missing:
            names = ", ".join(map(str, colors))
            raise GraphError(f"pair ({x},{lowest_vertex(missing)}) carries none "
                             f"of the colors {names}")
    # per vertex, the other side
    side = [xm if ym >> v & 1 else ym if xm >> v & 1 else 0 for v in range(g.n)]
    return {c: [m & s for m, s in zip(rows, side)] for c, rows in least.items()}


def _zone_cover(g, zone: int, max_pieces, budget):
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
            cands.setdefault((c, m & zone), (m, (c, m)))

    for c in range(1, g.r + 1):
        adj = g.adjacency(c)
        for m in component_masks(adj, (1 << g.n) - 1):
            if m & (m - 1) and m & zone and _connected_diameter(adj, m, 6) <= 6:
                add(c, m)
        for v in vertices_of(zone):
            # the layers are disjoint, so their sum is their union
            add(c, sum(layers(adj, v, radius=3)))
    size, pieces = min_cover(zone, list(cands.values()), budget)
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
    tree_pieces: list      # <= 2 (color, mask), each of radius <= 2 in its color
    single_piece: tuple | None  # one spanning (color, mask) of diameter <= 6, P3 only


def _classify2(g: ColoredMultigraph, xm: int, ym: int, ca: int, cb: int) -> _Bip2:
    """Classify the (ca,cb)-coloring of the complete bipartite graph between
    the disjoint vertex masks xm and ym.

    Every X-Y pair must carry ca or cb; a pair that carries both counts as
    ca.  Precedence P1 > P2 > P3.
    """
    if not xm or not ym:
        raise GraphError("classify2 needs two nonempty sides")
    adj = _bipartite_colors(g, xm, ym, (ca, cb))
    full = xm | ym
    # every X-Y pair keeps one color, so a vertex is one-colored in c exactly
    # when it keeps no pair in the other color
    only = {c: mask_of(v for v in vertices_of(full) if not adj[oc][v])
            for c, oc in ((ca, cb), (cb, ca))}

    # P1: two one-colored vertices on a common side
    for side, other, dc_side in ((xm, ym, "Y"), (ym, xm, "X")):
        if side & only[ca] and side & only[cb]:
            va, vb = lowest_vertex(side & only[ca]), lowest_vertex(side & only[cb])
            # cover: the color-ca star from va with the ca-neighbors of the
            # lowest vertex of the covered side hung on it, and that vertex's
            # cb star
            anchor = lowest_vertex(other)
            t1 = (ca, 1 << va | other | adj[ca][anchor])
            t2 = (cb, 1 << anchor | adj[cb][anchor])
            return _Bip2(BipartiteClass("P1", (dc_side, va, vb)), [t1, t2], None)

    # a single one-colored vertex forces its color to span (P3)
    for c in (ca, cb):
        if only[c]:
            # it joins its whole other side in c: radius <= 2 about it
            return _Bip2(BipartiteClass("P3", (c,)), [(c, full)], (c, full))

    x0 = lowest_vertex(xm)
    conn = {c: reach(adj[c], x0) == full for c in (ca, cb)}

    if not conn[ca] and not conn[cb]:
        # P2: both classes disconnected; the cb-component of X's lowest vertex
        # holds X1 and Y2, and [X1,Y1], [X2,Y2] are the color-ca blocks
        C = reach(adj[cb], x0)
        X1, X2, Y1, Y2 = xm & C, xm & ~C, ym & ~C, ym & C
        assert all(adj[ca][x] & Y1 == Y1 for x in vertices_of(X1))
        cls = BipartiteClass("P2", tuple(tuple(vertices_of(m)) for m in (X1, X2, Y1, Y2)))
        return _Bip2(cls, [(ca, X1 | Y1), (ca, X2 | Y2)], None)

    c = ca if conn[ca] else cb
    oc = cb if c == ca else ca
    # eccentricities in the connected class
    eccs = {v: len(layers(adj[c], v)) - 1 for v in vertices_of(full)}
    d = max(eccs.values())
    v0 = min(v for v in eccs if eccs[v] == d)
    dist = layers(adj[c], v0)

    # the color-c ball of radius 2 about v0
    t1 = (c, dist[0] | dist[1] | dist[2])
    if d <= 2:
        return _Bip2(BipartiteClass("P3", (c,)), [t1], (c, full))

    if d == 3:
        trees = [t1, (oc, dist[0] | dist[3])]
    elif d == 4:
        # two radius-2 pieces in the other color, about v0 and the lowest
        # vertex of layer 4: a middle vertex hangs on layer 3 if it sees it in
        # the other color, else on layer 1
        near3 = dist[2] & _around(adj[oc], dist[3])
        assert not dist[2] & ~near3 & ~_around(adj[oc], dist[1]), \
            "every middle vertex sees the other color"
        trees = [(oc, dist[0] | dist[3] | near3),
                 (oc, dist[1] | dist[4] | dist[2] & ~near3)]
    else:
        # d >= 5: two double stars in the other color, one on v0 and the
        # lowest vertex of layer 5, joining the layers other than 1, 4 and 6,
        # and one on the lowest vertices of layers 1 and 4, joining those
        t2 = dist[1] | dist[4] | (dist[6] if d >= 6 else 0)
        trees = [(oc, full & ~t2), (oc, t2)]

    # past 6 the other class spans with radius <= 3 (anchored in layer 3)
    span = c if d <= 6 else oc
    return _Bip2(BipartiteClass("P3", (span,)), trees, (span, full))


def classify_bipartite2(g: ColoredMultigraph, X, Y):
    """Public classification of a 2-colored complete bipartite graph.

    Returns (BipartiteClass, CoverCertificate of <= 2 pieces of radius <= 2,
    so each holds a spanning tree of diameter <= 4).
    """
    res = _classify2(g, *_side_masks(g, X, Y, "classify2"), 1, 2)
    cert = checked(g, res.tree_pieces, 2, 4, max_radius=2)
    return res.cls, cert


# ---------------------------------------------------------------------------
# complete graphs, r = 2, 3, 4


def cover_complete(g: ColoredMultigraph, r: int, budget=None) -> CoverCertificate:
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
    least, union = _least_colors(g, range(1, r + 1))
    full = (1 << g.n) - 1
    if any(m | 1 << u != full for u, m in enumerate(union)):
        raise GraphError(f"cover_complete needs every pair to carry a color in 1..{r}")
    if g.n and not g.r:
        # a piece has a color of g, even where it is one vertex
        raise GraphError("cover_complete needs a color to cover vertex 0, got r=0")
    if r == 4:
        return checked(g, _complete_pieces(g, r, least, budget), 3, 6)
    return checked(g, _complete_pieces(g, r, least, budget), r - 1, 4, max_radius=2)


def _complete_pieces(g, r, least, budget):
    """The pieces of cover_complete, given the least-color table of the
    colors 1..r."""
    n = g.n
    if n <= 1:
        return [(1, 1)] if n else []
    x = 1  # the mask of the vertex x = 0
    colors = range(1, r + 1)
    A = {i: least[i][0] for i in colors}
    if not all(A.values()):
        return [(i, x | A[i]) for i in colors if A[i]]
    # the vertices that send color j to A_j
    N = {j: _around(least[j], A[j]) for j in colors}
    B = {(i, j): A[i] & ~N[j] for i, j in itertools.permutations(colors, 2)}
    for (i, j), Bij in B.items():
        if not Bij:
            return [(j, x | A[j] | A[i])] + \
                   [(m, x | A[m]) for m in colors if m not in (i, j)]
    endgame = _complete3_endgame if r == 3 else _complete4_endgame
    return endgame(g, least, A, B, budget)


def _complete3_endgame(g, least, A, B, budget):
    """Two trees of diameter <= 4 once every B_ij is nonempty."""
    x = 1
    for i, j, k in itertools.permutations((1, 2, 3)):
        extra = B[(i, j)] & ~B[(i, k)]
        if not extra:
            continue
        z = lowest_vertex(extra)
        Bji = B[(j, i)]
        assert not Bji & ~least[k][z], "B_ij x B_ji edges carry the third color"
        return [(k, x | A[k] | 1 << z | Bji), (i, x | A[i] | A[j] & ~Bji)]

    # B_ij = B_ik =: B_i for all i
    assert B[(1, 2)] == B[(1, 3)] and B[(2, 1)] == B[(2, 3)] and B[(3, 1)] == B[(3, 2)]
    Bi = {1: B[(1, 2)], 2: B[(2, 1)], 3: B[(3, 1)]}
    unequal = [i for i in (1, 2, 3) if A[i] != Bi[i]]
    if unequal:
        i = unequal[0]
        j, k = [m for m in (1, 2, 3) if m != i]
        bj, bk = Bi[j], Bi[k]
        assert bj and bk
        assert all(least[i][b] & bk == bk for b in vertices_of(bj))
        return [(i, x | A[i] | (A[j] | A[k]) & ~(bj | bk)), (i, bj | bk)]

    # A_i = B_i for all i: [A_2, A_3] is complete in color 1
    return [(1, x | A[1]), (1, A[2] | A[3])]


def _complete4_endgame(g, least, A, B, budget):
    """Three pieces of diameter <= 6 once every B_ij is nonempty."""
    x = 1
    # (C1): some triple intersection empty
    for i in (1, 2, 3, 4):
        others = [m for m in (1, 2, 3, 4) if m != i]
        if not B[(i, others[0])] & B[(i, others[1])] & B[(i, others[2])]:
            return [(m, x | A[m] | A[i] & ~B[(i, m)]) for m in others]

    # (C2): B_ij minus (B_ik + B_il) nonempty
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        pool = B[(i, j)] & ~B[(i, k)] & ~B[(i, l)]
        if not pool:
            continue
        u = lowest_vertex(pool)
        Bji = B[(j, i)]
        assert not Bji & ~(least[k][u] | least[l][u]), \
            "B_ij x B_ji edges avoid colors i and j"
        # B_ji hangs on u in the color of its edge to u
        return [(i, x | A[i] | A[j] & ~Bji),
                (k, x | A[k] | 1 << u | Bji & least[k][u]),
                (l, x | A[l] | 1 << u | Bji & ~least[k][u])]

    # (C3): B_ik minus B_ij and B_ki minus B_kl both nonempty
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        pi = B[(i, k)] & ~B[(i, j)]
        pk = B[(k, i)] & ~B[(k, l)]
        if not pi or not pk:
            continue
        ui, uk = lowest_vertex(pi), lowest_vertex(pk)
        assert (least[j][ui] | least[l][ui]) >> uk & 1
        if least[l][ui] >> uk & 1:
            i, j, k, l = k, l, i, j
            ui, uk = uk, ui
        # now the ui-uk edge has color j: ui hangs on A_j and uk on ui, and
        # B_ik hangs on uk in the color of its edge to uk
        Bik = B[(i, k)]
        assert not Bik & ~(least[j][uk] | least[l][uk])
        return [(k, x | A[k] | A[i] & ~Bik),
                (j, x | A[j] | 1 << ui | 1 << uk | Bik & least[j][uk]),
                (l, x | A[l] | 1 << uk | Bik & ~least[j][uk])]

    # final case: B_ij = B_ik, B_jk+B_jl in B_ji, B_kj+B_kl in B_ki
    for i, j, k, l in itertools.permutations((1, 2, 3, 4)):
        if (B[(i, j)] == B[(i, k)] and not (B[(j, k)] | B[(j, l)]) & ~B[(j, i)]
                and not (B[(k, j)] | B[(k, l)]) & ~B[(k, i)]
                and not B[(i, l)] & ~B[(i, j)]):
            break
    else:
        raise AssertionError(f"claim structure missing: {g.edges()}")
    Bij, Bji, Bki = B[(i, j)], B[(j, i)], B[(k, i)]
    h1 = (l, x | A[l] | A[i] & ~Bij | A[j] & ~Bji | A[k] & ~Bki)
    return [h1] + _zone_cover(g, Bij | Bji | Bki, 2, budget)


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
    least, nb = _least_colors(g, (1, 2))
    # a pair that carries only colors above 2: every such pair at the lowest
    # vertex that has one leads up, so the lowest of them is first in edges()
    above = _least_colors(g, range(3, g.r + 1))[1]
    stray = next(((u, m & ~s) for u, (m, s) in enumerate(zip(above, nb)) if m & ~s), None)
    if stray:
        raise GraphError(f"cover_alpha2 needs colors 1 and 2: pair "
                         f"({stray[0]},{lowest_vertex(stray[1])}) carries neither")
    a = max_independent(nb).bit_count()  # no stray pair left, so nb is g's rows
    if a != 2:
        raise GraphError(f"cover_alpha2 needs alpha = 2, got {a}")
    n = g.n
    # lexicographically first independent pair
    x, y = next((u, v) for u in range(n) for v in range(u + 1, n)
                if not nb[u] >> v & 1)
    Ax = nb[x] & ~nb[y]
    Ay = nb[y] & ~nb[x]
    Aij = {(i, j): least[i][x] & least[j][y] for i in (1, 2) for j in (1, 2)}
    dx = {c: _induced_diameter(g.adjacency(c), Ax | 1 << x) for c in (1, 2)}
    dy = {c: _induced_diameter(g.adjacency(c), Ay | 1 << y) for c in (1, 2)}
    assert min(dx.values()) <= 3 and min(dy.values()) <= 3, "folklore bound"

    return checked(g, _alpha2_cases(g, least, 1 << x, 1 << y, Ax, Ay, Aij, dx, dy), 2, 6)


def _alpha2_cases(g, least, x, y, Ax, Ay, Aij, dx, dy):
    """The two pieces; here and below x and y are the masks of the vertices
    x and y."""
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
                return [(c1, sx | a11 | a12 | a21 | sy | ay), (c2, ax | sx | a22)]
            if a22:
                return [(c2, ax | sx | a11 | a12 | a21 | a22 | sy), (c1, ay | sy)]
            return [(c1, ax | sx | a12), (c1, ay | sy | a21)]

    # Case 2: both blobs have a color of diameter <= 2
    cx = 1 if dx[1] <= 2 else 2
    cy = 1 if dy[1] <= 2 else 2
    if cx == cy:
        return _alpha2_case22(g, least, x, y, Ax, Ay, Aij, cx)
    return _alpha2_case21(g, least, x, y, Ax, Ay, Aij, cx, cy)


def _alpha2_case21(g, least, x, y, Ax, Ay, Aij, c1, c2):
    """diam(G_c1 on Ax+x) <= 2 and diam(G_c2 on Ay+y) <= 2, c1 != c2."""
    a11 = Aij[(c1, c1)]
    a22 = Aij[(c2, c2)]
    a12 = Aij[(c1, c2)]
    a21 = Aij[(c2, c1)]
    if a11:
        return [(c1, Ax | x | y | a11 | a12 | a21), (c2, Ay | y | a22)]
    if a22:
        # mirror of the a11 branch under (x<->y, c1<->c2)
        return [(c2, Ay | y | x | a22 | a21 | a12), (c1, Ax | x | a11)]
    # a11 = a22 = empty
    if not a21:
        return [(c1, Ax | x | a12), (c2, Ay | y)]
    # the vertices with an edge of color c1, and of color c2, into a21
    n1 = _around(least[c1], a21)
    n2 = _around(least[c2], a21)
    if Ax & n1:
        return [(c1, x | y | Ax | a21), (c2, y | a12 | Ay)]
    if Ay & n2:
        return [(c2, y | x | Ay | a21), (c1, x | a12 | Ax)]
    # every Ax,a21-edge is c2; every Ay,a21-edge is c1 (missing pairs allowed)
    z1 = Ax & ~n2
    z2 = Ay & ~n1
    if not z1:
        return [(c2, x | Ax | a21), (c2, y | Ay | a12)]
    if not z2:
        return [(c1, y | Ay | a21), (c1, x | Ax | a12)]
    dz = {c: _induced_diameter(g.adjacency(c), z1 | z2) for c in (1, 2)}
    assert min(dz.values()) <= 3, "Z1 x Z2 is complete so folklore applies"
    if dz[c1] <= 3:
        return [(c1, x | Ax | a12 | z2), (c1, y | a21 | Ay & ~z2)]
    return [(c2, y | Ay | a12 | z1), (c2, x | a21 | Ax & ~z1)]


def _alpha2_case22(g, least, x, y, Ax, Ay, Aij, c1):
    """Both blobs have diameter <= 2 in the same color c1."""
    c2 = 3 - c1
    a11 = Aij[(c1, c1)]
    a22 = Aij[(c2, c2)]
    a12 = Aij[(c1, c2)]
    a21 = Aij[(c2, c1)]
    if a11:
        return [(c1, x | y | Ax | Ay | a11 | a12 | a21), (c2, x | a22)]
    if not a22:
        return [(c1, x | Ax | a12), (c1, y | Ay | a21)]
    # a11 empty, a22 nonempty
    bad = a22 & ~_around(least[c1], Ax | Ay)
    if not bad:
        u1 = a22 & _around(least[c1], Ax)
        return [(c1, x | Ax | a12 | u1), (c1, y | Ay | a21 | a22 & ~u1)]
    w = lowest_vertex(bad)
    # w has no color-c1 edge into Ax + Ay: there Z is its non-neighbors
    Z = (Ax | Ay) & ~(least[1][w] | least[2][w])
    pieces = []
    if Z:
        dz = {c: _induced_diameter(g.adjacency(c), Z) for c in (1, 2)}
        assert min(dz.values()) <= 3, "G[Z] is complete"
        pieces.append((c1 if dz[c1] <= 3 else c2, Z))
    pieces.append((c2, x | y | a12 | a21 | a22 | (Ax | Ay) & least[c2][w]))
    return pieces


# ---------------------------------------------------------------------------
# complete bipartite graphs, three colors


def cover_bipartite3(g: ColoredMultigraph, X, Y, budget=None) -> CoverCertificate:
    """At most four monochromatic subgraphs of diameter <= 6 covering a
    complete bipartite graph with sides X and Y whose pairs each carry a
    color in 1..3."""
    xm, ym = _side_masks(g, X, Y, "cover_bipartite3")
    adj = _bipartite_colors(g, xm, ym, (1, 2, 3))

    # all two-sided components as (color, mask): per color, by lowest X vertex
    comps = []
    for c in (1, 2, 3):
        two_sided = [m for m in component_masks(adj[c], xm | ym) if m & xm and m & ym]
        comps += [(c, m) for m in sorted(two_sided, key=lambda m: lowest_vertex(m & xm))]

    other = {1: (2, 3), 2: (1, 3), 3: (1, 2)}

    def sub_bip_cover(a, b, colors):
        """<= 2 tree pieces of diameter <= 4 covering the 2-colored [a, b]."""
        return _classify2(g, a, b, *colors).tree_pieces

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
            pieces = [(c, comp)]
            if xm & ~comp:
                pieces += sub_bip_cover(xm & ~comp, ym & comp, other[c])
            if ym & ~comp:
                pieces += sub_bip_cover(ym & ~comp, xm & comp, other[c])
            return checked(g, pieces, 4, 6)

    got = _bip3_layered(g, xm, ym, side_comps[0], other, adj)
    if got is None:
        got = _zone_cover(g, xm | ym, 4, budget)
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
    X1 = dist[0] | dist[2]
    X2 = xm & ~comp | sum(dist[4::2])
    Y2 = dist[1]
    Y0 = dist[3]
    Y1 = sum(dist[5::2])
    if not Y1 or not X2:
        return None
    # the first vertices of X1 and X2, and of X2 off layer 4, in the order
    # that lists X1 by layer and X2 as the X side outside comp, then by layer
    x1_first = lowest_vertex(dist[0])
    x2_first = lowest_vertex(xm & ~comp or dist[4])
    far_x2 = next((m for m in (xm & ~comp, *dist[6::2]) if m), 0)

    r1 = _classify2(g, X1, Y1, ca, cb)
    r2 = _classify2(g, X2, Y2, ca, cb)
    cstar = (c3, dist[0] | dist[1] | dist[2] | dist[3])

    # (a) one of the sub-bipartite graphs has a spanning piece of diameter <= 6
    for rr, oo in ((r1, r2), (r2, r1)):
        if rr.single_piece is not None:
            return [rr.single_piece] + oo.tree_pieces + [cstar]

    # (b) P1 with the X side double covered: specials live in Y_i
    for rr, Ai, a0, Bi, xf, oo in ((r1, X1, x1_first, Y1, dist[0], r2),
                                   (r2, X2, x2_first, Y2, far_x2, r1)):
        if rr.cls.tag != "P1":
            continue
        dc, va, vb = rr.cls.data
        if Bi >> va & 1:  # specials on the Y side cover X_i
            if not xf:
                continue
            # Bi, but va and vb, hangs on the first vertex of Ai and Y0 on
            # that of xf, each in the color of its edge there
            rest = Bi & ~(1 << va | 1 << vb)
            to_a = rest & adj[ca][a0] | Y0 & adj[ca][lowest_vertex(xf)]
            to_b = (rest | Y0) & ~to_a
            return [(ca, 1 << va | Ai | to_a), (cb, 1 << vb | Ai | to_b)] + oo.tree_pieces
    # (c) [X1, Y1] is P1 with Y1 double covered: specials in X1
    if r1.cls.tag == "P1":
        dc, va, vb = r1.cls.data
        if X1 >> va & 1:
            return [(ca, 1 << va | Y1), cstar] + r2.tree_pieces

    # (d)/(e): [X1, Y1] is P2 or another P1 orientation
    return None


# ---------------------------------------------------------------------------
# complete multipartite graphs


def cover_multipartite(g: ColoredMultigraph, parts, r: int, budget=None) -> CoverCertificate:
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
            return checked(g, [(c, full)], r)
    part_masks = [mask_of(p) for p in parts]
    if r == 2:
        return _multipartite2(g, part_masks)
    return _multipartite3(g, part_masks, budget)


def _multipartite2(g, parts):
    V1 = parts[0]
    res = _classify2(g, V1, (1 << g.n) - 1 & ~V1, 1, 2)
    if res.cls.tag == "P1":
        _, va, vb = res.cls.data
        roots = [(1, va), (2, vb)]
    elif res.cls.tag == "P2":
        X1, X2, Y1, Y2 = res.cls.data
        roots = [(1, X1[0]), (1, X2[0])]
    else:
        roots = [(res.cls.data[0], lowest_vertex(V1))]
    # the global components through the roots, each once
    pieces = dict.fromkeys((c, reach(g.adjacency(c), v)) for c, v in roots)
    return checked(g, list(pieces), 2)


def _multipartite3(g, parts, budget):
    full = (1 << g.n) - 1
    # a component covering a full part leaves a 2-colored bipartite rest; the
    # caller has ruled out a spanning one
    for c in (1, 2, 3):
        for comp in component_masks(g.adjacency(c), full):
            for pm in parts:
                if pm & ~comp:
                    continue
                oc = [cc for cc in (1, 2, 3) if cc != c]
                res = _classify2(g, full & ~comp, pm, *oc)
                # each tree is connected in its color, so any of its vertices
                # names its global component
                pieces = dict.fromkeys([(c, comp)] + [
                    (pc, reach(g.adjacency(pc), lowest_vertex(m))) for pc, m in res.tree_pieces])
                return checked(g, list(pieces), 3)
    # general case: the proof guarantees a 3-component cover exists, and
    # tc_exact's certificate is already verified
    size, cert = tc_exact(g, budget=budget)
    if size > 3:
        raise AssertionError(f"three-part cover missing: graph={g!r} "
                             f"edges={g.edges()}")
    return cert


# ---------------------------------------------------------------------------
# restricted covers (two-sided color classes)


def restricted_cover(g: ColoredMultigraph, r: int, S, budget=None) -> CoverCertificate:
    """An (r-1)-cover of a complete r-colored graph whose pieces are all
    colored inside S or all inside its complement (|S| = 2, r in {3,4,5}).

    The proof is about closed graphs, but it closes nothing: it reads only
    g's monochromatic components, which are its closure's.  Alpha is that of
    the closed S-colored graph built from them, its pieces are whole
    components, and the cover is verified on g.
    """
    if r not in (3, 4, 5):
        raise GraphError("restricted_cover supports r in {3, 4, 5}")
    S = sorted(S)
    if len(S) != 2 or S[0] == S[1] or any(not 1 <= c <= r for c in S):
        raise GraphError("S must be two distinct colors in 1..r")
    if not g.is_complete():
        raise GraphError("restricted_cover needs a complete graph")
    full = (1 << g.n) - 1
    aS, witness = alpha(closed_graph(g.n, [
        component_masks(g.adjacency(c), full) if c <= g.r else [] for c in S]))
    if aS <= r - 1:
        # A minimum cover by S-colored components has König's size: it equals
        # a maximum set of vertices in pairwise different components of each
        # color of S, and such vertices are independent in the S-colored graph.
        size, cert = tc_exact(g, allowed_colors=S, budget=budget)
        if size > r - 1:
            raise AssertionError(f"no {r - 1}-cover in the colors {S}: "
                                 f"graph={g!r} edges={g.edges()}")
        return cert
    xm = mask_of(witness[:r])
    P = [c for c in range(1, r + 1) if c not in S]
    if r == 3:
        pieces = [(P[0], reach(g.adjacency(P[0]), lowest_vertex(xm)))]
        assert pieces[0][1] == full, "a single component must cover"
    elif r == 4:
        pieces = _restricted4(g, xm, P)
    else:
        pieces = _restricted5(g, xm, P)
    return checked(g, pieces, r - 1, None, allowed_colors=P)


def _on_x_comps(g, c, xm):
    """Global components (masks) of color c meeting the vertex mask xm, by
    decreasing X-count; one color's components are disjoint, so ties go to
    the lowest vertex."""
    adj = g.adjacency(c)
    comps = dict.fromkeys(reach(adj, v) for v in vertices_of(xm))
    return sorted(comps, key=lambda m: (-(m & xm).bit_count(), lowest_vertex(m)))


def _restricted4(g, xm, P):
    # a spanning color on X: c1 connected on X, else c2
    for span, oc in (P, P[::-1]):
        comp = reach(g.adjacency(span), lowest_vertex(xm))
        if comp & xm == xm:
            break
    else:
        raise AssertionError("one of two colors always spans a K_4")
    greedy = [m for m in _on_x_comps(g, oc, xm) if (m & xm).bit_count() >= 2]
    return [(span, comp)] + [(oc, m) for m in greedy[:2]]


def _restricted5(g, xm, P):
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
        return ps

    for i, j, k in itertools.permutations(P):
        if len(tX[i]) + len(tX[j]) + sum(1 for s in tX[k] if s >= 3) <= 4:
            return pieces_for(1, (i, j, k))
        if len(tX[i]) + sum(1 for s in tX[j] if s >= 2) + \
                sum(1 for s in tX[k] if s >= 2) <= 4:
            return pieces_for(2, (i, j, k))

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
        # the deep branch: a vertex u outside the first candidate cover and
        # one outside the second join in color A in the closure, that is, lie
        # in one color-A component A3 of g; each candidate is checked below
        out1 = (1 << g.n) - 1
        for _, m in candidates[0]:
            out1 &= ~m
        if out1:
            A3 = reach(g.adjacency(A), lowest_vertex(out1))
            for Bc in rest:
                candidates.append([(A, A1), (A, A2), (A, A3), (Bc, comps_by_color[Bc][0])])

    # each candidate is four whole components in the colors P, so it is a
    # cover exactly when they hold every vertex
    full = (1 << g.n) - 1
    for cand in candidates:
        covered = 0
        for _, m in cand:
            covered |= m
        if covered == full:
            return cand
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
    adj = _least_colors(g, (1, 2, 3))[0]
    full = (1 << n) - 1

    # maximal monochromatic component: largest, ties to lowest color, then
    # to lowest vertex (one color's components are disjoint)
    _, blue, _, B = min((-m.bit_count(), c, lowest_vertex(m), m)
                        for c in (1, 2, 3) for m in component_masks(adj[c], full))
    if B == full:
        return ThreeColorClass("TypeI", (blue, tuple(vertices_of(B))))
    U = full & ~B
    # component of the lowest B-U edge
    eb, eu = lowest_vertex(B), lowest_vertex(U)
    red = next(c for c in (1, 2, 3) if adj[c][eb] >> eu & 1)
    R = reach(adj[red], eb)
    assert red != blue
    green = next(c for c in (1, 2, 3) if c not in (blue, red))
    if U & ~R:
        parts = (B & R, B & ~R, U & R, U & ~R)
        tag = "TypeII"
    else:
        # U inside R: the green component swallows U and B-R; it is read from
        # the first vertex of B-R, else of U
        G = reach(adj[green], lowest_vertex(B & ~R or U))
        parts = (B & R & G, B & ~G, B & ~R, U)
        tag = "TypeIII"
    return ThreeColorClass(tag, ((blue, red, green),
                                 tuple(tuple(vertices_of(m)) for m in parts)))
