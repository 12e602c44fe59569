"""Finite-geometry generators and the named extremal colorings.

Projective planes come from the 1- and 2-dimensional subspaces of GF(q)^3.
GF(q) is an add table and a mul table, built once by polynomial arithmetic
modulo the first irreducible monic found by trial division.  Each generated
design is verified against its defining incidence counts before being returned.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .core import ColoredMultigraph, closed_graph, mask_of
from .duality import ColoredHypergraph


class UnsupportedOrder(ValueError):
    """q is not a prime power, so no Galois plane of that order is available."""


def _factor_prime_power(q: int):
    p = next((d for d in range(2, q + 1) if q % d == 0), 0)  # least prime factor
    e = 1
    while p and p ** e < q:
        e += 1
    if q < 2 or p ** e != q:
        raise UnsupportedOrder(f"{q} is not a prime power")
    return p, e


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _polymod(a, m, p):
    """a modulo the monic m over GF(p), as exactly len(m) - 1 coefficients."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a.pop()
        shift = len(a) - dm
        for i, c in enumerate(m[:-1]):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return a + [0] * (dm - len(a))


def _monics(p, d):
    return (list(tail) + [1] for tail in itertools.product(range(p), repeat=d))


class GF:
    """GF(p^e) on 0..q-1: x stands for the polynomial whose coefficients are
    its base-p digits, lowest first.  add and mul are q x q tables, built once;
    products are reduced modulo modpoly, the lexicographically first
    irreducible monic of degree e (x itself, [0, 1], when q is a prime)."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.e = p, e = _factor_prime_power(q)
        self.modpoly = next(m for m in _monics(p, e)
                            if all(any(_polymod(m, div, p))
                                   for d in range(1, e // 2 + 1)
                                   for div in _monics(p, d)))
        digits = [[x // p ** i % p for i in range(e)] for x in range(q)]

        def value(poly):
            return sum(c * p ** i for i, c in enumerate(poly))

        self.add = [[value((x + y) % p for x, y in zip(a, b)) for b in digits]
                    for a in digits]
        self.mul = [[value(_polymod(_polymul(a, b, p), self.modpoly, p))
                     for b in digits] for a in digits]


@dataclass(frozen=True)
class IncidenceDesign:
    points: int
    lines: tuple[tuple[int, ...], ...]
    order: int
    kind: str  # projective | truncated | affine

    def parallel_classes(self):
        if self.kind != "affine":
            raise ValueError("parallel classes exist only for affine planes")
        masks = [mask_of(l) for l in self.lines]
        classes, used = [], set()
        for i, m in enumerate(masks):
            if i not in used:
                cls = (i,) + tuple(j for j in range(i + 1, len(masks))
                                   if j not in used and not masks[j] & m)
                used.update(cls)
                classes.append(cls)
        return classes


def galois_plane(q: int, kind: str = "projective") -> IncidenceDesign:
    """The projective/truncated/affine plane of prime-power order q."""
    if kind not in ("projective", "truncated", "affine"):
        raise ValueError(f"unknown kind {kind!r}")
    field = GF(q)
    add, mul = field.add, field.mul
    # canonical 1-dim subspace representatives of GF(q)^3: first nonzero coord = 1
    pts = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    # line (a, b, c) is the dual point: ax + by + cz = 0, solved for its last
    # free coordinate; point (0,1,z) is 1 + z and point (1,y,z) is q+1 + yq + z
    neg = [row.index(0) for row in add]
    inv = [0] + [mul[x].index(1) for x in range(1, q)]
    lines = []
    for a, b, c in pts:
        if c:  # z = (a x + b y) * (-1/c) on (0,1,z) and on each (1,y,z)
            m = mul[neg[1]][inv[c]]
            mb = mul[b]
            lines.append((1 + mb[m],) + tuple(q + 1 + y * q + mul[add[a][mb[y]]][m]
                                              for y in range(q)))
        elif b:  # (0,0,1) and the points (1, -a/b, z)
            y = mul[a][mul[neg[1]][inv[b]]]
            lines.append((0,) + tuple(range(q + 1 + y * q, q + 1 + y * q + q)))
        else:  # x = 0: (0,0,1) and the points (0,1,z)
            lines.append(tuple(range(q + 1)))
    lines.sort()
    design = IncidenceDesign(len(pts), tuple(lines), q, "projective")
    _check_projective(design)
    if kind == "projective":
        return design
    if kind == "truncated":
        drop = design.points - 1
        keep_lines = [l for l in design.lines if drop not in l]
        # points stay densely numbered: only the top point disappears
        out = IncidenceDesign(design.points - 1, tuple(keep_lines), q, "truncated")
        _ensure(out.points == q * q + q and len(out.lines) == q * q,
                "truncated plane counts")
        return out
    # affine: the first line goes with its points; the rest are renumbered densely
    gone = set(design.lines[0])
    remap = {p: i for i, p in enumerate(sorted(set(range(design.points)) - gone))}
    keep = sorted(tuple(remap[p] for p in l if p not in gone)
                  for l in design.lines[1:])
    out = IncidenceDesign(len(remap), tuple(keep), q, "affine")
    _ensure(out.points == q * q and len(out.lines) == q * q + q, "affine plane counts")
    _ensure(all(len(l) == q for l in out.lines), "affine line of size != q")
    _ensure(len(out.parallel_classes()) == q + 1, "affine plane parallel classes")
    return out


def _ensure(ok: bool, what: str):
    """Raise AssertionError, not assert, so -O keeps the check."""
    if not ok:
        raise AssertionError(f"plane check failed: {what}")


def _check_projective(d: IncidenceDesign):
    q = d.order
    _ensure(d.points == q * q + q + 1 == len(d.lines), "projective plane counts")
    _ensure(all(len(l) == q + 1 for l in d.lines), "projective line of size != q + 1")
    # every pair lies on one line iff, at each point v, the lines through v
    # meet only in v and together hold every point
    through = [[] for _ in range(d.points)]
    for l in d.lines:
        m = mask_of(l)
        for v in l:
            through[v].append(m)
    union = [functools.reduce(operator.or_, ms, 0) for ms in through]
    _ensure(all(sum(m.bit_count() - 1 for m in ms) == (u & ~(1 << v)).bit_count()
                for v, (ms, u) in enumerate(zip(through, union))), "pair on two lines")
    _ensure(all(u == (1 << d.points) - 1 for u in union), "pair off all lines")


def design_to_hypergraph(d: IncidenceDesign) -> ColoredHypergraph:
    k = len(d.lines[0]) if d.lines else 0
    uniform = k if all(len(l) == k for l in d.lines) else 0
    return ColoredHypergraph(d.points, uniform, 0, None,
                             [(None, l) for l in d.lines])


def truncated_plane_hypergraph(q: int) -> ColoredHypergraph:
    """The truncated plane of order q as an (q+1)-partite hypergraph.

    The deleted point's q+1 lines partition the surviving points into the
    classes; every remaining line is a transversal, so the hypergraph is
    intersecting and (q+1)-partite with tau = q.
    """
    proj = galois_plane(q, "projective")
    drop = proj.points - 1
    classes = [tuple(v for v in l if v != drop)
               for l in proj.lines if drop in l]
    keep = [l for l in proj.lines if drop not in l]
    return ColoredHypergraph(proj.points - 1, q + 1, 0, classes,
                             [(None, l) for l in keep])


# ---------------------------------------------------------------------------
# extremal colorings


def affine_tc_coloring(r: int, alpha_copies: int = 1) -> ColoredMultigraph:
    """alpha disjoint copies of the affine-plane coloring of K_{(r-1)^2}.

    Vertices are plane points, the color of an edge is the parallel class of
    the unique line through the pair; tc_r of the result is (r-1)*alpha.
    """
    if alpha_copies < 1:
        raise ValueError("need alpha >= 1")
    q = r - 1
    plane = galois_plane(q, "affine")
    classes = plane.parallel_classes()
    nn = q * q
    return closed_graph(alpha_copies * nn,
                        [[mask_of(plane.lines[li]) << copy * nn
                          for copy in range(alpha_copies) for li in cls]
                         for cls in classes])


def half_r_example(r: int, block_size: int | None = None) -> ColoredMultigraph:
    """The coloring on C(r, floor(r/2)+1) blocks forcing many colors in small covers.

    Blocks are indexed by the (floor(r/2)+1)-subsets of [r]; the edge between
    blocks X and Y (or inside a block) gets min(X cap Y).
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if block_size is None:
        block_size = r
    subsets = list(itertools.combinations(range(1, r + 1), r // 2 + 1))
    n = block_size * len(subsets)
    block_of = [i // block_size for i in range(n)]
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        X = set(subsets[block_of[u]])
        Y = set(subsets[block_of[v]])
        edges.append((u, v, min(X & Y)))
    return ColoredMultigraph.from_edges(n, r, edges)


def multipartite_star_example(k: int, r: int) -> ColoredMultigraph:
    """Complete k-partite graph with tc_r = r: one part holds star vertices x_1..x_r,
    each other part two vertices; every edge at x_i gets color i, the rest color 1."""
    if k < 2 or r < 2:
        raise ValueError("need k, r >= 2")
    sizes = [r] + [2] * (k - 1)
    bounds = []
    acc = 0
    for s in sizes:
        bounds.append((acc, acc + s))
        acc += s
    n = acc
    part_of = [next(i for i, (a, b) in enumerate(bounds) if a <= v < b)
               for v in range(n)]
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if part_of[u] == part_of[v]:
            continue
        if part_of[u] == 0 and u < r:
            c = u + 1
        elif part_of[v] == 0 and v < r:
            c = v + 1
        else:
            c = 1
        edges.append((u, v, c))
    return ColoredMultigraph.from_edges(n, r, edges)


def alpha2_multipartite_example(k: int = 3) -> ColoredMultigraph:
    """The three-part size-2 coloring with alpha = 2 and tc_3 >= 3.

    Parts {x1,x2}, {y1,y2}, {z1,z2}; blue/red/green triangles and the stated
    completion; extra parts (k > 3) attach by the "every other edge" rules,
    edges between extra parts get color 1.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    blue, red, green = 1, 2, 3
    x1, x2, y1, y2, z1, z2 = range(6)
    color = {}

    def put(u, v, c):
        color[(min(u, v), max(u, v))] = c

    for a, b in itertools.combinations((x1, y1, z1), 2):
        put(a, b, blue)
    for a, b in itertools.combinations((x2, y1, z2), 2):
        put(a, b, red)
    for a, b in itertools.combinations((x2, y2, z1), 2):
        put(a, b, green)
    put(x1, y2, red)
    put(y2, z2, blue)
    put(x1, z2, green)
    # remaining pairs across the three core parts
    core_pairs = [(u, v) for u, v in itertools.combinations(range(6), 2)
                  if u // 2 != v // 2]
    for u, v in core_pairs:
        if (u, v) in color:
            continue
        if u in (y1, z2) or v in (y1, z2):
            put(u, v, red)
        elif u in (x1, z1) or v in (x1, z1):
            put(u, v, blue)
        else:
            put(u, v, green)
    n = 2 * k
    edges = [(u, v, c) for (u, v), c in color.items()]
    for w in range(6, n):
        for v in (y1, z2):
            edges.append((v, w, red))
        for v in (x1, z1):
            edges.append((v, w, blue))
        for v in (x2, y2):
            edges.append((v, w, green))
    for u, v in itertools.combinations(range(6, n), 2):
        if u // 2 != v // 2:
            edges.append((u, v, 1))
    return ColoredMultigraph.from_edges(n, 3, edges)
