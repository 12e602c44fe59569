"""Edge-colored multigraphs and the primitive computations everything else builds on.

Vertices are dense integers 0..n-1, colors are 1..r.  An edge carries a nonempty
set of colors (multigraph semantics: the closure of a coloring puts several
colors on one vertex pair).  All values are immutable after construction and
every operation here is a pure function.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations


class GraphError(ValueError):
    """Malformed graph data or an operation precondition violation.

    When ColoredMultigraph's arguments are at fault, item is the offending
    edge as (u, v, colors), or None for (n, r) themselves, and field is the
    index of the offending entry in it.
    """

    def __init__(self, message, item=None, field=None):
        super().__init__(message)
        self.item = item
        self.field = field


class ColoredMultigraph:
    """Finite vertex set 0..n-1 with edges carrying nonempty color sets from 1..r.

    The graph is its color classes: bit w of _adj[c][u] is set when the pair
    uw carries color c (row 0 is empty).  Every other view of it, the edge
    list and the colors of a pair, is read off these masks.
    """

    __slots__ = ("n", "r", "_adj", "_hash")

    def __init__(self, n: int, r: int, edges):
        """OR each entry of edges, an iterable of (u, v, color) or (u, v,
        iterable of colors), into its color rows.

        A pair may repeat and name either end first; it is empty only if its
        colors add up to nothing.  An entry with a bare int color is checked
        only for u == v: an end or color out of range fails the lookup of its
        bit or row, and then _first_fault walks the entries again (an
        iterator is materialised once for this) to raise the first fault in
        list order.  Any other entry takes every check in the loop; a lookup
        that fails there is re-raised as it is, since every earlier entry is
        then known to be valid (a one-shot iterator of colors could not be
        walked again).  An error
        names a pair lower end first, and carries the entry at fault as its
        item and the index of the offending value in that entry as its field.
        """
        if n < 0:
            raise GraphError("vertex count must be nonnegative", None, 0)
        if r < 0:
            raise GraphError("color count must be nonnegative", None, 1)
        if not isinstance(edges, list):
            edges = list(edges)
        adj = [[0] * n for _ in range(r + 1)]
        rows = dict(zip(range(1, r + 1), adj[1:]))
        # 1 << v for a vertex v; None at n..2n-1, and so also at -n..-1
        bit = [1 << v for v in range(n)] + [None] * n
        uncolored = []
        in_checked = False
        try:
            for u, v, cols in edges:
                if u == v:
                    raise _pair_error(n, u, v, cols)
                if type(cols) is int:
                    row = rows[cols]
                    row[u] |= bit[v]
                    row[v] |= bit[u]
                    continue
                if not (0 <= u < n and 0 <= v < n):
                    raise _pair_error(n, u, v, cols)
                in_checked = True
                colored = False
                for c in (cols,) if isinstance(cols, int) else cols:
                    if not 1 <= c <= r:
                        raise _color_error(r, u, v, cols, c)
                    row = adj[c]
                    row[u] |= bit[v]
                    row[v] |= bit[u]
                    colored = True
                if not colored:
                    uncolored.append((u, v, cols))
                in_checked = False
        except (LookupError, TypeError):
            if in_checked:
                raise
            fault = _first_fault(n, r, edges)
            if fault is None:
                raise
            raise fault from None
        for u, v, cols in uncolored:
            if not any(row[u] >> v & 1 for row in adj):
                raise GraphError(f"edge {_named(u, v)} has an empty color set", (u, v, cols), 2)
        self.n = n
        self.r = r
        self._adj = tuple(map(tuple, adj))
        self._hash = None

    @classmethod
    def from_edges(cls, n: int, r: int, edges) -> "ColoredMultigraph":
        """ColoredMultigraph(n, r, edges), under the name callers trace."""
        return cls(n, r, edges)

    @classmethod
    def _of_rows(cls, n: int, r: int, adj: tuple) -> "ColoredMultigraph":
        """The graph whose color-c adjacency is adj[c]; the masks are trusted."""
        g = cls.__new__(cls)
        g.n, g.r, g._adj, g._hash = n, r, adj, None
        return g

    def _neighbors(self) -> list[int]:
        """Per vertex, the mask of the vertices joined to it in any color."""
        out = [0] * self.n
        for row in self._adj:
            out = [a | b for a, b in zip(out, row)]
        return out

    def edges(self):
        """Sorted list of (u, v, frozenset of colors)."""
        rows = tuple(enumerate(self._adj))[1:]
        out = []
        for u, nb in enumerate(self._neighbors()):
            for v in vertices_of(nb >> (u + 1) << (u + 1)):
                out.append((u, v, frozenset(c for c, row in rows if row[u] >> v & 1)))
        return out

    def colors_of(self, u: int, v: int) -> frozenset[int]:
        if 0 <= u < self.n and 0 <= v < self.n:
            return frozenset(c for c in range(1, self.r + 1) if self._adj[c][u] >> v & 1)
        return frozenset()

    def has_color(self, u: int, v: int, c: int) -> bool:
        return (0 <= u < self.n and 0 <= v < self.n and 1 <= c <= self.r
                and self._adj[c][u] >> v & 1 == 1)

    def adjacency(self, c: int) -> tuple[int, ...]:
        """The color-c class as a mask adjacency: bit w of entry u marks edge uw."""
        if not 1 <= c <= self.r:
            raise GraphError(f"color {c} out of range 1..{self.r}")
        return self._adj[c]

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(nb | 1 << u == full for u, nb in enumerate(self._neighbors()))

    def min_color_of(self, u: int, v: int) -> int:
        """The least color on the pair uv; GraphError when it carries none."""
        cols = self.colors_of(u, v)
        if not cols:
            raise GraphError(f"no edge between {u} and {v}")
        return min(cols)

    def subgraph_colors(self, colors) -> "ColoredMultigraph":
        """The graph keeping only the given colors (color labels unchanged)."""
        colors = frozenset(colors)
        empty = (0,) * self.n
        return ColoredMultigraph._of_rows(
            self.n, self.r,
            tuple(row if c in colors else empty for c, row in enumerate(self._adj)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredMultigraph) and self.n == other.n
                and self.r == other.r and self._adj == other._adj)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.r, self._adj))
        return self._hash

    def __repr__(self):
        m = sum((nb >> (u + 1)).bit_count() for u, nb in enumerate(self._neighbors()))
        return f"ColoredMultigraph(n={self.n}, r={self.r}, m={m})"


def _named(u: int, v: int) -> str:
    """A pair as an error message names it, lower end first."""
    return f"({min(u, v)},{max(u, v)})"


def _pair_error(n: int, u: int, v: int, cols) -> GraphError:
    """The first of u out of range, a loop, v out of range, in that order."""
    if not 0 <= u < n:
        return GraphError(f"edge {_named(u, v)} out of range for n={n}", (u, v, cols), 0)
    if u == v:
        return GraphError(f"loop at vertex {u}", (u, v, cols), 1)
    return GraphError(f"edge {_named(u, v)} out of range for n={n}", (u, v, cols), 1)


def _color_error(r: int, u: int, v: int, cols, c: int) -> GraphError:
    return GraphError(f"color {c} on edge {_named(u, v)} out of range for r={r}",
                      (u, v, cols), 2)


def _first_fault(n: int, r: int, edges) -> GraphError | None:
    """The error of the first entry of edges, in list order, that is a loop
    or has an end or a color out of range; None if there is none.

    ColoredMultigraph calls this when a bit or row lookup failed.  A lookup
    also fails on an end or color in range that is not an integer (1.5, say),
    so such a value raises TypeError here, at the entry where the loop
    stopped, and no later fault is reported in its place.  An empty color set
    is not looked for: the constructor checks it after every entry, so any
    fault found here comes first.
    """
    for u, v, cols in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return _pair_error(n, u, v, cols)
        for c in (cols,) if isinstance(cols, int) else cols:
            if not 1 <= c <= r:
                return _color_error(r, u, v, cols, c)
            for x in (c, u, v):
                operator.index(x)
    return None


@dataclass(frozen=True)
class ComponentSet:
    """Connected components of one color class; parts partition 0..n-1."""

    color: int
    parts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoverCertificate:
    """A claimed cover or partition by monochromatic connected pieces.

    Each piece is (color, sorted vertex tuple) and stands for the subgraph its
    color induces on those vertices.  A declared max radius R claims, for
    every piece, a vertex within R of all of it in that subgraph: the BFS
    tree from such a vertex is a spanning tree of diameter <= 2R, and a tree
    of diameter <= 2R has such a vertex at its centre.
    """

    pieces: tuple
    mode: str = "cover"  # "cover" | "partition"
    declared_max_size: int | None = None
    declared_max_diam: int | None = None
    allowed_colors: frozenset[int] | None = None
    declared_max_radius: int | None = None

    def __len__(self):
        return len(self.pieces)


def make_certificate(pieces, mode="cover", max_size=None, max_diam=None,
                     allowed_colors=None, max_radius=None) -> CoverCertificate:
    """The certificate of pieces read from outside the program: (color,
    vertices) pairs, whose vertices may come in any order and repeat."""
    norm = []
    for i, piece in enumerate(pieces):
        try:
            c, vs = piece
        except (TypeError, ValueError):
            raise GraphError(f"piece {i} is not a (color, vertices) pair") from None
        norm.append((c, tuple(sorted(set(vs)))))
    return CoverCertificate(tuple(norm), mode, max_size, max_diam,
                            None if allowed_colors is None else frozenset(allowed_colors),
                            max_radius)


# ---------------------------------------------------------------------------
# connectivity kernel
#
# A vertex set is a bitmask (bit v set for vertex v) and an adjacency is a
# sequence of per-vertex neighbor masks.  Every question of what a color class
# connects, and how far apart, is answered by the functions below.


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lowest_vertex(mask: int) -> int:
    """The lowest vertex of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def vertices_of(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def adjacency(n: int, pairs) -> list[int]:
    """Mask adjacency on 0..n-1 of an undirected edge list."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def reach(adj, src: int, mask: int = -1) -> int:
    """Vertices reachable from src along paths inside mask (src included)."""
    seen = frontier = 1 << src
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def layers(adj, src: int, mask: int = -1, radius: int | None = None) -> list[int]:
    """BFS layers from src inside mask: entry d is the vertices at distance d.

    Stops at the last nonempty layer, or after layer `radius` when given.
    """
    seen = frontier = 1 << src
    out = [frontier]
    while radius is None or len(out) <= radius:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & mask & ~seen
        if not frontier:
            break
        seen |= frontier
        out.append(frontier)
    return out


def component_masks(adj, mask: int) -> list[int]:
    """Components of the subgraph induced on mask, ordered by lowest vertex."""
    out = []
    while mask:
        comp = reach(adj, lowest_vertex(mask), mask)
        out.append(comp)
        mask &= ~comp
    return out


def connected_subsets(adj, v: int, mask: int = -1, lower_twins=None, prune=None):
    """Yield every connected vertex set inside mask that contains v, once each.

    Each set is grown by one boundary vertex at a time.  A boundary vertex
    passed over is excluded from the rest of that branch, so no set repeats.

    With lower_twins (per vertex, the mask of its twins of lower index; twins
    have the same neighbors apart from each other) and v the lowest vertex of
    its class in mask, only the sets that hold a prefix, in index order, of
    each twin class's vertices in mask are yielded: a boundary vertex is not
    branched on while a lower twin in mask is outside the set, but stays on
    the boundary until it is.

    prune, when given, is called as prune(s, excluded) before s is yielded,
    where excluded is the mask of the vertices that no set grown from s will
    hold; a true result drops s and every set grown from it.
    """
    start = 1 << v
    stack = [(start, adj[v] & mask & ~start, 0)]
    while stack:
        s, boundary, excluded = stack.pop()
        if prune is not None and prune(s, excluded):
            continue
        yield s
        children = []
        rest = boundary
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            if lower_twins is not None and lower_twins[u] & mask & ~s:
                continue
            grown = s | b
            children.append((grown, (boundary | adj[u]) & mask & ~(grown | excluded),
                             excluded))
            excluded |= b
        stack.extend(reversed(children))


def _connected_diameter(adj, mask: int, at_most: int | None = None) -> int:
    """Diameter of the connected subgraph induced on a nonempty mask, by
    eccentricity bounds (Takes and Kosters, "Determining the diameter of
    small world networks", CIKM 2011).

    The diameter is the largest eccentricity.  One BFS from w gives ecc(w),
    and every v at distance d from w has ecc(v) <= ecc(w) + d, so v needs no
    BFS of its own once that bound is at most the cap: the largest
    eccentricity found so far, or at_most=k when given.  BFS runs from the
    lowest vertex not yet bounded until none is left.

    With at_most=k the search stops as soon as diameter <= k is settled, and
    the result is at most k exactly when the diameter is: an eccentricity
    above k, or the largest one found, not always the diameter.
    """
    best = 0
    todo = mask  # the vertices whose eccentricity may still exceed the cap
    searched = []  # (ecc(w), the BFS layers from w) per vertex w searched
    while todo:
        dist = layers(adj, lowest_vertex(todo), mask)
        e = len(dist) - 1
        if at_most is not None and e > at_most:
            return e
        searched.append((e, dist))
        best = max(best, e)
        cap = best if at_most is None else at_most
        for ew, dw in searched:
            # the layers are disjoint, so this sum is the ball of radius cap - ew
            todo &= ~sum(dw[:cap - ew + 1])
    return best


# ---------------------------------------------------------------------------
# primitive operations


def components(g: ColoredMultigraph, c: int) -> ComponentSet:
    """Connected components of the color-c subgraph; colorless vertices are singletons."""
    parts = component_masks(g.adjacency(c), (1 << g.n) - 1)
    return ComponentSet(c, tuple(tuple(vertices_of(m)) for m in parts))


def closed_graph(n: int, blocks) -> ColoredMultigraph:
    """The closed graph on 0..n-1 in which color c is a clique on each vertex
    mask of blocks[c - 1]; r is len(blocks).

    A mask that is negative, has a bit at n or above, or meets an earlier
    mask of its color raises GraphError.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    adj = [(0,) * n]
    for c, masks in enumerate(blocks, start=1):
        row = [0] * n
        seen = 0
        for m in masks:
            if m < 0 or m >> n:
                raise GraphError(f"color {c} block {m:#x} is not a vertex mask for n={n}")
            if seen & m:
                raise GraphError(f"color {c} blocks overlap at vertex {lowest_vertex(seen & m)}")
            seen |= m
            for v in vertices_of(m):
                row[v] = m ^ (1 << v)
        adj.append(tuple(row))
    return ColoredMultigraph._of_rows(n, len(adj) - 1, tuple(adj))


def closure(g: ColoredMultigraph) -> ColoredMultigraph:
    """Complete every monochromatic component to a clique in its color."""
    full = (1 << g.n) - 1
    return closed_graph(g.n, [component_masks(row, full) for row in g._adj[1:]])


def diameter(g: ColoredMultigraph, vertices, c: int) -> float:
    """Diameter of the color-c subgraph induced on the given vertex set.

    Only edges with both endpoints inside the set count.  Returns math.inf when
    the induced subgraph is disconnected, 0 for a single vertex; otherwise
    the exact value from the eccentricity-bound kernel _connected_diameter.
    """
    adj = g.adjacency(c)
    mask = mask_of(vertices)
    if not mask:
        raise GraphError("diameter of an empty vertex set")
    return _induced_diameter(adj, mask)


def _induced_diameter(adj, mask: int) -> float:
    """diameter's value on the nonempty vertex mask of the mask adjacency adj."""
    if reach(adj, lowest_vertex(mask), mask) != mask:
        return math.inf
    return _connected_diameter(adj, mask)


def greedy_independent(adj) -> int:
    """An independent set of the mask adjacency adj, as a mask: the
    minimum-degree vertex left (ties to the lowest index) is taken until none
    is left."""
    avail = (1 << len(adj)) - 1
    best = 0
    while avail:
        v, d = -1, len(adj)
        m = avail
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            du = (adj[u] & avail).bit_count()
            if du < d:
                v, d = u, du
        best |= 1 << v
        avail &= ~(1 << v | adj[v])
    return best


def max_independent(adj, charge=None) -> int:
    """A maximum independent set of the mask adjacency adj, as a mask.

    The start is greedy_independent.  A branch and bound then takes, and
    after that drops, the maximum-degree vertex left (ties to the lowest
    index), and takes all that is left once none of it is adjacent; a branch
    is pruned when it cannot beat the best set so far.  charge, when given,
    is called once for the greedy set and once per branch.
    """
    best = greedy_independent(adj)
    if charge is not None:
        charge()
    size = best.bit_count()
    stack = [((1 << len(adj)) - 1, 0)]
    while stack:
        avail, chosen = stack.pop()
        if charge is not None:
            charge()
        if chosen.bit_count() + avail.bit_count() <= size:
            continue
        v, d = -1, 0
        m = avail
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            du = (adj[u] & avail).bit_count()
            if du > d:
                v, d = u, du
        if d == 0:
            best = chosen | avail
            size = best.bit_count()
            continue
        b = 1 << v
        stack.append((avail & ~b, chosen))
        stack.append((avail & ~(b | adj[v]), chosen | b))
    return best


def alpha(g: ColoredMultigraph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set of the underlying simple graph, by
    max_independent: (size, vertices).  Any color counts as adjacency."""
    best = max_independent(g._neighbors())
    return best.bit_count(), tuple(vertices_of(best))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify(g: ColoredMultigraph, cert: CoverCertificate) -> VerifyResult:
    """Check a cover/partition certificate; the first failure is reported.

    Pieces, coverage and disjointness are vertex masks, and each piece is the
    subgraph its color induces on its mask.  One BFS from the piece's lowest
    vertex tells whether it is connected and gives that vertex's eccentricity
    e, so the diameter is at most 2e.  A declared radius R < e is settled by
    looking for a vertex within R of the whole piece, after which e = R.  A
    declared diameter bound below 2e is tested by _connected_diameter with
    at_most=bound; the exact diameter is computed only to name it in a
    rejection.
    """
    n, bound, radius = g.n, cert.declared_max_diam, cert.declared_max_radius
    if cert.declared_max_size is not None and len(cert.pieces) > cert.declared_max_size:
        return VerifyResult(False, f"{len(cert.pieces)} pieces exceed declared max "
                                   f"{cert.declared_max_size}")
    covered = seen = 0
    for i, (c, vs) in enumerate(cert.pieces):
        if not vs:
            return VerifyResult(False, f"piece {i} is empty")
        if not (1 <= c <= g.r):
            return VerifyResult(False, f"piece {i} has color {c} out of range")
        if cert.allowed_colors is not None and c not in cert.allowed_colors:
            return VerifyResult(False, f"piece {i} uses disallowed color {c}")
        if min(vs) < 0 or max(vs) >= n:
            v = next(v for v in vs if not 0 <= v < n)
            return VerifyResult(False, f"piece {i} contains vertex {v} out of range")
        m = mask_of(vs)
        if cert.mode == "partition":
            if seen & m:
                return VerifyResult(False, f"piece {i} overlaps vertex {lowest_vertex(seen & m)}")
            seen |= m
        row = g._adj[c]
        dist = layers(row, lowest_vertex(m), m)
        # the layers are disjoint, so their sum is their union
        if sum(dist) != m:
            return VerifyResult(False, f"piece {i} (color {c}) is not connected")
        e = len(dist) - 1
        if radius is not None and e > radius:
            if not any(sum(layers(row, v, m, radius)) == m for v in vertices_of(m)):
                return VerifyResult(False, f"piece {i} has radius > {radius}")
            e = radius
        if bound is not None and bound < 2 * e:
            if _connected_diameter(row, m, bound) > bound:
                return VerifyResult(False, f"piece {i} has diameter "
                                           f"{_connected_diameter(row, m)} > {bound}")
        covered |= m
    missing = ~covered & ((1 << n) - 1)
    if missing:
        return VerifyResult(False, f"vertex {lowest_vertex(missing)} uncovered")
    return VerifyResult(True)


def checked(g: ColoredMultigraph, pieces, max_size, max_diam=None, allowed_colors=None,
            mode="cover", max_radius=None) -> CoverCertificate:
    """The certificate of pieces, (color, vertex mask) pairs built by a
    solver or a proof, after verify accepts it on g.  This is where such a
    piece becomes the certificate's (color, sorted vertex tuple).  A
    rejection is a bug in the code that built the pieces: it raises
    AssertionError naming the graph, not an assert, so the gate holds under
    python -O."""
    cert = CoverCertificate(tuple((c, tuple(vertices_of(m))) for c, m in pieces), mode,
                            max_size, max_diam,
                            None if allowed_colors is None else frozenset(allowed_colors),
                            max_radius)
    res = verify(g, cert)
    if not res.ok:
        raise AssertionError(f"certificate failed verification: {res.reason}; "
                             f"graph={g!r} edges={g.edges()}")
    return cert


# small builders used across modules and tests

def complete_graph(n: int, coloring, r: int) -> ColoredMultigraph:
    """K_n with coloring(u, v) giving a color or iterable of colors."""
    edges = []
    for u, v in combinations(range(n), 2):
        edges.append((u, v, coloring(u, v)))
    return ColoredMultigraph.from_edges(n, r, edges)


def monochromatic_complete(n: int, r: int = 1, color: int = 1) -> ColoredMultigraph:
    return complete_graph(n, lambda u, v: color, r)
