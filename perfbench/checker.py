"""Answer checks that share no code with the solvers they check.

Connectivity, diameter, closure and word domination are recomputed here from
the compact inputs with plain bitmask searches; ryserlab's own `verify`,
`components` and `diameter` are never called, so a fast wrong answer from a
rewritten primitive cannot pass.  Table answers are held against the published
constants and against the shipped fixture file, parsed here.
"""

from __future__ import annotations

import itertools
import os


class Wrong(Exception):
    """The program returned a wrong or malformed answer."""


# ---------------------------------------------------------------------------
# graphs


def _adjacency(x):
    """adj[c][u] = bitmask of colour-c neighbours of u in the compact input."""
    adj = [[0] * x.n for _ in range(x.r + 1)]
    for k, (u, v) in enumerate(itertools.combinations(range(x.n), 2)):
        m = x.pairs[k]
        for c in range(1, x.r + 1):
            if m >> (c - 1) & 1:
                adj[c][u] |= 1 << v
                adj[c][v] |= 1 << u
    return adj


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _bits(m):
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _eccentricity(nbr, src, within):
    """BFS layers from src inside the vertex mask; None when some vertex is unreached."""
    reach = frontier = 1 << src
    depth = 0
    while True:
        nxt = 0
        for u in _bits(frontier):
            nxt |= nbr[u]
        nxt &= within & ~reach
        if not nxt:
            break
        reach |= nxt
        frontier = nxt
        depth += 1
    return depth if reach == within else None


def _diameter(nbr, within):
    """Diameter of the graph nbr induced on the mask; None when disconnected."""
    best = 0
    for v in _bits(within):
        e = _eccentricity(nbr, v, within)
        if e is None:
            return None
        best = max(best, e)
    return best


def _piece(x, adj, i, piece, max_diam):
    """Check one (colour, vertices[, edges]) piece; return its vertex mask."""
    if len(piece) not in (2, 3):
        raise Wrong(f"piece {i} is malformed")
    c, vs = piece[0], list(piece[1])
    if not 1 <= c <= x.r:
        raise Wrong(f"piece {i} has colour {c} out of range")
    if not vs or any(not 0 <= v < x.n for v in vs) or len(set(vs)) != len(vs):
        raise Wrong(f"piece {i} has a bad vertex list")
    within = _mask(vs)
    if len(piece) == 3:
        nbr = [0] * x.n
        for u, v in piece[2]:
            if not (within >> u & 1 and within >> v & 1):
                raise Wrong(f"piece {i} edge ({u},{v}) leaves its vertex set")
            if not adj[c][u] >> v & 1:
                raise Wrong(f"piece {i} edge ({u},{v}) is not colour {c}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    else:
        nbr = adj[c]
    d = _diameter(nbr, within)
    if d is None:
        raise Wrong(f"piece {i} is not connected in colour {c}")
    if max_diam is not None and d > max_diam:
        raise Wrong(f"piece {i} has diameter {d} > {max_diam}")
    return within


def cover(x, cert, max_pieces, max_diam=None, mode="cover", adj=None):
    """A cover (or partition) of all n vertices by at most max_pieces pieces.

    Pieces are checked in adj, the input's own colour classes unless given.
    """
    adj = adj or _adjacency(x)
    if len(cert.pieces) > max_pieces:
        raise Wrong(f"{len(cert.pieces)} pieces exceed {max_pieces}")
    covered = 0
    for i, piece in enumerate(cert.pieces):
        m = _piece(x, adj, i, piece, max_diam)
        if mode == "partition" and covered & m:
            raise Wrong(f"partition piece {i} overlaps an earlier piece")
        covered |= m
    if covered != (1 << x.n) - 1:
        raise Wrong("some vertex is uncovered")


def partition_value(x, out, want):
    size, cert = out
    if size != want or len(cert.pieces) != want:
        raise Wrong(f"partition number {size} with {len(cert.pieces)} pieces, "
                    f"expected {want}")
    cover(x, cert, max_pieces=want, mode="partition")


def _closure_adjacency(x, adj):
    """Colour-c neighbours in the closure: same colour-c component of the input."""
    full = (1 << x.n) - 1
    closed = [[0] * x.n for _ in range(x.r + 1)]
    for c in range(1, x.r + 1):
        left = full
        while left:
            v = (left & -left).bit_length() - 1
            comp = frontier = 1 << v
            while frontier:
                nxt = 0
                for u in _bits(frontier):
                    nxt |= adj[c][u]
                frontier = nxt & ~comp
                comp |= frontier
            left &= ~comp
            if comp & (comp - 1):
                for u in _bits(comp):
                    closed[c][u] = comp & ~(1 << u)
    return closed


def restricted(x, out, r, S):
    """closure(x) reproduced exactly, then a one-sided (r-1)-cover of it."""
    closed_g, cert = out
    closed = _closure_adjacency(x, _adjacency(x))
    got = {}
    for u, v, cols in closed_g.edges():
        got[(u, v)] = set(cols)
    want = {}
    for u, v in itertools.combinations(range(x.n), 2):
        cols = {c for c in range(1, x.r + 1) if closed[c][u] >> v & 1}
        if cols:
            want[(u, v)] = cols
    if got != want:
        raise Wrong("closure differs from the independent closure")
    cols = {p[0] for p in cert.pieces}
    if not (cols <= set(S) or cols <= set(range(1, r + 1)) - set(S)):
        raise Wrong(f"piece colours {sorted(cols)} are not one-sided for S={S}")
    cover(x, cert, max_pieces=r - 1, adj=closed)


# ---------------------------------------------------------------------------
# tables


def _signature_shapes(sigs, n, p):
    shapes = [s.shapes() for s in sigs]
    for sh in shapes:
        if len(sh) != p or any(sum(part) != n for part in sh):
            raise Wrong(f"{sh} is not {p} partitions of {n}")
    if len(set(shapes)) != len(shapes):
        raise Wrong("duplicate signatures")
    return set(shapes)


def _pipeline(out, n, p, counts):
    enumerated, valid, residual = out
    got = tuple(len(x) for x in (enumerated, valid, residual))
    if got != counts:
        raise Wrong(f"({n},{p}) counts {got}, published {counts}")
    e = _signature_shapes(enumerated, n, p)
    v = _signature_shapes(valid, n, p)
    s = _signature_shapes(residual, n, p)
    if not (s <= v <= e):
        raise Wrong(f"({n},{p}) residual/valid/enumerated are not nested")
    return s


def sig53(out):
    s = _pipeline(out, 5, 3, (84, 37, 2))
    if s != {((4, 1), (3, 2), (3, 2)), ((3, 2), (3, 2), (3, 2))}:
        raise Wrong(f"(5,3) residual cases {sorted(s)} differ from the paper")


def sig64_valid(out):
    enumerated, valid = out
    if (len(enumerated), len(valid)) != (1001, 560):
        raise Wrong(f"(6,4) counts {len(enumerated)} -> {len(valid)}, published "
                    f"1001 -> 560")
    if not _signature_shapes(valid, 6, 4) <= _signature_shapes(enumerated, 6, 4):
        raise Wrong("(6,4) valid signatures are not all enumerated")


FIXTURE = os.path.join("src", "ryserlab", "data", "r6_residual.txt")


def read_fixture():
    """The shipped 173 surviving (6,4) signatures, one `(6),(4,2),...` a line."""
    out = set()
    with open(FIXTURE) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = [tuple(int(a) for a in chunk.split(","))
                     for chunk in line.strip("()").split("),(")]
            out.add(tuple(sorted(parts, reverse=True)))
    return out


def sig64_residual(residual):
    if len(residual) != 173:
        raise Wrong(f"(6,4) residual count {len(residual)}, published 173")
    if _signature_shapes(residual, 6, 4) != read_fixture():
        raise Wrong("(6,4) residual cases differ from the shipped fixture")


def z_outcome(out, r, d, want):
    """Z(r,d) proven equal to the published value, with a dominating witness."""
    if not (out.lower == out.upper == want):
        raise Wrong(f"Z({r},{d}) proven [{out.lower},{out.upper}], published {want}")
    if out.witness is None:
        raise Wrong(f"Z({r},{d}) has no witness")
    words = out.witness.sorted_words()
    if len(words) != want or len(set(words)) != len(words):
        raise Wrong(f"Z({r},{d}) witness has {len(words)} words, claims {want}")
    for w in words:
        if len(w) != d or any(not 1 <= a <= r for a in w):
            raise Wrong(f"Z({r},{d}) witness word {w} is out of range")
    for f in itertools.product(range(1, r + 1), repeat=d):
        if not any(all(a != b for a, b in zip(f, w)) for w in words):
            raise Wrong(f"Z({r},{d}) witness leaves {f} undominated")
