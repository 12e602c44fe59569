"""The two-way translation between r-partite hypergraphs and r-colored multigraphs.

A closed r-colored graph G maps to the hypergraph H whose vertices are the
monochromatic components of G (partitioned into classes by color) and whose
edges are the maximal families of components meeting in a common graph vertex.
Conversely an r-partite hypergraph H maps to the closed multigraph on E(H)
with an edge of color i between hyperedges meeting inside class V_i.
Matchings of H correspond to independent sets, vertex covers to monochromatic
component covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import ColoredMultigraph, alpha, closed_graph, component_masks, vertices_of


class HypergraphError(ValueError):
    """Malformed hypergraph data or an operation precondition violation.

    When ColoredHypergraph's arguments are at fault, where locates the
    offending entry: ("sizes", 0, j) for entry j of (n, k, r), ("part", i, j)
    for vertex j of part i, ("edge", i, 0) for the color of edge i and
    ("edge", i, j) for its vertex j - 1, each as given.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class ColoredHypergraph:
    """k-uniform (k=0: non-uniform) hypergraph, optionally r-partite / edge-colored.

    Edges are (color, vertices) pairs and may repeat.  Their colors lie in
    1..r, and either every edge has one or none does.  The parts, when
    given, partition 0..n-1, and no edge meets a part twice.  With n = 0
    they are () even when not given: that is the one partition of no
    vertices.
    """

    __slots__ = ("n", "k", "r", "parts", "_hyperedges")

    def __init__(self, n: int, k: int = 0, r: int = 0, parts=None, edges=()):
        for j, (name, val) in enumerate((("vertex count n", n), ("uniformity k", k),
                                         ("color count r", r))):
            if val < 0:
                raise HypergraphError(f"{name} must be nonnegative, got {val}", ("sizes", 0, j))
        self.n = n
        self.k = k
        self.r = r
        owner = None  # vertex -> index of its part
        if parts is None and n == 0:
            parts = ()
        if parts is not None:
            parts = [tuple(p) for p in parts]
            owner = {}
            for i, p in enumerate(parts):
                for j, v in enumerate(p):
                    if not 0 <= v < n:
                        raise HypergraphError(f"vertex {v} out of range", ("part", i, j))
                    if v in owner:
                        raise HypergraphError(f"vertex {v} is in two parts", ("part", i, j))
                    owner[v] = i
            if len(owner) < n:
                missing = next(v for v in range(n) if v not in owner)
                raise HypergraphError(f"vertex {missing} is in no part", ("sizes", 0, 0))
            parts = tuple(tuple(sorted(p)) for p in parts)
        self.parts = parts
        norm = []
        for i, e in enumerate(edges):
            try:
                color, vs = e
                raw = tuple(vs)
            except (TypeError, ValueError):
                raise HypergraphError(f"edge {e!r} is not a (color, vertices) "
                                      "pair", ("edge", i, 0)) from None
            if color is not None and not (isinstance(color, int) and 1 <= color <= r):
                raise HypergraphError(f"edge color {color} out of range", ("edge", i, 0))
            if norm and (color is None) != (norm[0][0] is None):
                raise HypergraphError(f"edge {raw} has color {color} but edge {norm[0][1]} "
                                      f"has color {norm[0][0]}: color every edge or none",
                                      ("edge", i, 0))
            vs = tuple(sorted(set(raw)))
            if len(vs) != len(raw) or vs and not (0 <= vs[0] and vs[-1] < n):
                for j, v in enumerate(raw):
                    if not 0 <= v < n:
                        raise HypergraphError(f"vertex {v} out of range", ("edge", i, j + 1))
                    if v in raw[:j]:
                        raise HypergraphError(f"edge {raw} repeats a vertex", ("edge", i, j + 1))
            if not vs:
                raise HypergraphError("empty hyperedge", ("edge", i, 1))
            if k and len(vs) != k:
                # the first vertex past k, or the place of the first one missing
                raise HypergraphError(f"edge {raw} is not {k}-uniform",
                                      ("edge", i, 1 + min(len(vs), k)))
            if owner is not None and len({owner[v] for v in vs}) != len(vs):
                j = next(j for j, v in enumerate(raw)
                         if owner[v] in {owner[u] for u in raw[:j]})
                raise HypergraphError(f"edge {raw} meets a class twice", ("edge", i, j + 1))
            norm.append((color, vs))
        self._hyperedges = tuple(norm)

    def edges(self):
        return self._hyperedges

    def edge_vertex_sets(self):
        return [vs for _, vs in self._hyperedges]

    def edges_through(self) -> list[int]:
        """Per vertex v, the mask of the edges that hold v (bit j for edge j)."""
        out = [0] * self.n
        for j, (_, vs) in enumerate(self._hyperedges):
            for v in vs:
                out[v] |= 1 << j
        return out

    def __repr__(self):
        return (f"ColoredHypergraph(n={self.n}, k={self.k}, r={self.r}, "
                f"m={len(self._hyperedges)})")


def complete_uniform(n: int, k: int, coloring) -> ColoredHypergraph:
    """K_n^k with coloring(edge tuple) -> color in 1..r (r inferred)."""
    edges = []
    r = 1
    for e in itertools.combinations(range(n), k):
        c = coloring(e)
        r = max(r, c)
        edges.append((c, e))
    return ColoredHypergraph(n, k, r, None, edges)


def graph_to_hypergraph(g: ColoredMultigraph):
    """The dual hypergraph of the closure of g, plus the component index map.

    Component-vertices are the monochromatic components with at least one edge,
    numbered color-major then by smallest contained graph vertex; edges are the
    maximal sets of components sharing a graph vertex.  The closure has the
    components of g, so they are read from g's own color classes.
    """
    full = (1 << g.n) - 1
    masks, comps, classes = [], [], []
    for c in range(1, g.r + 1):
        nontrivial = [m for m in component_masks(g.adjacency(c), full) if m & (m - 1)]
        classes.append(tuple(range(len(comps), len(comps) + len(nontrivial))))
        masks += nontrivial
        comps += [(c, tuple(vertices_of(m))) for m in nontrivial]
    # hyperedge candidate per graph vertex: the components through it
    raw = []
    for v in range(g.n):
        e = frozenset(i for i, m in enumerate(masks) if m >> v & 1)
        if not e:
            raise HypergraphError(
                f"vertex {v} lies in no nontrivial monochromatic component")
        raw.append(e)
    maximal = []
    for e in sorted(set(raw), key=lambda s: (-len(s), sorted(s))):
        if not any(e < f for f in maximal):
            maximal.append(e)
    maximal_sorted = sorted(tuple(sorted(e)) for e in maximal)
    h = ColoredHypergraph(len(comps), 0, g.r, classes,
                          [(None, e) for e in maximal_sorted])
    return h, comps


def hypergraph_to_graph(h: ColoredHypergraph) -> ColoredMultigraph:
    """One graph vertex per hyperedge; color i joins edges meeting inside class i.

    through[v] is the mask of the hyperedges that hold v, and color i is a
    clique on through[v] for each v in class i.  These cliques are disjoint,
    since no hyperedge meets a class twice.
    """
    if h.parts is None:
        raise HypergraphError("hypergraph_to_graph needs a declared partition")
    through = h.edges_through()
    return closed_graph(len(h.edges()), [[through[v] for v in p] for p in h.parts])


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    nu: int
    alpha: int
    tau: int
    tc: int
    mismatches: tuple[str, ...]


def check_duality(h: ColoredHypergraph, g: ColoredMultigraph | None = None,
                  budget=None) -> DualityReport:
    """Assert nu(h) = alpha(g) and tau(h) = minimum component cover of g."""
    from .exact import tau_nu, tc_exact

    if g is None:
        g = hypergraph_to_graph(h)
    tau, _, nu, _ = tau_nu(h, budget)
    a, _ = alpha(g)
    tc, _ = tc_exact(g, budget=budget)
    issues = []
    if nu != a:
        issues.append(f"nu={nu} != alpha={a}")
    if tau != tc:
        issues.append(f"tau={tau} != tc={tc}")
    return DualityReport(not issues, nu, a, tau, tc, tuple(issues))
