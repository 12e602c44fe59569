"""(c,l)-connectivity machinery for edge-colored k-uniform hypergraphs.

Two c-sets are l-connected in a color when a walk of same-color edges joins
them with consecutive intersections of size >= l.  Components are computed as
shadows of the edge-intersection graph: within one color, edges are grouped by
the ">= l overlap" relation and a component's shadow is every c-subset of its
edges.  For c >= l the shadows are exactly the equivalence classes; for c < l
the relation is not transitive and shadows are the sound, efficiently
computable refinement every theorem here uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import adjacency, component_masks, mask_of, vertices_of
from .duality import ColoredHypergraph, HypergraphError
from .exact import tc_cl_exact


@dataclass(frozen=True)
class CLComponent:
    color: int
    edge_core: tuple[tuple[int, ...], ...]
    shadow: frozenset[tuple[int, ...]]


def _check_params(h: ColoredHypergraph, c: int, ell: int):
    if h.k < 2:
        raise HypergraphError("need a k-uniform hypergraph with k >= 2")
    if not (1 <= c <= h.k - 1) or not (1 <= ell <= h.k - 1):
        raise HypergraphError(f"need 1 <= c, ell <= k-1 = {h.k - 1}")


def _overlap_adjacency(edges, ell: int) -> list[int]:
    """Mask adjacency on edge indices: i ~ j when edges i and j share >= ell vertices."""
    vmask = [mask_of(e) for e in edges]
    pairs = itertools.combinations(range(len(edges)), 2)
    return adjacency(len(edges), [(i, j) for i, j in pairs
                                  if (vmask[i] & vmask[j]).bit_count() >= ell])


def cl_components(h: ColoredHypergraph, c: int, ell: int) -> list[CLComponent]:
    """Monochromatic (c,ell)-components as shadows of edge cores, all colors."""
    _check_params(h, c, ell)
    by_color: dict[int, list[tuple[int, ...]]] = {}
    for color, vs in h.edges():
        if color is None:
            raise HypergraphError("cl_components needs an edge-colored hypergraph")
        by_color.setdefault(color, []).append(vs)
    out = []
    for color in sorted(by_color):
        edges = by_color[color]
        adj = _overlap_adjacency(edges, ell)
        groups = [vertices_of(m) for m in component_masks(adj, (1 << len(edges)) - 1)]
        for group in sorted(groups, key=lambda grp: min(edges[i] for i in grp)):
            core = tuple(sorted(edges[i] for i in group))
            shadow = set()
            for e in core:
                shadow.update(itertools.combinations(e, c))
            out.append(CLComponent(color, core, frozenset(shadow)))
    return out


def mc_cl(h: ColoredHypergraph, c: int, ell: int):
    """Largest monochromatic (c,ell)-component: (size, color, shadow)."""
    comps = cl_components(h, c, ell)
    if not comps:
        raise HypergraphError("no colored edges")
    best = max(comps, key=lambda comp: (len(comp.shadow), -comp.color))
    return len(best.shadow), best.color, best.shadow


def exhaustive_tight_spanning(n: int) -> int:
    """Check every 3-coloring of K_n^3 for a spanning monochromatic tight component.

    Lean enumeration over all 3^C(n,3) colorings, with components over the
    edge-overlap mask adjacency; returns the number of colorings checked and
    raises on the first failure.  Used by the exhaustive acceptance run; spot
    instances are cross-checked against tight_spanning in the tests.
    """
    edges = list(itertools.combinations(range(n), 3))
    heavy = _overlap_adjacency(edges, 2)
    vmask = [mask_of(e) for e in edges]
    full = (1 << n) - 1

    def spans(class_mask):
        for comp in component_masks(heavy, class_mask):
            shadow = 0
            for i in vertices_of(comp):
                shadow |= vmask[i]
            if shadow == full:
                return True
        return False

    checked = 0
    for coloring in itertools.product(range(3), repeat=len(edges)):
        checked += 1
        classes = [0] * 3
        for i, c in enumerate(coloring):
            classes[c] |= 1 << i
        if not any(spans(cm) for cm in classes):
            raise AssertionError(f"no spanning tight component for {coloring}")
    return checked


def tight_spanning(h: ColoredHypergraph):
    """A monochromatic (1,2)-component spanning all vertices of a 3-colored K_n^3.

    Existence is guaranteed; a missing witness is an internal failure and
    raises with the offending hypergraph.  Anything but an edge-colored
    complete K_n^3 with colors in 1..3 is a HypergraphError.
    """
    if h.k != 3:
        raise HypergraphError("tight_spanning expects a 3-uniform hypergraph")
    _check_complete(h, "tight_spanning")
    for col, vs in h.edges():
        if col > 3:
            raise HypergraphError(f"tight_spanning needs colors 1..3: edge {vs} has color {col}")
    for comp in cl_components(h, 1, 2):
        if len(comp.shadow) == h.n:
            return comp
    raise AssertionError(f"no spanning tightly connected component in {h!r}; "
                         f"edges={h.edges()}")


# ---------------------------------------------------------------------------
# constructive covers


def _check_complete(h: ColoredHypergraph, who: str):
    """Reject h unless it is an edge-colored complete K_n^k with n >= k, as
    every cover below assumes: each k-set of vertices is one edge with one
    color."""
    edges = h.edges()
    if any(col is None for col, _ in edges):
        raise HypergraphError(f"{who} needs an edge-colored hypergraph")
    m = math.comb(h.n, h.k)
    if h.n < h.k or len(edges) != m or len({vs for _, vs in edges}) != m:
        raise HypergraphError(f"{who} expects a complete K_n^k with n >= k")


def _comp_lookup(comps):
    """(color, c-set) -> the component of that color whose shadow holds the
    c-set; unique because every caller has c >= ell (disjoint shadows)."""
    return {(comp.color, s): comp for comp in comps for s in comp.shadow}


def _checked(h: ColoredHypergraph, c: int, pieces, bound: int, what: str):
    """pieces, once their shadows are seen to cover every c-set of h with at
    most bound pieces.  Raises AssertionError, not assert, so -O keeps it."""
    covered = set().union(*(comp.shadow for comp in pieces))
    if len(covered) != math.comb(h.n, c):
        raise AssertionError(f"{what} cover must span all c-sets")
    if len(pieces) > bound:
        raise AssertionError(f"{what} cover has {len(pieces)} pieces, above {bound}")
    return pieces


def kiraly_cover(h: ColoredHypergraph):
    """At most ceil(r/k) monochromatic (1,1)-components covering the vertices
    of a complete K_n^k.

    Follows the recursion: either some (k-1)-set meets few colors and its star
    components cover, or the top color is absorbed into a lower one.
    """
    if h.k < 3:
        raise HypergraphError("kiraly_cover needs k >= 3")
    _check_complete(h, "kiraly_cover")
    n, k = h.n, h.k
    current = {vs: col for col, vs in h.edges()}
    rr = max(current.values(), default=1)
    target = -(-rr // k)  # ceil
    while True:
        thresh = -(-rr // k)
        # the first (k-1)-set whose superedges carry at most thresh colors
        found = None
        for S in itertools.combinations(range(n), k - 1):
            cols = {current[tuple(sorted(S + (v,)))] for v in range(n) if v not in S}
            if len(cols) <= thresh:
                found = (S, sorted(cols))
                break
        if found is not None:
            S, cols = found
            break
        # absorb the highest active color
        top = max(current.values())
        subset_colors: dict[tuple[int, ...], set[int]] = {}
        for e, col in current.items():
            for T in itertools.combinations(e, k - 1):
                subset_colors.setdefault(T, set()).add(col)
        new = dict(current)
        for e, col in current.items():
            if col != top:
                continue
            lower = None
            for T1, T2 in itertools.combinations(itertools.combinations(e, k - 1), 2):
                common = sorted((subset_colors[T1] & subset_colors[T2]) - {top})
                if common:
                    lower = common[0]
                    break
            if lower is None:
                raise AssertionError(f"pigeonhole absorption finds no color for {e} in {h!r}")
            new[e] = lower
        current = new
        rr -= 1
        if rr < 1:
            raise AssertionError(f"absorption leaves no color in {h!r}")

    # pieces: for each current color on S's stars, the ORIGINAL component of
    # that color through S.  Absorption keeps per-color component shadows
    # unchanged (an absorbed edge's vertices lie inside one existing
    # component, and distinct (1,1)-components of a color are vertex-disjoint),
    # so that component covers every v whose star edge currently has the color.
    lookup = _comp_lookup(cl_components(h, 1, 1))
    pieces = [lookup[(col, S[:1])] for col in cols]
    return _checked(h, 1, pieces, target, "kiraly")


def cover_product(h: ColoredHypergraph, c: int, ell: int):
    """Cover of the c-sets of a complete K_n^k via the floor(k/c)-uniform
    auxiliary hypergraph.

    For floor(k/c) >= 3 this is the recursion bound ceil(r / floor(k/c)); for
    floor(k/c) = 2 the trivial route (components through a fixed c-set) gives
    at most r pieces.
    """
    _check_params(h, c, ell)
    _check_complete(h, "cover_product")
    if not (ell <= c <= h.k / 2):
        raise HypergraphError("cover_product needs ell <= c <= k/2")
    n, k = h.n, h.k
    kk = k // c
    csets = list(itertools.combinations(range(n), c))
    lookup = _comp_lookup(cl_components(h, c, ell))
    color_of = {vs: col for col, vs in h.edges()}
    r = max(color_of.values())

    def witness_color(union):
        """Color of the first edge holding the vertex set union."""
        e = sorted(union)
        e += [v for v in range(n) if v not in union][:k - len(e)]
        return color_of[tuple(sorted(e))]

    if kk >= 3:
        # auxiliary complete kk-uniform hypergraph on c-sets, colored by witness edges
        aux_edges = []
        for combo in itertools.combinations(range(len(csets)), kk):
            union = set().union(*(csets[i] for i in combo))
            if len(union) > k:  # kk*c <= k keeps every union inside an edge
                raise AssertionError(f"{kk} c-sets span {len(union)} > k vertices in {h!r}")
            aux_edges.append((witness_color(union), combo))
        aux = ColoredHypergraph(len(csets), kk, h.r, None, aux_edges)
        # pull back: any aux core edge's first c-set, in the same color
        pieces = dict.fromkeys(lookup[(comp.color, csets[comp.edge_core[0][0]])]
                               for comp in kiraly_cover(aux))
        bound = -(-r // kk)
    else:
        # trivial route: the components through the first c-set
        x0 = csets[0]
        pieces = dict.fromkeys(lookup[(witness_color(set(x0) | set(s)), x0)]
                               for s in csets)
        bound = r
    return _checked(h, c, list(pieces), bound, "product")


def cover_midrange(h: ColoredHypergraph, c: int, ell: int, budget=None):
    """Cover of the c-sets of a complete K_n^k in the regime
    k/2 < c <= k-(1-1/r)l.

    r=2 is the minimum (c,ell)-cover from the exact kernel, tc_cl_exact on the
    budget, which the theorem (Konig on the closure graph of the c-sets) keeps at <= 2
    components.  Otherwise a maximal independent set I of the closure graph
    (|I| <= r by the theorem) yields the <= r|I| components through its
    elements, greedily pruned.
    """
    _check_params(h, c, ell)
    _check_complete(h, "cover_midrange")
    if c < ell:
        raise HypergraphError("cover_midrange needs c >= ell")
    r = h.r if h.r else max(col for col, _ in h.edges())
    if not (h.k / 2 < c <= h.k - (1 - 1 / r) * ell):
        raise HypergraphError("cover_midrange range violated")
    if r == 2:
        _, pieces = tc_cl_exact(h, c, ell, budget)
        return _checked(h, c, pieces, 2, "midrange")
    csets = list(itertools.combinations(range(h.n), c))
    lookup = _comp_lookup(cl_components(h, c, ell))
    # greedy maximal independent set in the closure graph: c-sets sharing no component
    indep: list[tuple[int, ...]] = []
    blocked = set()
    for s in csets:
        if s in blocked:
            continue
        indep.append(s)
        for color in range(1, r + 1):
            if (color, s) in lookup:
                blocked |= lookup[(color, s)].shadow
    if len(indep) > r:
        raise AssertionError(f"independent set of {len(indep)} c-sets exceeds r = {r}")
    chosen = list(dict.fromkeys(lookup[(color, s)] for s in indep
                                for color in range(1, r + 1) if (color, s) in lookup))
    # prune redundant pieces greedily, the last redundant one first, until none is
    while True:
        j = next((j for j in range(len(chosen) - 1, -1, -1)
                  if len(set().union(*(comp.shadow for t, comp in enumerate(chosen)
                                       if t != j))) == len(csets)), None)
        if j is None:
            break
        chosen.pop(j)
    return _checked(h, c, chosen, r * len(indep), "midrange")


# ---------------------------------------------------------------------------
# lower-bound colorings


def hyper_lower_coloring(variant: str, r: int, c: int, ell: int, k: int,
                         n: int) -> ColoredHypergraph:
    """The two extremal colorings: 'KC' (blocked by q-subsets of colors) and
    'NC' (the injection coloring giving the floor(n/c)+1 bound)."""
    variant = variant.upper()
    if variant == "KC":
        t = k // c
        q = -(-r // t) - 1
        combos = list(itertools.combinations(range(1, r + 1), q))
        m = len(combos)
        if n < c * m:
            raise HypergraphError(f"KC needs n >= c*C(r,{q}) = {c * m}")
        sizes = [n // m + (1 if i < n % m else 0) for i in range(m)]
        blocks = []
        acc = 0
        for s in sizes:
            blocks.append(set(range(acc, acc + s)))
            acc += s
        edges = []
        for e in itertools.combinations(range(n), k):
            phi = set()
            es = set(e)
            for i, b in enumerate(blocks):
                if len(es & b) >= c:
                    phi.update(combos[i])
            rest = sorted(set(range(1, r + 1)) - phi)
            if not rest:
                raise AssertionError(f"KC coloring: phi exhausts all colors on edge {e}")
            edges.append((rest[0], e))
        return ColoredHypergraph(n, k, r, None, edges)
    if variant == "NC":
        if not (c > max(k - (1 - 1 / r) * ell, k / 2)):
            raise HypergraphError("NC needs c > max{k-(1-1/r)l, k/2}")
        t = n // c
        xs = [tuple(range(i * c, (i + 1) * c)) for i in range(t)]
        edges = []
        for e in itertools.combinations(range(n), k):
            es = set(e)
            color = None
            for y in itertools.combinations(sorted(es), ell):
                iy = [i for i in range(t) if len(set(y) | set(xs[i])) <= k]
                if len(iy) > r - 1:
                    raise AssertionError(f"NC coloring: I_y has {len(iy)} > r - 1 "
                                         f"members for y = {y}")
                for rank, i in enumerate(iy):
                    if set(y) | set(xs[i]) <= es:
                        color = rank + 1
                        break
                if color is not None:
                    break
            edges.append((color if color is not None else r, e))
        return ColoredHypergraph(n, k, r, None, edges)
    raise ValueError(f"unknown variant {variant!r}")


def kc_lower_bound(r: int, c: int, k: int) -> int:
    return -(-r // (k // c))


def nc_lower_bound(n: int, c: int) -> int:
    return n // c + 1
