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
from dataclasses import dataclass

from .core import adjacency, component_masks, mask_of, vertices_of
from .duality import ColoredHypergraph, HypergraphError


@dataclass(frozen=True)
class CLComponent:
    color: int
    edge_core: tuple[tuple[int, ...], ...]
    shadow: frozenset[tuple[int, ...]]

    def spans(self, n: int, c: int) -> bool:
        import math
        return len(self.shadow) == math.comb(n, c)


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


def exhaustive_tight_spanning(n: int, colors: int = 3) -> int:
    """Check every coloring of K_n^3 for a spanning monochromatic tight component.

    Lean enumeration over all colors^C(n,3) colorings, with components over the
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
    for coloring in itertools.product(range(colors), repeat=len(edges)):
        checked += 1
        classes = [0] * colors
        for i, c in enumerate(coloring):
            classes[c] |= 1 << i
        if not any(spans(cm) for cm in classes):
            raise AssertionError(f"no spanning tight component for {coloring}")
    return checked


def tight_spanning(h: ColoredHypergraph):
    """A monochromatic (1,2)-component spanning all vertices of a 3-colored K_n^3.

    Existence is guaranteed; a missing witness is an internal failure and
    raises with the offending hypergraph.
    """
    if h.k != 3:
        raise HypergraphError("tight_spanning expects a 3-uniform hypergraph")
    for comp in cl_components(h, 1, 2):
        if len(comp.shadow) == h.n:
            return comp
    raise AssertionError(f"no spanning tightly connected component in {h!r}; "
                         f"edges={h.edges()}")


# ---------------------------------------------------------------------------
# constructive covers


def kiraly_cover(h: ColoredHypergraph):
    """At most ceil(r/k) monochromatic (1,1)-components covering the vertices.

    Follows the recursion: either some (k-1)-set meets few colors and its star
    components cover, or the top color is absorbed into a lower one.
    """
    if h.k < 3:
        raise HypergraphError("kiraly_cover needs k >= 3")
    base_edges = list(h.edges())
    if any(c is None for c, _ in base_edges):
        raise HypergraphError("kiraly_cover needs an edge-colored hypergraph")
    n, k = h.n, h.k
    colors_in_use = sorted({c for c, _ in base_edges})
    r = max(colors_in_use) if colors_in_use else 1
    target = -(-r // k)  # ceil

    color_of = {vs: c for c, vs in base_edges}
    import math
    if math.comb(n, k) != len(base_edges):
        raise HypergraphError("kiraly_cover expects a complete K_n^k")

    current = dict(color_of)
    rr = r
    while True:
        thresh = -(-rr // k)
        # colors on the superedges of each (k-1)-set
        found = None
        for S in itertools.combinations(range(n), k - 1):
            cols = set()
            rest = [v for v in range(n) if v not in S]
            for v in rest:
                e = tuple(sorted(S + (v,)))
                cols.add(current[e])
            if len(cols) <= thresh:
                found = (S, sorted(cols))
                break
        if found is not None:
            S, cols = found
            break
        # absorb the highest active color
        active = sorted({c for c in current.values()})
        top = active[-1]
        subset_colors: dict[tuple[int, ...], set[int]] = {}
        for e, c in current.items():
            for T in itertools.combinations(e, k - 1):
                subset_colors.setdefault(T, set()).add(c)
        new = dict(current)
        for e, c in current.items():
            if c != top:
                continue
            subs = list(itertools.combinations(e, k - 1))
            lower = None
            for T1, T2 in itertools.combinations(subs, 2):
                common = sorted((subset_colors[T1] & subset_colors[T2]) - {top})
                if common:
                    lower = common[0]
                    break
            assert lower is not None, "pigeonhole absorption must find a color"
            new[e] = lower
        current = new
        rr -= 1
        assert rr >= 1

    # pieces: for each current color c on S's stars, the ORIGINAL color-c
    # component whose shadow contains the witness edge.  Absorption keeps
    # per-color component shadows unchanged (an absorbed edge's vertices lie
    # inside one existing component, and distinct (1,1)-components of a color
    # are vertex-disjoint), so that component covers every v whose star edge
    # currently has color c.
    comps = cl_components(h, 1, 1)
    shadow_vertices = {}
    for cp in comps:
        shadow_vertices[(cp.color, cp.edge_core)] = {v for (v,) in cp.shadow}
    rest = [v for v in range(n) if v not in S]
    dedup = []
    seen = set()
    for c in cols:
        witness = None
        for v in rest:
            e = tuple(sorted(S + (v,)))
            if current[e] == c:
                witness = e
                break
        assert witness is not None
        comp = next(cp for cp in comps if cp.color == c
                    and set(witness) <= shadow_vertices[(cp.color, cp.edge_core)])
        key = (comp.color, comp.edge_core)
        if key not in seen:
            seen.add(key)
            dedup.append(comp)
    covered = set()
    for comp in dedup:
        covered |= shadow_vertices[(comp.color, comp.edge_core)]
    if covered != set(range(n)):
        raise AssertionError("kiraly cover failed to span")
    if len(dedup) > target:
        raise AssertionError(f"kiraly cover has {len(dedup)} pieces, above {target}")
    return dedup


def cover_product(h: ColoredHypergraph, c: int, ell: int):
    """Cover of the c-sets via the floor(k/c)-uniform auxiliary hypergraph.

    For floor(k/c) >= 3 this is the recursion bound ceil(r / floor(k/c)); for
    floor(k/c) = 2 the trivial route (components through a fixed c-set) gives
    at most r pieces.
    """
    _check_params(h, c, ell)
    if not (ell <= c <= h.k / 2):
        raise HypergraphError("cover_product needs ell <= c <= k/2")
    n, k = h.n, h.k
    kk = k // c
    csets = list(itertools.combinations(range(n), c))
    comps = cl_components(h, c, ell)

    def comp_containing(cset, color):
        for comp in comps:
            if comp.color == color and cset in comp.shadow:
                return comp
        raise AssertionError("every c-set inside an edge lies in a component")

    color_of = {vs: col for col, vs in h.edges()}

    def complete_to_edge(union):
        e = sorted(union)
        for v in range(n):
            if len(e) == k:
                break
            if v not in union:
                e.append(v)
        return tuple(sorted(e))

    if kk >= 3:
        # auxiliary complete kk-uniform hypergraph on c-sets, colored by witness edges
        aux_edges = []
        for combo in itertools.combinations(range(len(csets)), kk):
            union = set()
            for i in combo:
                union.update(csets[i])
            assert len(union) <= k, "kk*c <= k keeps every union inside an edge"
            witness = complete_to_edge(union)
            aux_edges.append((color_of[witness], tuple(combo)))
        aux = ColoredHypergraph(len(csets), kk, h.r, None, aux_edges)
        aux_cover = kiraly_cover(aux)
        pieces = []
        seen = set()
        for comp in aux_cover:
            # pull back: any aux core edge's first c-set, in the same color
            first_aux_edge = comp.edge_core[0]
            cset = csets[first_aux_edge[0]]
            pc = comp_containing(cset, comp.color)
            key = (pc.color, pc.edge_core)
            if key not in seen:
                seen.add(key)
                pieces.append(pc)
    else:
        # trivial route: the components through the first c-set
        x0 = csets[0]
        pieces = []
        seen = set()
        for s in csets:
            union = set(x0) | set(s)
            assert len(union) <= k, "2c <= k guarantees a common edge"
            witness = complete_to_edge(union)
            pc = comp_containing(x0, color_of[witness])
            key = (pc.color, pc.edge_core)
            if key not in seen:
                seen.add(key)
                pieces.append(pc)

    covered = set()
    for pc in pieces:
        covered |= pc.shadow
    if covered != set(csets):
        raise AssertionError("product cover must span all c-sets")
    return pieces


def cover_midrange(h: ColoredHypergraph, c: int, ell: int):
    """Cover in the regime k/2 < c <= k-(1-1/r)l via the closure graph on c-sets.

    r=2 goes through Konig on the closure graph (<= 2 components); otherwise a
    maximal independent set I (|I| <= r by the theorem) yields the <= r|I|
    components through its elements, greedily pruned.
    """
    from .core import ColoredMultigraph
    from .exact import tc_exact

    _check_params(h, c, ell)
    if c < ell:
        raise HypergraphError("cover_midrange needs c >= ell")
    if any(col is None for col, _ in h.edges()):
        raise HypergraphError("cover_midrange needs an edge-colored hypergraph")
    r = h.r if h.r else max(col for col, _ in h.edges())
    if not (h.k / 2 < c <= h.k - (1 - 1 / r) * ell):
        raise HypergraphError("cover_midrange range violated")
    n = h.n
    csets = list(itertools.combinations(range(n), c))
    idx = {s: i for i, s in enumerate(csets)}
    comps = cl_components(h, c, ell)
    # closure graph: vertices = c-sets, color i edge iff same (c,l)-component
    edges = []
    for comp in comps:
        sh = sorted(comp.shadow)
        for a, b in itertools.combinations(sh, 2):
            edges.append((idx[a], idx[b], comp.color))
    gc = ColoredMultigraph.from_edges(len(csets), r, edges)

    if r == 2:
        size, cert = tc_exact(gc)  # Konig scale: component set cover is tiny here
        if size > 2:
            raise AssertionError(f"two-color closure graph needs {size} > 2 components")
        pieces = []
        for color, vs in [(p[0], p[1]) for p in cert.pieces]:
            s0 = csets[vs[0]]
            pc = next(q for q in comps if q.color == color and s0 in q.shadow)
            pieces.append(pc)
        chosen = pieces
    else:
        # greedy maximal independent set in the closure graph
        in_comp: dict[tuple[int, int], CLComponent] = {}
        for comp in comps:
            for s in comp.shadow:
                in_comp[(comp.color, idx[s])] = comp
        indep: list[int] = []
        blocked = set()
        for i in range(len(csets)):
            if i in blocked:
                continue
            indep.append(i)
            for comp in comps:
                if csets[i] in comp.shadow:
                    blocked.update(idx[s] for s in comp.shadow)
        if len(indep) > r:
            raise AssertionError(f"independent set of {len(indep)} c-sets exceeds r = {r}")
        chosen = []
        seen = set()
        for i in indep:
            for color in range(1, r + 1):
                comp = in_comp.get((color, i))
                if comp is None:
                    continue
                key = (comp.color, comp.edge_core)
                if key not in seen:
                    seen.add(key)
                    chosen.append(comp)
        # prune redundant pieces greedily (smallest contribution first)
        changed = True
        while changed:
            changed = False
            for j in range(len(chosen) - 1, -1, -1):
                rest = set()
                for t, comp in enumerate(chosen):
                    if t != j:
                        rest |= comp.shadow
                if rest == set(csets):
                    chosen.pop(j)
                    changed = True
                    break
    covered = set()
    for comp in chosen:
        covered |= comp.shadow
    if covered != set(csets):
        raise AssertionError("midrange cover must span all c-sets")
    return chosen


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
            assert rest, "phi can never exhaust all colors"
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
                assert len(iy) <= r - 1, "I_y may not exceed r-1"
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
