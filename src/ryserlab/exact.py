"""Exhaustive, pruned solvers for the cover and partition quantities.

These are the ground truth at desk scale: every constructive algorithm and
every quoted bound is checked against them.  Budgets make giving up explicit:
an exceeded budget yields an "inconclusive" outcome, never a wrong value.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time

from .core import (ColoredMultigraph, GraphError, checked, closed_graph,
                   _connected_diameter, component_masks, components,
                   connected_subsets, greedy_independent, lowest_vertex,
                   make_certificate, mask_of, max_independent, reach, vertices_of)

# the search a stage belongs to, as an exhausted budget's message names it
_SEARCH = {"matching": "matching search",
           "diameter pieces": "diameter-piece enumeration"}

# tp_exact's table of refuted vertex sets takes no new entry past this size
_DEAD_CAP = 1 << 20


class SolveBudget:
    """One deadline, fixed when the budget is made, one node allowance, and the
    nodes and named counts of a whole run; solvers hand it to those they call."""

    def __init__(self, max_nodes: int = 50_000_000, max_seconds: float = 600.0):
        self.max_nodes = max_nodes
        self.nodes = 0
        self.counts = {}  # the run's named counters beside nodes, as hunt's "solved"
        self._deadline = time.monotonic() + max_seconds
        self._check_at = 1  # the node count at which the budget is next checked

    def charge(self, stage: str, nodes: int = 1):
        """Count nodes spent in stage; past max_nodes or the deadline (read on
        the first charge, then every 8192 nodes) raise Inconclusive."""
        self.nodes += nodes
        if self.nodes >= self._check_at:
            if self.nodes > self.max_nodes or time.monotonic() >= self._deadline:
                raise self.inconclusive(f"{_SEARCH.get(stage, stage)} budget exhausted",
                                        stage=stage)
            self._check_at = min(self.nodes + 8192, self.max_nodes + 1)

    def inconclusive(self, message: str, best=None, **stats) -> Inconclusive:
        """An Inconclusive whose stats are the run's nodes, stats and counts."""
        return Inconclusive(message, {"nodes": self.nodes, **stats, **self.counts}, best)

    def seconds_left(self) -> float:
        return max(0.0, self._deadline - time.monotonic())

    def nodes_left(self) -> int:
        return max(0, self.max_nodes - self.nodes)


class Inconclusive(Exception):
    """Budget exhausted before the search space was settled.

    stats (from SolveBudget.inconclusive) holds JSON-safe counters; best, where
    the search has one, is the best solution found before the budget ran out.
    """

    def __init__(self, message, stats, best=None):
        super().__init__(message)
        self.stats = stats
        self.best = best


class Infeasible(Exception):
    """No cover exists under the given constraints."""

    def __init__(self, message, witness_vertex=None):
        super().__init__(message)
        self.witness_vertex = witness_vertex


# ---------------------------------------------------------------------------
# minimum set cover over bitmask candidates
#
# Every exact answer in this package is a minimum set cover, and two backends
# solve it under one contract.  min_cover(universe, candidates, budget) and
# min_cover_milp with the same arguments cover the int bitmask universe with
# (mask, payload) candidates, whose masks are read inside the universe.  They
# return (size, payloads) of a minimum cover; raise Infeasible naming the
# lowest element that no candidate covers; and when the budget runs out raise
# Inconclusive with JSON-safe stats ("nodes", and "lower" from the MILP dual
# bound) and the best cover found so far, as (size, payloads), on its best
# attribute.


def _check_coverable(universe: int, masks):
    missing = universe & ~functools.reduce(operator.or_, masks, 0)
    if missing:
        v = lowest_vertex(missing)
        raise Infeasible(f"vertex {v} is not coverable", witness_vertex=v)


def min_cover(universe: int, candidates, budget: SolveBudget | None = None, at_most=None):
    """Minimum set cover by branch and bound.

    Candidates sorted by decreasing size, a greedy upper bound first, then
    branching on the least-covered element, pruned by ceil(uncovered / s) for
    s the most uncovered elements one candidate holds; s never grows down a
    branch, so a node rescans for its own s only when its parent's does not prune.
    The search is one loop over a stack of (covered, chosen, s) nodes; each
    node's options are pushed in reverse, so they pop in sorted order and the
    tree is walked in pre-order.

    With at_most=k it decides instead: pruned at k + 1 from the start, it
    returns the first cover of size <= k (the greedy one after one charged
    node, if small enough) or None; an Inconclusive carries that cover or None.
    """
    budget = budget or SolveBudget()
    cands = [(m & universe, p) for m, p in candidates]
    _check_coverable(universe, (m for m, _ in cands))
    if not universe:
        return 0, []
    cands.sort(key=lambda t: -t[0].bit_count())

    # greedy upper bound
    acc = 0
    greedy = []
    while acc != universe:
        best = max(cands, key=lambda t: (t[0] & ~acc).bit_count())
        greedy.append(best)
        acc |= best[0]
    best_size = len(greedy)
    best_sol = [p for _, p in greedy]
    charge = budget.charge
    stop = -1 if at_most is None else at_most  # a cover this small ends the search
    try:
        if best_size <= stop:
            charge("set cover")
            return best_size, best_sol
        if at_most is not None:
            best_size, best_sol = at_most + 1, None

        by_elem = [[] for _ in range(universe.bit_length())]
        for t in cands:
            for e in vertices_of(t[0]):
                by_elem[e].append(t)
        n_opts = [len(opts) for opts in by_elem]
        stack = [(0, (), cands[0][0].bit_count())]
        while stack:
            acc, chosen, s = stack.pop()
            charge("set cover")
            if acc == universe:
                if len(chosen) < best_size:
                    best_size, best_sol = len(chosen), list(chosen)
                    if best_size <= stop:
                        break
                continue
            uncovered = universe & ~acc
            uc = uncovered.bit_count()
            if len(chosen) + (uc + s - 1) // s >= best_size:
                continue
            s = max([(m & uncovered).bit_count() for m, _ in cands])
            if len(chosen) + (uc + s - 1) // s >= best_size:
                continue
            # the least-covered uncovered element, the lowest of those tied
            pick = min(vertices_of(uncovered), key=n_opts.__getitem__)
            opts = sorted(by_elem[pick], key=lambda t: -(t[0] & uncovered).bit_count())
            stack += [(acc | m, chosen + (p,), s) for m, p in reversed(opts)]
    except Inconclusive as exc:
        exc.best = None if best_sol is None else (best_size, best_sol)
        raise
    return None if best_sol is None else (best_size, best_sol)


def min_cover_milp(universe: int, candidates, budget: SolveBudget):
    """Minimum set cover through the HiGHS MILP engine: one 0/1 variable per
    candidate, one covering row per universe element."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    masks = [m & universe for m, _ in candidates]
    _check_coverable(universe, masks)
    if not universe:
        return 0, []
    row = {e: i for i, e in enumerate(vertices_of(universe))}
    rows, cols = [], []
    for j, m in enumerate(masks):
        for e in vertices_of(m):
            rows.append(row[e])
            cols.append(j)
    k = len(masks)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(row), k))
    res = milp(c=np.ones(k), constraints=LinearConstraint(A, lb=1, ub=np.inf),
               integrality=np.ones(k), bounds=Bounds(0, 1),
               options={"time_limit": budget.seconds_left(),
                        "node_limit": budget.nodes_left(), "mip_rel_gap": 0.0})
    # added, not charged: a proven optimum must not turn into Inconclusive
    budget.nodes += int(getattr(res, "mip_node_count", None) or 0)
    found = None
    if res.x is not None:
        chosen = [j for j in range(k) if res.x[j] > 0.5]
        acc = 0
        for j in chosen:
            acc |= masks[j]
        if acc == universe:
            found = (len(chosen), [candidates[j][1] for j in chosen])
        elif res.status == 0:
            raise AssertionError("MILP optimum leaves an element uncovered")
    if res.status == 0:
        return found
    dual = getattr(res, "mip_dual_bound", None)
    lower = {"lower": max(0, math.ceil(dual - 1e-9))} \
        if dual is not None and math.isfinite(dual) else {}
    raise budget.inconclusive(f"MILP stopped: {res.message}", found, **lower)


def _connected_subsets_with_diam(g, c, max_diam, budget):
    """The masks of the connected color-c subsets with induced diameter <=
    max_diam, ascending."""
    adj = g.adjacency(c)
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        # every subset once, grown from its lowest vertex
        for mask in connected_subsets(adj, v, full & ~((1 << v) - 1)):
            budget.charge("diameter pieces")
            if _connected_diameter(adj, mask, max_diam) <= max_diam:
                out.append(mask)
    out.sort()
    return out


def tc_exact(g: ColoredMultigraph, max_diam=None, allowed_colors=None,
             budget: SolveBudget | None = None):
    """Minimum monochromatic cover: (size, CoverCertificate).

    Without max_diam the pieces are whole components of the allowed colors;
    with max_diam they are connected sub-pieces of induced diameter <= max_diam.
    """
    if max_diam is not None and max_diam < 0:
        raise GraphError(f"max_diam must be >= 0, got {max_diam}")
    budget = budget or SolveBudget()
    colors = sorted(allowed_colors) if allowed_colors is not None else range(1, g.r + 1)
    if max_diam is None:
        full = (1 << g.n) - 1
        candidates = [(m, (c, m)) for c in colors
                      for m in component_masks(g.adjacency(c), full)]
    else:
        if g.n > 24:
            raise GraphError("diameter-constrained exact cover is limited to n <= 24, "
                             f"got n={g.n}")
        candidates = [(m, (c, m)) for c in colors
                      for m in _connected_subsets_with_diam(g, c, max_diam, budget)]
    size, pieces = min_cover((1 << g.n) - 1, candidates, budget)
    return size, checked(g, pieces, size, max_diam, allowed_colors)


def _tp_bracket(adjs, full, budget):
    """(lower, parts): a lower bound on tp and the greedy partition, as
    (color, mask) parts, with tp <= len(parts).

    The greedy partition takes, again and again, the largest monochromatic
    component of the vertices left, ties to the lowest color and then the
    lowest vertex; singletons go under color 1.  One part means a color
    spans, and two then mean tp = 2, so the bound is sought only past two.

    The bound: let I be independent in the union of the colors (here
    greedy_independent's; any is sound) and Y = V - I.  In a partition, a
    part holding a vertex x of I and another vertex is connected in its
    color c, so x has a c-neighbor in the part, and it is in Y.  With phi(y)
    the color of y's part, at least |phi(Y)| parts meet Y (one color each),
    and each x of I outside every N_phi(y)(y) is a part alone, so
    tp >= |phi(Y)| + |I - union of N_phi(y)(y)|.  lower is the least such
    value over every phi: Y -> colors, capped at len(parts).  A branch and
    bound colors Y one vertex at a time and prunes a node when no color set
    U holding the colors used gets below the best value so far with |U| plus
    the vertices of I that neither the colored vertices nor the rest of Y, in
    U's colors, reach.  The best starts at the least of len(parts), each
    one-color phi, and a greedy phi; the search stops at 2 or less, the least
    tp past one part.  Its nodes are charged to stage "partition bound" and
    counted in budget.counts["bound nodes"].
    """
    parts, avail = [], full
    while avail:
        c, part = max(((c, m) for c, adj in adjs for m in component_masks(adj, avail)),
                      key=lambda p: p[1].bit_count())
        if part & (part - 1) == 0:
            parts += [(1, 1 << v) for v in vertices_of(avail)]
            break
        parts.append((c, part))
        avail &= ~part
    best = len(parts)
    if best <= 2:
        return best, parts
    counts = budget.counts
    counts.setdefault("bound nodes", 0)
    nb = [functools.reduce(operator.or_, rows) for rows in zip(*(adj for _, adj in adjs))]

    def least(i, used, covered):
        """The least |U| + |I left bare| over the color sets U holding used;
        a color reaching at most one vertex that the others leave bare is
        never worth its part."""
        bare = ind & ~covered
        for j, m in enumerate(later[i]):
            if used >> j & 1:
                bare &= ~m
        outs = [(0, bare)]
        for j, m in enumerate(later[i]):
            if not used >> j & 1 and (m & bare).bit_count() > 1:
                outs += [(k + 1, b & ~m) for k, b in outs]
        return used.bit_count() + min(k + b.bit_count() for k, b in outs)

    ind = greedy_independent(nb)
    ys = sorted(vertices_of(full & ~ind), key=lambda y: -(nb[y] & ind).bit_count())
    covs = [[adj[y] & ind for _, adj in adjs] for y in ys]
    # later[i][j]: what the vertices ys[i:] reach of I in color j + 1
    later = [[0] * len(adjs)]
    for cov in reversed(covs):
        later.append(list(map(operator.or_, later[-1], cov)))
    later.reverse()
    used = covered = 0
    for cov in covs:
        j = max(range(len(cov)), key=lambda j: (cov[j] & ~covered).bit_count() - (~used >> j & 1))
        used, covered = used | 1 << j, covered | cov[j]
    best = min([best, used.bit_count() + (ind & ~covered).bit_count()]
               + [1 + (ind & ~m).bit_count() for m in later[0]])
    stack = [(0, 0, 0)]  # (vertices of ys colored, colors used, I reached)
    try:
        while stack and best > 2:
            i, used, covered = stack.pop()
            counts["bound nodes"] += 1
            budget.charge("partition bound")
            if i == len(ys):
                best = min(best, used.bit_count() + (ind & ~covered).bit_count())
            elif not used or least(i, used, covered) < best:
                # each distinct child, fewest colors less most of I reached first
                kids = dict.fromkeys((used | 1 << j, covered | cov)
                                     for j, cov in enumerate(covs[i]))
                stack += reversed(sorted(((i + 1, u, c) for u, c in kids),
                                         key=lambda k: k[1].bit_count() - k[2].bit_count()))
    except Inconclusive as exc:
        exc.stats.update(lower=2, upper=len(parts))
        raise
    return best, parts


def tp_exact(g: ColoredMultigraph, budget: SolveBudget | None = None):
    """Minimum monochromatic partition: (size, CoverCertificate in partition mode).

    Parts are vertex-disjoint connected monochromatic subgraphs, possibly proper
    subgraphs of components.  _tp_bracket first gives a greedy partition and
    a lower bound; when they meet, the greedy partition is the answer.
    Otherwise an iterative-deepening search, from t = max(2, lower) to one
    below the greedy size, grows each part from the lowest uncovered vertex,
    and the greedy partition is returned if every t is refuted.  Twins
    (vertices u, v with c(u, w) = c(v, w) for every color c and every other
    vertex w) are interchangeable, so a part takes only a prefix, in index
    order, of each twin class's uncovered vertices.  When two parts are
    left, the first is grown by one pruned connected_subsets walk per color,
    and the second is read off each growth state's complement (two_parts).
    Every dfs call and every growth state checked is one budget node.  An
    exhausted budget's Inconclusive carries "lower", below which every t was
    refuted, and "upper", the greedy size.

    The search below a vertex set left depends on that set alone, and one
    refuted with k parts is refuted with fewer, so dead[avail], kept across
    every t, holds the most parts refuted on avail; a dfs call whose t_left
    is no more than that returns at once, counted in budget.counts["dead
    states"].  The table takes no new entry once it holds _DEAD_CAP, which
    costs only repeated work.
    """
    budget = budget or SolveBudget()
    n = g.n
    if n == 0:
        return 0, make_certificate([], mode="partition", max_size=0)
    if g.r == 0:
        raise Infeasible("vertex 0 is not coverable", witness_vertex=0)
    full = (1 << n) - 1
    adjs = [(c, g.adjacency(c)) for c in range(1, g.r + 1)]

    def certified(pieces):
        """(t, verified certificate) for a list of (color, mask) parts."""
        return len(pieces), checked(g, pieces, len(pieces), mode="partition")

    lower, greedy = _tp_bracket(adjs, full, budget)
    upper = len(greedy)
    if lower >= upper:
        return certified(greedy)

    # lower_twins[u]: the twins of u of lower index
    lower_twins = [0] * n
    for u in range(n):
        for v in range(u):
            pair = ~((1 << u) | (1 << v))
            if all((adj[u] ^ adj[v]) & pair == 0 for _, adj in adjs):
                lower_twins[u] |= 1 << v

    # iterative deepening DFS over pieces grown from the lowest uncovered vertex
    charge = budget.charge

    def pieces_from(v, avail):
        """(color, mask) of the connected monochromatic subsets containing v
        inside avail that hold a prefix of each twin class's vertices in avail;
        the singleton comes once, under color 1."""
        single = 1 << v
        for c, adj in adjs:
            for mask in connected_subsets(adj, v, avail, lower_twins):
                if mask != single or c == 1:
                    yield c, mask

    def two_parts(avail):
        """At most two (color, mask) parts partitioning avail, or None.

        The first part A, connected in color a, is grown from avail's lowest
        vertex v as pieces_from grows it.  The vertices of avail that A can
        no longer reach from v in color a, avoiding those passed over (which
        it cannot reach either), are forced into the second part B.  B lies
        in rest = avail & ~A and is connected in some color b, so it lies in
        the b-component of rest through a forced vertex.  A growth state is
        accepted when, for some b, that component (through rest's lowest
        vertex if none is forced) is all of rest, and dropped with its
        branch when, for every b, it misses a forced vertex.
        """
        v = lowest_vertex(avail)
        found = None

        def check(s, excluded):
            nonlocal found
            charge("partition search")
            rest = avail & ~s
            if not rest:
                found = []
                return False
            forced = avail & ~reach(adj_a, v, avail & ~excluded)
            src = lowest_vertex(forced or rest)
            hopeless = True
            for b, adj_b in adjs:
                comp = reach(adj_b, src, rest)
                if comp == rest:
                    found = [(b, rest)]
                    return False
                if not forced & ~comp:
                    hopeless = False
            return hopeless

        for a, adj_a in adjs:
            for s in connected_subsets(adj_a, v, avail, lower_twins, check):
                if found is not None:
                    return [(a, s)] + found
        return None

    dead = {}
    counts = budget.counts
    counts.setdefault("dead states", 0)

    def dfs(avail, t_left, acc):
        charge("partition search")
        if avail == 0:
            return list(acc)
        if dead.get(avail, 0) >= t_left:
            counts["dead states"] += 1
            return None
        if t_left == 2:
            got = two_parts(avail)
            if got is not None:
                return acc + got
        else:
            v = (avail & -avail).bit_length() - 1
            for c, mask in pieces_from(v, avail):
                acc.append((c, mask))
                got = dfs(avail & ~mask, t_left - 1, acc)
                if got is not None:
                    return got
                acc.pop()
        if len(dead) < _DEAD_CAP or avail in dead:
            dead[avail] = t_left
        return None

    for t in range(max(2, lower), upper):
        try:
            got = dfs(full, t, [])
        except Inconclusive as exc:
            exc.stats.update(lower=t, upper=upper)
            raise
        if got is not None:
            return certified(got)
    return certified(greedy)


def mc_graph(g: ColoredMultigraph):
    """Largest monochromatic component: (size, color, vertex tuple)."""
    if g.n == 0 or g.r == 0:
        raise GraphError("mc needs a graph with a vertex and a color")
    size, c, part = min((-len(part), c, part) for c in range(1, g.r + 1)
                        for part in components(g, c).parts)
    return -size, c, part


# ---------------------------------------------------------------------------
# hypergraph tau / nu


def tau_nu(h, budget: SolveBudget | None = None):
    """Exact matching and vertex cover numbers with witnesses: (tau, cover, nu, matching).

    The matching is a maximum independent set of the edge-intersection graph,
    by max_independent; the cover is a minimum set cover of the edges by the
    vertices.  Both witnesses are checked, by raise so that python -O keeps it.
    """
    budget = budget or SolveBudget()
    sets, through = h.edge_vertex_sets(), h.edges_through()
    meets = [functools.reduce(operator.or_, (through[v] for v in vs)) & ~(1 << j)
             for j, vs in enumerate(sets)]
    matching = tuple(vertices_of(max_independent(
        meets, functools.partial(budget.charge, "matching"))))
    nu = len(matching)
    if not sets:
        return 0, (), 0, ()
    tau, chosen = min_cover((1 << len(sets)) - 1,
                            [(m, v) for v, m in enumerate(through) if m], budget)
    cover = tuple(sorted(chosen))
    if len(set().union(*(sets[j] for j in matching))) != sum(len(sets[j]) for j in matching):
        raise AssertionError(f"matching {matching} holds two edges that meet")
    hit = functools.reduce(operator.or_, (through[v] for v in cover), 0)
    if hit != (1 << len(sets)) - 1 or len(set(cover)) != tau:
        raise AssertionError(f"cover {cover} is not {tau} vertices meeting every edge")
    if tau < nu:
        raise AssertionError(f"tau = {tau} < nu = {nu}: a solver is wrong")
    return tau, cover, nu, matching


def tc_cl_exact(h, c: int, ell: int, budget: SolveBudget | None = None):
    """Minimum cover of all c-sets by monochromatic (c,ell)-components.

    Raises Infeasible naming the first c-set no component holds; its
    witness_vertex is that c-set's index in combinations order."""
    from .hypercover import _checked, cl_components

    comps = cl_components(h, c, ell)
    csets = list(itertools.combinations(range(h.n), c))
    idx = {s: i for i, s in enumerate(csets)}
    candidates = [(mask_of(idx[s] for s in comp.shadow), comp) for comp in comps]
    try:
        size, pieces = min_cover((1 << len(csets)) - 1, candidates, budget)
    except Infeasible as exc:
        i = exc.witness_vertex
        raise Infeasible(f"c-set {csets[i]} is not coverable", witness_vertex=i) from None
    return size, _checked(h, c, pieces, size, "exact")


# ---------------------------------------------------------------------------
# counterexample hunt


def _pair_permutations(n: int, budget: SolveBudget):
    """For each permutation vp of K_n's vertices, in itertools.permutations
    order (the identity first), the tuple that maps each pair index
    (itertools.combinations order) to the index of its image.  The
    permutations that share vp[:j] form an aligned block of (n - j)!
    consecutive entries.

    Each completed block of 8192 permutations is charged to the budget."""
    pairs = list(itertools.combinations(range(n), 2))
    index = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(pairs):
        index[u][v] = index[v][u] = k
    out = []
    for i, vp in enumerate(itertools.permutations(range(n))):
        rows = [index[x] for x in vp]
        out.append(tuple([rows[u][vp[v]] for u, v in pairs]))
        if i % 8192 == 8191:
            budget.charge("pair permutations", 8192)
    return out


def _first_winner(colv, pair_perms, r: int, lo: int, hi: int, sizes):
    """(i, K) for the first pair permutation i in [lo, hi) that beats colv, as
    _beaten_by defines it, or None.  The scan skips the rest of vp[:j + 1]'s
    block, sizes[j] = (n - 1 - j)! permutations (1 for j >= n - 1), after a
    loss at position k, which reads only vp[:k + 2] (j = k + 1), or an image
    equal to colv: then vp is an automorphism, and with j its first move
    h -> vp o h maps the block of (0, ..., j), scanned earlier with no win,
    onto vp[:j + 1]'s."""
    unlabelled = [0] * (r + 1)
    i = lo
    while i < hi:
        perm = pair_perms[i]
        label = unlabelled.copy()
        top = 0
        k = 0
        for p in perm:
            x = colv[k]
            c = label[colv[p]]
            if c:
                if c != x:
                    if c < x:
                        return i, max(perm[:k + 1]) + 1
                    break
            elif x == top + 1:
                top = label[colv[p]] = x
            else:
                # a first appearance is labelled top + 1 > colv[k]
                break
            k += 1
        else:  # j = k + 1 is vp's first move: vp[:j] is the identity's while i < (n - j)!
            k = -1
            while k < len(sizes) - 2 and sizes[k + 1] > i:
                k += 1
        i += sizes[k + 1] - i % sizes[k + 1]
    return None


def _least_rows(colv, pair_perms, r: int, kept=None, lo: int = 0):
    """kept = (n, block, sizes, least, row0s, by_colors) for _beaten_by, built
    if None, with least[a], vertex a's smallest row 0, refilled for every
    vertex a >= lo.  row0s[a] holds the pair indices of a's row 0, and
    by_colors maps the colors on them to that smallest row, which is shared:
    no caller mutates it."""
    if kept is None:
        n = (1 + math.isqrt(1 + 8 * len(colv))) // 2
        block = len(pair_perms) // n
        # the first permutation of a's block lists a's pairs in row 0
        kept = (n, block,
                [math.factorial(max(n - 1 - j, 0)) for j in range(len(colv) + 1)], [None] * n,
                [pair_perms[a * block][:n - 1] for a in range(n)], {})
    n, _block, _sizes, least, row0s, by_colors = kept
    for a in range(lo, n):
        colors = tuple(map(colv.__getitem__, row0s[a]))
        row = by_colors.get(colors)
        if row is None:
            counts = [0] * (r + 1)
            for c in colors:
                counts[c] += 1
            row = by_colors[colors] = [c for c, size in enumerate(sorted(counts, reverse=True), 1)
                                       for _ in range(size)]
        least[a] = row
    return kept


def _beaten_by(colv, pair_perms, r: int, _kept=None):
    """(i, K): a pair permutation i whose image of the restricted-growth vector
    colv, colors relabelled 1, 2, ... in order of first appearance, is below
    colv lexicographically, and the length K = max(perm[:k + 1]) + 1 of the
    prefix it read to win at position k; (-1, len(colv)) if none wins.

    Block a, the permutations with vp[0] = a, has a's color-class sizes,
    largest first, written out as labels 1...1 2...2 ..., as its smallest row 0
    (the colors from a).  If some block's is below colv[:n - 1], the first such
    block alone is scanned by _first_winner; otherwise each block whose is equal
    is, in order of a.  _kept holds the walk's _least_rows."""
    n, block, sizes, least, _row0s, _by_colors = _kept or _least_rows(colv, pair_perms, r)
    row0 = list(colv[:n - 1])
    below = [a for a in range(n) if least[a] < row0][:1]
    for a in below or [a for a in range(n) if least[a] == row0]:
        # the identity, first in block 0, never wins
        won = _first_winner(colv, pair_perms, r, max(a * block, 1), (a + 1) * block, sizes)
        if won:
            return won
        if below:
            raise AssertionError(f"vertex {a}'s row 0 {least[a]} is below {row0}, "
                                 f"yet no permutation in its block beats {colv}")
    return -1, len(colv)


def _canonical_colorings(n: int, r: int, budget=None, star_bound=None):
    """The r-colorings of K_n's pairs (itertools.combinations order, colors
    1..r) that are lexicographically minimal in their orbit under S_n x S_r,
    in lexicographic order.

    The walk visits only restricted-growth vectors (the identity beats every
    other one), each tested by _beaten_by.  A winner that read K entries beats
    every vector with that prefix, so the walk moves on to the next vector
    that differs within them.  Raising pair (u, v) changes only pairs between
    vertices >= u, so only their smallest rows are rebuilt.  The budget counts
    the visited vectors as "enumerated" and is charged for each once settled.

    With star_bound=b and n >= 2, a vector in which some vertex u sees at
    most b colors is skipped untested, as a winner's are, with every vector
    sharing u's pairs, the first P_u = index(u, n - 1) + 1 entries (least u),
    and counted in budget.counts["stars"]: u's components in those colors
    cover K_n, as each other vertex is joined to u in one of them, so tc <= b.
    """
    budget = budget or SolveBudget()
    budget.counts.setdefault("enumerated", 0)
    perms = _pair_permutations(n, budget)
    m = n * (n - 1) // 2
    lows = [u for u, _v in itertools.combinations(range(n), 2)]
    colv = [1] * m
    top = [1] * m  # top[k] = max(colv[:k + 1])
    kept = _least_rows(colv, perms, r)
    # (P_u, u's pair indices) by u, from kept's row 0s; K_1's vertex sees no
    # color yet needs a piece
    stars = [(max(row) + 1, row) for row in kept[4]] if star_bound is not None and n > 1 else []
    if star_bound is not None:
        budget.counts.setdefault("stars", 0)
    while True:
        budget.counts["enumerated"] += 1
        k = next((p for p, row in stars
                  if len(set(map(colv.__getitem__, row))) <= star_bound), 0)
        if k:
            budget.counts["stars"] += 1
        else:
            i, k = _beaten_by(colv, perms, r, kept)
            if i < 0:
                yield tuple(colv)
        budget.charge("hunt")
        # the last entry of colv[:k] that can grow; colv[0] is always 1
        k -= 1
        while k > 0 and (colv[k] == r or colv[k] > top[k - 1]):
            k -= 1
        if k <= 0:
            return
        colv[k] += 1
        top[k] = max(top[k - 1], colv[k])
        colv[k + 1:] = [1] * (m - k - 1)
        top[k + 1:] = [top[k]] * (m - k - 1)
        _least_rows(colv, perms, r, kept, lows[k])


def hunt(n: int, r: int, bound, budget: SolveBudget | None = None):
    """Search all r-colorings of K_n, one per isomorphism class, for tc_r > bound.

    A coloring is tested only in canonical form (_canonical_colorings): its
    color vector over the pairs of K_n (in itertools.combinations order) is
    lexicographically minimal in its orbit under vertex permutations and
    color relabellings (S_n x S_r).

    bound is an integer or one of "alpha", "2alpha", "ryser".  Every pair of
    K_n is colored, so every closure is complete and alpha = 1: the bound is
    evaluated once, before the walk.  The walk skips, unseen, each coloring
    in which some vertex v sees at most bound colors: v's components in those
    colors cover K_n, since every other vertex is joined to v in one of them,
    so tc <= bound there.  A coloring's components are its closure's, so
    min_cover(..., at_most=bound) decides each canonical coloring left on its
    own component masks; a cover it finds is checked (at most bound masks,
    each connected in its color, covering every vertex).  Only the coloring
    returned is closed, and its verified tc_exact value must exceed the bound.
    The walk and the decisions draw on one budget, which also keeps the hunt's
    counters: "enumerated" counts the vectors visited, "stars" those the star
    cover settled, "canonical" the forms found and "solved" the decisions.
    Returns None or a counterexample (ColoredMultigraph closure, tc value).
    """
    if n < 1 or r < 1:
        raise ValueError(f"hunt needs n >= 1 and r >= 1, got n={n}, r={r}")
    b = bound if isinstance(bound, int) else {
        "alpha": 1, "2alpha": 2, "ryser": r - 1}.get(str(bound).lower())
    if b is None:
        raise ValueError(f"unknown bound expression {bound!r}")
    budget = budget or SolveBudget()
    pairs = list(itertools.combinations(range(n), 2))
    full = (1 << n) - 1
    for key in ("enumerated", "stars", "canonical", "solved"):
        budget.counts.setdefault(key, 0)

    for colv in _canonical_colorings(n, r, budget, star_bound=b):
        budget.counts["canonical"] += 1
        adjs = [[0] * n for _ in range(r + 1)]
        for (u, v), c in zip(pairs, colv):
            adjs[c][u] |= 1 << v
            adjs[c][v] |= 1 << u
        comps = [component_masks(adjs[c], full) for c in range(1, r + 1)]
        got = min_cover(full, [(m, (c, m)) for c, ms in enumerate(comps, start=1)
                               for m in ms],
                        budget, at_most=b)
        budget.counts["solved"] += 1
        if got is not None:
            pieces = got[1]
            if (len(pieces) > b or functools.reduce(operator.or_, (m for _, m in pieces)) != full
                    or any(reach(adjs[c], lowest_vertex(m), m) != m for c, m in pieces)):
                raise AssertionError(f"decision witness {got} is not a cover by "
                                     f"at most {b} connected pieces")
            continue
        cg = closed_graph(n, comps)
        t, _cert = tc_exact(cg, budget=budget)
        if t <= b:
            raise AssertionError(f"tc_exact finds tc = {t} <= {b} on {colv}, "
                                 "where the decision found none")
        return cg, t
    return None
