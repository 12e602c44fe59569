import functools
import gc
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ryserlab import exact as ex
from ryserlab.core import (ColoredMultigraph, GraphError, adjacency, alpha, checked,
                           closure, complete_graph, component_masks, components,
                           greedy_independent, lowest_vertex, mask_of,
                           monochromatic_complete, reach, verify, vertices_of)
from ryserlab.duality import ColoredHypergraph


def k4_affine():
    return ColoredMultigraph.from_edges(
        4, 3, [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2), (0, 3, 3), (1, 2, 3)])


def rainbow_triangle():
    return ColoredMultigraph.from_edges(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


def test_tc_examples():
    assert ex.tc_exact(monochromatic_complete(6))[0] == 1
    assert ex.tc_exact(k4_affine())[0] == 2
    assert ex.tc_exact(rainbow_triangle())[0] == 2


def test_tc_certificates_verify():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 9)
        g = complete_graph(n, lambda u, v: rng.randint(1, 3), 3)
        size, cert = ex.tc_exact(g)
        assert verify(g, cert).ok and len(cert.pieces) == size


def test_tc_singletons_cover_under_color_restriction():
    # singleton components keep every color restriction feasible; vertex 0 is
    # covered by its own color-2 singleton
    gg = ColoredMultigraph.from_edges(3, 2, [(0, 1, 1), (1, 2, 2)])
    size, cert = ex.tc_exact(gg, allowed_colors={2})
    assert size == 2 and verify(gg, cert).ok


def test_infeasible_is_explicit():
    # a sparse hypergraph whose colored components cannot reach every c-set
    h = ColoredHypergraph(5, 3, 1, None, [(1, (0, 1, 2))])
    with pytest.raises(ex.Infeasible, match=r"c-set \(3,\) is not coverable") as info:
        ex.tc_cl_exact(h, 1, 1)
    assert info.value.witness_vertex is not None


def test_tc_with_diameter():
    # 7-cycle in its own color: whole component has diameter 3, so a diam-2
    # cover needs more pieces
    c7 = ColoredMultigraph.from_edges(7, 1, [(i, (i + 1) % 7, 1) for i in range(7)])
    full, _ = ex.tc_exact(c7)
    assert full == 1
    size, cert = ex.tc_exact(c7, max_diam=2)
    assert size > 1 and verify(c7, cert).ok


def test_trivial_bound_and_tp_relation():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(2, 7)
        r = rng.randint(2, 3)
        g = complete_graph(n, lambda u, v: rng.randint(1, r), r)
        a, _ = alpha(g)
        tc, _ = ex.tc_exact(g)
        tp, cert = ex.tp_exact(g)
        assert tc <= r * a
        assert tp >= tc
        assert verify(g, cert).ok


def test_tp_examples():
    # any 2-colored complete graph has a monochromatic spanning subgraph
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = complete_graph(n, lambda u, v: rng.randint(1, 2), 2)
        assert ex.tp_exact(g)[0] == 1
    assert ex.tp_exact(k4_affine())[0] == 2


def test_tp2_leq_alpha_exhaustive_n5():
    pairs = list(itertools.combinations(range(5), 2))
    for colv in itertools.product((1, 2), repeat=len(pairs)):
        g = ColoredMultigraph.from_edges(
            5, 2, [(u, v, c) for (u, v), c in zip(pairs, colv)])
        tp, _ = ex.tp_exact(g)
        assert tp <= alpha(g)[0]


def test_tau_nu_examples():
    fano_lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                  (2, 3, 6), (2, 4, 5)]
    fano = ColoredHypergraph(7, 3, 0, None, [(None, l) for l in fano_lines])
    tau, cover, nu, matching = ex.tau_nu(fano)
    assert (nu, tau) == (1, 3)
    assert all(any(v in fano_lines[i] for v in cover)
               for i in range(len(fano_lines)))
    m3 = ColoredHypergraph(6, 2, 0, None,
                           [(None, (0, 1)), (None, (2, 3)), (None, (4, 5))])
    tau, _, nu, _ = ex.tau_nu(m3)
    assert tau == nu == 3


def test_tau_nu_ryser_r3():
    # exhaustive-ish family: 3-partite hypergraphs on parts of size 2
    rng = random.Random(3)
    universe = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    for _ in range(200):
        k = rng.randint(1, 6)
        edges = rng.sample(universe, k)
        h = ColoredHypergraph(6, 3, 0, [(0, 1), (2, 3), (4, 5)],
                              [(None, e) for e in edges])
        tau, _, nu, _ = ex.tau_nu(h)
        assert nu <= tau <= 2 * nu


def random_small_hypergraph(rng):
    """At most 8 vertices and 9 edges: 2- or 3-uniform or not uniform, with or
    without parts; edges may repeat."""
    n = rng.randint(1, 8)
    parts = None
    if rng.random() < 0.5:
        label = [rng.randrange(4) for _ in range(n)]
        parts = [p for p in ([v for v in range(n) if label[v] == i] for i in range(4)) if p]
    # an edge takes one vertex from each class it meets; without parts every
    # vertex is a class of its own
    classes = parts or [[v] for v in range(n)]
    k = rng.choice((0, 2, 3))
    if k > len(classes):
        k = 0
    edges = [tuple(rng.choice(p) for p in rng.sample(classes, k or rng.randint(1, len(classes))))
             for _ in range(rng.randint(0, 9))]
    return ColoredHypergraph(n, k, 0, parts, [(None, e) for e in edges])


def brute_tau_nu(h):
    sets = [set(e) for e in h.edge_vertex_sets()]
    nu = max(k for k in range(len(sets) + 1) for es in itertools.combinations(sets, k)
             if sum(map(len, es)) == len(set().union(*es)))
    tau = min(k for k in range(h.n + 1) for vs in itertools.combinations(range(h.n), k)
              if all(e & set(vs) for e in sets))
    return tau, nu


def test_tau_nu_matches_brute_force():
    rng = random.Random(26)
    # a graph whose perfect matching needs the branch that drops a vertex
    six = ColoredHypergraph(6, 2, 0, None, [(None, e) for e in
                                            ((1, 5), (0, 3), (1, 3), (0, 4), (0, 2), (2, 5))])
    for h in [six] + [random_small_hypergraph(rng) for _ in range(300)]:
        sets = h.edge_vertex_sets()
        tau, cover, nu, matching = ex.tau_nu(h)
        assert (tau, nu) == brute_tau_nu(h), h.edges()
        assert len(set(cover)) == tau and all(set(e) & set(cover) for e in sets)
        assert len(set(matching)) == nu
        assert all(not set(sets[i]) & set(sets[j])
                   for i, j in itertools.combinations(matching, 2))


def test_tau_nu_checks_its_matching_under_python_O():
    # under -O an assert would vanish; a kernel that returns two meeting
    # edges must still make tau_nu raise
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.exact as ex
        from ryserlab.duality import ColoredHypergraph
        ex.max_independent = lambda adj, charge=None: 0b11
        h = ColoredHypergraph(3, 2, 0, None, [(None, (0, 1)), (None, (1, 2))])
        try:
            ex.tau_nu(h)
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("tau_nu returned two meeting edges as a matching")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "matching (0, 1) holds two edges that meet\n"


def test_matching_search_checks_budget():
    h = ColoredHypergraph(4, 2, 0, None, [(None, (0, 1)), (None, (2, 3))])
    with pytest.raises(ex.Inconclusive) as exc:
        ex.tau_nu(h, budget=ex.SolveBudget(max_nodes=1))
    assert exc.value.stats == {"nodes": 2, "stage": "matching"}
    assert ex.tau_nu(h)[0] == 2


def brute_min_cover(universe, masks):
    """Fewest masks whose union contains universe, or None."""
    for k in range(len(masks) + 1):
        for combo in itertools.combinations(masks, k):
            if universe & ~functools.reduce(operator.or_, combo, 0) == 0:
                return k
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, (1 << 12) - 1),
       st.lists(st.integers(0, (1 << 12) - 1), max_size=15))
@example(0b111111, [0b001011, 0b000111, 0b111000])  # greedy takes 3, 2 suffice
def test_cover_backends_agree_with_brute_force(universe, masks):
    want = brute_min_cover(universe, masks)
    candidates = [(m, i) for i, m in enumerate(masks)]
    for solve in (ex.min_cover, ex.min_cover_milp):
        if want is None:
            with pytest.raises(ex.Infeasible) as exc:
                solve(universe, candidates, ex.SolveBudget())
            assert exc.value.witness_vertex == min(
                v for v in range(12)
                if universe >> v & 1 and not any(m >> v & 1 for m in masks))
            continue
        size, chosen = solve(universe, candidates, ex.SolveBudget())
        assert size == want == len(chosen)
        covered = functools.reduce(operator.or_, (masks[i] for i in chosen), 0)
        assert universe & ~covered == 0


def test_cover_decision_agrees_with_brute_force():
    rng = random.Random(16)
    for _ in range(300):
        universe = rng.randrange(1 << 10)
        masks = [rng.randrange(1 << 10) for _ in range(rng.randint(0, 10))]
        candidates = [(m, i) for i, m in enumerate(masks)]
        want = brute_min_cover(universe, masks)
        for k in range(len(masks) + 2):
            if want is None:
                with pytest.raises(ex.Infeasible):
                    ex.min_cover(universe, candidates, ex.SolveBudget(), at_most=k)
                continue
            got = ex.min_cover(universe, candidates, ex.SolveBudget(), at_most=k)
            assert (got is not None) == (want <= k)
            if got is not None:
                size, chosen = got
                assert size == len(chosen) <= k
                covered = functools.reduce(operator.or_, (masks[i] for i in chosen), 0)
                assert universe & ~covered == 0


class _Covered(Exception):
    """A cover within at_most was found; the search stops."""


def recursive_min_cover(universe, candidates, budget, at_most=None):
    """min_cover's branch and bound written as a recursion, a reference whose
    answers, node counts and budget exits ex.min_cover's stack loop must match."""
    cands = [(m & universe, p) for m, p in candidates]
    missing = universe & ~functools.reduce(operator.or_, (m for m, _ in cands), 0)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise ex.Infeasible(f"vertex {v} is not coverable", witness_vertex=v)
    if not universe:
        return 0, []
    cands.sort(key=lambda t: -t[0].bit_count())
    acc = 0
    greedy = []
    while acc != universe:
        best = max(cands, key=lambda t: (t[0] & ~acc).bit_count())
        greedy.append(best)
        acc |= best[0]
    best_size = len(greedy)
    best_sol = [p for _, p in greedy]
    charge = budget.charge
    stop = -1 if at_most is None else at_most
    if best_size <= stop:
        try:
            charge("set cover")
        except ex.Inconclusive as exc:
            exc.best = (best_size, best_sol)
            raise
        return best_size, best_sol
    if at_most is not None:
        best_size, best_sol = at_most + 1, None
    by_elem = [[] for _ in range(universe.bit_length())]
    for m, p in cands:
        for e in vertices_of(m):
            by_elem[e].append((m, p))

    def rec(acc, chosen, s):
        nonlocal best_size, best_sol
        charge("set cover")
        if acc == universe:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sol = list(chosen)
                if best_size <= stop:
                    raise _Covered
            return
        uncovered = universe & ~acc
        uc = uncovered.bit_count()
        if len(chosen) + (uc + s - 1) // s >= best_size:
            return
        s = max([(m & uncovered).bit_count() for m, _ in cands])
        if len(chosen) + (uc + s - 1) // s >= best_size:
            return
        pick, cnt = -1, 1 << 60
        for e in vertices_of(uncovered):
            if len(by_elem[e]) < cnt:
                cnt, pick = len(by_elem[e]), e
        for m, p in sorted(by_elem[pick], key=lambda t: -(t[0] & uncovered).bit_count()):
            chosen.append(p)
            rec(acc | m, chosen, s)
            chosen.pop()

    try:
        rec(0, [], cands[0][0].bit_count())
    except _Covered:
        pass
    except ex.Inconclusive as exc:
        exc.best = None if best_sol is None else (best_size, best_sol)
        raise
    return None if best_sol is None else (best_size, best_sol)


def cover_outcome(solve, universe, candidates, at_most, max_nodes):
    """What solve does on one run: its answer or exception, its witness or
    best cover and stats, and the nodes it charged."""
    budget = ex.SolveBudget(max_nodes=max_nodes)
    try:
        got = ("returned", solve(universe, candidates, budget, at_most=at_most))
    except ex.Infeasible as exc:
        got = ("infeasible", exc.witness_vertex)
    except ex.Inconclusive as exc:
        got = ("inconclusive", exc.best, exc.stats)
    return got, budget.nodes


def test_cover_loop_matches_the_recursive_search():
    # 240 seeded instances, some with an uncoverable element, each minimised
    # and decided at every k; every run is repeated under node caps up to its
    # node count
    rng = random.Random(36)
    searched = 0
    for _ in range(240):
        bits = rng.randint(1, 24)
        masks = [mask_of(rng.sample(range(bits), rng.randint(1, max(1, bits // 4))))
                 for _ in range(rng.randint(0, 36))]
        universe = functools.reduce(operator.or_, masks, 0)
        if rng.random() < 0.2:
            universe |= 1 << rng.randrange(bits + 1)
        candidates = [(m, i) for i, m in enumerate(masks)]
        most = 0
        for at_most in [None, *range(len(masks) + 2)]:
            want, nodes = cover_outcome(recursive_min_cover, universe, candidates,
                                        at_most, 10**9)
            assert cover_outcome(ex.min_cover, universe, candidates, at_most,
                                 10**9) == (want, nodes)
            most = max(most, nodes)
            for cap in range(0, nodes + 1, max(1, nodes // 12)):
                assert cover_outcome(ex.min_cover, universe, candidates, at_most, cap) == \
                    cover_outcome(recursive_min_cover, universe, candidates, at_most, cap)
        searched += most > 1
    assert searched >= 100


def test_cover_decision_on_a_zero_budget():
    # greedy covers with three sets (a, c, b), two suffice (b, c)
    universe = 0b111111
    candidates = [(0b001011, "a"), (0b000111, "b"), (0b111000, "c")]
    for budget in (dict(max_nodes=0), dict(max_seconds=0)):
        for k, best in ((3, (3, ["a", "c", "b"])), (2, None), (1, None)):
            with pytest.raises(ex.Inconclusive) as exc:
                ex.min_cover(universe, candidates, ex.SolveBudget(**budget), at_most=k)
            assert exc.value.stats["nodes"] >= 1
            assert exc.value.best == best
    budget = ex.SolveBudget()
    assert ex.min_cover(universe, candidates, budget, at_most=3) == (3, ["a", "c", "b"])
    assert budget.nodes == 1  # the greedy cover settles it after one charged node
    assert sorted(ex.min_cover(universe, candidates, ex.SolveBudget(), at_most=2)[1]) == [
        "b", "c"]
    assert ex.min_cover(universe, candidates, ex.SolveBudget(), at_most=1) is None


@pytest.mark.parametrize("n, r", [(4, 4), (5, 3), (5, 4), (6, 2)])
def test_hunt_decision_agrees_with_tc_exact(n, r):
    # on every canonical coloring, the coloring's own component masks hold a
    # cover of at most b exactly when its closure has tc <= b
    pairs = list(itertools.combinations(range(n), 2))
    full = (1 << n) - 1
    for colv in ex._canonical_colorings(n, r):
        g = ColoredMultigraph.from_edges(n, r, [(u, v, c) for (u, v), c in zip(pairs, colv)])
        tc = ex.tc_exact(closure(g))[0]
        adjs = {c: adjacency(n, [p for p, pc in zip(pairs, colv) if pc == c])
                for c in range(1, r + 1)}
        candidates = [(m, (c, m)) for c in adjs for m in component_masks(adjs[c], full)]
        for b in range(r):
            got = ex.min_cover(full, candidates, ex.SolveBudget(), at_most=b)
            assert (got is not None) == (tc <= b), (colv, b)
            if got is not None:
                assert got[0] == len(got[1]) <= b
                assert functools.reduce(operator.or_, (m for _, m in got[1])) == full
                assert all(reach(adjs[c], min(vertices_of(m)), m) == m for c, m in got[1])


def test_cover_backends_name_the_uncoverable_element():
    for solve in (ex.min_cover, ex.min_cover_milp):
        with pytest.raises(ex.Infeasible) as exc:
            solve(0b11110, [(0b00110, "a"), (0b01000, "b")], ex.SolveBudget())
        assert exc.value.witness_vertex == 4


def test_mc_examples():
    assert ex.mc_graph(monochromatic_complete(7)) == (7, 1, tuple(range(7)))
    assert ex.mc_graph(k4_affine())[0] == 2


def test_hunt_small():
    assert ex.hunt(4, 2, "alpha") is None
    budget = ex.SolveBudget()
    got = ex.hunt(4, 3, 1, budget)
    assert got is not None
    cg, t = got
    assert t == 2
    # the first counterexample in canonical order, edge for edge
    assert list(cg.edges()) == [
        (0, 1, frozenset({1, 2})), (0, 2, frozenset({1})), (0, 3, frozenset({2})),
        (1, 2, frozenset({1})), (1, 3, frozenset({2})), (2, 3, frozenset({3}))]
    # the star cover settles the four vectors before it: a vertex sees one color
    assert (budget.counts["stars"], budget.counts["canonical"], budget.counts["solved"]) == (
        4, 1, 1)
    assert ex.hunt(4, 3, "2alpha") is None


@pytest.mark.parametrize("n, r", [(4, 3), (4, 4), (5, 3), (5, 4), (6, 2)])
def test_hunt_star_skip_keeps_the_first_counterexample(n, r):
    # the reference is the unpruned canonical stream, each vector's closure
    # solved by tc_exact: hunt returns the first closure with tc > b, and
    # decides exactly the vectors up to it in which every vertex sees more
    # than b colors
    pairs = list(itertools.combinations(range(n), 2))
    stream = []
    for colv in ex._canonical_colorings(n, r):
        g = closure(ColoredMultigraph.from_edges(
            n, r, [(u, v, c) for (u, v), c in zip(pairs, colv)]))
        fewest = min(len({c for p, c in zip(pairs, colv) if x in p}) for x in range(n))
        stream.append((g, ex.tc_exact(g)[0], fewest))
    for b in range(r + 1):
        first = next((i for i, (_g, tc, _f) in enumerate(stream) if tc > b), len(stream))
        budget = ex.SolveBudget()
        got = ex.hunt(n, r, b, budget)
        if first == len(stream):
            assert got is None, b
        else:
            assert got[1] == stream[first][1] and got[0].edges() == stream[first][0].edges(), b
        decided = sum(1 for *_, fewest in stream[:first + 1] if fewest > b)
        assert budget.counts["solved"] == budget.counts["canonical"] == decided, b


def test_hunt_star_skip_counts():
    # the decisions left where the walk runs to its end, against the unpruned
    # stream: 223 of the 4 300 canonical 3-colorings of K_6 give every vertex
    # all three colors
    pairs = list(itertools.combinations(range(6), 2))
    every = sum(1 for colv in ex._canonical_colorings(6, 3)
                if all(len({c for p, c in zip(pairs, colv) if x in p}) == 3 for x in range(6)))
    budget = ex.SolveBudget()
    assert ex.hunt(6, 3, "2alpha", budget) is None
    assert budget.counts["solved"] == budget.counts["canonical"] == every == 223
    assert budget.counts["stars"] == 3314
    # K_1's one vertex sees no color, yet needs one piece
    assert ex.hunt(1, 2, 0)[1] == 1


def _orbit_minima(n, r):
    """Lexicographic minimum of every S_n x S_r orbit of r-colorings of K_n's
    pairs, by listing whole orbits."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    vertex_perms = [[index[tuple(sorted((vp[u], vp[v])))] for u, v in pairs]
                    for vp in itertools.permutations(range(n))]
    color_perms = [(0,) + cp for cp in itertools.permutations(range(1, r + 1))]
    seen, minima = set(), []
    for colv in itertools.product(range(1, r + 1), repeat=len(pairs)):
        if colv not in seen:
            orbit = {tuple(cp[colv[p]] for p in vp)
                     for vp in vertex_perms for cp in color_perms}
            seen |= orbit
            minima.append(min(orbit))
    return sorted(minima)


def _burnside_orbits(n, r):
    """Number of S_n x S_r orbits on r-colorings of K_n's pairs: the mean
    number of colorings fixed by a group element."""
    pairs = list(itertools.combinations(range(n), 2))
    total = 0
    for vp in itertools.permutations(range(n)):
        image = {(u, v): tuple(sorted((vp[u], vp[v]))) for u, v in pairs}
        pair_cycles, seen = [], set()
        for e in pairs:
            length = 0
            while e not in seen:
                seen.add(e)
                e = image[e]
                length += 1
            if length:
                pair_cycles.append(length)
        for cp in itertools.permutations(range(r)):
            color_cycle = []
            for c in range(r):
                length, d = 1, cp[c]
                while d != c:
                    length, d = length + 1, cp[d]
                color_cycle.append(length)
            # a fixed coloring is constant up to cp along each pair cycle of
            # length L, starting from a color whose cp-cycle divides L
            fixed = 1
            for length in pair_cycles:
                fixed *= sum(1 for cl in color_cycle if length % cl == 0)
            total += fixed
    return total // (math.factorial(n) * math.factorial(r))


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 6) for r in range(1, 4)]
                         + [(4, 4)])
def test_canonical_colorings_are_orbit_minima(n, r):
    assert list(ex._canonical_colorings(n, r)) == _orbit_minima(n, r)


def test_canonical_colorings_count_orbits():
    known = {(2, 2): 1, (3, 3): 3, (4, 2): 6, (4, 3): 15, (4, 4): 22, (5, 2): 18,
             (5, 3): 142, (5, 4): 513, (6, 2): 78}
    sizes = [(n, r) for n in range(1, 6) for r in range(1, 4)] + [(4, 4), (5, 4), (6, 2)]
    enumerated = {}
    for n, r in sizes:
        orbits = _burnside_orbits(n, r)
        assert orbits == known.get((n, r), orbits)
        budget = ex.SolveBudget()
        assert sum(1 for _ in ex._canonical_colorings(n, r, budget)) == orbits
        enumerated[n, r] = budget.counts["enumerated"]
    # the walk visits fewer vectors than the restricted-growth ones: at (5, 4)
    # the set partitions of 10 pairs into at most 4 blocks, S(10,1..4) =
    # 1 + 511 + 9330 + 34105, and at (6, 2) those of 15 pairs into at most 2
    assert enumerated[5, 4] == 1881 < 43947
    assert enumerated[6, 2] == 350 < 2 ** 14


def _dict_pair_permutations(n):
    """The pair permutations of K_n, each pair's image looked up in a dict."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    return [tuple(index[tuple(sorted((vp[u], vp[v])))] for u, v in pairs)
            for vp in itertools.permutations(range(n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_permutations_match_the_dict_table(n):
    assert ex._pair_permutations(n, ex.SolveBudget()) == _dict_pair_permutations(n)


def _flat_canonical(n, r):
    """Canonical colorings by the flat walk: every restricted-growth vector,
    in lexicographic order, against every pair permutation, with no skip."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = _dict_pair_permutations(n)
    vectors = [()]
    for _ in pairs:
        vectors = [v + (c,) for v in vectors
                   for c in range(1, min(max(v, default=0) + 1, r) + 1)]

    def beats(perm, colv):
        label = {}
        image = tuple(label.setdefault(colv[p], len(label) + 1) for p in perm)
        return image < colv

    out = []
    for colv in vectors:
        i = next((i for i, perm in enumerate(perms) if beats(perm, colv)), -1)
        if i < 0:
            out.append(colv)
        else:
            perms.insert(0, perms.pop(i))  # the flat walk's move-to-front
    return out


@pytest.mark.parametrize("n, r", [(4, 4), (5, 3), (5, 4), (6, 2)])
def test_canonical_colorings_match_the_flat_walk(n, r):
    assert list(ex._canonical_colorings(n, r)) == _flat_canonical(n, r)


def _image_beats(perm, colv):
    """Whether perm's image of colv, relabelled in order of first appearance,
    is lexicographically smaller than colv."""
    label = {}
    return tuple(label.setdefault(colv[p], len(label) + 1) for p in perm) < tuple(colv)


@pytest.mark.parametrize("n, r", [(4, 4), (5, 3)])
def test_beaten_by_matches_the_flat_scan(n, r):
    # every restricted-growth vector against a scan of every pair permutation
    rng = random.Random(n * 10 + r)
    perms = ex._pair_permutations(n, ex.SolveBudget())
    assert len(perms) == math.factorial(n)
    m = n * (n - 1) // 2
    vectors = [()]
    for _ in range(m):
        vectors = [v + (c,) for v in vectors
                   for c in range(1, min(max(v, default=0) + 1, r) + 1)]
    beaten = 0
    for colv in vectors:
        i, k = ex._beaten_by(colv, perms, r)
        if not any(_image_beats(perm, colv) for perm in perms):
            assert (i, k) == (-1, m)
            continue
        assert 0 < i and _image_beats(perms[i], colv)
        # no skip passed over a winner in i's block of (n - 1)!
        start = i - i % math.factorial(n - 1)
        assert not any(_image_beats(perm, colv) for perm in perms[start:i])
        # the win read only colv[:k], so it beats whatever follows that prefix
        for _ in range(3):
            rest = tuple(rng.randint(1, r) for _ in range(m - k))
            assert _image_beats(perms[i], colv[:k] + rest)
        beaten += 1
    assert beaten == len(vectors) - {(4, 4): 22, (5, 3): 142}[n, r]


def test_beaten_by_never_calls_a_precheck_loser_canonical():
    # vertex 0 sees colors 1, 2, 2, so its smallest row 0, (1, 1, 2), is below
    # colv's (1, 2, 2) and some permutation with vp[0] = 0 beats colv; a table
    # whose vertex-0 block holds only identities breaks that promise, and
    # _beaten_by says so rather than call colv canonical
    perms = ex._pair_permutations(4, ex.SolveBudget())
    colv = (1, 2, 2, 1, 1, 1)
    assert 0 < ex._beaten_by(colv, perms, 2)[0] < 6
    broken = [perms[0]] * 6 + perms[6:]
    with pytest.raises(AssertionError, match="vertex 0's row 0"):
        ex._beaten_by(colv, broken, 2)


class _CountingTable(list):
    """A pair-permutation table that counts the entries read from it."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_beaten_by_skips_automorphic_blocks():
    # every permutation of K_6 is an automorphism of the one-colored vector,
    # and each one read proves the rest of its block a repeat: of the 720
    # entries, 6 give the vertices' row-0 profiles and 15 are scanned
    perms = _CountingTable(ex._pair_permutations(6, ex.SolveBudget()))
    assert ex._beaten_by((1,) * 15, perms, 1) == (-1, 15)
    assert perms.reads <= 21


def test_hunt_has_one_deadline(monkeypatch):
    # a spent budget stops the hunt before its first decision, even though
    # far fewer than 4096 vectors have been enumerated: at the first vector,
    # which the star cover settles at b = 1, and at b = 0 inside the decision
    # on it, the first canonical form
    with pytest.raises(ex.Inconclusive) as exc:
        ex.hunt(4, 3, 1, budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats["stars"] == 1
    assert exc.value.stats["solved"] == 0
    with pytest.raises(ex.Inconclusive) as exc:
        ex.hunt(4, 3, 0, budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats["canonical"] >= 1
    assert exc.value.stats["solved"] == 0
    # each decision draws on the very budget the hunt was given
    given = []
    real = ex.min_cover

    def spy(universe, candidates, budget, at_most=None):
        given.append(budget)
        return real(universe, candidates, budget, at_most=at_most)

    monkeypatch.setattr(ex, "min_cover", spy)
    budget = ex.SolveBudget(max_seconds=60)
    assert ex.hunt(4, 3, "2alpha", budget=budget) is None
    assert len(given) == 1
    assert all(b is budget for b in given)


def test_tc_exact_diameter_has_one_deadline(monkeypatch):
    c7 = ColoredMultigraph.from_edges(7, 1, [(i, (i + 1) % 7, 1) for i in range(7)])
    with pytest.raises(ex.Inconclusive) as exc:
        ex.tc_exact(c7, max_diam=2, budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats == {"nodes": 1, "stage": "diameter pieces"}
    # the cover search draws on the very budget the piece enumeration used
    given = []
    real = ex.min_cover

    def spy(universe, candidates, budget):
        given.append(budget)
        return real(universe, candidates, budget)

    monkeypatch.setattr(ex, "min_cover", spy)
    budget = ex.SolveBudget(max_seconds=60)
    assert ex.tc_exact(c7, max_diam=2, budget=budget)[0] == 3
    assert len(given) == 1 and given[0] is budget


def test_tc_exact_diameter_node_counts_on_long_candidate_lists(monkeypatch):
    # six random 2-colored 20-vertex graphs, about 1 700 diameter-3 pieces
    # each: the piece enumeration's nodes and the cover search's, pinned
    searched = []
    real = ex.min_cover

    def spy(universe, candidates, budget):
        before = budget.nodes
        got = real(universe, candidates, budget)
        searched.append(budget.nodes - before)
        return got

    monkeypatch.setattr(ex, "min_cover", spy)
    rng = random.Random(7)
    found = []
    for _ in range(6):
        g = ColoredMultigraph(20, 2, [(u, v, rng.randint(1, 2)) for u in range(20)
                                      for v in range(u + 1, 20) if rng.random() < 0.18])
        budget = ex.SolveBudget(max_seconds=60)
        size, cert = ex.tc_exact(g, max_diam=3, budget=budget)
        assert verify(g, cert).ok
        found.append((size, budget.nodes))
    assert found == [(5, 22435), (5, 1580), (4, 25195), (5, 1481), (4, 2558), (5, 12174)]
    assert sum(nodes for _, nodes in found) == 65423
    assert sum(searched) == 5816


def test_tc_exact_diameter_size_limit_is_a_domain_error():
    path = ColoredMultigraph.from_edges(25, 1, [(v, v + 1, 1) for v in range(24)])
    with pytest.raises(GraphError, match=r"limited to n <= 24, got n=25"):
        ex.tc_exact(path, max_diam=2)


def test_tc_exact_rejects_a_negative_diameter():
    g = ColoredMultigraph.from_edges(3, 1, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(GraphError, match=r"^max_diam must be >= 0, got -1$"):
        ex.tc_exact(g, max_diam=-1)


def _milp_spy(monkeypatch, extra=0):
    """Wrap scipy's milp; each call's mip_node_count (raised by extra) is logged."""
    import scipy.optimize

    reported = []
    real = scipy.optimize.milp

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        res.mip_node_count = int(res.mip_node_count or 0) + extra
        reported.append(res.mip_node_count)
        return res

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return reported


def _z33_cover():
    from ryserlab import goodpart as gp

    words = list(gp.all_words(3, 3))
    dom = [mask_of(j for j, w in enumerate(words) if gp.everywhere_different(f, w))
           for f in words]
    return (1 << len(words)) - 1, list(zip(dom, words))


def test_milp_nodes_are_added_to_the_run(monkeypatch):
    reported = _milp_spy(monkeypatch)
    universe, candidates = _z33_cover()
    budget = ex.SolveBudget()
    budget.nodes = 40
    assert ex.min_cover_milp(universe, candidates, budget)[0] == 5
    assert len(reported) == 1 and budget.nodes == 40 + reported[0]


def test_milp_nodes_never_turn_an_optimum_inconclusive(monkeypatch):
    # more nodes than the allowance: added, not charged, so the optimum stands
    reported = _milp_spy(monkeypatch, extra=1000)
    universe, candidates = _z33_cover()
    budget = ex.SolveBudget(max_nodes=100)
    assert ex.min_cover_milp(universe, candidates, budget)[0] == 5
    assert budget.nodes == reported[0] >= 1000


def test_milp_early_stop_reports_the_run_total(monkeypatch):
    reported = _milp_spy(monkeypatch, extra=3)
    universe, candidates = _z33_cover()
    budget = ex.SolveBudget(max_seconds=0)
    budget.nodes = 40
    with pytest.raises(ex.Inconclusive) as exc:
        ex.min_cover_milp(universe, candidates, budget)
    assert exc.value.stats["nodes"] == budget.nodes == 40 + reported[0]


def test_hunt_shares_one_node_allowance():
    # the walk and the nested solves draw on one allowance: the (6, 3) hunt
    # makes 223 solves, each far below 100 nodes on its own, and some of the
    # 101 nodes charged when the allowance runs out are theirs
    with pytest.raises(ex.Inconclusive) as exc:
        ex.hunt(6, 3, "2alpha", budget=ex.SolveBudget(max_nodes=100))
    stats = exc.value.stats
    assert stats["nodes"] == 101
    assert stats["solved"] > 0 and stats["enumerated"] < 101
    # the walk charges every vector it settles
    budget = ex.SolveBudget()
    assert sum(1 for _ in ex._canonical_colorings(5, 3, budget)) == 142
    assert budget.nodes == budget.counts["enumerated"] > 142


def test_hunt_deadline_covers_the_permutation_table():
    # K_8 has 8! pair permutations; a spent deadline stops their construction
    # at the first block of 8192, before any coloring is enumerated
    with pytest.raises(ex.Inconclusive) as exc:
        ex.hunt(8, 2, 1, budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats["stage"] == "pair permutations"
    assert exc.value.stats["enumerated"] == 0


def test_budget_reads_the_clock_on_the_first_charge_then_every_8192_nodes(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(ex, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    budget = ex.SolveBudget(max_nodes=10 ** 6, max_seconds=10)
    budget.charge("x")
    assert (budget.nodes_left(), budget.seconds_left()) == (10 ** 6 - 1, 10.0)
    now[0] = 11.0
    for _ in range(8191):
        budget.charge("x")
    with pytest.raises(ex.Inconclusive) as exc:
        budget.charge("x")
    assert exc.value.stats == {"nodes": 8193, "stage": "x"}
    assert budget.seconds_left() == 0.0


def test_budget_rejects_a_deadline_that_never_passes_or_has_passed():
    # NaN compares false with every clock reading, so it would never stop a
    # run, while seconds_left() gave a MILP no time at all
    for bad in (float("nan"), -1.0, -1e-9):
        with pytest.raises(ValueError, match="max_seconds >= 0"):
            ex.SolveBudget(max_seconds=bad)
    with pytest.raises(ex.Inconclusive):
        ex.SolveBudget(max_seconds=0).charge("x")
    assert ex.SolveBudget(max_seconds=float("inf")).seconds_left() == float("inf")


def test_set_cover_budget_keeps_the_best_cover():
    # greedy covers with three sets, so a one-node budget leaves that cover
    with pytest.raises(ex.Inconclusive) as exc:
        ex.min_cover(0b111111, [(0b001011, "a"), (0b000111, "b"), (0b111000, "c")],
                     ex.SolveBudget(max_nodes=1))
    assert exc.value.stats == {"nodes": 2, "stage": "set cover"}
    assert exc.value.best == (3, ["a", "c", "b"])


def test_tp_without_colors_is_infeasible():
    with pytest.raises(ex.Infeasible) as exc:
        ex.tp_exact(ColoredMultigraph.from_edges(3, 0, []))
    assert exc.value.witness_vertex == 0


def test_hunt_rejects_bad_arguments():
    for n, r in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match=f"n={n}, r={r}"):
            ex.hunt(n, r, 1)
    with pytest.raises(ValueError, match="'foo'"):
        ex.hunt(3, 2, "foo")


def test_budget_is_explicit():
    # the path 0-1-3-2 in colors 3, 1, 2 and the lone vertex 4: the greedy
    # partition takes the color-1 edge first and has four parts, the bound
    # gives three, so the partition search must settle t = 3, and it gives up
    # loudly once the bound has spent the budget
    g = ColoredMultigraph.from_edges(5, 3, [(0, 1, 3), (1, 3, 1), (2, 3, 2)])
    budget = ex.SolveBudget()
    assert ex.tp_exact(g, budget)[0] == 3
    bound = budget.counts["bound nodes"]
    assert 0 < bound < budget.nodes
    with pytest.raises(ex.Inconclusive) as exc:
        ex.tp_exact(g, budget=ex.SolveBudget(max_nodes=bound))
    stats = exc.value.stats
    assert (stats["stage"], stats["lower"], stats["upper"]) == ("partition search", 3, 4)
    with pytest.raises(ex.Inconclusive):
        ex.tp_exact(g, budget=ex.SolveBudget(max_nodes=1))


def open_bracket(monkeypatch):
    """Set tp_exact's bracket to (0, the singletons), under which tp_exact
    runs the partition search alone: no bound nodes, every t from 2 on."""
    monkeypatch.setattr(ex, "_tp_bracket", lambda adjs, full, budget: (
        0, [(1, 1 << v) for v in vertices_of(full)]))


def test_partition_search_checks_budget(monkeypatch):
    # badmulti(3,1) has no partition into one part, so the partition search
    # starts at t = 2 and its first node reads the clock; with the bracket in
    # place, the bound's first node reads it, and only "no color spans" holds
    from ryserlab.goodpart import badmulti_graph

    with pytest.raises(ex.Inconclusive) as exc:
        ex.tp_exact(badmulti_graph(3, 1), budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats == {"nodes": 1, "stage": "partition bound", "bound nodes": 1,
                               "lower": 2, "upper": 3}
    open_bracket(monkeypatch)
    with pytest.raises(ex.Inconclusive) as exc:
        ex.tp_exact(badmulti_graph(3, 1), budget=ex.SolveBudget(max_seconds=0))
    assert exc.value.stats["stage"] == "partition search"
    assert exc.value.stats["nodes"] == 1
    assert exc.value.stats["lower"] == 2


def test_exhausted_partition_search_reports_its_lower_bound(monkeypatch):
    # with the bracket open, tp(badmulti(2,2)) = 4: the whole search takes 523
    # nodes, and t = 2 and t = 3 are refuted within the first 404, so a budget
    # stopped inside t = 3 proves tp >= 3 and one stopped inside t = 4 proves
    # tp >= 4
    from ryserlab.goodpart import badmulti_graph

    open_bracket(monkeypatch)
    for max_nodes, lower in ((300, 3), (500, 4)):
        with pytest.raises(ex.Inconclusive) as exc:
            ex.tp_exact(badmulti_graph(2, 2), budget=ex.SolveBudget(max_nodes=max_nodes))
        assert exc.value.stats["lower"] == lower
        assert exc.value.stats["upper"] == 14
    assert ex.tp_exact(badmulti_graph(2, 2), budget=ex.SolveBudget(max_nodes=617))[0] == 4


def pair_colors(n, edges):
    """{(u, v): frozenset of colors} over every pair u < v of range(n)."""
    colors = {pair: frozenset() for pair in itertools.combinations(range(n), 2)}
    for u, v, c in edges:
        colors[u, v] |= {c}
    return colors


@st.composite
def typed_graphs(draw):
    """(n, r, pair colors) on n <= 8 vertices of at most 4 types: the colors of
    a pair are those of its two types, so a type's vertices are twins, except
    on a few overridden pairs; color sets may be empty or hold two colors."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, 3))
    types = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    color_sets = st.frozensets(st.integers(1, r), max_size=2)
    between = {(a, b): draw(color_sets) for a in range(4) for b in range(a, 4)}
    colors = {(u, v): between[min(types[u], types[v]), max(types[u], types[v])]
              for u, v in itertools.combinations(range(n), 2)}
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] < p[1])
        for pair in draw(st.lists(pairs, max_size=2)):
            colors[pair] = draw(color_sets)
    return n, r, colors


def connected_in_one_color(r, colors, block):
    """Whether the nonempty vertex tuple block is connected in some color."""
    for c in range(1, r + 1):
        seen, stack = {block[0]}, [block[0]]
        while stack:
            x = stack.pop()
            for y in block:
                if y not in seen and c in colors[min(x, y), max(x, y)]:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(block):
            return True
    return False


def brute_tp(n, r, colors):
    """Fewest blocks in a set partition of range(n) whose every block is
    connected in one color, by enumerating the set partitions."""
    connected = functools.partial(connected_in_one_color, r, colors)

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k in range(len(rest) + 1):
            for others in itertools.combinations(rest, k):
                left = [x for x in rest if x not in others]
                for p in partitions(left):
                    yield [(first, *others)] + p

    good = functools.lru_cache(maxsize=None)(connected)
    return min(len(p) for p in partitions(list(range(n)))
               if all(good(b) for b in p))


@settings(max_examples=200, deadline=None)
@given(typed_graphs())
# twins {0, 4}, {1, 5}, {2, 3}: the only 3-partitions, {0, 1, 5} {2, 3, 4} {6}
# and {0, 2, 3} {1, 4, 5} {6}, each put a vertex in the second part whose
# lower twin is in the first
@example((7, 2, pair_colors(7, [(0, 1, 1), (0, 4, 1), (0, 5, 1), (1, 4, 1), (4, 5, 1),
                                (0, 2, 2), (0, 3, 2), (2, 4, 2), (3, 4, 2)])))
def test_tp_exact_matches_brute_force_on_planted_twins(gv):
    n, r, colors = gv
    g = ColoredMultigraph.from_edges(
        n, r, [(u, v, sorted(cs)) for (u, v), cs in colors.items() if cs])
    tp, cert = ex.tp_exact(g)
    assert tp == brute_tp(n, r, colors)
    assert verify(g, cert).ok


# the inputs of test_badmulti_small, badmulti(k, t) as (k, t)
BADMULTI_SMALL = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))


@pytest.mark.parametrize("cap, pins", [
    # (nodes, dead-state hits) per badmulti(k, t); t = 2's search, all of
    # badmulti(3, 1) and (4, 1), never meets a vertex set twice
    (None, {(2, 2): (523, 47), (3, 1): (278, 0), (4, 1): (14823, 0), (2, 3): (3245, 1471)}),
    # with no table the search is node for node the one without it
    (0, {(2, 2): (617, 0), (3, 1): (278, 0), (4, 1): (14823, 0), (2, 3): (6262, 0)})])
def test_dead_table_node_counts(monkeypatch, cap, pins):
    # the search alone: the bracket would settle each of these at once
    from ryserlab.goodpart import badmulti_graph

    open_bracket(monkeypatch)
    if cap is not None:
        monkeypatch.setattr(ex, "_DEAD_CAP", cap)
    for (k, t), (nodes, hits) in pins.items():
        budget = ex.SolveBudget()
        ex.tp_exact(badmulti_graph(k, t), budget)
        assert (budget.nodes, budget.counts["dead states"]) == (nodes, hits)


def test_partition_search_leaves_no_reference_cycle():
    # a sparse graph whose bracket, [4, 7], stays open: after the search, the
    # dead-set table and everything else it built are freed by reference
    # counting alone, with no object left for the cyclic collector
    g = ColoredMultigraph.from_edges(10, 2, [(0, 3, 1), (0, 7, 2), (1, 5, 2), (1, 8, 1),
                                             (2, 3, 2), (3, 8, 1), (7, 8, 2)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        budget = ex.SolveBudget()
        assert ex.tp_exact(g, budget)[0] == 6
        assert budget.counts["dead states"] == 31
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_dead_table_cap_changes_no_answer(monkeypatch):
    # a table that stops growing at one entry gives every value and
    # certificate of the full table, in the search the bracket would skip
    from ryserlab.goodpart import badmulti_graph

    open_bracket(monkeypatch)
    for k, t in BADMULTI_SMALL:
        g = badmulti_graph(k, t)
        want = ex.tp_exact(g)
        with monkeypatch.context() as m:
            m.setattr(ex, "_DEAD_CAP", 1)
            assert ex.tp_exact(g) == want


@settings(max_examples=100, deadline=None)
@given(typed_graphs())
@example((7, 2, pair_colors(7, [(0, 1, 1), (0, 4, 1), (0, 5, 1), (1, 4, 1), (4, 5, 1),
                                (0, 2, 2), (0, 3, 2), (2, 4, 2), (3, 4, 2)])))
def test_capped_dead_table_matches_brute_force_on_planted_twins(gv):
    n, r, colors = gv
    g = ColoredMultigraph.from_edges(
        n, r, [(u, v, sorted(cs)) for (u, v), cs in colors.items() if cs])
    want = ex.tp_exact(g)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ex, "_DEAD_CAP", 1)
        assert ex.tp_exact(g) == want
    assert want[0] == brute_tp(n, r, colors)


@st.composite
def sparse_graphs(draw):
    """(n, r, pair colors) on n <= 9 vertices: each pair carries up to two of
    the r <= 3 colors, and often none."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(1, 3))
    colors = {pair: draw(st.frozensets(st.integers(1, r), max_size=2))
              for pair in itertools.combinations(range(n), 2)}
    return n, r, colors


def two_partable(r, colors, vs):
    """Whether some set A through vs[0], inside the vertex list vs, is
    connected in one color and leaves the rest of vs empty or connected in
    one color."""
    connected = functools.partial(connected_in_one_color, r, colors)
    first, rest = vs[0], vs[1:]
    return any(connected((first, *a)) and (len(a) == len(rest) or connected(
                   tuple(x for x in rest if x not in a)))
               for k in range(len(rest) + 1) for a in itertools.combinations(rest, k))


@settings(max_examples=300, deadline=None)
@given(sparse_graphs(), st.integers(0, (1 << 9) - 1))
# two disjoint edges: growing {0} forces {2, 3}, which the second part must
# hold, though the component of rest's lowest vertex 1 is {1}
@example((4, 1, pair_colors(4, [(0, 1, 1), (2, 3, 1)])), 0b1111)
def test_two_part_decision_matches_brute_force(gv, drawn):
    # tp <= 2 exactly when the whole vertex set is two_partable; _two_parts
    # decides the same on the drawn vertex subset (all of them if it is
    # empty), with the whole graph's twins, as the partition search calls it
    n, r, colors = gv
    g = ColoredMultigraph.from_edges(
        n, r, [(u, v, sorted(cs)) for (u, v), cs in colors.items() if cs])
    tp, cert = ex.tp_exact(g)
    assert (tp <= 2) == two_partable(r, colors, list(range(n)))
    assert verify(g, cert).ok
    vs = [v for v in range(n) if drawn >> v & 1] or list(range(n))
    avail = mask_of(vs)
    adjs = [(c, g.adjacency(c)) for c in range(1, r + 1)]
    got = ex._two_parts(adjs, ex._lower_twins(adjs, n), avail, ex.SolveBudget().charge)
    assert (got is not None) == two_partable(r, colors, vs)
    if got is not None:
        assert len(got) <= 2 and sum(m.bit_count() for _, m in got) == len(vs)
        assert functools.reduce(operator.or_, (m for _, m in got)) == avail
        assert all(reach(g.adjacency(c), lowest_vertex(m), m) == m for c, m in got)


def bracket(n, r, colors):
    """(g, lower, greedy parts): tp_exact's bracket on the pair colors."""
    g = ColoredMultigraph.from_edges(
        n, r, [(u, v, sorted(cs)) for (u, v), cs in colors.items() if cs])
    adjs = [(c, g.adjacency(c)) for c in range(1, r + 1)]
    return (g, *ex._tp_bracket(adjs, (1 << n) - 1, ex.SolveBudget()))


@settings(max_examples=300, deadline=None)
@given(st.one_of(typed_graphs(), sparse_graphs()))
@example((7, 2, pair_colors(7, [(0, 1, 1), (0, 4, 1), (0, 5, 1), (1, 4, 1), (4, 5, 1),
                                (0, 2, 2), (0, 3, 2), (2, 4, 2), (3, 4, 2)])))
# the path 0-2-1-3 in colors 2, 1, 2: the greedy partition takes the color-1
# edge first and has three parts, though tp = 2
@example((4, 2, pair_colors(4, [(0, 2, 2), (1, 2, 1), (1, 3, 2)])))
def test_tp_bracket_holds_brute_tp(gv):
    # the independent-set bound is at most tp, and the greedy partition is a
    # partition, so at least tp
    n, r, colors = gv
    g, lower, parts = bracket(n, r, colors)
    assert lower <= brute_tp(n, r, colors) <= len(parts)
    assert verify(g, checked(g, parts, len(parts), mode="partition")).ok


@settings(max_examples=300, deadline=None)
@given(st.one_of(typed_graphs(), sparse_graphs()))
# the least value is 2, below a node that only a color reaching two bare
# vertices of I, added to the colors used, keeps from being pruned
@example((9, 3, pair_colors(9, [(0, 6, 1), (1, 4, 3), (2, 4, 1), (2, 7, 2), (2, 8, 1),
                                (3, 5, 2), (3, 7, 3), (4, 5, 2), (4, 6, 2), (5, 8, 1),
                                (6, 7, 1), (7, 8, 1)])))
def test_tp_bound_is_its_least_value_over_every_coloring_of_y(gv):
    # with the same independent set, every coloring phi of Y = V - I by
    # dynamic programming over the (colors used, I reached) states: past two
    # greedy parts, the bound is the least |phi(Y)| + |I unreached|, capped
    # at the greedy size, or at most 2 when that least value is
    n, r, colors = gv
    g, lower, parts = bracket(n, r, colors)
    if len(parts) <= 2:
        return
    rows = [g.adjacency(c) for c in range(1, r + 1)]
    ind = greedy_independent(list(map(lambda *row: functools.reduce(operator.or_, row), *rows)))
    states = {(0, 0)}
    for y in vertices_of((1 << n) - 1 & ~ind):
        states = {(used | 1 << j, got | row[y] & ind)
                  for used, got in states for j, row in enumerate(rows)}
    least = min(min(used.bit_count() + (ind & ~got).bit_count() for used, got in states),
                len(parts))
    assert lower == least if least > 2 else lower <= 2


def test_tp_bracket_is_t_plus_2_on_badmulti():
    # Z's binary blocks give the bound t + 2, and the greedy partition meets it
    from ryserlab.goodpart import badmulti_graph

    for k, t in BADMULTI_SMALL + ((3, 3), (4, 2), (5, 1), (2, 4), (3, 4), (4, 3)):
        g = badmulti_graph(k, t)
        adjs = [(c, g.adjacency(c)) for c in range(1, g.r + 1)]
        lower, parts = ex._tp_bracket(adjs, (1 << g.n) - 1, ex.SolveBudget())
        assert lower == len(parts) == t + 2


def seeded_sparse_graphs(seed, count, n_lo, n_hi):
    """count graphs from random.Random(seed): each draws n in [n_lo, n_hi],
    r in {2, 3} and a density d in [0.12, 0.25], then gives each pair u < v,
    in order, the single color randint(1, r) with chance d."""
    rng = random.Random(seed)
    for _ in range(count):
        n, r, d = rng.randint(n_lo, n_hi), rng.randint(2, 3), rng.uniform(0.12, 0.25)
        yield ColoredMultigraph.from_edges(n, r, [
            (u, v, rng.randint(1, r)) for u, v in itertools.combinations(range(n), 2)
            if rng.random() < d])


def test_partition_search_node_counts_on_sparse_graphs():
    # the bracket stays open on 20 of these 24 graphs (n = 14..20), so they
    # pin the partition search node for node on sparse inputs, which no
    # benchmark workload reaches
    tps, totals, searched = [], {"nodes": 0, "bound nodes": 0, "dead states": 0}, 0
    for g in seeded_sparse_graphs(4242, 24, 14, 20):
        budget = ex.SolveBudget()
        tps.append(ex.tp_exact(g, budget)[0])
        totals["nodes"] += budget.nodes
        for key in ("bound nodes", "dead states"):
            totals[key] += budget.counts.get(key, 0)
        searched += "dead states" in budget.counts
    assert tps == [6, 2, 3, 3, 2, 4, 3, 7, 5, 7, 3, 7, 4, 4, 6, 3, 2, 4, 8, 9, 6, 5, 2, 6]
    assert totals == {"nodes": 16784, "bound nodes": 165, "dead states": 1059}
    assert searched == 20


def test_certificate_gate_survives_python_O():
    # under -O an assert would vanish; the verification gate must still raise
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.core
        import ryserlab.exact as ex
        from ryserlab.core import VerifyResult, monochromatic_complete
        ryserlab.core.verify = lambda g, cert: VerifyResult(False, "patched to reject")
        try:
            ex.tc_exact(monochromatic_complete(3))
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("tc_exact returned a rejected certificate")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "patched to reject" in res.stdout


def test_hunt_checks_survive_python_O():
    # under -O an assert would vanish; a bad decision witness, or a tc_exact
    # that disagrees with the decision, must still raise
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.exact as ex
        real = ex.min_cover
        # the one 3-coloring of K_4 that the star cover leaves at bound 2 is
        # its three perfect matchings, where tc = 2
        for got in ((1, [(2, 0b1111)]), (1, [(1, 0b0011)]), None):
            ex.min_cover = lambda *args, at_most=None, got=got: (
                real(*args) if at_most is None else got)
            try:
                ex.hunt(4, 3, 2)
            except AssertionError as exc:
                print(exc)
            else:
                raise SystemExit(f"hunt accepted the decision {got}")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "decision witness (1, [(2, 15)]) is not a cover by at most 2 connected pieces",
        "decision witness (1, [(1, 3)]) is not a cover by at most 2 connected pieces",
        "tc_exact finds tc = 2 <= 2 on (1, 2, 3, 3, 2, 1), where the decision "
        "found none"]
