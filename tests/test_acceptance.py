"""The acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import random

import pytest

from ryserlab import constructions as cn
from ryserlab import constructive as cv
from ryserlab import exact as ex
from ryserlab import goodpart as gp
from ryserlab import hypercover as hc
from ryserlab import signatures as sg
from ryserlab.core import (ColoredMultigraph, alpha, closure, complete_graph,
                           mask_of, verify)
from ryserlab.duality import ColoredHypergraph, check_duality
from ryserlab.exact import SolveBudget


def report(line):
    print(f"\n[acceptance] {line}")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_signature_pipeline_53():
    sigs = sg.enumerate_signatures(5, 3)
    assert len(sigs) == 84
    valid = sg.valid_signatures(5, 3)
    assert len(valid) == 37
    residual = sg.residual_cases(5, 3)
    assert [s.shapes() for s in residual] == [
        ((4, 1), (3, 2), (3, 2)), ((3, 2), (3, 2), (3, 2))]
    report("criterion 1a PASS: (5,3) counts 84 -> 37 -> 2, residual matches")


def test_criterion_1_signature_pipeline_64():
    sigs = sg.enumerate_signatures(6, 4)
    assert len(sigs) == 1001
    valid = sg.valid_signatures(6, 4)
    assert len(valid) == 560
    residual = sg.residual_cases(6, 4)
    assert len(residual) == 173
    fixture = sg.load_r6_fixture()
    assert {str(s) for s in residual} == {str(s) for s in fixture}
    report("criterion 1b PASS: (6,4) counts 1001 -> 560 -> 173, set-equal to "
           "the shipped table")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_z_table_exact_entries():
    budget = SolveBudget(max_seconds=300)
    expected = {(2, 1): 2, (2, 2): 4, (2, 3): 8, (2, 4): 16, (2, 5): 32,
                (3, 2): 3, (3, 3): 5,
                (4, 2): 3, (4, 3): 4,
                (5, 1): 2, (5, 2): 3, (5, 3): 4, (5, 4): 5,
                (6, 1): 2, (7, 1): 2}
    for (r, d), want in sorted(expected.items()):
        out = gp.z_exact(r, d, budget)
        assert out.exact and out.value == want, (r, d, out.lower, out.upper)
        assert gp.covers_all(out.witness) is True
    report(f"criterion 2a PASS: {len(expected)} exact Z entries reproduced")


def test_criterion_2_z34():
    budget = SolveBudget(max_seconds=300)
    out = gp.z_exact(3, 4, budget)
    assert out.exact and out.value == 8
    # branch and bound on the 50 words the two pins leave, pruned by the
    # residual bound ceil(uncovered / most uncovered words one word dominates)
    assert budget.nodes == 21009
    assert gp.covers_all(out.witness) is True
    assert gp.gamma_t_check(3, 4, out.witness)
    report("criterion 2b PASS: Z(3,4) = 8 with verified witness")


def test_criterion_2_z44_interval():
    out = gp.z_exact(4, 4, SolveBudget(max_seconds=900))
    assert 6 <= out.lower and out.upper <= 7, (out.lower, out.upper)
    assert out.witness is not None and gp.covers_all(out.witness) is True
    report(f"criterion 2c PASS: Z(4,4) certified within [6,7] "
           f"(proved [{out.lower},{out.upper}])")


def test_criterion_2_z44_branch_and_bound():
    # Z(4,4) >= 7 again, in integer arithmetic only: the branch and bound on
    # the residual that z_exact leaves once 1^4 and 2^4 are pinned
    words = list(gp.all_words(4, 4))
    dom = [mask_of(j for j, g in enumerate(words) if gp.everywhere_different(f, g))
           for f in words]
    twos = words.index((2,) * 4)
    residual = ((1 << len(words)) - 1) & ~dom[0] & ~dom[twos]
    budget = SolveBudget(max_seconds=900)
    size, chosen = ex.min_cover(residual, list(zip(dom, words)), budget)
    assert size + 2 == 7
    assert budget.nodes == 528283
    witness = gp.WordSet.of(4, 4, [words[0], words[twos]] + chosen)
    assert gp.covers_all(witness) is True
    assert gp.gamma_t_check(4, 4, witness)
    report("criterion 2c PASS: Z(4,4) = 7 by branch and bound, integer-only")


def test_criterion_2_z35_interval():
    out = gp.z_exact(3, 5, SolveBudget(max_seconds=900))
    assert 11 <= out.lower and out.upper <= 12, (out.lower, out.upper)
    assert out.witness is not None and gp.covers_all(out.witness) is True
    report(f"criterion 2d PASS: Z(3,5) certified within [11,12] "
           f"(proved [{out.lower},{out.upper}])")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_tight_exhaustive_k53():
    checked = hc.exhaustive_tight_spanning(5)
    assert checked == 3 ** 10 == 59049
    report("criterion 3a PASS: all 59049 3-colorings of K_5^3 have a spanning "
           "tight component")


def test_criterion_3_tight_random_k73():
    rng = random.Random(73)
    edges7 = list(itertools.combinations(range(7), 3))
    for _ in range(10_000):
        coloring = [rng.randint(1, 3) for _ in edges7]
        h = ColoredHypergraph(7, 3, 3, None, list(zip(coloring, edges7)))
        comp = hc.tight_spanning(h)
        assert len(comp.shadow) == 7
    report("criterion 3b PASS: 10^4 random 3-colorings of K_7^3, zero failures")


# ------------------------------------------------------------ criterion 4


def _rand_complete(n, r, rng):
    return complete_graph(n, lambda u, v: rng.randint(1, r), r)


def test_criterion_4_complete3():
    rng = random.Random(41)
    for i in range(1000):
        n = rng.randint(1, 60)
        g = _rand_complete(n, 3, rng)
        cert = cv.cover_complete(g, 3)
        assert len(cert.pieces) <= 2 and cert.declared_max_diam == 4
        # radius <= 2 about some vertex: a spanning tree of diameter <= 4
        assert cert.declared_max_radius == 2
    report("criterion 4a PASS: 1000 x 3-colored K_n (n <= 60): <= 2 trees of "
           "diameter <= 4")


def test_criterion_4_complete4():
    rng = random.Random(42)
    for i in range(1000):
        n = rng.randint(1, 40)
        g = _rand_complete(n, 4, rng)
        cert = cv.cover_complete(g, 4)
        assert len(cert.pieces) <= 3 and cert.declared_max_diam == 6
    report("criterion 4b PASS: 1000 x 4-colored K_n (n <= 40): <= 3 pieces of "
           "diameter <= 6")


def _rand_bip(nx, ny, r, rng):
    edges = [(x, y, rng.randint(1, r))
             for x in range(nx) for y in range(nx, nx + ny)]
    g = ColoredMultigraph.from_edges(nx + ny, r, edges)
    return g, list(range(nx)), list(range(nx, nx + ny))


def test_criterion_4_bipartite2():
    rng = random.Random(43)
    for i in range(1000):
        g, X, Y = _rand_bip(rng.randint(1, 15), rng.randint(1, 15), 2, rng)
        cls, cert = cv.classify_bipartite2(g, X, Y)
        assert len(cert.pieces) <= 2 and cert.declared_max_diam == 4
        assert cert.declared_max_radius == 2
    report("criterion 4c PASS: 1000 x 2-colored bipartite: <= 2 trees of "
           "diameter <= 4")


def test_criterion_4_bipartite3():
    rng = random.Random(44)
    for i in range(1000):
        g, X, Y = _rand_bip(rng.randint(1, 20), rng.randint(1, 20), 3, rng)
        cert = cv.cover_bipartite3(g, X, Y)
        assert len(cert.pieces) <= 4 and cert.declared_max_diam == 6
    report("criterion 4d PASS: 1000 x 3-colored bipartite (up to K_{20,20}): "
           "<= 4 pieces of diameter <= 6")


def test_criterion_4_alpha2():
    rng = random.Random(45)
    done = 0
    while done < 1000:
        n = rng.randint(3, 16)
        side = [rng.randint(0, 1) for _ in range(n)]
        edges = []
        for u, v in itertools.combinations(range(n), 2):
            if not (side[u] != side[v] and rng.random() < 0.5):
                edges.append((u, v, rng.randint(1, 2)))
        if not edges:
            continue
        g = ColoredMultigraph.from_edges(n, 2, edges)
        if alpha(g)[0] != 2:
            continue
        cert = cv.cover_alpha2(g)
        assert len(cert.pieces) <= 2 and cert.declared_max_diam == 6
        done += 1
    report("criterion 4e PASS: 1000 x 2-colored alpha=2 graphs: <= 2 pieces of "
           "diameter <= 6")


def _rand_multi(parts, r, rng):
    bounds, acc = [], 0
    for s in parts:
        bounds.append((acc, acc + s))
        acc += s
    part_of = [i for i, (a, b) in enumerate(bounds) for _ in range(b - a)]
    edges = [(u, v, rng.randint(1, r))
             for u, v in itertools.combinations(range(acc), 2)
             if part_of[u] != part_of[v]]
    return (ColoredMultigraph.from_edges(acc, r, edges),
            [list(range(a, b)) for a, b in bounds])


def test_criterion_4_multipartite():
    rng = random.Random(46)
    for i in range(1000):
        k = rng.randint(2, 5)
        g, parts = _rand_multi([rng.randint(1, 5) for _ in range(k)], 2, rng)
        cert = cv.cover_multipartite(g, parts, 2)
        assert len(cert.pieces) <= 2
    for i in range(1000):
        g, parts = _rand_multi([rng.randint(1, 5) for _ in range(3)], 3, rng)
        cert = cv.cover_multipartite(g, parts, 3)
        assert len(cert.pieces) <= 3
    report("criterion 4f PASS: 1000 x 2-colored multipartite <= 2 components; "
           "1000 x 3-colored 3-partite <= 3 components")


def test_criterion_4_restricted():
    rng = random.Random(47)
    for r in (3, 4, 5):
        for i in range(1000):
            n = rng.randint(2, 14)
            g = closure(_rand_complete(n, r, rng))
            S = sorted(rng.sample(range(1, r + 1), 2))
            cert = cv.restricted_cover(g, r, S)
            assert len(cert.pieces) <= r - 1
            cols = {p[0] for p in cert.pieces}
            assert cols <= set(S) or cols <= set(range(1, r + 1)) - set(S)
    report("criterion 4g PASS: 1000 x restricted covers per r in {3,4,5}: "
           "<= r-1 pieces, one-sided colors")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_hunt_konig():
    for n in range(2, 6):
        assert ex.hunt(n, 2, "alpha") is None
    report("criterion 5a PASS: tc_2 <= alpha on all closed 2-colorings, n <= 5")


def test_criterion_5_hunt_aharoni():
    for n in range(2, 6):
        assert ex.hunt(n, 3, "2alpha") is None
    report("criterion 5b PASS: tc_3 <= 2*alpha on all closed 3-colorings, n <= 5")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_extremal_constructions():
    assert ex.tc_exact(cn.affine_tc_coloring(3, 1))[0] == 2
    assert ex.tc_exact(cn.affine_tc_coloring(3, 2))[0] == 4
    assert ex.tc_exact(cn.affine_tc_coloring(4, 1))[0] == 3
    h4 = cn.half_r_example(4)
    for c in range(1, 5):
        try:
            size, _ = ex.tc_exact(h4, allowed_colors={c})
            assert size > 3
        except ex.Infeasible:
            pass
    for (k, r) in ((2, 3), (3, 2), (3, 3)):
        assert ex.tc_exact(cn.multipartite_star_example(k, r))[0] == r
    g = gp.badmulti_graph(2, 1)
    tp, _ = ex.tp_exact(g)
    assert tp >= gp.badmulti_lower_bound(2, 1) == 2
    report("criterion 6 PASS: affine tc values 2/4/3, half-r single-color "
           "3-covers impossible, star tc = r, badmulti tp_2 >= 2")


# ------------------------------------------------------------ criterion 7


def _random_rpartite(rng):
    r = rng.randint(2, 4)
    sizes = [rng.randint(1, 3) for _ in range(r)]
    parts, acc = [], 0
    for s in sizes:
        parts.append(tuple(range(acc, acc + s)))
        acc += s
    if acc > 10:
        return None
    edges = set()
    for _ in range(rng.randint(1, 8)):
        e = [rng.choice(p) for p in parts if rng.random() < 0.8]
        if e:
            edges.add(tuple(sorted(set(e))))
    if not edges:
        return None
    return ColoredHypergraph(acc, 0, 0, parts, [(None, e) for e in edges])


def test_criterion_7_duality():
    rng = random.Random(71)
    done = 0
    while done < 500:
        h = _random_rpartite(rng)
        if h is None:
            continue
        rep = check_duality(h)
        assert rep.ok, rep
        done += 1
    report("criterion 7a PASS: 500 random r-partite hypergraphs, nu = alpha "
           "and tau = component cover throughout")


def test_criterion_7_word_checkers():
    rng = random.Random(72)
    pairs = [(r, d) for r in range(2, 6) for d in range(1, 6) if r ** d <= 243]
    done = 0
    while done < 10_000:
        r, d = rng.choice(pairs)
        pool = r ** d
        k = rng.randint(0, min(pool, 8))
        seen = set()
        while len(seen) < k:
            seen.add(tuple(rng.randint(1, r) for _ in range(d)))
        ws = gp.WordSet.of(r, d, seen)
        assert (gp.covers_all(ws) is True) == gp.gamma_t_check(r, d, ws)
        done += 1
    report("criterion 7b PASS: covers_all and gamma_t_check agree on 10^4 "
           "random word sets")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_furedi_bound():
    rng = random.Random(81)
    for _ in range(1000):
        g = _rand_complete(12, 3, rng)
        size, _, _ = ex.mc_graph(g)
        assert size >= 6
    report("criterion 8 PASS: 1000 random 3-colorings of K_12 all have a "
           "monochromatic component of order >= 6")
