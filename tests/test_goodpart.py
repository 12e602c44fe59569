import itertools
import random

import pytest

from ryserlab import exact as ex
from ryserlab import goodpart as gp
from ryserlab.core import ColoredMultigraph, GraphError, mask_of, verify


def test_covers_all_examples():
    ws = gp.WordSet.of(3, 2, [(1, 1), (2, 2), (3, 3)])
    assert gp.covers_all(ws) is True
    ws1 = gp.WordSet.of(3, 2, [(1, 1)])
    witness = gp.covers_all(ws1)
    assert isinstance(witness, tuple)
    assert not gp.everywhere_different(witness, (1, 1))
    ws3 = gp.WordSet.of(3, 3, [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2), (3, 3, 3)])
    assert gp.covers_all(ws3) is True


def test_gamma_t_examples():
    ws = gp.WordSet.of(3, 2, [(1, 1), (2, 2), (3, 3)])
    assert gp.gamma_t_check(3, 2, ws)
    empty = gp.WordSet.of(3, 2, [])
    assert not gp.gamma_t_check(3, 2, empty)
    w21 = gp.WordSet.of(2, 1, [(1,), (2,)])
    assert gp.gamma_t_check(2, 1, w21)
    assert gp.z_exact(2, 1).value == 2


def test_checkers_agree_random():
    rng = random.Random(0)
    for _ in range(800):
        r = rng.randint(2, 4)
        d = rng.randint(1, 3)
        pool = list(gp.all_words(r, d))
        k = rng.randint(0, min(len(pool), 6))
        ws = gp.WordSet.of(r, d, rng.sample(pool, k))
        assert (gp.covers_all(ws) is True) == gp.gamma_t_check(r, d, ws)


def test_z_fast_paths():
    assert [gp.z_exact(2, d).value for d in range(1, 5)] == [2, 4, 8, 16]
    assert gp.z_exact(3, 2).value == 3
    assert gp.z_exact(4, 2).value == 3
    assert gp.z_exact(4, 3).value == 4
    assert [gp.z_exact(5, d).value for d in range(1, 5)] == [2, 3, 4, 5]
    assert gp.z_exact(7, 1).value == 2


def test_z_search_33():
    out = gp.z_exact(3, 3)
    assert out.value == 5
    assert gp.covers_all(out.witness) is True
    assert gp.gamma_t_check(3, 3, out.witness)


def test_z33_on_both_cover_backends_with_and_without_pin():
    words = list(gp.all_words(3, 3))
    dom = [mask_of(j for j, g in enumerate(words) if gp.everywhere_different(f, g))
           for f in words]
    full = (1 << len(words)) - 1
    for solve in (ex.min_cover, ex.min_cover_milp):
        size, chosen = solve(full, list(zip(dom, words)), ex.SolveBudget())
        assert size == 5 and gp.covers_all(gp.WordSet.of(3, 3, chosen)) is True
        # pinning the all-ones word leaves 4 words to find
        size, chosen = solve(full & ~dom[0], list(zip(dom, words)), ex.SolveBudget())
        assert size == 4
        assert gp.covers_all(gp.WordSet.of(3, 3, [words[0]] + chosen)) is True
        # pinning 1^3 and 2^3 too leaves 3
        twos = words.index((2, 2, 2))
        size, chosen = solve(full & ~dom[0] & ~dom[twos], list(zip(dom, words)),
                             ex.SolveBudget())
        assert size == 3
        assert gp.covers_all(gp.WordSet.of(3, 3, [words[0], words[twos]] + chosen)) is True


def test_z_exact_gives_the_milp_only_the_seconds_left(monkeypatch):
    import scipy.optimize

    limits = []
    real = scipy.optimize.milp

    def spy(*args, options, **kwargs):
        limits.append(options["time_limit"])
        return real(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    out = gp.z_exact(4, 4, ex.SolveBudget(max_seconds=0))
    assert limits == [0.0]
    assert 5 <= out.lower <= out.upper <= 7
    assert len(out.witness.words) == out.upper
    assert gp.covers_all(out.witness) is True


def test_z_monotone_in_r():
    vals = {r: gp.z_exact(r, 2).value for r in (2, 3, 4, 5)}
    assert vals[2] >= vals[3] >= vals[4] >= vals[5]


def test_diagonal_witness_construction():
    for r in (3, 4, 5):
        ws = gp.WordSet.of(r, r, gp._diagonal_plus_witness(r))
        assert len(ws.words) == r + (r + 1) // 2 + 1
        assert gp.covers_all(ws) is True


def _bipartite(c, y, z, r):
    """The graph of the coloring c[(y, z)] of [Y, Z], with Y = 0..y-1 first."""
    return ColoredMultigraph.from_edges(
        y + z, r, [(yy, y + zz, col) for (yy, zz), col in c.items()])


def test_good_partition_examples():
    # |Z| = 1: always a good partition
    g = _bipartite({(y, 0): 1 for y in range(3)}, 3, 1, 2)
    assert gp.good_partition(g, [0, 1, 2], [3]) is not None
    # r=2, |Y|=3, |Z|=7 < 8: always exists
    rng = random.Random(5)
    for _ in range(50):
        c = {(y, z): rng.randint(1, 2) for y in range(3) for z in range(7)}
        g = _bipartite(c, 3, 7, 2)
        assert gp.good_partition(g, [0, 1, 2], list(range(3, 10))) is not None
    # the binary-block coloring has none
    for y, z in ((2, 4), (1, 2), (2, 8)):
        g = gp.bad_bipartite_coloring(y, z)
        assert gp.good_partition(g, list(range(y)), list(range(y, y + z))) is None


def _good_by_definition(g, Y, Z):
    """Every good assignment f: Y -> [r], by brute force over f: each z has
    some y whose least color with z is f(y)."""
    return [f for f in itertools.product(range(1, g.r + 1), repeat=len(Y))
            if all(any(g.min_color_of(y, z) == a for y, a in zip(Y, f)) for z in Z)]


def test_good_partition_matches_word_model():
    # sides out of order and some pairs with several colors: row words read
    # the least color of each pair, in Y's given order
    rng = random.Random(6)
    for _ in range(200):
        y, z, r = rng.randint(1, 3), rng.randint(1, 8), rng.randint(2, 3)
        edges = [(yy, zz, rng.randint(1, r)) for yy in range(y)
                 for zz in range(y, y + z) for _ in range(rng.choice((1, 1, 2)))]
        g = ColoredMultigraph.from_edges(y + z, r, edges)
        Y, Z = list(range(y)), list(range(y, y + z))
        rng.shuffle(Y)
        rng.shuffle(Z)
        budget = ex.SolveBudget()
        got = gp.good_partition(g, Y, Z, budget)
        words = gp.WordSet.of(r, y, {tuple(g.min_color_of(v, w) for v in Y) for w in Z})
        dominated = gp.covers_all(words) is True
        assert (got is None) == dominated
        good = _good_by_definition(g, Y, Z)
        assert (got is None) == (not good)
        if good:
            # the first good assignment in word order, as parts of Y
            f = good[0]
            assert got == [tuple(v for v, a in zip(Y, f) if a == col)
                           for col in range(1, r + 1)]
            assert budget.nodes == list(gp.all_words(r, y)).index(f) + 1
        else:
            assert budget.nodes == r ** y


def test_good_partition_empty_z():
    # no row to dominate: the all-ones assignment, and no node charged
    g = ColoredMultigraph.from_edges(3, 2, [(0, 1, 2)])
    budget = ex.SolveBudget()
    assert gp.good_partition(g, [2, 0, 1], [], budget) == [(2, 0, 1), ()]
    assert budget.nodes == 0


def test_good_partition_names_the_first_missing_pair():
    # pairs 0,3 and 1,2 have no color; Y-major order names 0,3 first
    g = ColoredMultigraph.from_edges(4, 2, [(0, 2, 1), (1, 3, 2)])
    with pytest.raises(GraphError, match="complete bipartite.*pair 0,3 has no color"):
        gp.good_partition(g, [0, 1], [2, 3])
    with pytest.raises(GraphError, match="pair 1,2 has no color"):
        gp.good_partition(g, [1, 0], [2, 3])


@pytest.mark.parametrize("Y, Z, message", [
    ([0, 0], [2], "vertex 0 is twice in Y"),
    ([0], [2, 2], "vertex 2 is twice in Z"),
    ([0, 5], [2], r"vertex 5 is outside 0\.\.2"),
    ([-1], [2], r"vertex -1 is outside 0\.\.2"),
    ([0, 2], [2], "vertex 2 is on both sides"),
], ids=["twice-in-Y", "twice-in-Z", "above-range", "below-range", "both-sides"])
def test_good_partition_checks_its_sides(Y, Z, message):
    g = ColoredMultigraph.from_edges(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
    with pytest.raises(GraphError, match=f"^{message}$"):
        gp.good_partition(g, Y, Z)
    # the sides need not hold every vertex
    assert gp.good_partition(g, [0], [2]) == [(0,), ()]


def test_good_partition_draws_on_the_budget():
    g = gp.bad_bipartite_coloring(2, 4)
    Y, Z = [0, 1], [2, 3, 4, 5]
    with pytest.raises(ex.Inconclusive):
        gp.good_partition(g, Y, Z, ex.SolveBudget(max_nodes=1))
    budget = ex.SolveBudget()
    assert gp.good_partition(g, Y, Z, budget) is None
    assert budget.nodes == 4  # every candidate word of length 2 over {1, 2}


def test_word_set_rejects_letters_outside_the_alphabet():
    for word in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match="does not fit"):
            gp.WordSet.of(3, 2, [word])


def test_bad_bipartite_requires_enough_z():
    with pytest.raises(ValueError):
        gp.bad_bipartite_coloring(3, 7)


def test_badmulti_small():
    # tp of the binary-block colorings, each one above the partition lower
    # bound they imply; (3, 3) on are settled by tp_exact's bracket alone
    assert gp.badmulti_graph(2, 1).n == 10
    for (k, t), want, lower in (((2, 1), 3, 2), ((2, 2), 4, 3), ((2, 3), 5, 4),
                                ((3, 1), 3, 2), ((3, 2), 4, 3), ((4, 1), 3, 2),
                                ((3, 3), 5, 4), ((4, 2), 4, 3), ((5, 1), 3, 2),
                                ((2, 4), 6, 5), ((3, 4), 6, 5), ((4, 3), 5, 4)):
        g = gp.badmulti_graph(k, t)
        tp, cert = ex.tp_exact(g)
        assert cert.mode == "partition" and verify(g, cert).ok
        assert tp == want
        assert gp.badmulti_lower_bound(k, t) == lower == want - 1
