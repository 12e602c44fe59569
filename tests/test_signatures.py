import gc
import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from functools import reduce
from operator import or_

import pytest

from ryserlab import signatures as sg
from ryserlab.core import (ColoredMultigraph, GraphError, closure, complete_graph,
                           component_masks, mask_of, monochromatic_complete)
from ryserlab.exact import Inconclusive, SolveBudget


def S(*parts):
    return sg.SignatureSet.of(sum(parts[0]), parts)


@pytest.mark.parametrize("n, p, sigs, message", [
    (3, 1, ((3, 0),), "partition parts must be positive"),
    (3, 1, ((1, 2),), "partition parts must be weakly decreasing"),
    (3, 2, ((3,),), "need exactly p partitions"),
    (3, 2, ((3,), (2,)), "partition (2) does not sum to 3"),
    (3, 2, ((2, 1), (3,)), "signature partitions must be stored sorted descending"),
])
def test_signature_set_validation_messages(n, p, sigs, message):
    with pytest.raises(ValueError) as err:
        sg.SignatureSet(n, p, sigs)
    assert str(err.value) == message


def test_signature_of_examples():
    g = monochromatic_complete(5, r=1)
    sig = sg.signature_of(g, range(5), [1])
    assert sig.shapes() == ((5,),)
    cyc = ColoredMultigraph.from_edges(
        5, 2, [(i, (i + 1) % 5, 1) for i in range(5)] +
              [(i, (i + 2) % 5, 2) for i in range(5)])
    sig = sg.signature_of(cyc, range(5), [1, 2])
    assert sig.shapes() == ((5,), (5,))
    empty = ColoredMultigraph(4, 2, [])
    sig = sg.signature_of(empty, range(4), [1, 2])
    assert sig.shapes() == ((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(Exception):
        sg.signature_of(empty, [], [1])


def test_enumerate_counts():
    assert len(sg.enumerate_signatures(5, 3)) == 84 == sg.signature_count(5, 3)
    assert len(sg.enumerate_signatures(6, 4)) == 1001 == sg.signature_count(6, 4)
    two = sg.enumerate_signatures(2, 1)
    assert [s.shapes() for s in two] == [((2,),), ((1, 1),)]


def test_valid_count_53():
    assert len(sg.valid_signatures(5, 3)) == 37


def test_counts_75():
    sigs = sg.enumerate_signatures(7, 5)
    assert len(sigs) == 11628 == sg.signature_count(7, 5)
    assert sum(sg.passes_edge_count(s) for s in sigs) == 9911


def test_valid_count_75():
    assert len(sg.valid_signatures(7, 5)) == 8657


def test_enumeration_charges_the_signature_count():
    budget = SolveBudget()
    assert len(sg.enumerate_signatures(6, 4, budget)) == budget.nodes == 1001
    with pytest.raises(Inconclusive) as exc:
        sg.enumerate_signatures(6, 4, SolveBudget(max_nodes=1000))
    assert exc.value.stats == {"nodes": 1001, "stage": "signature enumeration"}


def test_budget_is_charged_per_signature():
    budget = SolveBudget()
    assert len(sg.valid_signatures(5, 3, budget)) == 37
    assert budget.nodes > 84
    with pytest.raises(Inconclusive) as exc:
        sg.residual_cases(6, 4, SolveBudget(max_nodes=1000))
    assert exc.value.stats["stage"] == "signature search"


def _brute_covers(tab, shapes, first, acc=0):
    """The filter _covering_tuples implements, over the whole product: the
    first index in `first`, equal consecutive shapes nondecreasing, and the
    partitions together with acc covering every pair."""
    ranges = [first] + [range(len(tab.masks[s])) for s in shapes[1:]]
    eq = [c for c in range(1, len(shapes)) if shapes[c] == shapes[c - 1]]
    for idxs in itertools.product(*ranges):
        if all(idxs[c - 1] <= idxs[c] for c in eq):
            a = acc
            for s, i in zip(shapes, idxs):
                a |= tab.masks[s][i]
            if a == tab.full:
                yield idxs


def _expanded(prefix_hits):
    """The covering tuples behind _covering_tuples' (prefix, hits) pairs:
    the prefix extended by each index set in hits, ascending."""
    out = []
    for prefix, hits in prefix_hits:
        assert hits
        out += [prefix + (i,) for i in range(hits.bit_length()) if hits >> i & 1]
    return out


def _assert_sample_equals_brute_force():
    cases = sg.enumerate_signatures(4, 3) + sg.enumerate_signatures(5, 3)
    cases += random.Random(13).sample(sg.enumerate_signatures(6, 4), 200)
    found = 0
    for s in cases:
        tab = sg._tables(s.n)
        _, shapes = sg._search_order(tab, s)
        want = list(_brute_covers(tab, shapes, range(1)))  # the first pinned
        assert _expanded(sg._covering_tuples(tab, shapes, SolveBudget())) == want, s
        found += bool(want)
    assert 0 < found < len(cases)


def test_covering_tuples_equal_brute_force():
    sg._TABLES.clear()
    _assert_sample_equals_brute_force()


def test_dead_states_are_shared_across_p():
    # the dead states that (6,3) and (6,4) record serve every later search
    sg._TABLES.clear()
    assert len(sg.valid_signatures(6, 3)) == 89
    assert len(sg.valid_signatures(6, 4)) == 560
    dead = len(sg._TABLES[6].dead)
    assert dead > 0
    _assert_sample_equals_brute_force()
    assert len(sg._TABLES[6].dead) >= dead


def test_dead_keys_decode_to_dead_states():
    # each recorded key, unpacked into (remaining shapes, lo, acc), names a
    # state with no covering completion
    sg._TABLES.clear()
    sg.valid_signatures(5, 3)
    sg.residual_cases(6, 4)
    for n, sample in ((5, None), (6, 150)):
        tab = sg._tables(n)
        suffixes = {i: shapes for shapes, i in tab.suffix_ids.items()}
        keys = sorted(tab.dead)
        assert keys
        if sample:
            keys = random.Random(n).sample(keys, sample)
        for key in keys:
            shapes = suffixes[key >> tab.sid_shift]
            lo = (key >> tab.lo_shift) & ((1 << (tab.sid_shift - tab.lo_shift)) - 1)
            first = range(lo, len(tab.masks[shapes[0]]))
            assert not any(_brute_covers(tab, shapes, first, key & tab.full)), (shapes, lo)


def test_cold_search_node_counts():
    sg._TABLES.clear()
    budget = SolveBudget()
    sg.valid_signatures(6, 4, budget)
    assert budget.nodes == 13653
    sg._TABLES.clear()
    budget = SolveBudget()
    sg.residual_cases(6, 4, budget)
    assert budget.nodes == 11669


def test_enumerated_signatures_pass_the_public_constructor():
    for n in range(1, 7):
        for p in range(1, 5):
            sigs = sg.enumerate_signatures(n, p)
            assert len(sigs) == sg.signature_count(n, p)
            for s in sigs:
                assert sg.SignatureSet(s.n, s.p, s.sigs) == s
                assert sg.SignatureSet.of(s.n, s.sigs) == s


def _check_realization(g, sig):
    """Independent of the search: from g's edge list alone, every pair carries
    a color, each color class is a disjoint union of cliques, and the block
    sizes per color are the signature."""
    n = sig.n
    edges = g.edges()
    assert [(u, v) for u, v, _ in edges] == list(itertools.combinations(range(n), 2))
    assert all(cs for _, _, cs in edges)
    shapes = []
    for c in range(1, sig.p + 1):
        ball = [{v} for v in range(n)]
        for u, v, cs in edges:
            if c in cs:
                ball[u].add(v)
                ball[v].add(u)
        assert all(ball[u] == ball[v] for v in range(n) for u in ball[v])
        blocks = {frozenset(b) for b in ball}
        shapes.append(tuple(sorted((len(b) for b in blocks), reverse=True)))
    assert tuple(sorted(shapes, reverse=True)) == sig.shapes()


@pytest.mark.parametrize("n, p, count", [(5, 3, 37), (6, 4, 560)])
def test_realizations_pass_independent_checker(n, p, count):
    checked = 0
    for s in sg.enumerate_signatures(n, p):
        g = sg.is_valid(s)
        if g is not None:
            _check_realization(g, s)
            checked += 1
    assert checked == count


def test_invalid_example_and_soundness_of_edge_count():
    bad = S((4, 1), (3, 1, 1), (2, 2, 1))
    assert sg.passes_edge_count(bad)
    assert sg.is_valid(bad) is None
    # the counting filter never rejects a realizable signature
    for s in sg.enumerate_signatures(5, 3):
        if sg.is_valid(s) is not None:
            assert sg.passes_edge_count(s)


def test_signature_of_rejects_a_color_out_of_range():
    g = monochromatic_complete(4, r=2)
    for bad in (0, 3):
        with pytest.raises(GraphError, match=f"color {bad} out of range 1..2"):
            sg.signature_of(g, range(4), [bad, 1])


def test_witness_reproduces_signature():
    for s in sg.valid_signatures(5, 3):
        w = sg.is_valid(s)
        assert w is not None
        assert sg.signature_of(w, range(5), range(1, 4)) == s


def test_case1_witness_exists():
    w = sg.is_valid(S((3, 2), (3, 2), (3, 2)))
    assert w is not None


def test_lemma_r5_examples():
    assert sg.lemma_filter(S((5,), (3, 2), (3, 2)), "R5")
    assert sg.lemma_filter(S((4, 1), (3, 1, 1), (3, 1, 1)), "R5")
    assert not sg.lemma_filter(S((3, 2), (3, 2), (3, 2)), "R5")
    assert not sg.lemma_filter(S((4, 1), (3, 2), (3, 2)), "R5")
    with pytest.raises(ValueError):
        sg.lemma_filter(S((6,), (6,), (6,), (6,)), "R5")


def test_lemma_r6_examples():
    assert sg.lemma_filter(S((5, 1), (3, 1, 1, 1), (3, 1, 1, 1), (2, 1, 1, 1, 1)), "R6")
    assert sg.lemma_filter(S((5, 1), (3, 3), (3, 1, 1, 1), (2, 2, 2)), "R6")
    assert sg.lemma_filter(S((6,), (4, 2), (4, 2), (3, 3)), "R6")
    assert not sg.lemma_filter(S((6,), (4, 2), (4, 2), (4, 2)), "R6")


def hand_written_r5(shapes):
    t = [len(s) for s in shapes]
    g2 = [sum(1 for x in s if x >= 2) for s in shapes]
    g3 = [sum(1 for x in s if x >= 3) for s in shapes]
    return any(t[i] + t[j] + g3[k] <= 4 or t[i] + g2[j] + g2[k] <= 4
               for i, j, k in itertools.permutations(range(3)))


def hand_written_r6(shapes):
    t = [len(s) for s in shapes]
    g2 = [sum(1 for x in s if x >= 2) for s in shapes]
    g3 = [sum(1 for x in s if x >= 3) for s in shapes]
    g4 = [sum(1 for x in s if x >= 4) for s in shapes]
    return any(t[i] + g2[j] + g2[k] + g2[l] <= 5 or t[i] + t[j] + g2[k] + g3[l] <= 5
               or t[i] + t[j] + t[k] + g4[l] <= 5
               for i, j, k, l in itertools.permutations(range(4)))


def test_one_lemma_rule_is_r5_and_r6():
    for (n, p), which, ref, eliminated in (((5, 3), "R5", hand_written_r5, 62),
                                           ((6, 4), "R6", hand_written_r6, 551)):
        got = [sg.lemma_filter(s, which) for s in sg.enumerate_signatures(n, p)]
        assert got == [ref(s.shapes()) for s in sg.enumerate_signatures(n, p)]
        assert sum(got) == eliminated


def test_residual_53():
    res = sg.residual_cases(5, 3)
    assert [s.shapes() for s in res] == [((4, 1), (3, 2), (3, 2)),
                                         ((3, 2), (3, 2), (3, 2))]


def test_r6_fixture_loads():
    fixture = sg.load_r6_fixture()
    assert len(fixture) == 173
    assert len(set(str(s) for s in fixture)) == 173
    assert sg.SignatureSet.of(6, [(6,), (4, 2), (4, 2), (4, 2)]) in fixture


def test_r6ii_per_realization():
    # a realization of {(6),(6),(6),(6)} has every W of size 3 inside single
    # blocks, so the size-3 condition (sum of block counts <= 5) applies
    s = S((6,), (6,), (6,), (6,))
    w = sg.is_valid(s)
    assert w is not None
    assert sg.lemma_filter(s, "R6II", w)


def test_unsupported_residual():
    with pytest.raises(ValueError):
        sg.residual_cases(4, 2)


def _restrict_profile(blocks, w):
    """(#blocks, #blocks of size >= 2, #blocks of size >= 3) of the
    restriction of a set partition to w, from the blocks as vertex sets."""
    sizes = [len(set(w).intersection(b)) for b in blocks]
    return tuple(sum(1 for c in sizes if c >= k) for k in (1, 2, 3))


def test_w_tables_agree_with_w_qualifies():
    tab = sg._tables(6)
    tab.w_codes((6,))
    ws = [w for size in (3, 4, 5) for w in itertools.combinations(range(6), size)]
    sizes = [len(w) for w in ws]
    assert sizes.count(3) == 20 and sizes.count(4) == 15 and sizes.count(5) == 6
    # one table per W, in that order, with one slot per partition of |W|
    ks = [k for k, _ in tab._qual]
    assert ks == [{3: 3, 4: 5, 5: 7}[s] for s in sizes]
    assert tab.w_offset == list(itertools.accumulate(ks, initial=0))[:-1]
    # on each W, a slot names one restriction profile, read off the blocks,
    # and the slots are the profiles that restrictions produce
    profs = [{} for _ in ws]
    for shape in sg.int_partitions(6):
        codes = tab.w_codes(shape)
        for blocks, (_, idx) in zip(tab.parts[shape], codes):
            for wi, w in enumerate(ws):
                prof = _restrict_profile(blocks, w)
                assert profs[wi].setdefault(idx[wi], prof) == prof
    for wi, k in enumerate(ks):
        assert sorted(profs[wi]) == list(range(k)) and len(set(profs[wi].values())) == k
    # every triple of slots, on every W of each size
    for size in (3, 4, 5):
        k = {3: 3, 4: 5, 5: 7}[size]
        for a, b, c in itertools.product(range(k), repeat=3):
            vecs = [tuple(x if s == size else 0 for s in sizes) for x in (a, b, c)]
            got = tab.qualifying_fourth(*vecs)
            for wi, s in enumerate(sizes):
                if s == size:
                    for d in range(k):
                        want = sg._w_qualifies(size, [profs[wi][x] for x in (a, b, c, d)])
                        assert bool(got >> (tab.w_offset[wi] + d) & 1) == want
    # whole partitions: the bit test equals the per-W specification
    rng = random.Random(5)
    shapes = sg.int_partitions(6)
    outcomes = set()
    for _ in range(300):
        picks = []
        for _ in range(4):
            shape = rng.choice(shapes)
            codes = tab.w_codes(shape)
            i = rng.randrange(len(codes))
            picks.append((tab.parts[shape][i], codes[i]))
        got = bool(tab.qualifying_fourth(*(c[1] for _, c in picks[:3])) & picks[3][1][0])
        want = any(sg._w_qualifies(len(w), [_restrict_profile(p, w) for p, _ in picks])
                   for w in ws)
        assert got == want
        outcomes.add(got)
    assert outcomes == {True, False}


def test_one_pair_layout_follows_combinations_order():
    # bit j of a pair mask is set iff combinations(range(n), 2)[j] lies in a block
    rng = random.Random(34)
    for n in range(9):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(30):
            blocks = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 3))]
            m = sg._pair_mask(n, [mask_of(b) for b in blocks])
            assert m >> len(pairs) == 0
            for j, (u, v) in enumerate(pairs):
                assert bool(m >> j & 1) == any(u in b and v in b for b in blocks), (n, blocks)
    # the search tables use the same layout
    tab = sg._tables(6)
    pairs = list(itertools.combinations(range(6), 2))
    for shape in sg.int_partitions(6):
        tab.ensure(shape)
        for blocks, m in zip(tab.parts[shape], tab.masks[shape]):
            assert m == sum(1 << pairs.index(pq)
                            for b in blocks for pq in itertools.combinations(sorted(b), 2))


def _block_loop_admits_w(g):
    """The block-loop form of `realization_admits_w`, kept as its reference:
    W's profile in each color from the blocks that W meets."""
    everything = (1 << g.n) - 1
    blocks = [component_masks(g.adjacency(c), everything) for c in range(1, 5)]
    for size in (3, 4, 5):
        for w in itertools.combinations(range(g.n), size):
            wmask = mask_of(w)
            profs = []
            for bs in blocks:
                t = g2 = g3 = 0
                for b in bs:
                    x = b & wmask
                    if x:
                        t += 1
                        x &= x - 1  # drop one vertex of the block's meet with W
                        if x:
                            g2 += 1
                            if x & (x - 1):
                                g3 += 1
                profs.append((t, g2, g3))
            if sg._w_qualifies(size, profs):
                return True
    return False


def test_pair_counts_name_the_partitions_up_to_five():
    def counts(size):
        return [sum(q * (q - 1) // 2 for q in lam) for lam in sg.int_partitions(size)]
    assert sorted(counts(3)) == [0, 1, 3]
    assert sorted(counts(4)) == [0, 1, 2, 3, 6]
    assert sorted(counts(5)) == [0, 1, 2, 3, 4, 6, 10]
    assert counts(6).count(6) == 2  # (4,1,1) and (3,3)
    with pytest.raises(ValueError, match="do not name the partitions of 6"):
        sg._qualifying_counts(6)


def test_pair_count_checker_agrees_with_the_block_loops():
    # the free realizations of the 173 surviving signatures (the realizations
    # of the eliminated ones are compared in the test below)
    for s in sg.load_r6_fixture():
        valid, g = sg._analyze_r6ii(s)
        assert valid and not sg.realization_admits_w(g) and not _block_loop_admits_w(g)
    # multicolorings of K_n that are not closed
    rng = random.Random(33)
    seen = set()
    for n in range(3, 8):
        tried = 0
        while tried < 60:
            g = complete_graph(n, lambda u, v: rng.sample(range(1, 5), rng.choice((1, 1, 2))), 4)
            if closure(g) == g or not any(len(cs) > 1 for _, _, cs in g.edges()):
                continue
            tried += 1
            got = sg.realization_admits_w(g)
            assert got == _block_loop_admits_w(g), g.edges()
            seen.add(got)
    assert seen == {True, False}


def test_r6ii_eliminations_hold_on_every_realization():
    # valid, not eliminated by R6, eliminated by R6II: every realization the
    # search enumerates must admit a qualifying W by the independent checker
    elim = [s for s in sg.enumerate_signatures(6, 4)
            if not sg.lemma_filter(s, "R6") and sg.lemma_filter(s, "R6II")]
    assert len(elim) == 18
    tab = sg._tables(6)
    count = 0
    for s in elim:
        assert sg.is_valid(s) is not None
        order, shapes = sg._search_order(tab, s)
        for idxs in _expanded(sg._covering_tuples(tab, shapes, SolveBudget())):
            g = sg._realization(s, tab, order, shapes, idxs)
            assert sg.realization_admits_w(g) and _block_loop_admits_w(g)
            count += 1
    assert count == 20560


def test_realization_gate_checks_every_pair_and_each_color():
    tab = sg._tables(6)
    # four perfect matchings cover 12 of K_6's 15 pairs
    s = S((2, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2))
    order, shapes = sg._search_order(tab, s)
    with pytest.raises(AssertionError, match="leaves a pair uncolored"):
        sg._realization(s, tab, order, shapes, (0, 0, 0, 0))
    # a covering tuple colored in the wrong order
    s = S((6,), (4, 2), (4, 2), (4, 2))
    order, shapes = sg._search_order(tab, s)
    prefix, hits = next(sg._covering_tuples(tab, shapes, SolveBudget()))
    idxs = prefix + ((hits & -hits).bit_length() - 1,)
    assert sg._realization(s, tab, order, shapes, idxs).is_complete()
    with pytest.raises(AssertionError, match="has another signature"):
        sg._realization(s, tab, order[::-1], shapes, idxs)


def test_r6ii_on_a_graph_rejects_a_graph_that_does_not_realize_sig():
    s = S((6,), (6,), (6,), (6,))
    with pytest.raises(GraphError, match="R6II needs a realization of"):
        sg.lemma_filter(s, "R6II", monochromatic_complete(7, r=4))
    other = sg.is_valid(S((6,), (4, 2), (4, 2), (4, 2)))
    assert other is not None
    with pytest.raises(GraphError, match="R6II needs a realization of"):
        sg.lemma_filter(s, "R6II", other)


def test_free_witness_gate_survives_python_O():
    src = os.path.dirname(os.path.dirname(sg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = textwrap.dedent("""
        import ryserlab.signatures as sg
        sg.realization_admits_w = lambda g: True
        try:
            sg.residual_cases(6, 4)
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("residual_cases reported an unconfirmed free signature")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "admits a qualifying W" in res.stdout


def test_a_run_forgets_the_tables_of_larger_sizes():
    # the tables grow steeply with n, so a run for n keeps none above it;
    # those of smaller sizes stay for the runs that share them
    sg._TABLES.clear()
    sg.valid_signatures(5, 3)
    assert list(sg._TABLES) == [5]
    sg.valid_signatures(4, 3)
    assert list(sg._TABLES) == [4]
    sg.residual_cases(5, 3)
    assert sorted(sg._TABLES) == [4, 5]


def test_forgotten_tables_are_freed_without_a_cyclic_collection():
    # no reference cycle may hold a search's tables once the dict lets go
    sg._TABLES.clear()
    gc.disable()
    try:
        sg.valid_signatures(5, 3)
        dead = weakref.ref(sg._TABLES[5].dead)
        sg.valid_signatures(4, 3)
        assert dead() is None
    finally:
        gc.enable()


def test_graphs_are_built_only_where_one_is_returned(monkeypatch):
    # valid_signatures decides on the gated rows; residual_cases builds the
    # free realization that realization_admits_w rechecks, one per survivor
    calls = []
    real = sg.closed_graph
    monkeypatch.setattr(sg, "closed_graph", lambda n, blocks: calls.append(n) or real(n, blocks))
    assert len(sg.valid_signatures(6, 4)) == 560
    assert calls == []
    assert len(sg.residual_cases(6, 4)) == 173
    assert len(calls) == 173


def test_gate_raises_on_a_tampered_row():
    tab = sg._ShapeTables(6)  # private tables, so that the tampering stays here
    # a vertex leaves its block of 4 for one of its own: that color's blocks
    # are 3, 2, 1, not the signature's 4, 2
    s = S((6,), (4, 2), (4, 2), (4, 2))
    order, shapes, idxs = sg._first_covering(s, tab, SolveBudget())
    sg._gate(s, tab, order, shapes, idxs)
    rows = tab.rows[shapes[1]]
    good = rows[idxs[1]]
    v = next(v for v in range(6) if good[v].bit_count() == 4 and good[v] & -good[v] != 1 << v)
    rows[idxs[1]] = good[:v] + (1 << v,) + good[v + 1:]
    with pytest.raises(AssertionError, match="has another signature"):
        sg._gate(s, tab, order, shapes, idxs)
    # a vertex's row names the other block of its (3,3) partition: the blocks
    # keep their shape, but a pair that only this color covers is lost
    s = S((3, 3), (3, 3), (3, 3), (3, 3))
    order, shapes, idxs = sg._first_covering(s, tab, SolveBudget())
    by_color = sg._gate(s, tab, order, shapes, idxs)
    c, v = next((c, v) for c in range(4) for v in range(6)
                if by_color[c][v] & ~reduce(or_, (by_color[d][v] for d in range(4) if d != c)))
    k = order.index(c)
    rows = tab.rows[shapes[k]]
    good = rows[idxs[k]]
    rows[idxs[k]] = good[:v] + (63 ^ good[v],) + good[v + 1:]
    with pytest.raises(AssertionError, match="leaves a pair uncolored"):
        sg._gate(s, tab, order, shapes, idxs)


@pytest.mark.parametrize("blocks, message", [
    (((0, 1), (1, 2)), "repeats a vertex"),
    (((0, 1),), r"does not cover range\(3\)"),
    (((0,), (1,), (2,)), r"does not have shape \(2,1\)"),
])
def test_ensure_rejects_a_malformed_partition(monkeypatch, blocks, message):
    monkeypatch.setattr(sg, "set_partitions_with_shape", lambda n, shape: [blocks])
    with pytest.raises(AssertionError, match=message):
        sg._ShapeTables(3).ensure((2, 1))


def test_an_exhausted_budget_stops_before_the_signatures_are_listed():
    # the signatures are walked one at a time, so the 278 256 of (9,5) are
    # never listed: the parent's list alone peaked at about 87 MB
    tracemalloc.start()
    try:
        with pytest.raises(Inconclusive):
            sg.valid_signatures(9, 5, SolveBudget(max_nodes=10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sg._TABLES.pop(9, None)
    assert peak < 5 * 2**20


def test_one_budget_per_call(monkeypatch):
    made = []

    class Counted(SolveBudget):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sg, "SolveBudget", Counted)
    assert len(sg.valid_signatures(5, 3)) == 37
    assert len(made) == 1
    assert len(sg.residual_cases(6, 4)) == 173
    assert len(made) == 2
