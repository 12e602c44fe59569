"""ColoredMultigraph against a dict-of-frozensets reference model.

A graph is stored only as its per-color adjacency masks; every public view of
it is checked here against a plain dict {(u, v): frozenset of colors}, pairs
lower end first, built in this file from the same edge list.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ryserlab.core import ColoredMultigraph, GraphError, closure

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def edge_lists(draw, n=None, r=None):
    """(n, r, entries): n <= 10, r <= 4; an entry is (u, v, color) or (u, v,
    list of colors), either end first; some pairs repeat, and an entry may
    carry [] when another entry of its pair carries a color."""
    n = draw(st.integers(1, 10)) if n is None else n
    r = draw(st.integers(1, 4)) if r is None else r
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    entries = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            entries.append((u, v, draw(st.integers(1, r))))
        else:
            entries.append((u, v, draw(st.lists(st.integers(1, r), min_size=1, max_size=3))))
        if draw(st.integers(0, 4)) == 0:
            entries.append((v, u, []))
    return n, r, draw(st.permutations(entries))


def ref_of(entries):
    """{(u, v): frozenset} with u < v, the union of each pair's entries."""
    acc = {}
    for u, v, cols in entries:
        cols = {cols} if isinstance(cols, int) else set(cols)
        acc.setdefault((min(u, v), max(u, v)), set()).update(cols)
    return {p: frozenset(cs) for p, cs in acc.items()}


def ref_colors(ref, u, v):
    return ref.get((min(u, v), max(u, v)), frozenset()) if u != v else frozenset()


def ref_closure(n, r, ref):
    """Every color-c component, found by merging labels, completed to a clique."""
    out = {p: set(cs) for p, cs in ref.items()}
    for c in range(1, r + 1):
        label = list(range(n))
        for (u, v), cs in ref.items():
            if c in cs:
                old, new = label[u], label[v]
                label = [new if x == old else x for x in label]
        for u, v in itertools.combinations(range(n), 2):
            if label[u] == label[v]:
                out.setdefault((u, v), set()).add(c)
    return {p: frozenset(cs) for p, cs in out.items()}


def graph_of(n, r, ref):
    return ColoredMultigraph.from_edges(n, r, [(u, v, sorted(cs)) for (u, v), cs in ref.items()])


@SETTINGS
@given(edge_lists())
def test_views_match_the_reference(nre):
    n, r, entries = nre
    ref = ref_of(entries)
    g = ColoredMultigraph.from_edges(n, r, entries)
    assert g.edges() == [(u, v, ref[(u, v)]) for u, v in sorted(ref)]
    assert all(type(cs) is frozenset for _, _, cs in g.edges())
    assert g.is_complete() == (len(ref) == n * (n - 1) // 2)
    assert repr(g) == f"ColoredMultigraph(n={n}, r={r}, m={len(ref)})"
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            want = ref_colors(ref, u, v)
            assert g.colors_of(u, v) == want
            for c in range(-1, r + 2):
                assert g.has_color(u, v, c) is (c in want)
            if want:
                assert g.min_color_of(u, v) == min(want)
            else:
                with pytest.raises(GraphError):
                    g.min_color_of(u, v)
    for c in range(1, r + 1):
        for u in range(n):
            assert g.adjacency(c)[u] == sum(1 << v for v in range(n) if c in ref_colors(ref, u, v))


@SETTINGS
@given(edge_lists())
def test_both_constructors_agree(nre):
    # ColoredMultigraph(...) and from_edges are one constructor under two names
    n, r, entries = nre
    ref = ref_of(entries)
    g = ColoredMultigraph.from_edges(n, r, entries)
    h = ColoredMultigraph(n, r, [(u, v, cs) for (u, v), cs in ref.items()])
    assert h == g and hash(h) == hash(g)
    assert h.edges() == g.edges()
    # a pair may be named either end first
    flipped = ColoredMultigraph(n, r, [(v, u, cs) for (u, v), cs in ref.items()])
    assert flipped == g and hash(flipped) == hash(g)


@SETTINGS
@given(st.data())
def test_equality_follows_the_reference(data):
    n, r, entries = data.draw(edge_lists())
    _, _, others = data.draw(edge_lists(n, r))
    g, h = ColoredMultigraph.from_edges(n, r, entries), ColoredMultigraph.from_edges(n, r, others)
    assert (g == h) == (ref_of(entries) == ref_of(others))
    if g == h:
        assert hash(g) == hash(h)
    assert g != ColoredMultigraph.from_edges(n, r + 1, entries)
    assert g != ColoredMultigraph.from_edges(n + 1, r, entries)


@SETTINGS
@given(st.data())
def test_color_operations_match_the_reference(data):
    n, r, entries = data.draw(edge_lists())
    ref = ref_of(entries)
    g = ColoredMultigraph.from_edges(n, r, entries)

    keep = data.draw(st.frozensets(st.integers(0, r + 1)))
    want = {p: cs & keep for p, cs in ref.items() if cs & keep}
    assert g.subgraph_colors(keep) == graph_of(n, r, want)

    assert closure(g) == graph_of(n, r, ref_closure(n, r, ref))
    assert closure(g).edges() == sorted((u, v, cs) for (u, v), cs
                                        in ref_closure(n, r, ref).items())


@st.composite
def faulty_edge_lists(draw):
    """(n, r, entries, message, edge, field): a valid edge list with one
    fault inserted, its message, and the edge at fault and its field."""
    n, r, entries = draw(edge_lists())
    u = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("loop", "vertex", "color", "empty")))
    if kind == "loop":
        bad, msg, field = (u, u, 1), f"loop at vertex {u}", 1
    elif kind == "vertex":
        w = draw(st.sampled_from((-1, n, n + 3)))
        bad = draw(st.sampled_from(((u, w, 1), (w, u, 1))))
        msg = f"edge ({min(u, w)},{max(u, w)}) out of range for n={n}"
        field = bad.index(w)
    elif kind == "color":
        c = draw(st.sampled_from((0, -1, r + 1)))
        n = max(n, 2)
        u, v = draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
        bad = (u, v, draw(st.sampled_from((c, [c], [1, c]))))
        msg = f"color {c} on edge ({min(u, v)},{max(u, v)}) out of range for r={r}"
        field = 2
    else:
        # a pair that no other entry colors
        free = [p for p in itertools.combinations(range(n), 2)
                if p not in ref_of(entries)]
        assume(free)
        a, b = draw(st.sampled_from(free))
        bad, msg, field = (b, a, []), f"edge ({a},{b}) has an empty color set", 2
    at = draw(st.integers(0, len(entries)))
    return n, r, entries[:at] + [bad] + entries[at:], msg, bad, field


@SETTINGS
@given(faulty_edge_lists())
def test_each_fault_raises_its_message(nrem):
    n, r, entries, msg, bad, field = nrem
    with pytest.raises(GraphError) as exc:
        ColoredMultigraph.from_edges(n, r, entries)
    assert str(exc.value) == msg
    # the error carries the edge at fault and its field, for a parser to locate
    assert (exc.value.item, exc.value.field) == (bad, field)


def test_error_cases_of_both_constructors():
    # (build, message, item, field); item None locates the fault in (n, r)
    cases = [
        (lambda: ColoredMultigraph.from_edges(-1, 1, []), "vertex count must be nonnegative",
         None, 0),
        (lambda: ColoredMultigraph.from_edges(2, -1, []), "color count must be nonnegative",
         None, 1),
        (lambda: ColoredMultigraph(-1, 1, []), "vertex count must be nonnegative", None, 0),
        (lambda: ColoredMultigraph(2, -1, []), "color count must be nonnegative", None, 1),
        (lambda: ColoredMultigraph(3, 1, [(1, 1, {1})]), "loop at vertex 1", (1, 1, {1}), 1),
        # a pair is named lower end first, and u is checked before the loop and v
        (lambda: ColoredMultigraph(3, 1, [(5, 0, {1})]), "edge (0,5) out of range for n=3",
         (5, 0, {1}), 0),
        (lambda: ColoredMultigraph(3, 1, [(5, 5, 1)]), "edge (5,5) out of range for n=3",
         (5, 5, 1), 0),
        (lambda: ColoredMultigraph(3, 1, [(2, 0, {2})]),
         "color 2 on edge (0,2) out of range for r=1", (2, 0, {2}), 2),
        (lambda: ColoredMultigraph(3, 1, [(2, 0, frozenset())]),
         "edge (0,2) has an empty color set", (2, 0, frozenset()), 2),
        (lambda: ColoredMultigraph.from_edges(3, 1, [(0, 1, 1), (2, 0, []), (0, 2, ())]),
         "edge (0,2) has an empty color set", (2, 0, []), 2),
    ]
    for build, msg, item, field in cases:
        with pytest.raises(GraphError) as exc:
            build()
        assert (str(exc.value), exc.value.item, exc.value.field) == (msg, item, field)


def test_empty_entry_beside_a_colored_one_is_accepted():
    g = ColoredMultigraph.from_edges(3, 2, [(0, 1, []), (1, 0, 2), (1, 2, []),
                                            (2, 1, [1, 2])])
    assert g.edges() == [(0, 1, frozenset({2})), (1, 2, frozenset({1, 2}))]
    assert ColoredMultigraph.from_edges(0, 0, []).edges() == []


def ref_rows(n, r, edges):
    """The color rows of ColoredMultigraph(n, r, edges), by a loop that checks
    each entry in full before it ORs it in; raises as the constructor must."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative", None, 0)
    if r < 0:
        raise GraphError("color count must be nonnegative", None, 1)
    adj = [[0] * n for _ in range(r + 1)]
    uncolored = []
    for u, v, cols in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            lo, hi = min(u, v), max(u, v)
            if not 0 <= u < n:
                raise GraphError(f"edge ({lo},{hi}) out of range for n={n}", (u, v, cols), 0)
            if u == v:
                raise GraphError(f"loop at vertex {u}", (u, v, cols), 1)
            raise GraphError(f"edge ({lo},{hi}) out of range for n={n}", (u, v, cols), 1)
        colored = False
        for c in (cols,) if isinstance(cols, int) else cols:
            if not 1 <= c <= r:
                raise GraphError(f"color {c} on edge ({min(u, v)},{max(u, v)}) out of "
                                 f"range for r={r}", (u, v, cols), 2)
            row = adj[c]
            row[u] |= 1 << v
            row[v] |= 1 << u
            colored = True
        if not colored:
            uncolored.append((u, v, cols))
    for u, v, cols in uncolored:
        if not any(row[u] >> v & 1 for row in adj):
            raise GraphError(f"edge ({min(u, v)},{max(u, v)}) has an empty color set",
                             (u, v, cols), 2)
    return tuple(map(tuple, adj))


@st.composite
def entry_lists(draw):
    """(n, r, entries, as_iterator): valid entries (int colors, bool colors,
    lists, tuples and sets of colors, [] beside a colored entry of the pair),
    with 0-3 faults inserted at drawn positions.  A fault is a loop, an end
    or color out of range (either sign, near or far), an empty color set,
    or a color or end that is not an integer."""
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, 4))
    entries = []
    if n >= 2 and r >= 1:
        for _ in range(draw(st.integers(0, 12))):
            u, v = draw(st.permutations(range(n)))[:2]
            kind = draw(st.sampled_from(("int", "bool", "list", "tuple", "set")))
            if kind == "int":
                cols = draw(st.integers(1, r))
            elif kind == "bool":
                cols = True
            else:
                cols = {"list": list, "tuple": tuple, "set": set}[kind](
                    draw(st.lists(st.integers(1, r), min_size=1, max_size=3)))
            entries.append((u, v, cols))
            if draw(st.integers(0, 4)) == 0:
                entries.append((v, u, []))
    far = (-1, -n, -n - 1, -2 * n - 3, n, n + 1, 2 * n, 2 * n + 5, 10 ** 12)
    bad_colors = (0, -1, r + 1, -r - 1, -2 * r - 3, 2 * r + 2, 10 ** 12)
    ok_vertex = st.integers(0, max(n - 1, 0))
    ok_color = st.integers(1, max(r, 1))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("loop", "vertex", "color", "color in list", "empty",
                                     "false", "odd color", "odd vertex")))
        u, v = draw(ok_vertex), draw(ok_vertex)
        if kind == "loop":
            bad = (u, u, draw(ok_color))
        elif kind == "vertex":
            w = draw(st.sampled_from(far))
            bad = draw(st.sampled_from(((u, w, draw(ok_color)), (w, u, draw(ok_color)))))
        elif kind == "color":
            bad = (u, v, draw(st.sampled_from(bad_colors)))
        elif kind == "color in list":
            bad = (u, v, [draw(ok_color), draw(st.sampled_from(bad_colors))])
        elif kind == "empty":
            bad = (u, v, draw(st.sampled_from(([], (), set()))))
        elif kind == "false":
            bad = (u, v, False)
        elif kind == "odd color":
            bad = (u, v, draw(st.sampled_from((1.0, None, "1", [1.0], [2.5], [None]))))
        else:
            w = draw(st.sampled_from((0.5, 1.0, "a", None)))
            bad = draw(st.sampled_from(((u, w, draw(ok_color)), (w, u, draw(ok_color)),
                                        (w, u, [draw(ok_color)]))))
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return n, r, entries, draw(st.booleans())


def outcome(build):
    """("rows", rows) or ("raises", type, message, item, field) of build()."""
    try:
        return ("rows", build())
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        if isinstance(exc, GraphError):
            return ("raises", GraphError, str(exc), exc.item, exc.field)
        # an error of Python itself (a value that is not an int) need only
        # be of the same type
        return ("raises", type(exc))


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_constructor_matches_the_checked_loop(nrei):
    n, r, entries, as_iterator = nrei
    want = outcome(lambda: ref_rows(n, r, entries))
    given_entries = (e for e in entries) if as_iterator else entries
    got = outcome(lambda: ColoredMultigraph(n, r, given_entries)._adj)
    assert got == want


@pytest.mark.parametrize("colors", [[1.5], (1.5,), iter([1.5]), iter([1, 1.5])],
                         ids=["list", "tuple", "iterator", "iterator-second"])
def test_a_one_shot_color_fault_is_the_one_raised(colors):
    # a colour iterator is consumed by the loop, so the fault found there is
    # raised, not a later entry's fault
    entries = [(0, 1, colors), (2, 2, 1)]
    assert outcome(lambda: ColoredMultigraph(3, 2, entries)._adj) == ("raises", TypeError)
