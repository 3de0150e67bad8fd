from __future__ import annotations

import gc
import importlib.util
import itertools
import weakref
import json
import os
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redgraph_oracle
import sl3web.bracket
import sl3web.redgraph
from sl3web.bracket import classify
from sl3web.catalog import FLOWER_SIGNS, arc, cube, digon_arc, flower, theta, tripod
from sl3web.errors import InvalidWebError, PairingError, StageMismatchError
from sl3web.generate import canonical_form, generate_all_non_elliptic
from sl3web.io import web_from_json
from sl3web.redgraph import (
    RedGraph,
    _fit_heads,
    _fitting_orientations,
    _walk_red_graphs,
    brute_force_fitting_orientation,
    corner_selection_ok,
    count_fitting_orientations,
    decompose,
    dual_graph,
    enumerate_pairings,
    enumerate_red_graphs,
    find_exact_red_graph,
    find_fitting_orientation,
    g_reduction,
    grey_halves,
    is_admissible,
    is_exact,
    minimal_admissible_subgraph,
    orientation_index_sum,
    projection_degree_shift,
    red_graph_from_faces,
)
from sl3web.verify import _girth
from sl3web.web import SINK, SOURCE, DartMap, Web, closure, is_admissible_sequence, make_web, validate
from test_cli_fuzz import _mutant


def flower_dual():
    return dual_graph(flower())


def is_nice(red) -> bool:
    return all(red.ed(f) <= 2 for f in red.faces)


def in_out_degrees(red, orientation) -> dict[int, tuple[int, int]]:
    counts = {f: [0, 0] for f in red.faces}
    for _i, (tail, head) in orientation.items():
        counts[head][0] += 1
        counts[tail][1] += 1
    return {f: (i, o) for f, (i, o) in counts.items()}


def max_admissible_level(web):
    """Largest index among admissible red graphs, or None when no red
    graph of the web is admissible."""
    best = None
    for g in enumerate_red_graphs(web):
        if (best is None or g.level > best) and is_admissible(g):
            best = g.level
    return best


def test_dual_graph_shape():
    dual = dual_graph(theta())
    assert len(dual.sides) == 3
    assert dual.degree(0) == 2
    assert sorted(dual.disk_faces()) == [1, 2]
    # every vertex shows three corner regions
    assert all(len(c) == 3 for c in dual.corners.values())


def test_dual_degree_table_counts_edge_sides():
    dual = flower_dual()
    for r in dual.regions:
        assert dual.degree(r.id) == sum((a == r.id) + (b == r.id) for a, b in dual.sides)


def test_corner_rule():
    dual = flower_dual()
    faces = dual.disk_faces()
    assert corner_selection_ok(dual, faces[:2])
    # picking all seven hexagons pinches the six spoke vertices
    assert not corner_selection_ok(dual, faces)


def test_small_webs_have_no_red_graphs():
    for build in (arc, tripod):
        assert list(enumerate_red_graphs(build())) == []


def test_stack_enumeration_matches_recursive_oracle():
    webs = [
        web
        for n in range(10)
        for signs in itertools.product("+-", repeat=n)
        if is_admissible_sequence(signs)
        for web in generate_all_non_elliptic(signs)
    ]
    webs += generate_all_non_elliptic(FLOWER_SIGNS)
    total = 0
    for web in webs:
        dual = dual_graph(web)
        got = list(enumerate_red_graphs(web, dual))
        want = list(redgraph_oracle.enumerate_red_graphs(dual))
        assert [(r.faces, r.edges) for r in got] == [(r.faces, r.edges) for r in want]
        assert [r.level for r in got] == [redgraph_oracle.level(r) for r in want]
        total += len(got)
    assert total == 1251


def test_digon_arc_red_graph():
    web = digon_arc()
    reds = list(enumerate_red_graphs(web))
    assert len(reds) == 1
    red = reds[0]
    assert len(red.faces) == 1 and red.edges == ()
    assert red.ed(red.faces[0]) == 2
    assert red.cap(red.faces[0]) == 1
    assert red.level == 1
    assert is_admissible(red)
    assert not is_exact(red)
    assert count_fitting_orientations(red) == 1
    assert max_admissible_level(web) == 1


def test_flower_red_graph_census():
    web = flower()
    reds = list(enumerate_red_graphs(web))
    assert len(reds) == 81
    admissible = [r for r in reds if is_admissible(r)]
    assert len(admissible) == 1
    petals = admissible[0]
    # the admissible one is the six petal faces in a cycle
    assert len(petals.faces) == 6
    assert len(petals.edges) == 6
    assert all(petals.ed(f) == 2 for f in petals.faces)
    assert petals.level == 0
    assert is_exact(petals)
    assert petals.is_fair() and is_nice(petals)
    assert petals.components() == [petals.faces]


def test_components_match_a_search_over_the_red_edges():
    # every red graph of the flower, the many-component ones included
    dual = dual_graph(flower())
    sizes = set()
    for red in enumerate_red_graphs(flower(), dual):
        adj = {f: [] for f in red.faces}
        for i in red.edges:
            a, b = dual.sides[i]
            adj[a].append(b)
            adj[b].append(a)
        left, want = set(red.faces), []
        while left:
            todo = [min(left)]
            seen = set(todo)
            while todo:
                for g in adj[todo.pop()]:
                    if g not in seen:
                        seen.add(g)
                        todo.append(g)
            left -= seen
            want.append(tuple(sorted(seen)))
        assert red.components() == sorted(want)
        sizes.add(len(want))
    assert max(sizes) >= 2


def test_flower_fitting_orientations():
    web = flower()
    petals = next(r for r in enumerate_red_graphs(web) if is_admissible(r))
    orientation = find_fitting_orientation(petals)
    assert orientation is not None
    degs = in_out_degrees(petals, orientation)
    assert all(i <= petals.cap(f) for f, (i, _o) in degs.items())
    # a 6-cycle with unit caps can only rotate one way or the other
    assert count_fitting_orientations(petals) == 2
    assert orientation_index_sum(petals, orientation) == 0


def test_flow_matches_brute_force_on_flower():
    for red in enumerate_red_graphs(flower()):
        flow = find_fitting_orientation(red)
        brute = brute_force_fitting_orientation(red)
        assert (flow is None) == (brute is None), red.faces


def _stub_red(faces, pairs):
    """Just enough of a red graph for _fitting_orientations and _girth."""
    return SimpleNamespace(
        faces=tuple(faces), edges=tuple(range(len(pairs))), dual=SimpleNamespace(sides=pairs)
    )


@st.composite
def capped_multigraphs(draw):
    n = draw(st.integers(1, 8))
    # two distinct ends per edge; repeats give parallel edges
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0))).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0]))
    )
    pairs = draw(st.lists(ends, max_size=14)) if n > 1 else []
    caps = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    return pairs, dict(enumerate(caps))


@settings(max_examples=300, deadline=None)
@given(capped_multigraphs())
def test_orientation_solver_matches_brute_force(graph):
    pairs, caps = graph
    heads = _fit_heads(pairs, caps)
    brute = next(_fitting_orientations(_stub_red(caps, pairs), range(len(pairs)), caps), None)
    assert (heads is None) == (brute is None)
    if heads is not None:
        assert len(heads) == len(pairs)
        assert all(head in pair for head, pair in zip(heads, pairs))
        # like the brute force, a face with cap -1 just takes no head;
        # find_fitting_orientation turns negative caps away before solving
        assert all(heads.count(f) <= max(cap, 0) for f, cap in caps.items())


def test_orientation_solver_reroutes_earlier_edges():
    # the second edge fits only after the first is flipped from 0 to 1
    assert _fit_heads([(0, 1), (0, 2)], {0: 1, 1: 1, 2: 0}) == [1, 0]
    assert _fit_heads([(0, 1), (0, 1), (0, 1)], {0: 1, 1: 1}) is None


def test_flower_exact_red_graph_and_girths_are_pinned():
    # recorded with the networkx max-flow and girth; a different fitting
    # orientation may be found, but these results may not move
    web = flower()
    assert find_exact_red_graph(web).faces == (12, 13, 14, 15, 16, 17)
    girths = {red.faces: _girth(red) for red in enumerate_red_graphs(web)}
    assert len(girths) == 81
    assert {f: g for f, g in girths.items() if g is not None} == {(12, 13, 14, 15, 16, 17): 6}


def test_girth_of_small_multigraphs():
    assert _girth(_stub_red(range(3), [(0, 1), (1, 2)])) is None
    assert _girth(_stub_red(range(3), [(0, 1), (1, 2), (2, 0)])) == 3
    assert _girth(_stub_red(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)])) == 2


def test_g_reduction_leaves_the_shared_dart_map_alone():
    web = flower()
    petals = next(r for r in enumerate_red_graphs(web) if is_admissible(r))
    greys = [grey_halves(petals, f) for f in petals.faces]
    partners = dict(petals.dual.darts.partner)
    g_reduction(web, petals)
    assert petals.dual.darts.partner == partners
    assert [grey_halves(petals, f) for f in petals.faces] == greys


def test_a_flower_search_and_its_reductions_build_one_dart_map(monkeypatch):
    # the region table keeps the map its validation built, and the dual
    # graph reads it instead of building a second one
    built = []
    init = DartMap.__init__

    def counted(self, web):
        built.append(web)
        init(self, web)

    monkeypatch.setattr(DartMap, "__init__", counted)
    web = flower()
    red = find_exact_red_graph(web)
    for pairing in enumerate_pairings(red):
        g_reduction(web, red, pairing)
    assert built == [web]


def test_orientation_index_sum_is_orientation_independent():
    petals = next(r for r in enumerate_red_graphs(flower()) if is_admissible(r))
    sides = petals.dual.sides
    forward = {i: sides[i] for i in petals.edges}
    backward = {i: (b, a) for i, (a, b) in forward.items()}
    assert orientation_index_sum(petals, forward) == petals.level
    assert orientation_index_sum(petals, backward) == petals.level


def test_grey_halves_count_matches_external_degree():
    petals = next(r for r in enumerate_red_graphs(flower()) if is_admissible(r))
    for f in petals.faces:
        greys = grey_halves(petals, f)
        assert len(greys) == petals.ed(f) == 2


def test_pairings():
    petals = next(r for r in enumerate_red_graphs(flower()) if is_admissible(r))
    assert len(enumerate_pairings(petals)) == 1
    red = next(iter(enumerate_red_graphs(digon_arc())))
    assert len(enumerate_pairings(red)) == 1


def test_g_reduction_digon_arc():
    web = digon_arc()
    red = next(iter(enumerate_red_graphs(web)))
    reduced = g_reduction(web, red)
    assert validate(reduced) == []
    assert canonical_form(reduced) == canonical_form(arc())
    assert projection_degree_shift(red) == 2


def test_g_reduction_flower_gives_six_caps():
    web = flower()
    petals = next(r for r in enumerate_red_graphs(web) if is_admissible(r))
    reduced = g_reduction(web, petals)
    assert validate(reduced) == []
    assert reduced.vertex_count == 0
    assert len(reduced.edges) == 6
    assert reduced.circles == 0
    assert reduced.signs == web.signs
    assert projection_degree_shift(petals) == 0


@pytest.mark.parametrize(
    "swap, message",
    [
        ({(2506, 1506): (999999, 1506)}, "not a loose end"),
        ({(1801, 1901): (1801, 1506)}, "1506 paired twice"),
        ({(1801, 1901): (1801, 1801)}, "paired with itself"),
        # greys 1802 and 1902 left unpaired, the halves of a red edge joined instead
        ({(1802, 1902): (1002, 1102)}, r"unpaired loose half-edges: \[1802, 1902\]"),
        ({(1802, 1902): None}, "5 pairs for 12 grey ends"),
        ({(2506, 1506): (2506, 1801), (1801, 1901): (1506, 1901)}, "point the same way"),
    ],
)
def test_g_reduction_rejects_malformed_pairing(swap, message):
    web = flower()
    red = red_graph_from_faces(web, (12, 13, 14, 15))
    pairing = [swap.get(pair, pair) for pair in enumerate_pairings(red)[0]]
    with pytest.raises(PairingError, match=message):
        g_reduction(web, red, [pair for pair in pairing if pair is not None])


def test_g_reduction_rejects_foreign_red_graph():
    red = next(iter(enumerate_red_graphs(digon_arc())))
    with pytest.raises(StageMismatchError):
        g_reduction(flower(), red)


def test_minimal_admissible_subgraph_is_fixed_point_on_flower():
    petals = next(r for r in enumerate_red_graphs(flower()) if is_admissible(r))
    minimal = minimal_admissible_subgraph(petals)
    assert minimal.faces == petals.faces
    assert is_exact(minimal)


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _bench_module(name: str):
    """A module of the benchmark's directory, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pool_polyhexes() -> list[tuple[int, Web]]:
    """(size, web) for every polyhex web of the benchmark's shape pool."""
    polyhex = _bench_module("polyhex")
    with open(os.path.join(BENCH, "data", "polyhex.json")) as f:
        shapes = json.load(f)["shapes"]
    return [(s["size"], polyhex.polyhex_web([tuple(h) for h in s["patch"]])) for s in shapes]


def _pool_polyhex(size: int) -> Web:
    """The polyhex web of `size` hexagons from the benchmark's shape pool."""
    (web,) = [web for n, web in _pool_polyhexes() if n == size]
    return web


def _flower_boundary_webs() -> list[Web]:
    return generate_all_non_elliptic(FLOWER_SIGNS)


def _pool_webs_of_8_hexagons() -> list[Web]:
    return [web for size, web in _pool_polyhexes() if size == 8]


def _parallel_mutants() -> list[Web]:
    """Two catalog mutants of the command-line fuzz test in which two disk
    faces share two edges: the cube with two edge heads swapped (8
    vertices, 25 red graphs) and a flower mutant (81 red graphs)."""
    return [web_from_json(_mutant(931)), web_from_json(_mutant(251))]


def test_negative_index_red_graphs_never_fit():
    # the fact minimal_admissible_subgraph's scan leans on
    negative = 0
    for web in generate_all_non_elliptic(FLOWER_SIGNS):
        for red in enumerate_red_graphs(web):
            if red.level < 0:
                negative += 1
                assert find_fitting_orientation(red) is None
    assert negative > 200


@pytest.mark.parametrize("size", [None, 14])
def test_minimal_subgraph_scan_solves_only_nonnegative_indices(monkeypatch, size):
    # the flower, or the 14-hexagon polyhex web: the search solved 64 red
    # graphs before the scan skipped negative indices, 62 of them subsets
    web = flower() if size is None else _pool_polyhex(size)
    solved = []
    solve = sl3web.redgraph.find_fitting_orientation

    def counted(red):
        solved.append(red.level)
        return solve(red)

    monkeypatch.setattr(sl3web.redgraph, "find_fitting_orientation", counted)
    exact = find_exact_red_graph(web)
    assert exact.level == 0 and len(exact.faces) == 6
    assert solved == [0, 0]  # the walk's admissibility test, then the scan's start


def test_minimal_subgraph_matches_the_oracle_scan():
    # every admissible red graph of the flower-boundary webs, the polyhex
    # webs of 8 hexagons, the mutants with parallel dual edges and a
    # flower mutant on which the subset scan shrinks a 6-face red graph
    # of index 1 to a square face
    webs = _flower_boundary_webs() + _pool_webs_of_8_hexagons() + _parallel_mutants()
    compared = 0
    for web in webs + [web_from_json(_mutant(1309))]:
        for red in enumerate_red_graphs(web):
            if is_admissible(red):
                got = minimal_admissible_subgraph(red)
                want = redgraph_oracle.minimal_admissible_subgraph(red)
                assert (got.faces, got.edges) == (want.faces, want.edges)
                compared += 1
    assert compared == 84


def test_minimal_subgraph_scan_solves_the_oracles_subsets(monkeypatch):
    """With every subset refused, the scan solves the subsets of index
    >= 0 that the oracle's scan solves, in the same order."""
    solve = find_fitting_orientation
    solved: list = []

    def refuse_subsets(red):
        # the scan's starting red graph is solved; each subset is refused
        if not solved:
            solved.append(None)
            return solve(red)
        solved.append(red.faces)
        return None

    for module in (sl3web.redgraph, redgraph_oracle):
        monkeypatch.setattr(module, "find_fitting_orientation", refuse_subsets)
    with_edges = 0
    for red in enumerate_red_graphs(web_from_json(_mutant(1309))):
        if solve(red) is None:
            continue
        runs = []
        for scan in (minimal_admissible_subgraph, redgraph_oracle.minimal_admissible_subgraph):
            solved.clear()
            scan(red)
            runs.append(solved[1:])
        assert runs[0] == runs[1]
        with_edges += sum(RedGraph(red.dual, faces).edges != () for faces in runs[0])
    assert with_edges > 0


def test_find_exact_red_graph():
    exact = find_exact_red_graph(flower())
    assert exact is not None
    assert exact.level == 0
    assert find_exact_red_graph(tripod()) is None
    with pytest.raises(ValueError):
        find_exact_red_graph(digon_arc())


def _search_outcome(search, web):
    """What an exact-red-graph search gives: the red graph's faces, edges
    and index, None, or the error it raised."""
    try:
        red = search(web)
    except Exception as exc:  # the two searches must raise alike
        return type(exc).__name__, str(exc)
    return None if red is None else (red.faces, red.edges, red.level)


def _flower_rotations():
    web = flower()
    b = web.boundary
    return [make_web(b[k:] + b[:k], web.vertices, web.edges, web.circles) for k in range(4)]


def test_bounded_search_matches_full_scan_oracle():
    webs = [
        web
        for n in range(10)
        for signs in itertools.product("+-", repeat=n)
        if is_admissible_sequence(signs)
        for web in generate_all_non_elliptic(signs)
    ]
    flower_boundary = generate_all_non_elliptic(FLOWER_SIGNS)
    assert len(flower_boundary) == 513
    rotations = _flower_rotations()
    assert len({w.signs for w in rotations}) == 4
    found = 0
    for web in webs + flower_boundary + rotations:
        got = _search_outcome(find_exact_red_graph, web)
        assert got == _search_outcome(redgraph_oracle.find_exact_red_graph, web)
        found += got is not None
    # one decomposable web over the flower boundary, and each rotation
    assert found == 5


def test_bounded_search_matches_full_scan_oracle_on_polyhex_webs():
    # every pool shape cut at 3 seeded legs with fresh labels, as the
    # benchmark draws them, so the disk faces come in other orders
    canon = _bench_module("canon")
    rng = Random(19)
    found = 0
    for _size, base in _pool_polyhexes():
        for _ in range(3):
            web = canon.relabel(canon.rotate(base, rng.randrange(len(base.boundary))), rng)
            got = _search_outcome(find_exact_red_graph, web)
            assert got == _search_outcome(redgraph_oracle.find_exact_red_graph, web)
            found += got is not None
    # the first 8-hexagon shape and the 9-hexagon one have no exact red graph
    assert found == 15


def _searched(reds) -> list:
    """(faces, edges) of the red graphs in `reds` that beat the floor of
    find_exact_red_graph: -1, then the index of the last admissible one."""
    best = None
    out = []
    for red in reds:
        if red.level > (-1 if best is None else best.level):
            out.append((red.faces, red.edges))
            if is_admissible(red):
                best = red
    return out


@pytest.mark.parametrize("index, count", [(0, 25), (1, 81)])
def test_walk_matches_the_oracle_across_parallel_dual_edges(index, count):
    dual = dual_graph(_parallel_mutants()[index])
    disk = set(dual.disk_faces())
    shared = Counter(tuple(sorted(pair)) for pair in dual.sides if disk.issuperset(pair))
    assert max(shared.values()) == 2
    oracle = list(redgraph_oracle.enumerate_red_graphs(dual))
    assert len(oracle) == count
    assert [(r.faces, r.edges) for r in _walk_red_graphs(dual)] == [
        (r.faces, r.edges) for r in oracle
    ]
    best = None
    walked = []
    for red in _walk_red_graphs(dual, lambda: -1 if best is None else best.level):
        walked.append((red.faces, red.edges))
        if is_admissible(red):
            best = red
    assert walked == _searched(oracle)


def test_walk_floor_reads_on_the_largest_pool_web():
    # the bound without blocked faces read the floor 2,515 times here
    dual = dual_graph(_pool_polyhex(14))
    best = None
    reads = 0

    def floor():
        nonlocal reads
        reads += 1
        return -1 if best is None else best.level

    for red in _walk_red_graphs(dual, floor):
        if is_admissible(red):
            best = red
    assert best.level == 0
    assert reads == 1854


def _bound_checked_nodes(webs) -> int:
    """Walk every red graph of each web with a floor that checks, at each
    node, that the bound level + rest is at least the largest index of a
    red graph below the node, found by trying every set of remaining
    faces; the floor, below every index, keeps the walk from skipping
    any node.  Returns the number of nodes checked."""
    nodes = 0
    for web in webs:
        dual = dual_graph(web)

        def floor():
            nonlocal nodes
            at = walk.gi_frame.f_locals
            disk, i = at["disk"], at["i"]
            taken = [disk[j] for j in at["chosen"]]
            best = None
            for k in range(len(disk) - i + 1):
                for more in itertools.combinations(disk[i:], k):
                    faces = taken + list(more)
                    if faces and corner_selection_ok(dual, faces):
                        index = redgraph_oracle.level(RedGraph(dual, faces))
                        best = index if best is None else max(best, index)
            assert best is None or at["level"] + at["rest"] >= best, (taken, i)
            nodes += 1
            return float("-inf")

        walk = _walk_red_graphs(dual, floor)
        assert [(r.faces, r.edges) for r in walk] == [
            (r.faces, r.edges) for r in redgraph_oracle.enumerate_red_graphs(dual)
        ]
    return nodes


def test_index_bound_is_sound_at_every_walk_node():
    assert _bound_checked_nodes(_flower_boundary_webs()) > 400


def test_index_bound_is_sound_on_polyhex_webs_and_parallel_dual_edges():
    assert _bound_checked_nodes(_pool_webs_of_8_hexagons()) > 150
    assert _bound_checked_nodes(_parallel_mutants()) > 30


def test_bounded_search_builds_fewer_red_graphs(monkeypatch):
    built = 0

    class Counted(RedGraph):
        def __init__(self, *args, **kwargs):
            nonlocal built
            built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sl3web.redgraph, "RedGraph", Counted)
    assert find_exact_red_graph(flower()).faces == (12, 13, 14, 15, 16, 17)
    searched = built
    built = 0
    assert len(list(enumerate_red_graphs(flower()))) == built == 81
    assert searched < built


def test_walk_rejects_a_face_on_both_sides_of_an_edge():
    dual = flower_dual()
    face = dual.disk_faces()[0]
    # a dual graph claiming that a disk face lies on both sides of edge 0
    bad = dual_graph(dual.web)
    bad.sides = ((face, face),) + dual.sides[1:]
    # a floor that no red graph beats: the walk takes no face at all
    for walk in (enumerate_red_graphs(bad.web, bad), _walk_red_graphs(bad, lambda: 10**6)):
        with pytest.raises(AssertionError, match="both sides"):
            next(walk)


def test_red_graph_from_faces_checks_input():
    web = flower()
    faces = dual_graph(web).disk_faces()
    red = red_graph_from_faces(web, faces[:1])
    assert red.faces == (faces[0],)
    with pytest.raises(StageMismatchError):
        red_graph_from_faces(web, [0])  # the unbounded region
    with pytest.raises(StageMismatchError):
        red_graph_from_faces(web, [])
    with pytest.raises(StageMismatchError):
        red_graph_from_faces(web, faces)  # pinched vertices


def test_decompose_digon_arc():
    dec = decompose(digon_arc())
    assert dec.complete
    assert sorted(s for _w, s in dec.factors) == [-1, 1]
    assert all(canonical_form(w) == canonical_form(arc()) for w, _s in dec.factors)


def test_decompose_arc_with_circle():
    w = arc()
    dec = decompose(Web(w.boundary, w.vertices, w.edges, 1))
    assert dec.complete
    assert sorted(s for _w, s in dec.factors) == [-2, 0, 2]
    assert all(canonical_form(piece) == canonical_form(arc()) for piece, _s in dec.factors)


def test_decompose_flower_reports_incomplete():
    dec = decompose(flower())
    assert not dec.complete
    assert len(dec.factors) == 1
    piece, shift = dec.factors[0]
    assert shift == 0
    assert piece.vertex_count == 0 and len(piece.edges) == 6


def test_decompose_reuses_the_classified_bracket(monkeypatch):
    def shifted_flower():
        # ids no other test uses, so no other live web equals this one
        w = flower()
        return make_web(
            [(h + 7919, s) for h, s in w.boundary],
            [(v, kind, [h + 7919 for h in rot]) for v, kind, rot in w.vertices],
            [(t + 7919, h + 7919) for t, h in w.edges],
        )

    bracketed = []
    dag_leaves = sl3web.bracket._dag_leaves

    def counted(web, rng=None, arrays=None):
        if not web.boundary:  # split_elliptic walks the DAG too; keep brackets
            # hom_poly hands over the closure's glued map, not its Web
            bracketed.append(web.to_web() if isinstance(web, DartMap) else web)
        return dag_leaves(web, rng, arrays)

    monkeypatch.setattr(sl3web.bracket, "_dag_leaves", counted)
    web = shifted_flower()
    assert not classify(web).indecomposable
    assert not decompose(web).complete
    assert len(bracketed) > 1  # decompose brackets the reduced pieces
    assert bracketed.count(closure(web, web)) == 1
    # the entry lives as long as the web, and keeps it alive no longer
    probe, gone = shifted_flower(), weakref.ref(web)
    assert probe in sl3web.bracket._classes
    del web
    gc.collect()
    assert gone() is None
    assert probe not in sl3web.bracket._classes


def test_decompose_rejects_an_invalid_web():
    # one vertex's kind flipped: its edges now point the wrong way
    w = flower()
    (vid, kind, rot), *rest = w.vertices
    bad = Web(w.boundary, ((vid, SOURCE if kind == SINK else SINK, rot), *rest), w.edges)
    with pytest.raises(InvalidWebError):
        decompose(bad)


def test_decompose_cube_closed_web():
    dec = decompose(cube())
    assert dec.complete
    # sum of q^shift over the factors must be the bracket, 2[2]^2[3]
    from sl3web.bracket import bracket
    from sl3web.laurent import LaurentPoly

    total = sum(
        (LaurentPoly.monomial(s) for _w, s in dec.factors), LaurentPoly.zero()
    )
    assert total == bracket(cube())
    assert all(not w.boundary and not w.vertices for w, _s in dec.factors)
