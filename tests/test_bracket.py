from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
from collections import Counter
from random import Random

import pytest

import elimination_oracle
import sl3web.bracket as bracket_module
import sl3web.web as web_module
from sl3web.bracket import (
    boundary_weight,
    bracket,
    classify,
    collapse_digon,
    hom_graded_dimension,
    hom_poly,
    remove_circle,
    smooth_square,
    split_elliptic,
)
from sl3web.catalog import (
    FLOWER_SIGNS,
    arc,
    circle_web,
    cube,
    digon_arc,
    double_digon_arc,
    empty_web,
    flower,
    theta,
    tripod,
)
from sl3web.errors import BoundaryMismatchError, SizeGuardError, TheoremViolationError
from sl3web.generate import (
    canonical_form,
    generate_all_non_elliptic,
    generate_closed,
    inflate_edge,
)
from sl3web.laurent import LaurentPoly, quantum_integer
from sl3web.redgraph import (
    enumerate_pairings,
    enumerate_red_graphs,
    g_reduction,
    red_graph_from_faces,
)
from sl3web.web import (
    SINK,
    SOURCE,
    DartMap,
    Web,
    closure,
    find_elliptic_face,
    is_admissible_sequence,
    make_web,
)
from test_redgraph import _pool_polyhexes

Q2 = quantum_integer(2)
Q3 = quantum_integer(3)


def poly(d: dict) -> LaurentPoly:
    out = LaurentPoly.zero()
    for e, c in d.items():
        out = out + LaurentPoly.monomial(e, c)
    return out


# -- frozen values, each worked out by hand from the three relations ---------


def test_bracket_empty():
    assert bracket(empty_web()) == LaurentPoly.one()


def test_bracket_circles():
    assert bracket(circle_web()) == Q3
    assert bracket(circle_web(2)) == Q3 * Q3


def test_bracket_theta():
    # one digon collapse leaves a circle
    assert bracket(theta()) == Q2 * Q3


def test_bracket_cube():
    # either square smoothing doubles two opposite edges of a 4-cycle,
    # so each smoothing is worth [2] * theta, and the two agree
    assert bracket(cube()) == poly({4: 2, 2: 6, 0: 8, -2: 6, -4: 2})
    assert bracket(cube()) == Q2 * Q2 * Q3 + Q2 * Q2 * Q3


def test_bracket_rejects_boundary():
    with pytest.raises(BoundaryMismatchError):
        bracket(arc())


def test_bracket_randomized_orders_agree():
    w = cube()
    reference = bracket(w)
    for seed in range(12):
        assert bracket(w, rng=Random(seed)) == reference


# -- single-step relations -----------------------------------------------------


def test_remove_circle_step():
    w = circle_web(3)
    assert bracket(w) == Q3 * bracket(remove_circle(w))


def test_collapse_digon_step():
    w = theta()
    _kind, face = find_elliptic_face(w)
    collapsed = collapse_digon(w, face)
    assert collapsed.circles == 1
    assert collapsed.vertex_count == 0


def test_smooth_square_step():
    w = cube()
    _kind, face = find_elliptic_face(w)
    a, b = smooth_square(w, face)
    assert bracket(w) == bracket(a) + bracket(b)
    assert a.vertex_count == b.vertex_count == 4


def test_split_elliptic_shift_bookkeeping():
    # a circle is worth [3] = q^2 + 1 + q^-2: shifts -2, 0, +2
    pieces = split_elliptic(circle_web())
    assert sorted(s for _w, s in pieces) == [-2, 0, 2]
    assert all(not w.vertices and not w.circles for w, _s in pieces)
    total = sum(
        (LaurentPoly.monomial(s) * bracket(w) for w, s in split_elliptic(cube())),
        LaurentPoly.zero(),
    )
    assert total == bracket(cube())


def _sha256(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


def test_elimination_outputs_are_pinned():
    # brackets of a seeded closed corpus that has circles, digons and squares
    corpus = generate_closed(200, seed=7041)
    assert _sha256("\n".join(str(bracket(w)) for w in corpus)) == (
        "d2efbfb025f1f8aaccd10f7bb48a61a7cfbb78f070206bef5e227719cfde541c"
    )
    # a seeded order gives the same values, and the draws it makes pin
    # which faces it was offered at every step
    rng = Random(3)
    assert [bracket(w, rng) for w in corpus] == [bracket(w) for w in corpus]
    assert rng.random() == 0.7380342892520343

    def pieces(web):
        return sorted((canonical_form(p), s) for p, s in split_elliptic(web))

    assert pieces(digon_arc()) == [(canonical_form(arc()), s) for s in (-1, 1)]
    assert pieces(double_digon_arc()) == [(canonical_form(arc()), s) for s in (-2, 0, 0, 2)]
    # the flower reduced along four faces leaves square faces next to its boundary
    web = flower()
    red = red_graph_from_faces(web, (12, 13, 14, 15))
    want = [
        "4923da24474ec50fe39a5fc3323427ec7a22c79aa3dfc2a4da7dbe8b1296cd3c",
        "5daf54ddba76c5f43ddf47ee518c501fe5988cfd50224a2a3d5193686907bfb0",
        "d196f2400a99ff02919f27f6845be6914f7ebb79a72f0a8ac36860fb9c60424d",
        "5f8cd53cd1f7b5a155246d15ac46deaa8cef5da79a7eb3c65af6bd7f8d6e499b",
    ]
    for pairing, digest in zip(enumerate_pairings(red), want, strict=True):
        assert _sha256(repr(pieces(g_reduction(web, red, pairing)))) == digest


# -- the memoised elimination DAG against the elimination tree ------------------


def _dag_counts(web: Web, rng: Random | None = None) -> Counter:
    """The DAG's leaf counts by (digons, circles), as the tree keys them."""
    counts = Counter()
    for (digons, circles, _leaf), n in bracket_module._dag_leaves(web, rng).items():
        counts[digons, circles] += n
    return counts


def _tree_value(web: Web, rng: Random | None = None) -> LaurentPoly:
    leaves = elimination_oracle._tree_leaves(web, rng)
    return sum(
        (bracket_module._multiplier(d, c) * n for (d, c), n in leaves.items()),
        LaurentPoly.zero(),
    )


def _prism(n: int) -> Web:
    """The closed prism web: an outer cycle u_0..u_{n-1}, an inner cycle
    w_0..w_{n-1} and rungs u_i w_i, n even; every face but the two cycles
    is a square.  One smoothing of a square leaves the prism on n - 2
    rungs, the other a cascade of digons."""
    verts, edges = [], []
    for i in range(n):
        u, w = 6 * i, 6 * i + 3  # half-edges u, u+1, u+2 at u_i; w, w+1, w+2 at w_i
        u_next, w_next = 6 * ((i + 1) % n), 6 * ((i + 1) % n) + 3
        # ccw at u_i: towards u_{i+1}, w_i, u_{i-1}; at w_i: towards u_i, w_{i+1}, w_{i-1}
        verts.append((2 * i, SOURCE if i % 2 == 0 else SINK, (u, u + 1, u + 2)))
        verts.append((2 * i + 1, SINK if i % 2 == 0 else SOURCE, (w, w + 1, w + 2)))
        for a, b in ((u, u_next + 2), (w + 1, w_next + 2), (u + 1, w)):
            a_is_source = (a // 6 % 2 == 0) == (a % 6 < 3)
            edges.append((a, b) if a_is_source else (b, a))
    return make_web((), verts, edges)


def test_dag_matches_tree_on_self_closures_up_to_8():
    webs = [
        web
        for n in range(9)
        for signs in itertools.product("+-", repeat=n)
        if is_admissible_sequence(signs)
        for web in generate_all_non_elliptic(signs)
    ]
    for web in webs:
        closed = closure(web, web)
        assert _dag_counts(closed) == elimination_oracle._tree_leaves(closed)
        assert set(leaf for _d, _c, leaf in bracket_module._dag_leaves(closed)) == {b""}


def test_dag_matches_tree_on_flower_pairings():
    webs = generate_all_non_elliptic(FLOWER_SIGNS)
    rng = Random(11)
    pairs = [(flower(), flower())] + [(rng.choice(webs), rng.choice(webs)) for _ in range(50)]
    for w1, w2 in pairs:
        closed = closure(w1, w2)
        assert _dag_counts(closed) == elimination_oracle._tree_leaves(closed)


def test_dag_walk_does_not_recurse():
    # every leaf of the elimination has no vertex left and a step removes
    # at most four, so the elimination of a web with V vertices is at least
    # V / 4 steps deep; run it under a recursion limit below that depth
    limit = sys.getrecursionlimit()
    low = len(inspect.stack()) + 50
    web = _prism(2 * low + 20)
    sys.setrecursionlimit(low)
    try:
        assert web.vertex_count // 4 > sys.getrecursionlimit()
        leaves = _dag_counts(web)
    finally:
        sys.setrecursionlimit(limit)
    assert leaves == elimination_oracle._tree_leaves(web)


@functools.cache
def _replay_corpus() -> tuple:
    # built once for the three tests that replay it; webs are frozen
    webs = [
        closure(web, web)
        for n in range(9)
        for signs in itertools.product("+-", repeat=n)
        if is_admissible_sequence(signs)
        for web in generate_all_non_elliptic(signs)
    ]
    flowers = generate_all_non_elliptic(FLOWER_SIGNS)
    rng = Random(11)
    pairs = [(flower(), flower())] + [(rng.choice(flowers), rng.choice(flowers)) for _ in range(50)]
    return (*webs, *(closure(w1, w2) for w1, w2 in pairs), _prism(8))


def _rescanned_faces(current, partner) -> list:
    """The digon and square faces of a full DartMap rescan of the map whose
    partner table is the array state translated back to labels, by
    (length, smallest label)."""
    labels, m = current["labels"], current["map"].copy()
    m.partner = {labels[h]: labels[p] for h, p in enumerate(partner) if p >= 0}
    orbits = [o for o in m.faces() if len(o) in (2, 4) and all(d in m.vertex_of for d in o)]
    return sorted(orbits, key=lambda o: (len(o), min(o)))


def test_dag_face_heap_picks_what_a_full_rescan_picks(monkeypatch):
    # every pick, translated back to the web's labels, is the face a full
    # DartMap rescan of the same map picks
    tracked = bracket_module._next_face
    steps = []
    current = {}

    def checked(succ, partner, heap, rng=None):
        assert rng is None
        walk = tracked(succ, partner, heap)
        labels = current["labels"]
        want = next(iter(_rescanned_faces(current, partner)), None)
        if want is None:
            assert walk is None
        else:
            got = [labels[h] for h in walk]
            assert got[0] == min(got)
            assert (len(got), min(got)) == (len(want), min(want))
            assert set(got) == set(want)
        steps.append(walk is not None)
        return walk

    monkeypatch.setattr(bracket_module, "_next_face", checked)
    for web in _replay_corpus():
        current.update(labels=sorted(x for e in web.edges for x in e), map=DartMap(web))
        bracket_module._dag_leaves(web)
    assert sum(steps) > 10_000


def test_seeded_draws_offer_every_live_face_once(monkeypatch):
    # a seeded order draws from every digon and square face of the map,
    # each once and by (length, smallest half-edge), as a full rescan lists
    # them; a stale entry at another half-edge of a live face is not
    # offered again
    tracked = bracket_module._next_face
    current, draws = {}, []

    class Offers(Random):
        def choice(self, seq):
            draws.append(list(seq))
            return super().choice(seq)

    def checked(succ, partner, heap, rng=None):
        before = len(draws)
        walk = tracked(succ, partner, heap, rng)
        labels, faces = current["labels"], _rescanned_faces(current, partner)
        offered = [(2 + 2 * (e >= len(succ)), labels[e % len(succ)]) for e in sum(draws[before:], [])]
        assert offered == [(len(o), min(o)) for o in faces]
        if walk is not None:
            got = [labels[h] for h in walk]
            assert got[0] == min(got)
            assert set(got) in [set(o) for o in faces]
        return walk

    monkeypatch.setattr(bracket_module, "_next_face", checked)
    for i, web in enumerate(_replay_corpus()):
        current.update(labels=sorted(x for e in web.edges for x in e), map=DartMap(web))
        bracket_module._dag_leaves(web, Offers(i))
    assert len(draws) > 10_000


class _CountedReads(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_dag_walks_the_faces_once(monkeypatch):
    # one walk over every face at the root; after that only the faces
    # next to each splice, a few walks of at most four steps each.  Every
    # step of a face walk reads a rotation successor, so counting those
    # reads counts the walk work wherever it is done.
    web = closure(flower(), flower())
    want = bracket_module._dag_leaves(web)
    calls = Counter()

    def counted(name):
        original = getattr(bracket_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(bracket_module, name, wrapper)

    for name in ("_small_faces", "_splice_face"):
        counted(name)
    monkeypatch.setattr(DartMap, "faces", lambda self: pytest.fail("a full rescan"))
    succ, corner, partner, index = bracket_module._dart_arrays(web)
    succ = _CountedReads(succ)
    leaves = bracket_module._dag_leaves(web, arrays=(succ, corner, partner, index))
    assert leaves == want
    assert sum(leaves.values()) > 1  # squares were split
    assert calls["_small_faces"] == 1
    assert succ.reads < len(succ) + 24 * calls["_splice_face"]


def test_dag_work_is_pinned(monkeypatch):
    # the flower's self-pairing: square branchings and splices, digons and
    # squares alike
    calls = Counter()
    for name in ("_splice_face", "_count_branching"):
        original = getattr(bracket_module, name)

        def wrapper(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(bracket_module, name, wrapper)
    bracket_module._dag_leaves(closure(flower(), flower()))
    assert calls == {"_count_branching": 377, "_splice_face": 1755}


def test_simple_face_splice_matches_the_strand_walk(monkeypatch):
    # every splice of the default elimination against the strand walk on
    # a copy: the same partner array and circles, and the same faces
    # pushed as _face finds through the far ends.  The corpus also sends
    # faces through the strand walk, one of them closing a circle (the
    # theta, the self-pairing of the tripod).
    splice, strands = bracket_module._splice_face, bracket_module._splice_strands
    strand_circles, steps = [], []

    def counted(*args):
        strand_circles.append(strands(*args))
        return strand_circles[-1]

    def checked(succ, corner, partner, heap, walk, turn):
        spokes = [succ[d] for d in walk[turn:] + walk[:turn]]
        far = [partner[s] for s in spokes]
        slow = partner[:]
        slow_circles = strands(corner, slow, walk, spokes, far)
        faces = [w for p in far if (w := bracket_module._face(succ, slow, p)) is not None]
        had = Counter(heap)
        circles = splice(succ, corner, partner, heap, walk, turn)
        assert (partner, circles) == (slow, slow_circles)
        assert Counter(heap) - had == Counter(min(w) + (len(w) == 4) * len(succ) for w in faces)
        steps.append(walk)
        return circles

    monkeypatch.setattr(bracket_module, "_splice_strands", counted)
    monkeypatch.setattr(bracket_module, "_splice_face", checked)
    for web in _replay_corpus():
        bracket_module._dag_leaves(web)
    assert 0 < len(strand_circles) < len(steps) // 2
    assert any(strand_circles)


def test_dag_matches_tree_on_the_largest_flower_webs():
    # the self-pairings of the ten largest webs on the flower boundary
    webs = sorted(generate_all_non_elliptic(FLOWER_SIGNS), key=lambda w: w.vertex_count)[-10:]
    for web in webs:
        closed = closure(web, web)
        assert _dag_counts(closed) == elimination_oracle._tree_leaves(closed)


def _renamed(web: Web, rename) -> Web:
    """The web with every half-edge h renamed rename(h)."""
    return make_web(
        [(rename(h), s) for h, s in web.boundary],
        [(v, kind, [rename(h) for h in rot]) for v, kind, rot in web.vertices],
        [(rename(t), rename(h)) for t, h in web.edges],
        web.circles,
    )


@pytest.mark.parametrize("typecode", ["h", "i"])
def test_dag_matches_tree_on_any_half_edge_ids(monkeypatch, typecode):
    # negative, sparse and very large ids; a decreasing renaming reverses
    # the label order and with it the elimination order.  The partner
    # arrays are 16-bit below _NARROW_HALF_EDGES half-edges; lowering it
    # to 0 forces 32-bit entries on these small webs.
    if typecode == "i":
        monkeypatch.setattr(bracket_module, "_NARROW_HALF_EDGES", 0)
    renames = [lambda h: -7 - h, lambda h: 1000 * h - 999, lambda h: 2**40 - 3 * h]
    webs = [closure(flower(), flower()), _prism(8), cube(), theta(), circle_web(2)]
    webs += [closure(w, w) for w in generate_all_non_elliptic("+-+-+-")]
    for web in webs:
        for rename in renames:
            renamed = _renamed(web, rename)
            assert bracket_module._dart_arrays(renamed)[2].typecode == typecode
            assert _dag_counts(renamed) == elimination_oracle._tree_leaves(renamed)
            assert bracket_module._evaluate(renamed) == bracket(web)


def _torus_k33(digon: bool = False) -> Web:
    """K_{3,3} with the rotation system whose three faces are hexagons: a
    closed web on the torus without a circle, digon or square.  With
    `digon`, the edge 0 -> 1 runs through a digon instead."""
    verts = [(i, SOURCE, (6 * i, 6 * i + 2, 6 * i + 4)) for i in range(3)]
    verts += [(3 + j, SINK, (2 * j + 1, 2 * j + 7, 2 * j + 13)) for j in range(3)]
    edges = [(2 * k, 2 * k + 1) for k in range(9)]
    if digon:
        verts += [(6, SINK, (100, 102, 101)), (7, SOURCE, (103, 104, 105))]
        edges[0:1] = [(0, 100), (103, 101), (104, 102), (105, 1)]
    return make_web((), verts, edges)


def test_a_leaf_with_vertices_is_a_theorem_violation():
    for web in (_torus_k33(), _torus_k33(digon=True)):
        for leaves in (bracket_module._dag_leaves, elimination_oracle._tree_leaves):
            with pytest.raises(TheoremViolationError, match="no circle, digon or square"):
                leaves(web)


def test_square_branchings_are_capped(monkeypatch):
    # the prism on 8 rungs branches 3 times in the DAG and, in the seeded
    # order Random(0), 9 times in the DAG and 11 times in the tree
    web = _prism(8)
    value = bracket(web)
    for evaluate, count in (
        (lambda: bracket(web), 3),
        (lambda: bracket(web, Random(0)), 9),
        (lambda: _tree_value(web, Random(0)), 11),
    ):
        monkeypatch.setattr(bracket_module, "MAX_SQUARE_BRANCHINGS", count)
        assert evaluate() == value
        monkeypatch.setattr(bracket_module, "MAX_SQUARE_BRANCHINGS", count - 1)
        with pytest.raises(SizeGuardError):
            evaluate()


def test_seeded_orders_match_the_tree():
    # with the same seed the DAG is offered the faces the tree is, in the
    # same order, so it draws the same faces; these small webs never meet
    # a map twice, so it also counts the same leaves
    corpus = generate_closed(200, seed=7041)
    for seed in range(20):
        for i, web in enumerate(corpus):
            leaves = _dag_counts(web, Random(1000 * seed + i))
            assert leaves == elimination_oracle._tree_leaves(web, Random(1000 * seed + i))
            assert bracket(web, Random(1000 * seed + i)) == _tree_value(web)


def _flower_reductions():
    """The flower reduced along each of its red graphs that has pairings,
    under each pairing: open webs with digons and squares at the border."""
    web = flower()
    for red in enumerate_red_graphs(web):
        try:
            pairings = enumerate_pairings(red)
        except ValueError:
            continue
        for pairing in pairings:
            yield g_reduction(web, red, pairing)


def test_split_elliptic_matches_the_tree():
    # the same labelled pieces with the same shifts: every non-elliptic
    # web up to length 7 behind up to three digons, and the flower's
    # reductions
    rng = Random(5)
    webs = []
    for n in range(8):
        for signs in itertools.product("+-", repeat=n):
            if is_admissible_sequence(signs):
                for web in generate_all_non_elliptic(signs):
                    webs.append(web)
                    for _ in range(3 if web.edges else 0):
                        web = inflate_edge(web, rng.randrange(len(web.edges)))
                        webs.append(web)
    webs += _flower_reductions()
    assert len(webs) > 2_500
    pieces = 0
    for web in webs:
        split = Counter(split_elliptic(web))
        assert split == Counter(elimination_oracle.split_elliptic(web))
        pieces += sum(split.values())
    assert pieces > 9_000


def test_split_elliptic_is_capped(monkeypatch):
    # the flower reduced along faces 12 and 13 branches 6 times
    web = g_reduction(flower(), red_graph_from_faces(flower(), (12, 13)))
    want = elimination_oracle.split_elliptic(web)
    monkeypatch.setattr(bracket_module, "MAX_SQUARE_BRANCHINGS", 6)
    assert split_elliptic(web) == want
    monkeypatch.setattr(bracket_module, "MAX_SQUARE_BRANCHINGS", 5)
    with pytest.raises(SizeGuardError):
        split_elliptic(web)


def test_split_elliptic_counts_its_summands_before_listing_them():
    # 3^25 summands are refused; 3^11 = 177,147 still fit under the cap
    with pytest.raises(SizeGuardError, match="summands"):
        split_elliptic(circle_web(25))
    pieces = split_elliptic(circle_web(11))
    assert len(pieces) == 3**11 <= bracket_module.MAX_SUMMANDS
    assert Counter(s for _w, s in pieces) == dict((quantum_integer(3) ** 11).items())


# -- hom pairings ---------------------------------------------------------------


def test_boundary_weight_is_length():
    assert boundary_weight(arc().signs) == 2
    assert boundary_weight(()) == 0


def test_hom_arc():
    assert hom_poly(arc(), arc()) == Q3
    assert hom_graded_dimension(arc(), arc()) == poly({4: 1, 2: 1, 0: 1})


def test_hom_tripod():
    assert hom_graded_dimension(tripod(), tripod()) == poly({6: 1, 4: 2, 2: 2, 0: 1})


def test_hom_digon_arc():
    assert hom_poly(digon_arc(), digon_arc()) == Q2 * Q2 * Q3


def modules_distinct(w1: Web, w2: Web) -> bool:
    """True when no degree-zero module map can be an isomorphism, which
    is the case when deg <w1bar w2> falls short of the boundary weight."""
    value = hom_poly(w1, w2)
    if not value:
        return True
    return value.degree < boundary_weight(w1.signs)


def test_modules_distinct_on_basis_webs():
    from sl3web.generate import generate_all_non_elliptic

    w1, w2 = generate_all_non_elliptic(("+", "+", "-", "-"))
    assert modules_distinct(w1, w2)
    assert not modules_distinct(w1, w1)
    assert not modules_distinct(arc(), arc())


def test_hom_mismatched_boundaries():
    with pytest.raises(BoundaryMismatchError):
        hom_poly(arc(), tripod())


# -- hom_poly's seam numbering ---------------------------------------------------


def _with_theta(web: Web) -> Web:
    """The web beside a disjoint theta: a closed component no boundary
    strand reaches."""
    base = max(x for e in web.edges for x in e) + 1
    vid = max([v for v, _k, _r in web.vertices], default=0) + 1
    vertices = [
        *web.vertices,
        (vid, SOURCE, (base, base + 1, base + 2)),
        (vid + 1, SINK, (base + 5, base + 4, base + 3)),
    ]
    edges = [*web.edges, (base, base + 3), (base + 1, base + 4), (base + 2, base + 5)]
    return make_web(web.boundary, vertices, edges, web.circles)


def test_hom_poly_matches_label_order_on_self_closures_up_to_8():
    for n in range(9):
        for signs in itertools.product("+-", repeat=n):
            if is_admissible_sequence(signs):
                for web in generate_all_non_elliptic(signs):
                    assert hom_poly(web, web) == bracket_module._evaluate(closure(web, web))


def test_hom_poly_matches_label_order_on_mixed_flower_pairs():
    webs = generate_all_non_elliptic(FLOWER_SIGNS)
    rng = Random(18)
    pairs = [tuple(rng.sample(webs, 2)) for _ in range(50)]
    for w1, w2 in pairs:
        assert w1 != w2
        assert hom_poly(w1, w2) == bracket_module._evaluate(closure(w1, w2))


def test_hom_poly_matches_label_order_off_the_seam():
    # circles, closed components, two tripods whose closure falls apart
    # and, with only an arc as w2, no seam strand ending at a vertex
    two_tripods = make_web(
        [(100 + i, "+") for i in range(6)],
        [(0, SINK, (10, 11, 12)), (1, SINK, (13, 14, 15))],
        [(100 + i, 10 + i) for i in range(6)],
    )
    w = flower()
    pairs = [
        (digon_arc(), arc()),
        (arc(), digon_arc()),
        (Web(w.boundary, w.vertices, w.edges, 2), w),
        (w, Web(w.boundary, w.vertices, w.edges, 1)),
        (_with_theta(w), w),
        (w, _with_theta(w)),
        (_with_theta(tripod()), _with_theta(tripod())),
        (two_tripods, two_tripods),
    ]
    for w1, w2 in pairs:
        assert hom_poly(w1, w2) == bracket_module._evaluate(closure(w1, w2))


def test_hom_poly_without_a_seam_vertex_numbers_in_label_order():
    glued, seam = web_module._glued(digon_arc(), arc())
    assert seam == []
    succ, corner, partner, index = bracket_module._seam_arrays(glued, seam)
    label = bracket_module._dart_arrays(closure(digon_arc(), arc()))
    assert (succ, partner, index) == (label[0], label[2], label[3])
    assert list(map(set, corner)) == list(map(set, label[1]))


def _branchings(monkeypatch, w1: Web, w2: Web) -> int:
    calls = []
    original = bracket_module._count_branching

    def counted(branchings):
        calls.append(branchings)
        return original(branchings)

    monkeypatch.setattr(bracket_module, "_count_branching", counted)
    hom_poly(w1, w2)
    monkeypatch.undo()
    return len(calls)


def test_hom_poly_work_does_not_depend_on_labels(monkeypatch):
    rng = Random(5)
    # the same numbering, so the same arrays, whatever the labels
    webs = [flower()] + sorted(generate_all_non_elliptic(FLOWER_SIGNS), key=lambda w: w.vertex_count)[-5:]
    for web in webs:
        labels = sorted({x for e in web.edges for x in e})
        shuffled = dict(zip(labels, rng.sample(labels, len(labels))))
        renamed = _renamed(web, shuffled.__getitem__)
        arrays = [bracket_module._seam_arrays(*web_module._glued(w, w)) for w in (web, renamed)]
        assert arrays[0][0] == arrays[1][0] and arrays[0][2] == arrays[1][2]
        assert _branchings(monkeypatch, web, web) == _branchings(monkeypatch, renamed, renamed)


def test_hom_poly_work_is_pinned(monkeypatch):
    # the flower's self-pairing numbered from the seam; label order
    # branches 377 times (test_dag_work_is_pinned)
    assert _branchings(monkeypatch, flower(), flower()) == 197


def _rotated(web: Web, k: int) -> Web:
    """The web with its boundary cut k points further along."""
    return make_web(web.boundary[k:] + web.boundary[:k], web.vertices, web.edges, web.circles)


def test_hom_poly_work_is_the_same_at_every_cut(monkeypatch):
    # the small pool shapes: the start strand follows the web, not the cut
    # or the labels, so every cut and labelling branches equally often
    rng = Random(20)
    small = [web for size, web in _pool_polyhexes() if size in (8, 9)]
    for web, pinned in zip(small, (269, 254, 167)):
        want = bracket_module._evaluate(closure(web, web))
        labels = sorted({x for e in web.edges for x in e})
        for k in range(len(web.boundary)):
            cut = _renamed(_rotated(web, k), dict(zip(labels, rng.sample(labels, len(labels)))).__getitem__)
            assert hom_poly(cut, cut) == want
            assert _branchings(monkeypatch, cut, cut) == pinned


def _front(web: Web, x: int) -> tuple[int, int]:
    """(widest layer, sum of squared layers) of the closure's layers from
    the vertex of x, by a plain search of every vertex's distance: layer
    i counts the web's vertices at distance i and at distance i - 1."""
    vertex_of = {h: vid for vid, _k, rot in web.vertices for h in rot}
    near = {vid: [] for vid, _k, _r in web.vertices}
    for t, h in web.edges:
        if t in vertex_of and h in vertex_of:
            near[vertex_of[t]].append(vertex_of[h])
            near[vertex_of[h]].append(vertex_of[t])
    queue = [vertex_of[x]]
    distance = {queue[0]: 0}
    for v in queue:  # grows as the search reaches vertices
        for u in near[v]:
            if u not in distance:
                distance[u] = distance[v] + 1
                queue.append(u)
    sizes = Counter(distance.values())
    layers = [sizes[i] + sizes[i - 1] for i in range(max(sizes) + 2)]
    return max(layers), sum(c * c for c in layers)


def test_the_seam_starts_at_the_least_score():
    webs = [*generate_all_non_elliptic(FLOWER_SIGNS), *(web for _size, web in _pool_polyhexes())]
    for web in webs:
        _map, seam = web_module._glued(web, web)
        k = min(range(len(seam)), key=lambda k: (*_front(web, seam[k]), k), default=0)
        assert bracket_module._narrowest_seam(web, seam) == seam[k:] + seam[:k]


# -- classification ---------------------------------------------------------------


def test_classify_indecomposables():
    for build in (empty_web, arc, tripod):
        vc = classify(build())
        assert vc.indecomposable
        assert vc.level == 0
        assert vc.poly.is_monic_of_degree(vc.weight)


def test_classify_digon_arc():
    vc = classify(digon_arc())
    assert not vc.indecomposable
    assert vc.level == 1
    assert vc.poly == poly({4: 1, 2: 3, 0: 4, -2: 3, -4: 1})


def test_classify_double_digon_arc():
    vc = classify(double_digon_arc())
    assert not vc.indecomposable
    assert vc.level == 2


def test_classify_flower():
    # non-elliptic yet decomposable: bracket degree matches the boundary
    # weight but the leading coefficient is 2, not 1
    vc = classify(flower())
    assert not vc.indecomposable
    assert vc.weight == 12
    assert vc.poly.degree == 12
    assert vc.poly.leading_coefficient == 2
    assert vc.level == 0


def test_classified_brackets_are_symmetric_and_nonnegative():
    for build in (arc, tripod, digon_arc, flower):
        vc = classify(build())
        assert vc.poly.is_symmetric()
        assert vc.poly.has_nonnegative_coefficients()


def test_disjoint_circle_forces_decomposable():
    # the circle appears in both the web and its reflection, so the
    # self-pairing gains [3]^2 and the level climbs by 2
    w = arc()
    with_circle = Web(w.boundary, w.vertices, w.edges, 1)
    vc = classify(with_circle)
    assert not vc.indecomposable
    assert vc.level == 2
