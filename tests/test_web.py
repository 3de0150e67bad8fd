from __future__ import annotations

import hashlib
import itertools
from random import Random

import pytest

import sl3web.web as web_module
from sl3web.catalog import (
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
from sl3web.errors import BoundaryMismatchError, InvalidWebError, TheoremViolationError
from sl3web.generate import generate_all_non_elliptic, generate_closed
from sl3web.web import (
    MINUS,
    PLUS,
    SINK,
    SOURCE,
    DartMap,
    Web,
    closure,
    face_colouring,
    find_elliptic_face,
    is_admissible_sequence,
    is_boundary_connected,
    is_non_elliptic,
    make_web,
    region_table,
    regions,
    require_valid,
    validate,
)

ALL_FIXTURES = [
    empty_web,
    circle_web,
    arc,
    tripod,
    theta,
    digon_arc,
    double_digon_arc,
    cube,
    flower,
]


@pytest.mark.parametrize("build", ALL_FIXTURES)
def test_fixtures_are_valid(build):
    assert validate(build()) == []


def test_admissible_sequences():
    assert is_admissible_sequence(())
    assert is_admissible_sequence((PLUS, MINUS))
    assert is_admissible_sequence((PLUS, PLUS, PLUS))
    assert not is_admissible_sequence((PLUS, PLUS))
    assert not is_admissible_sequence((MINUS,))


# -- validation failure modes -----------------------------------------------


def test_validate_bad_sign():
    w = Web(((100, "x"), (101, MINUS)), (), ((100, 101),), 0)
    assert any("sign" in p for p in validate(w))


def test_validate_orientation_against_boundary_signs():
    # '+' boundary points must be edge tails
    w = Web(((100, MINUS), (101, PLUS)), (), ((100, 101),), 0)
    problems = validate(w)
    assert len(problems) == 2
    with pytest.raises(InvalidWebError):
        require_valid(w)


def test_validate_vertex_arity_and_duplicates():
    v = (0, SINK, (1, 2, 2))
    w = Web((), (v,), ((1, 2),), 0)
    assert validate(w)


def test_validate_kind_vs_orientation():
    # a sink whose half-edge is used as a tail
    w = make_web(
        boundary=[(100, MINUS), (101, MINUS), (102, MINUS)],
        vertices=[(0, SINK, (1, 2, 3))],
        edges=[(1, 100), (2, 101), (3, 102)],
    )
    problems = validate(w)
    assert problems
    assert any("sink" in p or "tail" in p for p in problems)


def test_validate_unmatched_halves():
    w = Web((), ((0, SINK, (1, 2, 3)),), ((4, 1),), 0)
    assert validate(w)


def test_validate_negative_circles():
    w = Web((), (), (), -1)
    assert any("circle" in p for p in validate(w))


def test_validate_rejects_nonplanar_rotation():
    # theta with one rotation reversed fails the Euler count
    good = theta()
    (v0, v1) = good.vertices
    flipped = (v1[0], v1[1], tuple(reversed(v1[2])))
    bad = Web(good.boundary, (v0, flipped), good.edges, good.circles)
    assert any("Euler" in p for p in validate(bad))


def test_region_table_rejects_what_validate_rejects():
    good = theta()
    (v0, v1) = good.vertices
    nonplanar = Web(good.boundary, (v0, (v1[0], v1[1], tuple(reversed(v1[2])))), good.edges)
    unmatched = Web(good.boundary, good.vertices, good.edges[1:])
    for bad in (nonplanar, unmatched):
        with pytest.raises(InvalidWebError) as err:
            region_table(bad)
        assert str(err.value) == "; ".join(validate(bad))


# -- regions ------------------------------------------------------------------


def test_region_counts():
    assert len(regions(arc())) == 2
    assert len(regions(tripod())) == 3
    assert len(regions(theta())) == 3
    assert len(regions(cube())) == 6
    assert len(regions(flower())) == 19


def test_circle_regions():
    rs = regions(circle_web())
    assert len(rs) == 2
    inner = [r for r in rs if r.is_circle_interior]
    assert len(inner) == 1
    assert inner[0].is_disk


def euler_region_count(web: Web) -> int:
    """#regions - #edges + #vertices, which is 2 for a connected closed web."""
    return len(regions(web)) - len(web.edges) + web.vertex_count


def test_euler_count_closed_connected():
    for build in (circle_web, theta, cube):
        assert euler_region_count(build()) == 2


def test_unbounded_region_is_region_zero():
    for build in ALL_FIXTURES:
        rs = regions(build())
        assert rs[0].id == 0 and rs[0].is_unbounded


def test_flower_face_profile():
    table = regions(flower())
    sides = sorted(r.side_count for r in table if r.is_disk)
    assert sides == [6] * 7


def test_elliptic_face_detection():
    assert find_elliptic_face(arc()) is None
    assert find_elliptic_face(flower()) is None
    kind, _ = find_elliptic_face(theta())
    assert kind == "digon"
    kind, _ = find_elliptic_face(cube())
    assert kind == "square"
    kind, _ = find_elliptic_face(circle_web())
    assert kind == "circle"
    assert is_non_elliptic(tripod())
    assert not is_non_elliptic(digon_arc())


def test_boundary_connected():
    assert is_boundary_connected(arc())
    assert is_boundary_connected(flower())
    with_circle = Web(arc().boundary, (), arc().edges, 1)
    assert not is_boundary_connected(with_circle)
    assert not is_boundary_connected(theta())
    assert is_boundary_connected(empty_web())


def test_boundary_connectivity_builds_no_dart_map(monkeypatch):
    # the component pass reads the rotations directly
    def refuse(web):
        raise AssertionError("is_boundary_connected built a DartMap")

    monkeypatch.setattr(web_module, "DartMap", refuse)
    t = theta()
    shift = 1 + max(h for _v, _k, rot in t.vertices for h in rot)
    apart = make_web(
        arc().boundary,
        [(v + 10, k, [h + shift for h in rot]) for v, k, rot in t.vertices],
        arc().edges + tuple((a + shift, b + shift) for a, b in t.edges),
    )
    assert is_boundary_connected(flower())
    assert is_boundary_connected(tripod())
    assert not is_boundary_connected(apart)


# -- closure --------------------------------------------------------------


def test_closure_arc_is_circle():
    glued = closure(arc(), arc())
    assert validate(glued) == []
    assert not glued.boundary
    assert glued.vertex_count == 0
    assert glued.circles == 1


def test_closure_tripod_is_theta():
    glued = closure(tripod(), tripod())
    assert validate(glued) == []
    assert glued.vertex_count == 2
    assert len(glued.edges) == 3
    assert len(regions(glued)) == 3


def test_closure_keeps_negative_ids_apart():
    # the closure shifts the mirrored copy past the other web's ids; a
    # negative id in the mirrored web once landed on one of them
    web = flower()
    shifted = make_web(
        [(h - 200, s) for h, s in web.boundary],
        [(vid - 7, kind, [h - 200 for h in rot]) for vid, kind, rot in web.vertices],
        [(t - 200, h - 200) for t, h in web.edges],
    )
    for w1, w2 in ((shifted, shifted), (shifted, web), (web, shifted)):
        glued = closure(w1, w2)
        assert validate(glued) == []
        assert glued.vertex_count == 2 * web.vertex_count
        assert len(glued.edges) == len(closure(web, web).edges)


def test_closure_rejects_mismatch():
    with pytest.raises(BoundaryMismatchError):
        closure(arc(), tripod())
    with pytest.raises(BoundaryMismatchError):
        # the arc with its signs flipped and its edge reversed
        closure(arc(), make_web([(100, MINUS), (101, PLUS)], edges=[(101, 100)]))


# -- face colouring -------------------------------------------------------------


def test_colouring_arc_convention():
    w = arc()
    colouring = face_colouring(w, 0)
    rs = regions(w)
    assert colouring[0] == 0
    # one crossing, so the pocket under the arc sits at distance +-1 from
    # the unbounded colour; this library's convention picks -1 here (the
    # opposite convention is the global negation)
    inner = next(r.id for r in rs if not r.is_unbounded)
    assert colouring[inner] == 2


def test_colouring_base_offset():
    w = cube()
    c0 = face_colouring(w, 0)
    c2 = face_colouring(w, 2)
    assert all(c2[r.id] == (c0[r.id] + 2) % 3 for r in regions(w))


@pytest.mark.parametrize("build", ALL_FIXTURES)
def test_colouring_adjacent_regions_differ(build):
    w = build()
    colouring = face_colouring(w, 0)
    table = {r.id: r for r in regions(w)}
    # region ids on the two sides of every edge differ in colour; the
    # construction itself raises if two paths ever disagree
    from sl3web.redgraph import dual_graph

    for a, b in dual_graph(w).sides:
        assert colouring[a] != colouring[b]
    assert set(colouring.colours) == set(table)


def test_colouring_circle_interior():
    c = face_colouring(circle_web(), 0)
    inner = next(r.id for r in regions(circle_web()) if r.is_circle_interior)
    assert c[inner] == 1


# -- pinned face structure ----------------------------------------------------


def test_face_orbits_start_at_their_smallest_half_edge_in_ascending_order():
    # every edge of this theta runs from a larger tail to a smaller head, so
    # the partner table lists 10 before 2, yet the orbit {2, 10} starts at 2
    theta_web = make_web(
        (), [(0, SOURCE, (10, 11, 12)), (1, SINK, (1, 2, 3))], [(10, 1), (11, 3), (12, 2)]
    )
    assert DartMap(theta_web).faces() == [[1, 11], [2, 10], [3, 12]]
    # the flower with its half-edge ids reversed, boundary half-edges included
    web = flower()
    top = 1 + max(h for _v, _k, rot in web.vertices for h in rot)
    top = max(top, 1 + max(h for h, _s in web.boundary))
    web = make_web(
        [(top - h, s) for h, s in web.boundary],
        [(v, k, [top - h for h in rot]) for v, k, rot in web.vertices],
        [(top - t, top - h) for t, h in web.edges],
    )
    assert validate(web) == []
    for m in (DartMap(theta_web), DartMap(web)):
        assert list(m.partner) != sorted(m.partner)
        orbits = m.faces()
        assert all(o[0] == min(o) for o in orbits)
        assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
        assert sorted(d for o in orbits for d in o) == sorted(m.partner)


def _sha256(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


def _face_record(web) -> str:
    """validate's messages, or the whole region table of a valid web."""
    problems = validate(web)
    if problems:
        return repr(problems)
    table = region_table(web)
    rows = [
        (r.id, r.walks, r.touches_border, r.is_unbounded, r.is_disk, r.is_circle_interior)
        for r in table
    ]
    return repr((rows, sorted(table.region_of.items())))


def _mutant(web, rng):
    """One seeded corruption: a shuffled rotation, two edge heads swapped
    or a flipped boundary sign; None when the web has nothing to corrupt."""
    how = rng.randrange(3)
    vertices, edges, boundary = list(web.vertices), list(web.edges), list(web.boundary)
    if how == 0 and vertices:
        i = rng.randrange(len(vertices))
        vid, kind, rot = vertices[i]
        rot = list(rot)
        rng.shuffle(rot)
        vertices[i] = (vid, kind, tuple(rot))
    elif how == 1 and len(edges) >= 2:
        i, j = rng.sample(range(len(edges)), 2)
        (ti, hi), (tj, hj) = edges[i], edges[j]
        edges[i], edges[j] = (ti, hj), (tj, hi)
    elif how == 2 and boundary:
        i = rng.randrange(len(boundary))
        h, s = boundary[i]
        boundary[i] = (h, MINUS if s == PLUS else PLUS)
    else:
        return None
    return Web(tuple(boundary), tuple(vertices), tuple(edges), web.circles)


def test_face_structure_is_pinned():
    # region ids, walks, flags and validate messages, so that any change to
    # the face walk shows: every non-elliptic web up to length 8, a seeded
    # closed corpus, the catalog and seeded self-closures, then seeded
    # mutants of all of them, many of which fail the planarity check
    webs = [
        web
        for n in range(9)
        for signs in itertools.product("+-", repeat=n)
        if is_admissible_sequence(signs)
        for web in generate_all_non_elliptic(signs)
    ]
    webs += generate_closed(200, seed=7041)
    webs += [build() for build in ALL_FIXTURES] + [circle_web(3)]
    rng = Random(5)
    webs += [closure(w, w) for w in rng.sample(webs, 300)]
    assert len(webs) == 3095
    assert _sha256("\n".join(map(_face_record, webs))) == (
        "3c6097db92991fd7e210dae437e60c3e8b7b142b35b30ff6b5ae75d3f9faa3e9"
    )

    mutants = []
    while len(mutants) < 3000:
        bad = _mutant(rng.choice(webs), rng)
        if bad is not None:
            mutants.append(bad)
    records = [_face_record(w) for w in mutants]
    assert sum("planarity" in r for r in records) == 1290
    assert _sha256("\n".join(records)) == (
        "d8ee01618fbcc5a7abd37ac5f9129ea1e32deaadb3a746bd63f8a033bb7406f1"
    )
