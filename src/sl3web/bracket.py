"""Kuperberg bracket and the module-level classification built on it.

The bracket of a closed web is computed by eliminating elliptic faces:
a vertexless circle contributes a factor [3], a digon face a factor [2],
and a square face splits the evaluation into the sum over its two
smoothings.  Any elimination order gives the same value; the default
order (digons before squares, each time the face whose orbit contains
the smallest dart) is fixed so runs are reproducible, and a seeded
order is available for exercising confluence.  Circles only count:
each leaf of the elimination contributes [2]^digons [3]^circles.

The square relation branches, and different branches often converge on
the same labelled map.  The unseeded bracket therefore walks the
elimination as a DAG: digons are collapsed until a square is next, and
each map met at a square is evaluated once, its leaf counts kept in a
per-call memo keyed by the map's partner table (see _dag_leaves for why
that key identifies the map).  The DAG walks the faces once, at the
root, and then keeps a heap of its digon and square faces, re-walking
after each splice only the faces next to the spliced one.  A seeded
order walks the whole tree instead (_eliminate) and rescans every face
after every step; it shares only the splice with the DAG, so it is the
slow oracle the DAG is checked against.  Both refuse to expand more
than MAX_SQUARE_BRANCHINGS squares.

Closed webs live on the sphere for evaluation purposes, so any two-sided
or four-sided face orbit may be eliminated, including the one a plane
picture would draw as the outer region.  split_elliptic runs the tree
elimination on webs with boundary, leaving alone the faces that touch
the boundary; since non-elliptic webs form a basis, every order yields
the same multiset of (non-elliptic web, degree shift).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cache
from random import Random

from .errors import BoundaryMismatchError, SizeGuardError, TheoremViolationError
from .laurent import LaurentPoly, quantum_integer
from .web import DartMap, Region, Web, closure, require_valid

QINT2 = quantum_integer(2)
QINT3 = quantum_integer(3)

# square branchings one bracket may expand: nodes of the elimination DAG,
# or of the tree in a seeded order
MAX_SQUARE_BRANCHINGS = 200_000


def _smoothings(spokes):
    """The two ways to join a square's four spokes in adjacent pairs."""
    a, b, c, d = spokes
    return [(a, b), (c, d)], [(b, c), (d, a)]


def _eliminate(web: Web, rng: Random | None = None):
    """Eliminate every digon and square face that touches no boundary
    half-edge; yield the leaves as (map, digons removed).

    Each leaf's value is [2]^digons [3]^circles, the circles left on its
    map; a square splits into its two smoothings.  The worklist is last
    in, first out, so only one pending copy per square on the current
    path is held.
    """
    work = [(DartMap(web), 0)]
    branchings = 0
    while work:
        m, digons = work.pop()
        vertex_of = m.vertex_of
        orbits = [
            o for o in m.faces() if len(o) in (2, 4) and all(d in vertex_of for d in o)
        ]
        if not orbits:
            yield m, digons
            continue
        orbits.sort(key=lambda o: (len(o), min(o)))
        orbit = orbits[0] if rng is None else rng.choice(orbits)
        corners, sp = m.spokes(orbit)
        if len(orbit) == 2:
            m.splice(corners, [(sp[0], sp[1])])
            work.append((m, digons + 1))
        else:
            branchings = _count_branching(branchings)
            first, second = _smoothings(sp)
            other = m.copy()
            other.splice(corners, second)
            work.append((other, digons))
            m.splice(corners, first)
            work.append((m, digons))


def _count_branching(branchings: int) -> int:
    branchings += 1
    if branchings > MAX_SQUARE_BRANCHINGS:
        raise SizeGuardError(
            f"the bracket is capped at {MAX_SQUARE_BRANCHINGS} square branchings"
        )
    return branchings


def _check_leaf(m: DartMap) -> None:
    if m.rot:
        raise TheoremViolationError(
            "closed web with vertices but no circle, digon or square face"
        )


def _tree_leaves(web: Web, rng: Random | None = None) -> Counter:
    """Leaf counts by (digons, circles) of the elimination tree; the
    oracle for _dag_leaves."""
    leaves: Counter = Counter()
    for m, digons in _eliminate(web, rng):
        _check_leaf(m)
        leaves[digons, m.circles] += 1
    return leaves


def _small_face(m: DartMap, h: int) -> list[int] | None:
    """The face walk from half-edge h when it is a digon or a square
    touching no boundary half-edge, else None; at most four steps."""
    succ, partner, vertex_of = m.succ, m.partner, m.vertex_of
    if h not in partner:
        return None
    walk: list[int] = []
    x = h
    while x in vertex_of and len(walk) < 4:
        walk.append(x)
        x = succ[partner[x]]
        if x == h:
            return walk if len(walk) in (2, 4) else None
    return None


def _next_face(m: DartMap, heap: list) -> list[int] | None:
    """The digon or square face of least (length, smallest half-edge),
    walked from that half-edge, or None.  Entries whose face is gone or
    changed length are dropped; a face whose smallest half-edge changed
    has a smaller entry of its own, which comes up first."""
    while heap:
        length, h = heap[0]
        walk = _small_face(m, h)
        if walk is not None and len(walk) == length:
            return walk
        heapq.heappop(heap)
    return None


def _splice_face(m: DartMap, heap: list, walk, links) -> None:
    """Splice a face out through DartMap.splice, joining its spokes as
    links(spokes) says, and push the digon and square faces it leaves.
    Every face the splice changes runs through a surviving far end of
    one of the spokes."""
    corners, spokes = m.spokes(walk)
    far = [m.partner[s] for s in spokes]
    m.splice(corners, links(spokes))
    for p in far:
        w = _small_face(m, p)
        if w is not None:
            heapq.heappush(heap, (len(w), min(w)))


def _settle(m: DartMap, heap: list):
    """Collapse digons in the default order until the next face is a
    square or none is left; return (digons collapsed, square walk or
    None)."""
    digons = 0
    while (walk := _next_face(m, heap)) is not None and len(walk) == 2:
        _splice_face(m, heap, walk, lambda sp: [(sp[0], sp[1])])
        digons += 1
    return digons, walk


def _dag_leaves(web: Web) -> Counter:
    """Leaf counts by (digons, circles) of the default-order elimination,
    with every labelled map met at a square evaluated once.

    The faces are walked once, at the root; after that each map carries
    a heap of (length, smallest half-edge) over its digon and square
    faces that touch no boundary half-edge, which _splice_face keeps up
    to date.  A square node's counts are relative to the node: digons
    collapsed and circles closed below it.  The memo key is the partner
    table's values: the splice only reassigns and deletes partner
    entries, so the keys run in the web's order restricted to the
    survivors and the values fix the map.  Circles are left out of the
    key because the counts are relative.  The walk keeps an explicit
    stack of frames (key, counts, pending children).
    """
    m = DartMap(web)
    heap = [
        (len(o), min(o)) for o in m.faces() if len(o) in (2, 4) and all(d in m.vertex_of for d in o)
    ]
    heapq.heapify(heap)
    digons, walk = _settle(m, heap)
    if walk is None:
        _check_leaf(m)
        return Counter({(digons, m.circles): 1})
    memo: dict[tuple, Counter] = {}
    branchings = 0

    def frame(key, node, heap, walk):
        nonlocal branchings
        branchings = _count_branching(branchings)
        base = node.circles
        heapq.heappop(heap)
        other, other_heap = node.copy(), heap.copy()
        _splice_face(other, other_heap, walk, lambda sp: _smoothings(sp)[1])
        _splice_face(node, heap, walk, lambda sp: _smoothings(sp)[0])
        counts: Counter = Counter()
        pending = []
        for child, child_heap in ((other, other_heap), (node, heap)):
            d, w = _settle(child, child_heap)
            c = child.circles - base
            if w is None:
                _check_leaf(child)
                counts[d, c] += 1
            else:
                pending.append((d, c, tuple(child.partner.values()), child, child_heap, w))
        return key, counts, pending

    circles = m.circles
    root = tuple(m.partner.values())
    stack = [frame(root, m, heap, walk)]
    while stack:
        key, counts, pending = stack[-1]
        while pending and pending[-1][2] in memo:
            d, c, child, *_rest = pending.pop()
            for (dd, cc), n in memo[child].items():
                counts[dd + d, cc + c] += n
        if pending:
            stack.append(frame(*pending[-1][2:]))
        else:
            stack.pop()
            memo[key] = counts
    return Counter({(dd + digons, cc + circles): n for (dd, cc), n in memo[root].items()})


@cache
def _multiplier(digons: int, circles: int) -> LaurentPoly:
    return QINT2**digons * QINT3**circles


def bracket(web: Web, rng: Random | None = None) -> LaurentPoly:
    """Evaluate a closed web to a Laurent polynomial in q.

    Passing a seeded random.Random picks the elliptic face to eliminate
    at random at every step; the value does not depend on the order.
    """
    if web.boundary:
        raise BoundaryMismatchError(
            "the bracket evaluates closed webs; this one has boundary points"
        )
    require_valid(web)
    return _evaluate(web, rng)


def _evaluate(web: Web, rng: Random | None = None) -> LaurentPoly:
    """The bracket of a closed web already known to be valid: over the
    memoised elimination DAG, or over the tree in a seeded order."""
    leaves = _dag_leaves(web) if rng is None else _tree_leaves(web, rng)
    value = LaurentPoly.zero()
    for (digons, circles), count in leaves.items():
        value = value + _multiplier(digons, circles) * count
    return value


# ---------------------------------------------------------------------------
# elliptic reduction at the level of Web values


def remove_circle(web: Web) -> Web:
    if web.circles < 1:
        raise ValueError("no circle to remove")
    return Web(web.boundary, web.vertices, web.edges, web.circles - 1)


def collapse_digon(web: Web, region: Region) -> Web:
    """Remove a digon face: delete its two edges and two corners and run
    the outer strands into each other."""
    m = DartMap(web)
    (walk,) = region.walks
    corners, spokes = m.spokes(walk)
    m.splice(corners, [(spokes[0], spokes[1])])
    return m.to_web()


def smooth_square(web: Web, region: Region) -> tuple[Web, Web]:
    """The two smoothings of a square face: corners and sides vanish and
    the four spokes join in adjacent pairs, one way or the other."""
    first = DartMap(web)
    second = first.copy()
    (walk,) = region.walks
    corners, spokes = first.spokes(walk)
    for smoothed, links in zip((first, second), _smoothings(spokes)):
        smoothed.splice(corners, links)
    return first.to_web(), second.to_web()


def split_elliptic(web: Web) -> list[tuple[Web, int]]:
    """Peel off all elliptic faces, tracking degree shifts.

    Returns the list of (non-elliptic web, shift) summands: a circle
    splits a summand three ways with shifts -2, 0, +2, a digon two ways
    with shifts -1, +1, and a square into its two smoothings at shift 0.
    For a closed web the summands are empty webs and the multiset of
    shifts recovers the bracket.
    """
    require_valid(web)
    out: list[tuple[Web, int]] = []
    for m, digons in _eliminate(web):
        mult = _multiplier(digons, m.circles)
        m.circles = 0
        piece = m.to_web()
        for shift, count in mult.items():
            out += [(piece, shift)] * count
    out.sort(key=lambda ws: ws[1])
    return out


# ---------------------------------------------------------------------------
# modules attached to webs


def boundary_weight(signs) -> int:
    """Grading offset of a sign string: one per boundary point."""
    return len(signs)


def hom_poly(w1: Web, w2: Web) -> LaurentPoly:
    """Bracket of the closure of w1's mirror against w2."""
    return _evaluate(closure(w1, w2))


def hom_graded_dimension(w1: Web, w2: Web) -> LaurentPoly:
    """Graded dimension of the space of module maps between the modules
    of two webs with the same boundary; coefficients must come out
    nonnegative."""
    value = hom_poly(w1, w2).shifted(boundary_weight(w1.signs))
    if value and not value.has_nonnegative_coefficients():
        raise TheoremViolationError(
            f"graded hom dimension has a negative coefficient: {value}"
        )
    return value


@dataclass(frozen=True)
class VirtualClass:
    """Outcome of the self-pairing test of a web's module."""

    poly: LaurentPoly  # <wbar w>
    weight: int  # boundary weight of the sign string
    indecomposable: bool
    level: int  # half the degree overshoot, 0 for indecomposable webs


def classify(web: Web) -> VirtualClass:
    """Decide from <wbar w> whether the web's module is a single
    indecomposable: that happens exactly when the self-pairing is monic
    of degree equal to the boundary weight."""
    value = hom_poly(web, web)
    if not value:
        raise TheoremViolationError("self-pairing of a web evaluated to zero")
    if not value.is_symmetric():
        raise TheoremViolationError(f"self-pairing not symmetric in q, 1/q: {value}")
    weight = boundary_weight(web.signs)
    deg = value.degree
    if deg < weight or (deg - weight) % 2:
        raise TheoremViolationError(
            f"self-pairing degree {deg} impossible for boundary weight {weight}"
        )
    indec = value.is_monic_of_degree(weight)
    return VirtualClass(value, weight, indec, (deg - weight) // 2)
