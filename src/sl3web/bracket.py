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
the same map.  The unseeded bracket therefore walks the elimination as
a DAG over flat integer arrays: half-edges are numbered in label order,
so the least (length, smallest half-edge) picks the faces the labels
would, and each map met at a square is evaluated once, memoised by its
partner array's bytes.  After one face walk at the root, a heap of
digon and square faces is updated only next to each splice.  A seeded
order walks the tree instead (_eliminate, on a DartMap) and rescans
every face after every step; sharing no code with the DAG, it is the
oracle the DAG is checked against.  Both refuse to expand more than
MAX_SQUARE_BRANCHINGS squares.  classify keeps each web's result while
the web lives, so decompose does not bracket the same web twice.

Closed webs live on the sphere for evaluation purposes, so any two-sided
or four-sided face orbit may be eliminated, including the one a plane
picture would draw as the outer region.  split_elliptic runs the tree
elimination on webs with boundary, leaving alone the faces that touch
the boundary; since non-elliptic webs form a basis, every order yields
the same multiset of (non-elliptic web, degree shift).
"""

from __future__ import annotations

import heapq
import weakref
from array import array
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


def _check_leaf(vertices_left) -> None:
    if vertices_left:
        raise TheoremViolationError(
            "closed web with vertices but no circle, digon or square face"
        )


def _tree_leaves(web: Web, rng: Random | None = None) -> Counter:
    """Leaf counts by (digons, circles) of the elimination tree; the
    oracle for _dag_leaves."""
    leaves: Counter = Counter()
    for m, digons in _eliminate(web, rng):
        _check_leaf(m.rot)
        leaves[digons, m.circles] += 1
    return leaves


# partner arrays hold 16-bit entries below this many half-edges, 32-bit above
_NARROW_HALF_EDGES = 1 << 15


def _dart_arrays(web: Web):
    """A closed web over its half-edges numbered 0..H-1 in label order:
    rotation successors, each half-edge's vertex rotation, and the
    partner array, where -1 marks a deleted half-edge."""
    index = {h: i for i, h in enumerate(sorted(x for e in web.edges for x in e))}
    succ, corner = [0] * len(index), [()] * len(index)
    for _vid, _kind, rot in web.vertices:
        rot = tuple(index[h] for h in rot)
        for i, h in enumerate(rot):
            succ[h], corner[h] = rot[i + 1 - len(rot)], rot
    partner = array("h" if len(index) < _NARROW_HALF_EDGES else "i", [-1]) * len(index)
    for t, h in web.edges:
        partner[index[t]], partner[index[h]] = index[h], index[t]
    return succ, corner, partner


def _small_faces(succ, partner) -> list[int]:
    """One walk over every face orbit: the heap of the digons, entered as
    their smallest half-edge h, and the squares, entered as H + h."""
    seen, heap = bytearray(len(succ)), []
    for h in range(len(succ)):
        x, length = h, 0
        while not seen[x]:
            seen[x] = 1
            length += 1
            x = succ[partner[x]]
        if length in (2, 4):
            heap.append(h + (length == 4) * len(succ))
    heapq.heapify(heap)
    return heap


def _face(succ, partner, h: int) -> list[int] | None:
    """The walk from half-edge h round its face when h is live and the
    face is a digon or a square, else None."""
    if partner[h] < 0:
        return None
    x = succ[partner[h]]
    if (y := succ[partner[x]]) == h:
        return [h, x] if x != h else None
    z = succ[partner[y]]
    return [h, x, y, z] if z != h and succ[partner[z]] == h else None


def _next_face(succ, partner, heap: list) -> list[int] | None:
    """The digon or square face of least (length, smallest half-edge),
    walked from that half-edge, or None.  Entries whose face is gone or
    changed length are dropped; a face whose smallest half-edge changed
    has a smaller entry of its own, which comes up first."""
    while heap:
        square, h = divmod(heap[0], len(succ))
        if (walk := _face(succ, partner, h)) is not None and len(walk) == 2 + 2 * square:
            return walk
        heapq.heappop(heap)
    return None


def _splice_face(succ, corner, partner, heap: list, walk, turn: int) -> int:
    """Splice a face out of the partner array: delete its corners and join
    its spokes in adjacent pairs, the first pair at walk[turn] (a digon
    takes turn 0, a square's two smoothings 0 and 1).  Push the digon
    and square faces it leaves and return the circles it closes.  Every
    face the splice changes runs through a surviving far end of a spoke."""
    spokes = [succ[d] for d in walk[turn:] + walk[:turn]]
    far = [partner[s] for s in spokes]
    cut = {h for d in walk for h in corner[d]}
    link = {s: spokes[i ^ 1] for i, s in enumerate(spokes)}
    circles = 0
    # strands from a live far end, over links and spoke-to-spoke edges, to
    # another one; then loops of spokes alone.  Spokes walked are set -1.
    for u in [*(s for s, p in zip(spokes, far) if p not in cut), *spokes]:
        x, p = u, partner[u]
        if p < 0:
            continue
        while (q := partner[link[x]]) in cut and q != u:
            partner[x] = partner[link[x]] = -1
            x = q
        partner[x] = partner[link[x]] = -1
        if q == u:
            circles += 1
        else:
            partner[p], partner[q] = q, p
    for h in cut:
        partner[h] = -1
    for p in far:
        if (w := _face(succ, partner, p)) is not None:
            heapq.heappush(heap, min(w) + (len(w) == 4) * len(succ))
    return circles


def _dag_leaves(web: Web) -> Counter:
    """Leaf counts by (digons, circles) of the default-order elimination
    of a closed web, with every map met at a square evaluated once.

    A node owns only its partner array (see _dart_arrays) and its heap
    of digon and square faces, kept up to date by _splice_face after
    the one face walk at the root.  Counts are relative to their node,
    so the memo key, the partner array's bytes, leaves circles out.  The
    walk keeps an explicit stack of frames (key, counts, pending
    children); the root's frame has key None.
    """
    succ, corner, partner = _dart_arrays(web)
    memo: dict[bytes | None, Counter] = {}
    branchings = 0

    def settle(node, heap, circles, counts, pending):
        """Collapse digons; then count a leaf or file a pending square."""
        digons = 0
        while (walk := _next_face(succ, node, heap)) is not None and len(walk) == 2:
            circles += _splice_face(succ, corner, node, heap, walk, 0)
            digons += 1
        if walk is None:
            _check_leaf(node.count(-1) < len(node))
            counts[digons, circles] += 1
        else:
            pending.append((digons, circles, node.tobytes(), node, heap, walk))

    def frame(key, node, heap, walk):
        nonlocal branchings
        branchings = _count_branching(branchings)
        heapq.heappop(heap)
        counts, pending = Counter(), []
        for child, child_heap, turn in ((node[:], heap.copy(), 1), (node, heap, 0)):
            circles = _splice_face(succ, corner, child, child_heap, walk, turn)
            settle(child, child_heap, circles, counts, pending)
        return key, counts, pending

    stack = [(None, Counter(), [])]
    settle(partner, _small_faces(succ, partner), web.circles, *stack[0][1:])
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
    return memo[None]


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


# classify's results, each kept while its web is alive
_classes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def classify(web: Web) -> VirtualClass:
    """Decide from <wbar w> whether the web's module is a single
    indecomposable: that happens exactly when the self-pairing is monic
    of degree equal to the boundary weight.  The result is kept while
    the web lives, so an equal web (decompose's pieces) is a lookup."""
    if (found := _classes.get(web)) is not None:
        return found
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
    found = _classes[web] = VirtualClass(value, weight, indec, (deg - weight) // 2)
    return found
