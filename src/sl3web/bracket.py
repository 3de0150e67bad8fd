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
the same map.  One routine, _dag_leaves, therefore walks every
elimination as a DAG over flat integer arrays, and each map met at a
square is evaluated once, memoised by its partner array's bytes.  One
builder, _arrays, numbers a validated DartMap's half-edges: bracket, its
seeded orders and split_elliptic number the map that validation built
in label order, so the least (length, smallest half-edge) picks the
faces the labels would.  hom_poly numbers its glued closure
breadth-first from the seam strand whose vertex has the narrowest
layers in w2 instead, as Cuthill-McKee orderings do: labels and the
boundary cut are arbitrary, and the narrow front meets 2-5 times fewer
maps on polyhex self-pairings.  After one face walk at the root, a
heap of digon and square faces is updated only next to each splice.  A
seeded order draws from the live faces on that heap instead of taking
the least.  A simple face (distinct corners, no edge from spoke to
spoke) splices without the strand walk, which may close circles.  The
walk refuses to expand more than MAX_SQUARE_BRANCHINGS squares.
classify keeps each web's result while the web lives, so decompose
does not bracket the same web twice.

Closed webs live on the sphere for evaluation purposes, so any two-sided
or four-sided face orbit may be eliminated, including the one a plane
picture would draw as the outer region.  split_elliptic runs the same
walk on webs with boundary, where no face through the border is ever
offered, and turns each leaf back into a web; since non-elliptic webs
form a basis, every order yields the same multiset of (non-elliptic
web, degree shift).
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
from .web import DartMap, Region, Web, _glued, make_web, require_valid

QINT2 = quantum_integer(2)
QINT3 = quantum_integer(3)

# square branchings one elimination may expand: nodes of its DAG
MAX_SQUARE_BRANCHINGS = 200_000
# (web, shift) summands split_elliptic may list
MAX_SUMMANDS = 200_000


def _smoothings(spokes):
    """The two ways to join a square's four spokes in adjacent pairs."""
    a, b, c, d = spokes
    return [(a, b), (c, d)], [(b, c), (d, a)]


def _count_branching(branchings: int) -> int:
    branchings += 1
    if branchings > MAX_SQUARE_BRANCHINGS:
        raise SizeGuardError(
            f"the elimination is capped at {MAX_SQUARE_BRANCHINGS} square branchings"
        )
    return branchings


# partner arrays hold 16-bit entries below this many half-edges, 32-bit above
_NARROW_HALF_EDGES = 1 << 15


def _arrays(m: DartMap, seam=()):
    """A validated map over its half-edges numbered 0..H-1: rotation
    successors, each half-edge's vertex rotation (none at the border),
    the partner array, where -1 marks a deleted half-edge, and the
    number of each label, keyed in number order.

    The seam's strands (see web._glued) come first, breadth-first: each
    seam half-edge not numbered yet numbers its vertex counterclockwise
    from itself, and so in turn does the partner of every half-edge
    numbered.  Only the seam's order (see _narrowest_seam) fixes this
    part; it keeps the front narrow.  The rest follow in label order, so
    with no seam the numbers are the label order.  A map with boundary
    gets one more half-edge, H: its own partner, and the successor of
    itself and of every boundary half-edge, so a face walk that reaches
    the border stays at H and never closes."""
    partner, succ = m.partner, m.succ
    index: dict[int, int] = {}
    for x in seam:
        queue = [x]
        for h in queue:  # grows as the walk numbers half-edges
            while h not in index:
                index[h] = len(index)
                queue.append(partner[h])
                h = succ[h]
    if len(index) < len(partner):
        for h in sorted(partner):
            index.setdefault(h, len(index))
    number = index.__getitem__  # index runs in number order
    n = len(index) + bool(m.boundary)
    succs, corner = [n - 1] * n, [()] * n
    for rot in m.rot.values():  # trivalent, as validated
        a, b, c = rot = tuple(map(number, rot))
        corner[a] = corner[b] = corner[c] = rot
        succs[a], succs[b], succs[c] = b, c, a
    partners = array("h" if n < _NARROW_HALF_EDGES else "i", map(number, map(partner.__getitem__, index)))
    if m.boundary:
        partners.append(n - 1)
    return succs, corner, partners, index


def _narrowest_seam(w2: Web, seam) -> list[int]:
    """The seam rotated to start at the strand whose vertex has the
    narrowest breadth-first layers in w2: closure layer i counts w2's
    layers i and i-1 (standing in for the mirror), and the least (widest
    layer, sum of squared layers, position) wins."""
    number = {h: i for i, (_v, _k, rot) in enumerate(w2.vertices) for h in rot}
    near: list[list[int]] = [[] for _ in w2.vertices]
    for a, b in [(number[t], number[h]) for t, h in w2.edges if t in number and h in number]:
        near[a].append(b)
        near[b].append(a)
    best = (len(near) + 1, 0, 0)  # wider than any layer
    for v, k in {number[x]: k for k, x in reversed(list(enumerate(seam)))}.items():  # first positions
        found = bytearray(len(near))
        found[v], layer, last, widest, squares = 1, [v], 0, 0, 0
        while layer and (widest, squares, -1) < best:  # it may still win; -1 sorts first
            width = len(layer) + last
            if width > widest:
                widest = width
            squares, last = squares + width * width, len(layer)
            ahead = []
            for u in layer:
                for w in near[u]:
                    if not found[w]:
                        found[w] = 1
                        ahead.append(w)
            layer = ahead
        if not layer:  # the mirror's last layer alone ends the closure's layers
            best = min(best, (widest, squares + last * last, k))
    return seam[best[2] :] + seam[: best[2]]


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


def _next_face(succ, partner, heap: list, rng: Random | None = None) -> list[int] | None:
    """The digon or square face of least (length, smallest half-edge),
    or with rng one drawn uniformly from the live faces on the heap in
    that order, walked from its smallest half-edge; None when there is
    none.  Entries whose face is gone or changed length are dropped; a
    face whose smallest half-edge changed has an entry of its own at
    the new one, which comes up first."""
    n = len(succ)
    if rng is not None:
        live = set()
        for entry in heap:
            # _face's rule inline, and h the face's smallest half-edge
            square, h = divmod(entry, n)
            if partner[h] >= 0:
                x = succ[partner[h]]
                if (y := succ[partner[x]]) == h:
                    if not square and h < x:
                        live.add(entry)
                elif square and (z := succ[partner[y]]) != h and succ[partner[z]] == h and h < min(x, y, z):
                    live.add(entry)
        heap[:] = sorted(live)
        return _face(succ, partner, rng.choice(heap) % n) if heap else None
    while heap:
        # _face's rule, walked without building a list per stale entry
        square, h = divmod(heap[0], n)
        if partner[h] >= 0:
            x = succ[partner[h]]
            if (y := succ[partner[x]]) == h:
                if not square and x != h:
                    return [h, x]
            elif square and (z := succ[partner[y]]) != h and succ[partner[z]] == h:
                return [h, x, y, z]
        heapq.heappop(heap)
    return None


def _splice_face(succ, corner, partner, heap: list, walk, turn: int) -> int:
    """Splice a face out of the partner array: delete its corners and join
    its spokes in adjacent pairs, the first pair at walk[turn] (a digon
    takes turn 0, a square's two smoothings 0 and 1).  Push the digon
    and square faces it leaves and return the circles it closes.  Every
    face the splice changes runs through a surviving far end of a spoke.
    A simple face (walk, spokes and far ends all distinct) deletes its
    corners' half-edges (the walk, its partners and its spokes) and joins
    its far ends in pairs, a digon with no lists; others take _splice_strands."""
    if len(walk) == 2:
        h, x = walk
        spokes = s, t = succ[h], succ[x]
        far = p, q = partner[s], partner[t]
        if simple := len({h, x, s, t, p, q}) == 6:
            partner[partner[h]] = partner[partner[x]] = partner[h] = partner[x] = partner[s] = partner[t] = -1
            partner[p], partner[q] = q, p
    else:
        spokes = [succ[d] for d in walk[turn:] + walk[:turn]]
        far = [partner[s] for s in spokes]
        if simple := len({*walk, *spokes, *far}) == 12:
            for d in walk:
                partner[partner[d]] = partner[d] = partner[succ[d]] = -1
            partner[far[0]], partner[far[1]], partner[far[2]], partner[far[3]] = far[1], far[0], far[3], far[2]
    circles = 0 if simple else _splice_strands(corner, partner, walk, spokes, far)
    for p in far:
        # push the live face through p, by _face's rule without its list
        if partner[p] < 0:
            continue
        x = succ[partner[p]]
        if (y := succ[partner[x]]) == p:
            if x != p:
                heapq.heappush(heap, min(p, x))
        elif (z := succ[partner[y]]) != p and succ[partner[z]] == p:
            heapq.heappush(heap, min(p, x, y, z) + len(succ))
    return circles


def _splice_strands(corner, partner, walk, spokes, far) -> int:
    """The partner rewiring of _splice_face for any face, by walking
    strands that may close circles; returns the circles closed."""
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
    return circles


def _dag_leaves(web: Web | DartMap, rng: Random | None = None, arrays=None) -> Counter:
    """Leaf counts by (digons, circles, leaf) of the elimination of a
    web's digon and square faces, in the default order or one drawn
    from rng, with every map met at a square evaluated once.  A leaf is
    its partner array's bytes, or b"" when no half-edge is left; a
    closed web must leave none.  `arrays` are the map's _arrays, when
    the caller has them already (hom_poly's are numbered from the seam);
    else a web is numbered in label order.  The walk splices their
    partner array in place.

    A node owns only its partner array (see _arrays) and its heap
    of digon and square faces, kept up to date by _splice_face after
    the one face walk at the root.  Counts are relative to their node,
    so the memo key, the partner array's bytes, leaves circles out.  The
    walk keeps an explicit stack of frames (key, digons, circles above
    the node, counts, spliced children yet to settle), depth first as
    the tree walks; the root's frame has key None.
    """
    succ, corner, partner, _index = arrays or _arrays(web if isinstance(web, DartMap) else DartMap(web))
    memo: dict[bytes, Counter] = {}
    branchings = 0

    def add(counts, leaves, digons, circles):
        for (d, c, leaf), n in leaves.items():
            counts[d + digons, c + circles, leaf] += n

    stack = [(None, 0, 0, Counter(), [(partner, _small_faces(succ, partner), web.circles)])]
    while True:
        key, digons, circles, counts, pending = stack[-1]
        if not pending:
            stack.pop()
            if not stack:
                return counts
            memo[key] = counts
            add(stack[-1][3], counts, digons, circles)
            continue
        # collapse digons; then count a leaf or open the square's frame
        node, heap, circles = pending.pop()
        digons = 0
        while (walk := _next_face(succ, node, heap, rng)) is not None and len(walk) == 2:
            circles += _splice_face(succ, corner, node, heap, walk, 0)
            digons += 1
        if walk is None:
            leaf = node.tobytes() if node.count(-1) < len(node) else b""
            if leaf and not web.boundary:
                raise TheoremViolationError("closed web with vertices but no circle, digon or square face")
            counts[digons, circles, leaf] += 1
        elif (key := node.tobytes()) in memo:
            add(counts, memo[key], digons, circles)
        else:
            branchings = _count_branching(branchings)
            children = [
                (child, child_heap, _splice_face(succ, corner, child, child_heap, walk, turn))
                for child, child_heap, turn in ((node[:], heap.copy(), 1), (node, heap, 0))
            ]
            stack.append((key, digons, circles, Counter(), children))


@cache
def _multiplier(digons: int, circles: int) -> LaurentPoly:
    return QINT2**digons * QINT3**circles


def bracket(web: Web, rng: Random | None = None) -> LaurentPoly:
    """Evaluate a closed web to a Laurent polynomial in q.

    Passing a seeded random.Random picks the elliptic face to eliminate
    at random at every step; the value does not depend on the order.
    """
    m = require_valid(web)
    if web.boundary:
        raise BoundaryMismatchError(
            "the bracket evaluates closed webs; this one has boundary points"
        )
    return _evaluate(m, rng)


def _evaluate(web: Web | DartMap, rng: Random | None = None, arrays=None) -> LaurentPoly:
    """The bracket of a closed web (or glued map) already known to be valid."""
    leaves = _dag_leaves(web, rng, arrays).items()
    terms = ((e, a * n) for (digons, circles, _leaf), n in leaves for e, a in _multiplier(digons, circles).items())
    return LaurentPoly(terms)  # adds up the terms of each exponent


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
    shifts recovers the bracket.  Pieces keep the web's labels.  More
    than MAX_SUMMANDS summands raise SizeGuardError before any is listed.
    """
    return _split_elliptic(web, require_valid(web))


def _split_elliptic(web: Web, m: DartMap) -> list[tuple[Web, int]]:
    """split_elliptic of a web already known to be valid, and its map."""
    arrays = _arrays(m)
    typecode, index = arrays[2].typecode, arrays[3]
    labels = list(index)
    pieces = {b"": make_web()}
    out: list[tuple[Web, int]] = []
    leaves = _dag_leaves(m, arrays=arrays)
    summands = sum(count * 2**digons * 3**circles for (digons, circles, _leaf), count in leaves.items())
    if summands > MAX_SUMMANDS:
        raise SizeGuardError(f"{summands} summands; split_elliptic is capped at {MAX_SUMMANDS}")
    for (digons, circles, leaf), count in leaves.items():
        if leaf not in pieces:
            partner = array(typecode, leaf)
            pieces[leaf] = make_web(
                web.boundary,
                [v for v in web.vertices if partner[index[v[2][0]]] >= 0],
                [(t, labels[partner[index[t]]]) for t, _h in web.edges if partner[index[t]] >= 0],
            )
        for shift, n in _multiplier(digons, circles).items():
            out += [(pieces[leaf], shift)] * (n * count)
    out.sort(key=lambda ws: ws[1])
    return out


# ---------------------------------------------------------------------------
# modules attached to webs


def boundary_weight(signs) -> int:
    """Grading offset of a sign string: one per boundary point."""
    return len(signs)


def hom_poly(w1: Web, w2: Web) -> LaurentPoly:
    """Bracket of the closure of w1's mirror against w2, its glued map
    numbered from the seam (_arrays) at the strand w2's shape picks
    (_narrowest_seam)."""
    glued, seam = _glued(w1, w2)
    return _evaluate(glued, arrays=_arrays(glued, _narrowest_seam(w2, seam)))


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
