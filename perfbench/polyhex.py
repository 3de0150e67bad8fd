"""Polyhex webs: the honeycomb web of a simply connected patch of hexagons.

Hexagon centres are axial coordinates (q, r) with neighbours at
(+1, 0), (+1, -1), (0, -1), (-1, 0), (-1, +1), (0, +1).  Three pairwise
adjacent hexagons meet at one honeycomb vertex; those triples are the
triangles of the lattice of centres.  An up-triangle (two hexagons on
its lower row) becomes a sink, a down-triangle a source, and every
honeycomb edge (the wall between two adjacent hexagons) runs from its
source to its sink.

The web keeps every triangle touching the patch and every wall with a
patch hexagon on at least one side.  A triangle with a single patch
hexagon then has two walls; it gets a leg to the border in place of the
third.  The legs are ordered along the outer face, walked with the patch
on the left, and the cyclic order is cut at the smallest leg.  All bounded
faces are patch hexagons, so the web is non-elliptic.  Coronene (a
hexagon and its six neighbours) gives the flower of sl3web.catalog.
"""

from __future__ import annotations

import math
from random import Random

from sl3web.web import MINUS, PLUS, SINK, SOURCE, Web, make_web

NEIGHBOURS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
CORONENE = frozenset([(0, 0)] + list(NEIGHBOURS))


def _centre(h) -> tuple[float, float]:
    q, r = h
    return (math.sqrt(3.0) * (q + r / 2.0), 1.5 * r)


def _mean(points) -> tuple[float, float]:
    xs, ys = zip(*points)
    return (sum(xs) / len(xs), sum(ys) / len(ys))


def _neighbours(h):
    q, r = h
    return {(q + dq, r + dr) for dq, dr in NEIGHBOURS}


def _triangles_of(h):
    """The six triangles around hexagon h, as sorted triples."""
    ring = [(h[0] + dq, h[1] + dr) for dq, dr in NEIGHBOURS]
    return [tuple(sorted((h, ring[i], ring[i - 1]))) for i in range(6)]


def _is_up(tri) -> bool:
    low = min(r for _q, r in tri)
    return sum(r == low for _q, r in tri) == 2


def _walls(tri):
    return [tuple(x for j, x in enumerate(tri) if j != i) for i in range(3)]


def _across(tri, wall):
    """The other triangle on the two hexagons of `wall`."""
    a, b = wall
    (c,) = _neighbours(a) & _neighbours(b) - set(tri)
    return tuple(sorted((a, b, c)))


def holes(patch) -> int:
    """1 - (V - E + h) for the closed union of the patch hexagons, which
    is the number of holes of a connected patch."""
    tris = {t for h in patch for t in _triangles_of(h)}
    walls = {frozenset((a, n)) for a in patch for n in _neighbours(a)}
    return 1 - (len(tris) - len(walls) + len(patch))


def is_connected(patch) -> bool:
    patch = set(patch)
    if not patch:
        return False
    start = min(patch)
    seen = {start}
    todo = [start]
    while todo:
        for n in _neighbours(todo.pop()) & patch:
            if n not in seen:
                seen.add(n)
                todo.append(n)
    return len(seen) == len(patch)


def polyhex_web(patch) -> Web:
    """The web of a connected, hole-free polyhex.  The boundary starts at
    the leg at the smallest triangle and follows the outer walk."""
    patch = frozenset(patch)
    if not is_connected(patch):
        raise ValueError("polyhex patch must be connected")
    if holes(patch) != 0:
        raise ValueError("polyhex patch must be simply connected (V - E + h = 1)")

    tris = sorted({t for h in patch for t in _triangles_of(h)})
    pos = {t: _mean([_centre(h) for h in t]) for t in tris}
    half: dict[tuple, int] = {}  # (triangle, wall) -> half-edge id
    darts: dict[tuple, list[tuple[float, int]]] = {}
    for t in tris:
        darts[t] = []
        for wall in _walls(t):
            half[(t, wall)] = len(half)
            mx, my = _mean([_centre(h) for h in wall])
            angle = math.atan2(my - pos[t][1], mx - pos[t][0])
            darts[t].append((angle, half[(t, wall)]))

    edges = []
    leg_wall = {}
    for t in tris:
        if not _is_up(t):
            continue
        for wall in _walls(t):
            if any(h in patch for h in wall):
                edges.append((half[(_across(t, wall), wall)], half[(t, wall)]))
    for t in tris:
        outside = tuple(h for h in t if h not in patch)
        if len(outside) == 2:
            leg_wall[t] = outside

    legs = [t for t in _outer_walk(patch, tris, pos) if t in leg_wall]
    first = legs.index(min(legs))
    legs = legs[first:] + legs[:first]
    boundary = []
    for t in legs:
        b = len(half) + len(boundary)
        h = half[(t, leg_wall[t])]
        if _is_up(t):
            boundary.append((b, PLUS))
            edges.append((b, h))
        else:
            boundary.append((b, MINUS))
            edges.append((h, b))

    vertices = [
        (i, SINK if _is_up(t) else SOURCE, tuple(h for _a, h in sorted(darts[t])))
        for i, t in enumerate(tris)
    ]
    return make_web(boundary, vertices, edges)


def _outer_walk(patch, tris, pos) -> list:
    """Triangles of the outer boundary cycle, in the order met when the
    cycle is walked with the patch on the left (counterclockwise)."""
    on_cycle = {}
    for t in tris:
        walls = [w for w in _walls(t) if sum(h in patch for h in w) == 1]
        if walls:
            on_cycle[t] = walls

    first = min(on_cycle)
    for via in on_cycle[first]:
        nxt = _across(first, via)
        (inside,) = [h for h in via if h in patch]
        (ax, ay), (bx, by) = pos[first], pos[nxt]
        cx, cy = _centre(inside)
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
            break
    walk = [first]
    cur = nxt
    while cur != first:
        walk.append(cur)
        (via,) = [w for w in on_cycle[cur] if w != via]
        cur = _across(cur, via)
    if len(walk) != len(on_cycle):
        raise ValueError("polyhex boundary is not a single cycle")
    return walk


def grow_compact(size: int, rng: Random) -> frozenset:
    """A compact patch of `size` hexagons.  Grown from one hexagon by
    adding outside neighbours, favouring those with the most patch
    neighbours; an addition that would close a hole is skipped."""
    patch = {(0, 0)}
    while len(patch) < size:
        score: dict = {}
        for h in patch:
            for n in _neighbours(h) - patch:
                score[n] = score.get(n, 0) + 1
        best = max(score.values())
        pick = sorted(n for n in score if score[n] >= best - 1)
        n = rng.choices(pick, [4 ** (score[n] - best + 1) for n in pick])[0]
        if holes(patch | {n}) == 0:
            patch.add(n)
    return normalise(patch)


def normalise(patch) -> frozenset:
    """Translate the patch so its smallest hexagon sits at the origin."""
    q0, r0 = min(patch)
    return frozenset((q - q0, r - r0) for q, r in patch)
