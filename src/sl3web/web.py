"""Webs as combinatorial maps.

A web is a plane trivalent graph whose edges are oriented so that every
vertex is a sink (all three edges point in) or a source (all three point
out), drawn in the upper half-plane with a finite set of signed boundary
points on the border line.  The embedding is stored as a rotation system:
each vertex carries the counterclockwise cyclic order of its three
half-edges.  Vertexless circles are kept as a separate counter since they
carry no combinatorial data beyond their number.

Sign convention at the border: '+' means the edge leaves the border
(its half-edge is the tail of the edge), '-' means it arrives (head).

Planarity is not re-derived from scratch: the rotation system is the
embedding, and validation checks it is genus zero by an Euler count on
every connected component of the map, with the border counted as one
more vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    BoundaryMismatchError,
    InvalidWebError,
    PairingError,
    TheoremViolationError,
)

Sign = str  # '+' or '-'

PLUS = "+"
MINUS = "-"


def sign_value(s: Sign) -> int:
    if s == PLUS:
        return 1
    if s == MINUS:
        return -1
    raise ValueError(f"not a sign: {s!r}")


def is_admissible_sequence(signs: Sequence[Sign]) -> bool:
    """A sign sequence is admissible when its signed sum is divisible by 3."""
    return sum(sign_value(s) for s in signs) % 3 == 0


SINK = "sink"
SOURCE = "source"


@dataclass(frozen=True)
class Web:
    """An oriented trivalent plane graph with signed border points.

    boundary: ordered left to right, entries (half edge id, sign).
    vertices: entries (vertex id, 'sink'|'source', ccw rotation of half edges).
    edges:    entries (tail half edge, head half edge).
    circles:  number of vertexless loops, all drawn side by side in the
              unbounded region (nesting is never needed downstream).
    """

    boundary: tuple[tuple[int, Sign], ...]
    vertices: tuple[tuple[int, str, tuple[int, ...]], ...]
    edges: tuple[tuple[int, int], ...]
    circles: int = 0

    @property
    def signs(self) -> tuple[Sign, ...]:
        return tuple(s for _, s in self.boundary)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def boundary_length(self) -> int:
        return len(self.boundary)

    def __repr__(self) -> str:
        return (
            f"Web(n={self.boundary_length}, V={self.vertex_count}, "
            f"E={len(self.edges)}, circles={self.circles})"
        )


def make_web(
    boundary: Iterable[tuple[int, Sign]] = (),
    vertices: Iterable[tuple[int, str, Sequence[int]]] = (),
    edges: Iterable[tuple[int, int]] = (),
    circles: int = 0,
) -> Web:
    """Build a Web in normal form (sorted vertices/edges, rotations
    cyclically rotated to start at their smallest half edge).

    Normal form makes structural equality meaningful for webs built by
    different code paths.  No validity check happens here; see validate().
    """
    vs = sorted(((vid, kind, _min_rotation(tuple(rot))) for vid, kind, rot in vertices), key=lambda v: v[0])
    es = sorted((int(t), int(h)) for t, h in edges)
    return Web(tuple((int(h), s) for h, s in boundary), tuple(vs), tuple(es), circles)


def _min_rotation(cycle: tuple) -> tuple:
    """The cyclic rotation of `cycle` that starts at its smallest entry."""
    k = cycle.index(min(cycle)) if cycle else 0
    return cycle[k:] + cycle[:k]


# ---------------------------------------------------------------------------
# the dart map: one mutable rotation system behind every surgery


class DartMap:
    """A web's combinatorial map, open to delete-and-reconnect surgery.

    Half-edge and vertex ids are the web's.  The border counts as one
    more vertex, whose rotation runs right to left along the boundary.
    A surviving half-edge keeps its vertex, its rotation successor and
    its role as tail or head, so those tables, the vertex kinds and the
    boundary are shared between copies; only the live rotations, the
    partner table and the circle count belong to one copy.
    """

    __slots__ = ("kind", "rot", "vertex_of", "succ", "tail", "partner", "boundary", "circles")

    def __init__(self, web: Web):
        self.kind: dict[int, str] = {}
        self.rot: dict[int, tuple[int, ...]] = {}
        self.vertex_of: dict[int, int] = {}
        self.succ: dict[int, int] = {}  # next half-edge counterclockwise at its vertex or the border
        for vid, kind, rot in web.vertices:
            self.kind[vid] = kind
            self.rot[vid] = rot
            for i, h in enumerate(rot):
                self.vertex_of[h] = vid
                self.succ[h] = rot[(i + 1) % len(rot)]
        for j, (h, _s) in enumerate(web.boundary):
            self.succ[h] = web.boundary[j - 1][0]
        self.tail = {t for t, _h in web.edges}
        self.partner: dict[int, int] = {}
        for t, h in web.edges:
            self.partner[t] = h
            self.partner[h] = t
        self.boundary = web.boundary
        self.circles = web.circles

    def copy(self) -> "DartMap":
        other = object.__new__(DartMap)
        for name in ("kind", "vertex_of", "succ", "tail", "boundary", "circles"):
            setattr(other, name, getattr(self, name))
        other.rot = dict(self.rot)
        other.partner = dict(self.partner)
        return other

    def to_web(self) -> Web:
        return make_web(
            self.boundary,
            [(vid, self.kind[vid], rot) for vid, rot in self.rot.items()],
            [(t, h) for t, h in self.partner.items() if t in self.tail],
            self.circles,
        )

    def faces(self) -> list[list[int]]:
        """Face orbits: from each half-edge, cross its edge and turn to the
        next half-edge counterclockwise at the far end, the border being
        one more vertex.  An orbit touches the border exactly when it
        holds a boundary half-edge.  The walk starts from the half-edges
        in ascending order, so each orbit starts at its smallest
        half-edge and the orbits come out sorted."""
        succ, partner = self.succ, self.partner
        seen: set[int] = set()
        orbits = []
        for d in sorted(partner):
            if d in seen:
                continue
            orbit = []
            x = d
            while x not in seen:
                seen.add(x)
                orbit.append(x)
                x = succ[partner[x]]
            orbits.append(orbit)
        return orbits

    def spokes(self, walk) -> tuple[list[int], list[int]]:
        """Corner vertices of a face walk and the spoke at each corner, the
        half-edge leading away from the face."""
        return [self.vertex_of[d] for d in walk], [self.succ[d] for d in walk]

    def splice(self, dead: Iterable[int], links: Iterable[tuple[int, int]]) -> None:
        """Delete the vertices `dead` and reconnect the cut strands.

        The cut ends are the half-edges at dead vertices plus any linked
        half-edge that belongs to neither a vertex nor the boundary (a
        free end, as in a closure).  Each link joins the head end of one
        strand to the tail end of another.  An edge whose two halves are
        both cut and unlinked vanishes; every other cut end must be
        linked exactly once.  Chains of strands become single edges, and
        chains that close up become vertexless circles.
        """
        cut = {h for v in dead for h in self.rot[v]}
        border = {h for h, _s in self.boundary}

        def loose(x):
            return x in cut or (x in self.partner and x not in self.vertex_of and x not in border)

        link: dict[int, int] = {}
        for a, b in links:
            for x in (a, b):
                if not loose(x):
                    raise PairingError(f"half-edge {x} is not a loose end")
                if x in link:
                    raise PairingError(f"half-edge {x} paired twice")
            if a == b:
                raise PairingError(f"half-edge {a} paired with itself")
            if (a in self.tail) == (b in self.tail):
                raise PairingError(f"pairing joins {a} to {b}, but both point the same way")
            link[a] = b
            link[b] = a
        cut.update(link)
        unpaired = [
            x for x in cut
            if x not in link and (self.partner[x] not in cut or self.partner[x] in link)
        ]
        if unpaired:
            raise PairingError(f"unpaired loose half-edges: {sorted(unpaired)}")

        done: set[int] = set()
        for u in link:
            p = self.partner[u]
            if p in cut or u in done:
                continue
            x = u
            while True:
                done.add(x)
                done.add(link[x])
                q = self.partner[link[x]]
                if q not in cut:
                    break
                x = q
            self.partner[p] = q
            self.partner[q] = p
        for u in link:
            if u in done:
                continue
            self.circles += 1
            x = u
            while x not in done:
                done.add(x)
                done.add(link[x])
                x = self.partner[link[x]]
        for v in dead:
            del self.rot[v]
        for h in cut:
            del self.partner[h]


def _components(nodes, pairs) -> dict:
    """Map every node to the root of its connected component, the
    components being those of the graph on `nodes` with edges `pairs`."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def _web_components(web: Web, vertex_of: dict) -> dict:
    """_components of a web's map: a vertex id per vertex and None for the
    border circle, which holds every boundary point."""
    nodes = [vid for vid, _k, _r in web.vertices] + ([None] if web.boundary else [])
    return _components(nodes, ((vertex_of.get(t), vertex_of.get(h)) for t, h in web.edges))


# ---------------------------------------------------------------------------
# validation


def validate(web: Web) -> list[str]:
    """Return a list of violation messages; empty means the web is valid."""
    return _validated(web)[0]


def _validated(web: Web):
    """validate(), also handing back what it builds on the way:
    (problems, dart map, face orbits, components).  The last three are
    None when the web fails before the planarity check."""
    problems: list[str] = []

    if web.circles < 0:
        problems.append(f"circles: negative count {web.circles}")

    seen_halves: dict[int, str] = {}

    def claim(h, where):
        if h in seen_halves:
            problems.append(f"half-edge {h} appears both at {seen_halves[h]} and {where}")
        else:
            seen_halves[h] = where

    for pos, (h, s) in enumerate(web.boundary):
        if s not in (PLUS, MINUS):
            problems.append(f"boundary {pos}: bad sign {s!r}")
        claim(h, f"boundary {pos}")

    seen_vids = set()
    for vid, kind, rot in web.vertices:
        if vid in seen_vids:
            problems.append(f"vertex {vid}: duplicate id")
        seen_vids.add(vid)
        if kind not in (SINK, SOURCE):
            problems.append(f"vertex {vid}: bad kind {kind!r}")
        if len(rot) != 3:
            problems.append(f"vertex {vid}: arity {len(rot)} (webs are trivalent)")
        if len(set(rot)) != len(rot):
            problems.append(f"vertex {vid}: repeated half-edge in rotation")
        for h in rot:
            claim(h, f"vertex {vid}")

    matched: set[int] = set()
    for t, h in web.edges:
        if t == h:
            problems.append(f"edge ({t},{h}): both ends are the same half-edge")
            continue
        for x in (t, h):
            if x not in seen_halves:
                problems.append(f"edge ({t},{h}): unknown half-edge {x}")
            elif x in matched:
                problems.append(f"edge ({t},{h}): half-edge {x} used twice")
            matched.add(x)
    for h in seen_halves:
        if h not in matched:
            problems.append(f"half-edge {h} ({seen_halves[h]}) belongs to no edge")

    if problems:
        return problems, None, None, None

    m = DartMap(web)
    border = {h: (pos, s) for pos, (h, s) in enumerate(web.boundary)}
    for t, h in web.edges:
        for x, role, kind, sign in ((t, "tail", SOURCE, PLUS), (h, "head", SINK, MINUS)):
            if x in m.vertex_of:
                vid = m.vertex_of[x]
                if m.kind[vid] != kind:
                    problems.append(f"edge ({t},{h}): {role} at vertex {vid} which is a {m.kind[vid]}")
            elif border[x][1] != sign:
                pos, s = border[x]
                problems.append(f"boundary {pos}: sign {s!r} but its half-edge {x} is an edge {role}")

    if problems:
        return problems, None, None, None

    # Euler count: each component, the border one vertex, must be a sphere map.
    orbits = m.faces()
    comp = _web_components(web, m.vertex_of)
    counts: dict = {}
    for root in comp.values():
        counts.setdefault(root, [0, 0, 0])[0] += 1  # V, E, F
    for t, _h in web.edges:
        counts[comp[m.vertex_of.get(t)]][1] += 1
    for orbit in orbits:
        counts[comp[m.vertex_of.get(orbit[0])]][2] += 1
    for root, (v, e, f) in counts.items():
        if v - e + f != 2:
            node = ("border",) if root is None else ("v", root)
            problems.append(
                f"planarity: component of {node} has Euler count {v - e + f} (expected 2); "
                "the rotation system is not a plane embedding"
            )
    return problems, m, orbits, comp


def require_valid(web: Web) -> None:
    problems = validate(web)
    if problems:
        raise InvalidWebError("; ".join(problems))


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """A connected component of the upper half-plane minus the web."""

    id: int
    walks: tuple[tuple[int, ...], ...]  # closed walks of web half-edges
    touches_border: bool
    is_unbounded: bool
    is_disk: bool
    is_circle_interior: bool = False

    @property
    def side_count(self) -> int:
        """Number of web edge sides on the region's boundary."""
        return sum(len(w) for w in self.walks)


class RegionTable:
    """Regions of a web, the dart -> region lookup, the validated dart map
    they were read from, and the regions on the two sides of each edge."""

    def __init__(self, regions: list[Region], region_of: dict[int, int], darts: DartMap, web: Web):
        self.regions = regions
        self.region_of = region_of  # web half-edge (as walk dart) -> region id
        self.darts = darts  # shared by every reader of the table; copy it before a splice
        # per web edge: (right region, left region), the tail dart lying on the right
        self.sides = tuple((region_of[t], region_of[h]) for t, h in web.edges)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self):
        return len(self.regions)


def region_table(web: Web) -> RegionTable:
    """Compute the regions of a valid web.

    Region 0 is always the unbounded one.  For a closed web each component
    is drawn side by side, so the outer face of every component is merged
    into region 0; the outer face of a component is taken to be the orbit
    containing its smallest dart, a deterministic choice that no computed
    invariant depends on.  The table keeps the dart map that validation
    built, so readers of its regions need not build another.
    """
    problems, m, orbits, comp = _validated(web)
    if problems:
        raise InvalidWebError("; ".join(problems))
    walks = list(map(tuple, orbits))  # each from its smallest half-edge, ascending

    # the outer faces: the one holding the last boundary half-edge, and
    # the first walk of every closed component
    last = web.boundary[-1][0] if web.boundary else None
    border_root = comp.get(None)
    outer: dict = {}
    for walk in walks:
        root = comp[m.vertex_of.get(walk[0])]
        if root not in outer and (root != border_root or last in walk):
            outer[root] = walk
    unbounded = list(outer.values())  # in walk order

    regions = [
        Region(
            id=0,
            walks=tuple(unbounded),
            touches_border=bool(web.boundary),
            is_unbounded=True,
            is_disk=False,
        )
    ]
    region_of = {d: 0 for walk in unbounded for d in walk}
    for walk in walks:
        if walk in unbounded:
            continue
        rid = len(regions)
        touches = any(d not in m.vertex_of for d in walk)
        regions.append(
            Region(
                id=rid,
                walks=(walk,),
                touches_border=touches,
                is_unbounded=False,
                is_disk=not touches and len({m.vertex_of[d] for d in walk}) == len(walk),
            )
        )
        for d in walk:
            region_of[d] = rid

    for _ in range(web.circles):
        rid = len(regions)
        regions.append(
            Region(
                id=rid,
                walks=(),
                touches_border=False,
                is_unbounded=False,
                is_disk=True,
                is_circle_interior=True,
            )
        )
    return RegionTable(regions, region_of, m, web)


def regions(web: Web) -> list[Region]:
    return region_table(web).regions


def find_elliptic_face(web: Web):
    """Locate a vertexless circle, digon face or square face.

    Returns (kind, region) with kind in {'circle', 'digon', 'square'}, or
    None when the web is non-elliptic.  Circles come first, then the disk
    face with the smallest region id, so reduction order is reproducible.
    """
    return _elliptic_face(region_table(web))


def _elliptic_face(table: RegionTable):
    """find_elliptic_face on a region table that is already built."""
    for r in table.regions:
        if r.is_circle_interior:
            return ("circle", r)
    for r in table.regions:
        if r.is_disk and not r.is_circle_interior and r.side_count in (2, 4):
            return ("digon" if r.side_count == 2 else "square", r)
    return None


def is_non_elliptic(web: Web) -> bool:
    return find_elliptic_face(web) is None


def is_boundary_connected(web: Web) -> bool:
    """True when every connected piece of the web meets the border."""
    if web.circles:
        return False
    if not web.vertices and not web.edges:
        return True
    if not web.boundary:
        return False
    comp = _web_components(web, {h: vid for vid, _k, rot in web.vertices for h in rot})
    return all(comp[vid] == comp[None] for vid, _k, _r in web.vertices)


# ---------------------------------------------------------------------------
# face colouring


@dataclass(frozen=True)
class FaceColouring:
    base: int
    colours: dict[int, int] = field(hash=False)

    def __getitem__(self, region_id: int) -> int:
        return self.colours[region_id]


def face_colouring(web: Web, base: int = 0) -> FaceColouring:
    """3-colour the regions so that the unbounded region gets `base`.

    Crossing an edge changes the colour by +1 mod 3 when moving from the
    side to the right of the edge's orientation to the side on its left
    (and -1 the other way); vertexless circles count +1 going inward.
    The assignment is path independent because the flow of every vertex
    is divisible by 3; this is re-checked on every edge.
    """
    table = region_table(web)
    colours: dict[int, int] = {0: base % 3}
    adj: dict[int, list[tuple[int, int]]] = {}
    for r1, r2 in table.sides:
        adj.setdefault(r1, []).append((r2, 1))
        adj.setdefault(r2, []).append((r1, -1))
    queue = [0]
    while queue:
        r = queue.pop()
        for r2, delta in adj.get(r, []):
            c = (colours[r] + delta) % 3
            if r2 not in colours:
                colours[r2] = c
                queue.append(r2)
    for r in table.regions:
        if r.is_circle_interior:
            colours[r.id] = (colours[0] + 1) % 3
        elif r.id not in colours:
            colours[r.id] = colours[0]  # isolated region, only the empty web
    for r1, r2 in table.sides:
        if (colours[r1] + 1) % 3 != colours[r2]:
            raise TheoremViolationError(
                f"face colouring inconsistent across an edge between regions {r1} and {r2}"
            )
    return FaceColouring(base % 3, colours)


# ---------------------------------------------------------------------------
# mirror and closure


def _flip_kind(kind: str) -> str:
    return SOURCE if kind == SINK else SINK


def mirror(web: Web) -> Web:
    """The mirror web: reflect through the border line and reverse all
    edge orientations, then read the result back in the upper half-plane.

    Combinatorially this keeps the boundary order and the rotations and
    swaps everything orientation-related: signs, edge directions, vertex
    kinds.  Applying it twice gives back the original web.
    """
    return make_web(
        boundary=[(h, MINUS if s == PLUS else PLUS) for h, s in web.boundary],
        vertices=[(vid, _flip_kind(k), rot) for vid, k, rot in web.vertices],
        edges=[(h, t) for t, h in web.edges],
        circles=web.circles,
    )


def closure(w1: Web, w2: Web) -> Web:
    """Glue the mirror of w1 below w2 along their common boundary.

    Both webs must be valid and carry the same sign sequence; the result
    is a closed web.  Matching boundary points are joined strand to
    strand, the mirrored copy having its rotations reversed because the
    reflection reverses the orientation of the plane.
    """
    return _glued(w1, w2)[0].to_web()


def _glued(w1: Web, w2: Web) -> tuple[DartMap, list[int]]:
    """closure's map before it becomes a Web, and the seam: the far ends
    of w2's boundary strands that end at a vertex, in boundary order."""
    require_valid(w1)
    if w2 is not w1:
        require_valid(w2)
    if w1.signs != w2.signs:
        raise BoundaryMismatchError(
            f"cannot glue boundaries {''.join(w1.signs)!r} and {''.join(w2.signs)!r}"
        )

    # w1's ids are shifted past w2's; ids may be negative
    hoff = max([x for e in w2.edges for x in e], default=0) + 1
    hoff -= min([0, *(x for e in w1.edges for x in e)])
    voff = max([v for v, _k, _r in w2.vertices], default=0) + 1
    voff -= min([0, *(v for v, _k, _r in w1.vertices)])

    vertices = list(w2.vertices)
    for vid, kind, rot in w1.vertices:
        flipped = tuple(reversed([h + hoff for h in rot]))
        vertices.append((vid + voff, _flip_kind(kind), flipped))
    edges = list(w2.edges)
    for t, h in w1.edges:
        edges.append((h + hoff, t + hoff))  # reversed orientation

    # both boundaries dropped: their half-edges are free ends for the splice
    glued = DartMap(Web((), tuple(vertices), tuple(edges), w1.circles + w2.circles))
    seam = [p for b, _s in w2.boundary if (p := glued.partner[b]) in glued.vertex_of]
    glued.splice((), [(b2, b1 + hoff) for (b2, _s2), (b1, _s1) in zip(w2.boundary, w1.boundary)])
    return glued, seam
