"""Red graphs: subgraphs of a web's dual graph and their reductions.

A red graph is a non-empty induced subgraph of the dual graph supported
on disk faces, subject to the corner rule: no web vertex may have all
three of its corners selected.  For a face f with deg_D sides of which
deg_G are shared with other selected faces, write ed(f) = deg_D - 2 deg_G
(always even and nonnegative).  An orientation of the red graph's edges
fits when every face satisfies indeg(f) <= 2 - ed(f)/2; red graphs with
a fitting orientation are admissible, and exact when additionally the
index

    I(G) = 2 #faces - #edges - (1/2) sum ed(f)

vanishes.  One include-first walk over the disk faces reaches every red
graph; the exact-red-graph search runs it with a floor on the index and
skips the subtrees whose index bound cannot beat it.  The walk and the
minimal-subgraph scan keep sets of faces as bitmasks and count red edges
with int.bit_count(); the bound leaves out every face that the corner
rule already blocks.  Reducing a web
along a red graph deletes every web edge bordering a selected face
together with the vertices those edges use, then splices the cut
strands back together, pairwise around each face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .bracket import _split_elliptic, classify
from .errors import (
    PairingError,
    SizeGuardError,
    StageMismatchError,
    TheoremViolationError,
)
from .web import DartMap, RegionTable, Web, _components, _elliptic_face, region_table, require_valid


@dataclass(frozen=True)
class DualGraph:
    """The dual graph of a web: one node per region (border regions and
    the unbounded one included), one edge per web edge between the
    regions on its two sides."""

    web: Web
    table: RegionTable
    sides: tuple[tuple[int, int], ...]  # per web edge: (right region, left region)
    corners: dict[int, tuple[int, int, int]]  # vertex id -> its corner regions
    degrees: tuple[int, ...]  # per region: web edge sides on its boundary

    def degree(self, region_id: int) -> int:
        return self.degrees[region_id]

    def disk_faces(self) -> list[int]:
        return [r.id for r in self.table.regions if r.is_disk]

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per region: (edge index, region on the other side) for every
        web edge on its boundary, in edge order."""
        inc: list[list[tuple[int, int]]] = [[] for _ in self.degrees]
        for i, (a, b) in enumerate(self.sides):
            inc[a].append((i, b))
            inc[b].append((i, a))
        return tuple(map(tuple, inc))

    @property
    def darts(self) -> DartMap:
        """The web's validated dart map, shared by every red graph of this
        dual graph; read it, never splice it."""
        return self.table.darts


def dual_graph(web: Web) -> DualGraph:
    table = region_table(web)
    corners = {vid: tuple(table.region_of[h] for h in rot) for vid, _k, rot in web.vertices}
    return DualGraph(web, table, table.sides, corners, tuple(r.side_count for r in table.regions))


class RedGraph:
    """An induced subgraph of the dual graph on a set of disk faces;
    `edges`, when given, are the dual edges between them, ascending."""

    def __init__(self, dual: DualGraph, faces, edges=None):
        self.dual = dual
        self.faces = tuple(sorted(set(faces)))
        if edges is None:
            fs = set(self.faces)
            edges = []
            for i, (a, b) in enumerate(dual.sides):
                if a in fs and b in fs:
                    if a == b:
                        raise AssertionError("disk faces never bound both sides of an edge")
                    edges.append(i)
        self.edges = tuple(edges)

    def __repr__(self):
        return f"RedGraph(faces={list(self.faces)}, edges={len(self.edges)}, I={self.level})"

    @cached_property
    def degree_in_graph(self) -> dict[int, int]:
        deg = {f: 0 for f in self.faces}
        for i in self.edges:
            a, b = self.dual.sides[i]
            deg[a] += 1
            deg[b] += 1
        return deg

    def ed(self, face: int) -> int:
        return self.dual.degree(face) - 2 * self.degree_in_graph[face]

    def cap(self, face: int) -> int:
        """Maximum allowed in-degree of a fitting orientation at `face`."""
        return 2 - self.ed(face) // 2

    @cached_property
    def level(self) -> int:
        """The index I(G) = 2|F| - |E| - (1/2) sum ed(f), which is
        2|F| + |E| - (1/2) sum deg_D(f) since the degrees in G sum to 2|E|."""
        degrees = self.dual.degrees
        return 2 * len(self.faces) + len(self.edges) - sum(degrees[f] for f in self.faces) // 2

    def is_fair(self) -> bool:
        return all(self.ed(f) <= 4 for f in self.faces)

    def components(self) -> list[tuple[int, ...]]:
        """The faces of each connected component, ascending."""
        groups: dict[int, list[int]] = {}
        for f, root in _components(self.faces, (self.dual.sides[i] for i in self.edges)).items():
            groups.setdefault(root, []).append(f)
        return sorted(map(tuple, groups.values()))


def corner_selection_ok(dual: DualGraph, faces) -> bool:
    """The corner rule: at most two of any vertex's corners selected."""
    fs = set(faces)
    return all(sum(c in fs for c in corners) <= 2 for corners in dual.corners.values())


MAX_ENUM_FACES = 24


def enumerate_red_graphs(web: Web, dual: DualGraph | None = None):
    """Yield every red graph of the web (deterministic order).

    Backtracks over the disk faces, each taken before it is left out,
    with the corner rule checked incrementally, so branches that already
    pinch some vertex are never explored.  The walk keeps an explicit
    stack of the faces taken and reads the red edges off at each leaf.
    Guarded for webs with more than MAX_ENUM_FACES disk faces.
    """
    yield from _walk_red_graphs(dual_graph(web) if dual is None else dual)


def _face_masks(dual: DualGraph, faces):
    """(pos, across, w, bit, nbr) for `faces` numbered by position: pos[f]
    is f's number, across[k] the numbers across face k's edges among them.
    Face k owns bit[k], the w bits from w*k up, w at least the most edges
    two faces share; nbr[k] holds m of face j's bits when k and j share m
    edges, so (nbr[k] & s).bit_count() counts the edges into s."""
    pos = {f: k for k, f in enumerate(faces)}
    across = [[pos[g] for _e, g in dual.incidence[f] if g in pos] for f in faces]
    w = 1 + max((len(row) - len(set(row)) for row in across), default=0)
    bit = [((1 << w) - 1) << w * k for k in range(len(faces))]
    nbr = []
    for k, row in enumerate(across):
        if k in row:
            raise AssertionError("disk faces never bound both sides of an edge")
        m = 0
        for j in row:
            m |= (m & bit[j]) << 1 | 1 << w * j  # one more of face j's bits
        nbr.append(m)
    return pos, across, w, bit, nbr


def _walk_red_graphs(dual: DualGraph, floor=None):
    """The walk behind enumerate_red_graphs.  Given `floor`, a callable
    read afresh at every node, it builds only red graphs of index above
    floor() and skips every subtree whose bound is at most floor().

    The faces taken S and the faces blocked, a third corner of a vertex
    with two in S, are _face_masks sets of disk faces, and the index
    l(S) = sum(2 - deg_D/2) + |E(S)| is kept along.  A face is live while
    undecided and not blocked.  Charging each red edge to its earlier end,
    a live face f adds at most gain(f) = 2 - deg_D(f)/2 + e(f, S)
    + e(f, live faces after f), so l(S) + rest, rest the sum of
    max(0, gain(f)) over live f, bounds every red graph below the node.
    """
    disk = dual.disk_faces()
    n = len(disk)
    if n > MAX_ENUM_FACES:
        raise SizeGuardError(
            f"{n} disk faces; red graph enumeration is capped at {MAX_ENUM_FACES}"
        )
    pos, across, w, bit, nbr = _face_masks(dual, disk)
    # per disk face: (edge, number) of its edges to earlier disk faces
    back = [[(e, pos[g]) for e, g in dual.incidence[f] if pos.get(g, n) < k] for k, f in enumerate(disk)]
    # a vertex with disk corners a < b < c: taking b with a taken blocks c,
    # the only pinch the walk meets before deciding all three
    pinch: list[dict[int, int]] = [{} for _ in disk]
    for a, b, c in dual.corners.values():
        if a in pos and b in pos and c in pos:
            a, b, c = sorted((pos[a], pos[b], pos[c]))
            pinch[b][bit[a]] = pinch[b].get(bit[a], 0) | bit[c]
    base = [2 - dual.degrees[f] // 2 for f in disk]
    gain = [base[k] + sum(j > k for j in row) for k, row in enumerate(across)]
    chosen: list[int] = []  # indices into disk of the faces taken, increasing
    marks: list[tuple] = []  # the state before each take
    taken = blocked = 0
    level = 0  # l(S) of the faces taken
    rest = sum(max(0, g) for g in gain)  # over the live faces; level + rest is the bound
    i = 0
    while True:
        while i < n:
            if floor is not None and level + rest <= floor():
                break
            b = bit[i]
            if not blocked & b:
                marks.append((level, rest, taken, blocked, gain[:]))
                level += base[i] + (nbr[i] & taken).bit_count()
                taken |= b
                if gain[i] > 0:
                    rest -= gain[i]
                new = 0
                for a, faces in pinch[i].items():
                    if taken & a:
                        new |= faces
                new &= ~blocked
                blocked |= new
                while new:
                    x = ((new & -new).bit_length() - 1) // w
                    new ^= bit[x]
                    if gain[x] > 0:
                        rest -= gain[x]
                    for j in across[x]:
                        if i < j < x and not blocked & bit[j]:
                            rest -= gain[j] > 0
                            gain[j] -= 1
                for j in across[i]:
                    if j > i and not blocked & bit[j]:
                        rest += gain[j] >= 0
                        gain[j] += 1
                chosen.append(i)
            i += 1
        else:
            if chosen and (floor is None or level > floor()):
                edges = sorted(e for k in chosen for e, j in back[k] if taken & bit[j])
                yield RedGraph(dual, [disk[k] for k in chosen], edges)
        if not chosen:
            return
        # back to the last face taken, and leave it out instead
        i = chosen.pop()
        level, rest, taken, blocked, gain = marks.pop()
        if gain[i] > 0:
            rest -= gain[i]
        i += 1


# ---------------------------------------------------------------------------
# fitting orientations


def _fit_heads(pairs, caps):
    """A head for every edge (a, b) in `pairs`, a or b, with no face f
    taking more than caps[f] heads; None when there is no such choice.

    Edges are placed one at a time.  When both ends of a new edge are
    full, a depth-first search on an explicit stack walks backwards along
    edges already pointing into full faces until it meets a face with
    room, then flips every edge on that path (Hakimi's augmenting path
    for degree-constrained orientations).  Failing to place one edge
    proves that no orientation fits: the search ends on a set of full
    faces whose heads all come from edges inside the set, and the new
    edge lies inside it too.
    """
    heads: list = []
    into: dict = {f: [] for f in caps}  # face -> edges now pointing at it
    for k, (a, b) in enumerate(pairs):
        via = {a: None, b: None}  # face reached -> edge to flip into it
        todo = [b, a]
        while todo:
            f = todo.pop()
            if len(into[f]) < caps[f]:
                break
            for e in into[f]:
                x, y = pairs[e]
                g = y if x == f else x
                if g not in via:
                    via[g] = e
                    todo.append(g)
        else:
            return None
        while via[f] is not None:
            e = via[f]
            into[heads[e]].remove(e)
            into[f].append(e)
            heads[e], f = f, heads[e]
        heads.append(f)
        into[f].append(k)
    return heads


def _caps(red: RedGraph) -> dict[int, int]:
    """cap(f) = 2 - ed(f)/2 = 2 - deg_D(f)/2 + deg_G(f) for every face."""
    degrees = red.dual.degrees
    return {f: 2 - degrees[f] // 2 + d for f, d in red.degree_in_graph.items()}


def find_fitting_orientation(red: RedGraph):
    """An orientation with indeg(f) <= cap(f) everywhere, or None.

    The returned orientation maps edge index -> (tail face, head face)
    and is re-checked against the caps before being returned.
    """
    caps = _caps(red)
    if any(c < 0 for c in caps.values()):
        return None
    if len(red.edges) > sum(caps.values()):
        return None
    pairs = [red.dual.sides[i] for i in red.edges]
    heads = _fit_heads(pairs, caps)
    if heads is None:
        return None
    orientation = {
        i: (b if head == a else a, head)
        for i, (a, b), head in zip(red.edges, pairs, heads)
    }
    # independent re-check, not trusting the solver's bookkeeping
    indeg = {f: 0 for f in red.faces}
    for i, (_tail, head) in orientation.items():
        indeg[head] += 1
    if any(indeg[f] > caps[f] for f in red.faces):
        raise AssertionError("the orientation solver produced an overfull orientation")
    if not red.is_fair():
        raise TheoremViolationError("admissible red graph with a face of ed > 4")
    return orientation


BRUTE_FORCE_EDGE_LIMIT = 20


def _fitting_orientations(red: RedGraph, edges, caps):
    """Every orientation of `edges` that keeps each face's in-degree
    within `caps`, trying all 2^len(edges) in lexicographic order (bit 0
    points an edge from its right region to its left one)."""
    for bits in itertools.product((0, 1), repeat=len(edges)):
        indeg = dict.fromkeys(caps, 0)
        orientation = {}
        for i, bit in zip(edges, bits):
            a, b = red.dual.sides[i]
            tail, head = (a, b) if bit == 0 else (b, a)
            indeg[head] += 1
            if indeg[head] > caps[head]:
                break
            orientation[i] = (tail, head)
        else:
            yield orientation


def brute_force_fitting_orientation(red: RedGraph):
    """Try all 2^#edges orientations in lexicographic order; the slow
    twin of find_fitting_orientation for cross-checking."""
    if len(red.edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise SizeGuardError(
            f"{len(red.edges)} edges; brute force is capped at {BRUTE_FORCE_EDGE_LIMIT}"
        )
    caps = _caps(red)
    if any(c < 0 for c in caps.values()):
        return None
    return next(_fitting_orientations(red, red.edges, caps), None)


COUNT_TOTAL_EDGE_LIMIT = 30


def count_fitting_orientations(red: RedGraph) -> int:
    """Number of fitting orientations, multiplicative over components."""
    if len(red.edges) > COUNT_TOTAL_EDGE_LIMIT:
        raise SizeGuardError(
            f"{len(red.edges)} edges; counting is capped at {COUNT_TOTAL_EDGE_LIMIT}"
        )
    caps = _caps(red)
    if any(c < 0 for c in caps.values()):
        return 0
    total = 1
    for comp in red.components():
        cset = set(comp)
        edges = [i for i in red.edges if red.dual.sides[i][0] in cset]
        if len(edges) > BRUTE_FORCE_EDGE_LIMIT:
            raise SizeGuardError(
                f"component with {len(edges)} edges; capped at {BRUTE_FORCE_EDGE_LIMIT}"
            )
        total *= sum(1 for _ in _fitting_orientations(red, edges, caps))
    return total


def is_admissible(red: RedGraph) -> bool:
    return find_fitting_orientation(red) is not None


def is_exact(red: RedGraph) -> bool:
    return red.level == 0 and is_admissible(red)


def orientation_index_sum(red: RedGraph, orientation) -> int:
    """Sum over faces of i_o(f) = 2 - ed(f)/2 - indeg(f); equals I(G)
    for every orientation, which the callers use as a bookkeeping check."""
    indeg = {f: 0 for f in red.faces}
    for _i, (_tail, head) in orientation.items():
        indeg[head] += 1
    return sum(2 - red.ed(f) // 2 - indeg[f] for f in red.faces)


# ---------------------------------------------------------------------------
# grey half-edges and pairings


def grey_halves(red: RedGraph, face: int) -> tuple[int, ...]:
    """The loose strand ends a reduction leaves around `face`, in cyclic
    order along the face's walk.  There are exactly ed(face) of them, at
    the walk vertices having no second selected corner."""
    region = red.dual.table.regions[face]
    if region.is_circle_interior:
        return ()
    m = red.dual.darts
    fs = set(red.faces)
    (walk,) = region.walks
    greys = [
        s
        for vid, s in zip(*m.spokes(walk))
        if sum(c in fs for c in red.dual.corners[vid]) == 1
    ]
    if len(greys) != red.ed(face):
        raise TheoremViolationError(
            f"face {face}: {len(greys)} grey half-edges but ed = {red.ed(face)}"
        )
    directions = [s in m.tail for s in greys]
    if any(directions[i] == directions[i - 1] for i in range(len(directions))) and greys:
        raise TheoremViolationError(
            f"face {face}: grey strand directions do not alternate"
        )
    return tuple(greys)


def enumerate_pairings(red: RedGraph) -> list[tuple[tuple[int, int], ...]]:
    """All ways to join the grey ends without crossings: one choice per
    face with ed = 4, nothing to choose elsewhere.  Requires a fair red
    graph (every ed <= 4)."""
    if not red.is_fair():
        raise ValueError("pairings are only defined when every face has ed <= 4")
    per_face = []
    for f in red.faces:
        g = grey_halves(red, f)
        if not g:
            continue
        if len(g) == 2:
            per_face.append([((g[0], g[1]),)])
        else:
            per_face.append(
                [((g[0], g[1]), (g[2], g[3])), ((g[1], g[2]), (g[3], g[0]))]
            )
    out = []
    for combo in itertools.product(*per_face):
        out.append(tuple(pair for group in combo for pair in group))
    return out


# ---------------------------------------------------------------------------
# reduction


def g_reduction(web: Web, red: RedGraph, pairing=None) -> Web:
    """Reduce the web along a red graph.

    Deletes every web edge with a selected face on either side (and, for
    selected circle interiors, the circle itself), deletes the vertices
    those edges used, and splices the grey ends according to `pairing`
    (default: the first enumerated one).  A pairing that does not join
    every grey end exactly once raises PairingError.
    """
    if red.dual.web != web:
        raise StageMismatchError("red graph belongs to a different web")
    if pairing is None:
        pairing = enumerate_pairings(red)[0]
    fs = set(red.faces)
    m = red.dual.darts.copy()
    dead_vertices = {
        m.vertex_of[x]
        for edge, (a, b) in zip(web.edges, red.dual.sides)
        if a in fs or b in fs
        for x in edge
    }
    grey_total = sum(red.ed(f) for f in red.faces)
    if len(dead_vertices) != 2 * len(red.edges) + grey_total:
        raise TheoremViolationError(
            f"reduction removes {len(dead_vertices)} vertices, expected "
            f"2*{len(red.edges)} + {grey_total}"
        )
    # the splice drops an edge both of whose ends are cut and unlinked,
    # so an omitted pair of grey ends on one edge is caught by counting
    if 2 * len(pairing) != grey_total:
        raise PairingError(f"{len(pairing)} pairs for {grey_total} grey ends")
    m.circles -= sum(1 for f in red.faces if red.dual.table.regions[f].is_circle_interior)
    m.splice(dead_vertices, pairing)
    return m.to_web()


def projection_degree_shift(red: RedGraph) -> int:
    """Degree shift of the projection-inclusion composite through the
    reduced web: twice the index, independent of the pairing."""
    return 2 * red.level


# ---------------------------------------------------------------------------
# minimality and exactness


MINIMAL_SCAN_FACE_LIMIT = 15


def _reach(red: RedGraph, orientation, start: int) -> frozenset:
    adj: dict[int, list[int]] = {f: [] for f in red.faces}
    for _i, (tail, head) in orientation.items():
        adj[tail].append(head)
    seen = {start}
    todo = [start]
    while todo:
        f = todo.pop()
        for g in adj[f]:
            if g not in seen:
                seen.add(g)
                todo.append(g)
    return frozenset(seen)


def minimal_admissible_subgraph(red: RedGraph) -> RedGraph:
    """A minimal admissible red graph inside an admissible one.

    First shrinks along out-reachable face sets (restricting a fitting
    orientation to such a set only drops incoming edges, so it stays
    fitting), then scans the remaining subsets smallest-first; the first
    admissible one found cannot contain a smaller admissible subgraph.
    A fitting orientation forces index >= 0, so the scan solves only
    subsets of index >= 0.
    """
    orientation = find_fitting_orientation(red)
    if orientation is None:
        raise ValueError("minimal_admissible_subgraph needs an admissible red graph")
    while True:
        smallest = min(
            (_reach(red, orientation, f) for f in red.faces), key=len
        )
        if len(smallest) == len(red.faces):
            break
        red = RedGraph(red.dual, smallest)
        orientation = {
            i: d for i, d in orientation.items() if i in set(red.edges)
        }
    if len(red.faces) > MINIMAL_SCAN_FACE_LIMIT:
        raise SizeGuardError(
            f"{len(red.faces)} faces after shrinking; subset scan capped at "
            f"{MINIMAL_SCAN_FACE_LIMIT}"
        )
    faces = red.faces
    bit, nbr = _face_masks(red.dual, faces)[3:]
    twice = [4 - red.dual.degrees[f] for f in faces]  # 2(2 - deg_D/2)
    for size in range(1, len(faces)):
        for combo in itertools.combinations(range(len(faces)), size):
            s = sum(bit[k] for k in combo)
            # twice the index: sum(4 - deg_D(f)) + 2|E|
            if sum(twice[k] + (nbr[k] & s).bit_count() for k in combo) >= 0:
                candidate = RedGraph(red.dual, [faces[k] for k in combo])
                if find_fitting_orientation(candidate) is not None:
                    return candidate
    return red


def find_exact_red_graph(web: Web) -> RedGraph | None:
    """An exact red graph of a non-elliptic web, or None when the web has
    no admissible red graph at all.

    Takes the first admissible red graph of maximal index in walk order
    and shrinks it to a minimal admissible subgraph, which must then have
    index zero.  Two cross-checks guard the underlying facts: no red
    graph may have an index above every admissible one, and the minimal
    subgraph must come out exact.

    A fitting orientation makes I(G) = sum(cap(f) - indeg(f)) >= 0, so
    the walk's floor is -1 until an admissible red graph turns up, then
    its index.  A skipped subtree could neither give a better red graph
    nor fail a cross-check, so the result and the errors are those of a
    scan of every red graph.
    """
    dual = dual_graph(web)
    if _elliptic_face(dual.table) is not None:
        raise ValueError("find_exact_red_graph expects a non-elliptic web")
    best = None
    top = -1  # the largest index met; each red graph walked beats the floor
    for g in _walk_red_graphs(dual, lambda: -1 if best is None else best.level):
        top = max(top, g.level)
        if is_admissible(g):
            best = g
    if best is None:
        if top >= 0:
            raise TheoremViolationError(
                f"a red graph of index {top} >= 0 exists but none is admissible"
            )
        return None
    if top > best.level:
        raise TheoremViolationError(
            f"red graph of index {top} exists but the best admissible "
            f"index is {best.level}"
        )
    minimal = minimal_admissible_subgraph(best)
    if minimal.level != 0:
        raise TheoremViolationError(
            f"minimal admissible red graph has index {minimal.level}, not 0"
        )
    return minimal


# ---------------------------------------------------------------------------
# staged reductions and decomposition


def red_graph_from_faces(web: Web, faces) -> RedGraph:
    """Build a red graph from region ids, checking they name disk faces
    of this web and respect the corner rule."""
    dual = dual_graph(web)
    disk = set(dual.disk_faces())
    faces = list(faces)
    if not faces:
        raise StageMismatchError("a red graph needs at least one face")
    bad = [f for f in faces if f not in disk]
    if bad:
        raise StageMismatchError(f"not disk faces of this web: {bad}")
    if not corner_selection_ok(dual, faces):
        raise StageMismatchError("selection pinches a vertex (three corners chosen)")
    return RedGraph(dual, faces)


@dataclass(frozen=True)
class Decomposition:
    """Direct summands (web, degree shift) of a web's module, with a flag
    saying whether they account for the whole module."""

    factors: tuple[tuple[Web, int], ...]
    complete: bool


def decompose(web: Web) -> Decomposition:
    """Split the module of a web into indecomposable summands as far as
    the reduction calculus reaches.

    Elliptic faces split off shifted copies exactly; for a non-elliptic
    decomposable web one exact reduction summand is extracted and the
    remainder is left unaccounted (complete=False).  The web is
    validated once; its pieces and reductions are valid by construction.
    """
    require_valid(web)
    factors: list[tuple[Web, int]] = []
    complete = True
    work: list[tuple[Web, int]] = [(web, 0)]
    while work:
        w, base = work.pop()
        for piece, shift in _split_elliptic(w):
            total = base + shift
            if not piece.boundary:
                # a closed non-elliptic web is empty; its module is the ground ring
                factors.append((piece, total))
                continue
            if classify(piece).indecomposable:
                factors.append((piece, total))
                continue
            complete = False
            red = find_exact_red_graph(piece)
            if red is None:
                raise TheoremViolationError(
                    "decomposable non-elliptic web without an admissible red graph"
                )
            work.append((g_reduction(piece, red), total))
    factors.sort(key=lambda f: (f[1], f[0].boundary, f[0].vertices, f[0].edges, f[0].circles))
    return Decomposition(tuple(factors), complete)
