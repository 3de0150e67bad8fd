"""The elimination tree on a DartMap, kept as an independent test oracle
for sl3web.bracket's elimination DAG.

`_eliminate` is the tree walk the DAG replaced: it rescans every face of
the map after every step and expands every square it meets, without a
memo.  In a seeded order it picks uniformly from the digon and square
faces sorted by (length, smallest half-edge), as the DAG does.
`_tree_leaves` counts its leaves by (digons, circles), and
`split_elliptic` turns them into (non-elliptic web, shift) pieces.
`_label_arrays` numbers a web's half-edges in label order straight from
its tuples, the reference for `bracket._arrays` on a map with no seam.
"""

from __future__ import annotations

from array import array
from collections import Counter
from random import Random

from sl3web import bracket
from sl3web.bracket import _count_branching, _multiplier, _smoothings
from sl3web.errors import TheoremViolationError
from sl3web.web import DartMap, Web, require_valid


def _label_arrays(web: Web):
    """bracket._arrays of DartMap(web) with no seam, read off the web's
    tuples: successors, corners, partners (and H at the border) and the
    number of each label, the half-edges numbered in label order."""
    index = {h: i for i, h in enumerate(sorted(x for e in web.edges for x in e))}
    n = len(index) + bool(web.boundary)
    succ, corner = [n - 1] * n, [()] * n
    for _vid, _kind, rot in web.vertices:
        rot = tuple(index[h] for h in rot)
        for i, h in enumerate(rot):
            succ[h], corner[h] = rot[i + 1 - len(rot)], rot
    partner = array("h" if n < bracket._NARROW_HALF_EDGES else "i", [-1]) * n
    for t, h in web.edges:
        partner[index[t]], partner[index[h]] = index[h], index[t]
    if web.boundary:
        partner[-1] = n - 1
    return succ, corner, partner, index


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


def _check_leaf(vertices_left) -> None:
    if vertices_left:
        raise TheoremViolationError(
            "closed web with vertices but no circle, digon or square face"
        )


def _tree_leaves(web: Web, rng: Random | None = None) -> Counter:
    """Leaf counts by (digons, circles) of the elimination tree."""
    leaves: Counter = Counter()
    for m, digons in _eliminate(web, rng):
        _check_leaf(m.rot)
        leaves[digons, m.circles] += 1
    return leaves


def split_elliptic(web: Web) -> list[tuple[Web, int]]:
    """sl3web.bracket.split_elliptic over the elimination tree."""
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
