"""Tests of the benchmark's own input builders and helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

from random import Random

import pytest

from sl3web.catalog import flower
from sl3web.redgraph import enumerate_red_graphs, find_fitting_orientation
from sl3web.web import find_elliptic_face, make_web, validate

import corpus
from canon import canon, relabel, rotate
from harness import percentile
from polyhex import CORONENE, NEIGHBOURS, grow_compact, holes, polyhex_web
from workloads import brute_force_fits


def seeded_patches():
    rng = Random(3)
    return [grow_compact(size, rng) for size in (1, 2, 3, 5, 8, 9, 10, 13, 16) for _ in range(3)]


@pytest.mark.parametrize("patch", seeded_patches(), ids=lambda p: f"{len(p)}hex")
def test_built_webs_are_valid_and_non_elliptic(patch):
    web = polyhex_web(patch)
    assert validate(web) == []
    assert find_elliptic_face(web) is None
    assert holes(patch) == 0


def test_pool_shapes_build():
    for shape in corpus.read("polyhex.json")["shapes"]:
        patch = [tuple(h) for h in shape["patch"]]
        assert len(patch) == shape["size"]
        assert validate(polyhex_web(patch)) == []


def test_coronene_is_the_flower_up_to_boundary_rotation():
    web = polyhex_web(CORONENE)
    n = len(web.boundary)
    assert n == 12 and len(web.vertices) == 24
    assert canon(flower()) in {canon(rotate(web, k)) for k in range(n)}


def test_other_leg_order_is_not_a_plane_web():
    web = polyhex_web(CORONENE)
    backwards = make_web(tuple(reversed(web.boundary)), web.vertices, web.edges)
    assert validate(backwards) != []


def test_patches_with_holes_or_gaps_are_rejected():
    ring = list(NEIGHBOURS)
    assert holes(ring) == 1
    with pytest.raises(ValueError):
        polyhex_web(ring)
    with pytest.raises(ValueError):
        polyhex_web([(0, 0), (5, 5)])


def test_canon_ignores_labels_and_full_rotation():
    web = flower()
    assert canon(relabel(web, Random(1))) == canon(web)
    assert canon(rotate(web, len(web.boundary))) == canon(web)
    assert canon(rotate(web, 1)) != canon(web)


def test_brute_force_agrees_with_flow_on_the_flower():
    for red in enumerate_red_graphs(flower()):
        fits = find_fitting_orientation(red) is not None
        assert brute_force_fits(red.dual.sides, red.faces, red.edges) == fits


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 90) == (90, 10)
    assert percentile(xs[:30], 65) == (20, 10)
