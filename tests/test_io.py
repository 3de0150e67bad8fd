from __future__ import annotations

import json

import pytest

from sl3web.catalog import arc, circle_web, cube, digon_arc, empty_web, flower, theta, tripod
from sl3web.errors import InvalidWebError
from sl3web.generate import canonical_form, generate_closed
from sl3web.io import dual_dot, dumps_web, load_web, loads_web, save_web, web_dot, web_to_json
from sl3web.redgraph import enumerate_red_graphs
from sl3web.web import validate

FIXTURES = [empty_web, circle_web, arc, tripod, theta, digon_arc, cube, flower]


@pytest.mark.parametrize("build", FIXTURES)
def test_round_trip(build):
    w = build()
    again = loads_web(dumps_web(w))
    assert validate(again) == []
    assert canonical_form(again) == canonical_form(w)


def test_round_trip_generated_closed():
    for w in generate_closed(10, seed=11):
        assert canonical_form(loads_web(dumps_web(w))) == canonical_form(w)


def test_file_round_trip(tmp_path):
    path = tmp_path / "w.json"
    save_web(flower(), str(path))
    assert canonical_form(load_web(str(path))) == canonical_form(flower())


def test_circles_serialize_as_count():
    doc = web_to_json(circle_web(2))
    assert doc["circles"] == [{"count": 2}]
    assert web_to_json(arc())["circles"] == []


def test_region_hint_is_accepted():
    doc = web_to_json(circle_web())
    doc["circles"][0]["region_hint"] = 0
    w = loads_web(json.dumps(doc))
    assert w.circles == 1


def test_circle_counts_add_up():
    doc = web_to_json(empty_web())
    doc["circles"] = [{"count": 1}, {"count": 2, "region_hint": 5}]
    assert loads_web(json.dumps(doc)).circles == 3


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(extra=1),
        lambda d: d["boundary"].append({"half_edge": "x", "sign": "+"}),
        lambda d: d["boundary"].append({"half_edge": 9, "sign": "plus"}),
        lambda d: d["vertices"].append({"id": 9, "kind": "well", "rotation": [1, 2, 3]}),
        lambda d: d["vertices"].append({"id": 9, "kind": "sink", "rotation": [1, 2]}),
        lambda d: d["edges"].append([1]),
        lambda d: d.update(circles=[{"count": -1}]),
        lambda d: d.update(circles=[{"hint": 1}]),
        lambda d: d.update(boundary=5),
        lambda d: d.update(edges=None),
        lambda d: d.update(circles=3),
        lambda d: d["vertices"].append({"id": 9, "kind": [], "rotation": [1, 2, 3]}),
    ],
)
def test_malformed_documents_rejected(mangle):
    doc = web_to_json(digon_arc())
    mangle(doc)
    with pytest.raises(InvalidWebError):
        loads_web(json.dumps(doc))


def test_not_json_rejected(tmp_path):
    with pytest.raises(InvalidWebError):
        loads_web("{")
    with pytest.raises(InvalidWebError):
        loads_web("[1, 2]")
    with pytest.raises(InvalidWebError):
        loads_web("[" * 100_000)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"boundary": [], "vertices": [], "edges": [], "circles": [\xff]}')
    with pytest.raises(InvalidWebError):
        load_web(str(path))


def test_web_dot_mentions_every_vertex():
    text = web_dot(digon_arc())
    assert text.startswith("digraph")
    assert "v0" in text and "v1" in text and "b0" in text


def test_dual_dot_red_overlay():
    web = digon_arc()
    red = next(iter(enumerate_red_graphs(web)))
    text = dual_dot(web, red)
    assert "fillcolor" in text
    plain = dual_dot(web)
    assert "fillcolor" not in plain
