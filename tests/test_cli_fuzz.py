"""Property test: the command line never lets an exception escape.

Two kinds of documents go to every verb that reads a web file
(`validate`, `bracket`, `classify`, `redgraphs`, `decompose` and the
three kinds of `export`): arbitrary JSON, and catalog webs with one
seeded defect (a field dropped, a value of the wrong type, an unknown
half-edge, two edge heads swapped, a boundary sign flipped).  Every call
must return an exit code; a document the reader rejects must give exit
code 2, and so must a web that validation rejects.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3web import catalog
from sl3web.cli import main
from sl3web.errors import InvalidWebError
from sl3web.io import load_web, loads_web, web_to_json
from sl3web.web import validate

# each call's argv with the file left out: the verb, then its options
VERBS = (
    ("validate",),
    ("bracket",),
    ("classify",),
    ("redgraphs",),
    ("decompose",),
    ("export",),
    ("export", "--dot", os.devnull),
    ("export", "--kind", "dual"),
)
CATALOG = [
    catalog.circle_web(2),
    catalog.arc(),
    catalog.tripod(),
    catalog.theta(),
    catalog.digon_arc(),
    catalog.double_digon_arc(),
    catalog.cube(),
    catalog.flower(),
]
FIELDS = ("boundary", "vertices", "edges", "circles")

KEYS = FIELDS + ("half_edge", "sign", "id", "kind", "rotation", "count", "region_hint")
WRONG = [None, "x", "+", 1.5, -1, True, {}, [], [[]], {"count": 1}]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 300)
    | st.floats()
    | st.sampled_from(["+", "-", "sink", "source"])
    | st.text(max_size=5)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def _slots(node) -> list:
    """Every (container, key) pair inside a JSON document."""
    out = []
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out += _slots(node[key])
    return out


def _mutant(seed: int) -> dict:
    """A catalog web's document with one defect chosen by `seed`."""
    rng = Random(seed)
    doc = web_to_json(rng.choice(CATALOG))
    doc["circles"] = doc["circles"] or [{"count": 0}]
    halves = [h for e in doc["edges"] for h in e]
    kind = rng.choice(["drop", "type", "unknown", "swap", "sign"])
    if kind == "drop":
        container, key = rng.choice(_slots(doc))
        del container[key]
    elif kind == "type":
        # a named field: a half-edge id inside a list is one slot of many
        container, key = rng.choice([s for s in _slots(doc) if isinstance(s[0], dict)])
        container[key] = rng.choice(WRONG)
    elif kind == "unknown" and halves:
        edge = rng.choice(doc["edges"])
        edge[rng.randrange(2)] = max(halves) + 1 + rng.randrange(3)
    elif kind == "swap" and len(doc["edges"]) > 1:
        e1, e2 = rng.sample(doc["edges"], 2)
        e1[1], e2[1] = e2[1], e1[1]
    elif kind == "sign" and doc["boundary"]:
        entry = rng.choice(doc["boundary"])
        entry["sign"] = "-" if entry["sign"] == "+" else "+"
    return doc


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "web.json")


def _check(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        web = load_web(path)
        rejected = bool(validate(web))
    except InvalidWebError:
        rejected = True
    for verb, *options in VERBS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, path, *options])
        assert isinstance(code, int), (verb, text)
        if rejected:
            assert code == 2, (verb, text, err.getvalue())
        else:
            assert code in (0, 3), (verb, text, err.getvalue())


FUZZ = settings(max_examples=200, deadline=None)


@FUZZ
@given(doc=json_values)
def test_cli_survives_random_json(path, doc):
    _check(path, json.dumps(doc))


@FUZZ
@given(seed=st.integers(0, 2**32 - 1))
def test_cli_survives_mutated_catalog_webs(path, seed):
    _check(path, json.dumps(_mutant(seed)))


@pytest.mark.parametrize("seed", [1, 4])
def test_cli_rejects_pinned_invalid_mutants(path, seed):
    # seed 1: an invalid web with boundary, which `bracket` once called a
    # precondition (exit 3); seed 4: an edge to the unknown half-edge 9,
    # which `export` once wrote out (exit 0) and `export --dot` crashed
    # on with a KeyError
    text = json.dumps(_mutant(seed))
    assert validate(loads_web(text))  # read, then rejected by validation
    _check(path, text)
