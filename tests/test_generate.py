from __future__ import annotations

import itertools

import pytest

import sl3web.generate as generate_module
from sl3web.catalog import FLOWER_SIGNS, arc, digon_arc, flower, tripod
from sl3web.errors import SizeGuardError, TheoremViolationError
from sl3web.generate import (
    _dominant_paths,
    _grow,
    canonical_form,
    generate_all_non_elliptic,
    generate_closed,
    generate_non_elliptic,
    inflate_edge,
    invariant_dimension,
)
from sl3web.web import is_admissible_sequence, is_non_elliptic, validate

import search_oracle


def reference_dimension(signs) -> int:
    """Independent count of webs over the signs: walk the dominance
    lattice adding one box for '+' and two for '-', drop full columns,
    and read off the multiplicity of the trivial weight."""
    state = {(0, 0, 0): 1}
    for s in signs:
        nxt = {}
        moves = [(0,), (1,), (2,)] if s == "+" else [(0, 1), (0, 2), (1, 2)]
        for lam, mult in state.items():
            for rows in moves:
                mu = list(lam)
                for r in rows:
                    mu[r] += 1
                if mu[0] >= mu[1] >= mu[2]:
                    mu = tuple(x - mu[2] for x in mu)
                    nxt[mu] = nxt.get(mu, 0) + mult
        state = nxt
    return state.get((0, 0, 0), 0)


def test_base_cases():
    assert generate_non_elliptic((), 0) != []
    ws = generate_non_elliptic(("+", "-"), 4)
    assert len(ws) == 1
    assert canonical_form(ws[0]) == canonical_form(arc())
    ws = generate_non_elliptic(("+", "+", "+"), 4)
    assert len(ws) == 1
    assert canonical_form(ws[0]) == canonical_form(tripod())


def test_inadmissible_signs_give_nothing():
    assert generate_non_elliptic(("+", "+"), 8) == []
    assert invariant_dimension(("+", "+")) == 0


def test_zero_budget_yields_arcs_only():
    ws = generate_non_elliptic(("+", "-", "-", "+"), 0)
    assert len(ws) == 1
    assert ws[0].vertex_count == 0


def test_counts_match_reference_dimension():
    for n in range(7):
        for signs in itertools.product("+-", repeat=n):
            if not is_admissible_sequence(signs):
                continue
            webs = generate_all_non_elliptic(signs)
            assert len(webs) == reference_dimension(signs), signs
            assert invariant_dimension(signs) == reference_dimension(signs)


def test_outputs_are_valid_non_elliptic_and_distinct():
    for signs in [tuple("+-+-"), tuple("++-+--"), tuple("+++---")]:
        webs = generate_all_non_elliptic(signs)
        keys = set()
        for w in webs:
            assert validate(w) == []
            assert w.signs == signs
            assert w.circles == 0
            assert is_non_elliptic(w)
            keys.add(canonical_form(w))
        assert len(keys) == len(webs)


def test_generation_is_deterministic():
    a = generate_all_non_elliptic(tuple("++-+--"))
    b = generate_all_non_elliptic(tuple("++-+--"))
    assert [canonical_form(w) for w in a] == [canonical_form(w) for w in b]


def test_canonical_form_ignores_labels():
    w = arc()
    relabeled = type(w)(
        tuple((h + 50, s) for h, s in w.boundary),
        w.vertices,
        tuple((t + 50, h + 50) for t, h in w.edges),
        w.circles,
    )
    assert validate(relabeled) == []
    assert canonical_form(relabeled) == canonical_form(w)


def test_canonical_form_separates_different_webs():
    keys = {canonical_form(w) for w in (arc(), tripod(), digon_arc(), flower())}
    assert len(keys) == 4


def test_inflate_edge():
    w = inflate_edge(arc(), 0)
    assert validate(w) == []
    assert w.vertex_count == 2
    assert canonical_form(w) == canonical_form(digon_arc())


def test_generate_closed_deterministic_and_valid():
    a = generate_closed(15, seed=3)
    b = generate_closed(15, seed=3)
    assert [canonical_form(w) for w in a] == [canonical_form(w) for w in b]
    for w in a:
        assert validate(w) == []
        assert not w.boundary
        assert w.vertex_count <= 20


def test_generate_closed_varies_with_seed():
    a = generate_closed(15, seed=3)
    c = generate_closed(15, seed=4)
    assert [canonical_form(w) for w in a] != [canonical_form(w) for w in c]


@pytest.mark.slow
def test_flower_is_found_by_growth():
    webs = generate_non_elliptic(FLOWER_SIGNS, 24)
    assert len(webs) == invariant_dimension(FLOWER_SIGNS) == 513
    target = canonical_form(flower())
    assert any(canonical_form(w) == target for w in webs)


def _admissible(n):
    return [s for s in itertools.product("+-", repeat=n) if is_admissible_sequence(s)]


def test_growth_matches_search_oracle():
    # the search generator this growth replaced, on every string up to length 8
    for n in range(9):
        for signs in _admissible(n):
            grown = [canonical_form(w) for w in generate_all_non_elliptic(signs)]
            found = [canonical_form(w) for w in search_oracle.generate_all_non_elliptic(signs)]
            assert grown == found, signs


def test_length_nine_is_a_basis():
    for signs in _admissible(9):
        webs = generate_all_non_elliptic(signs)
        assert len(webs) == invariant_dimension(signs), signs
        assert len({canonical_form(w) for w in webs}) == len(webs), signs
        for w in webs:
            assert validate(w) == []
            assert is_non_elliptic(w)


def test_max_vertices_filters_the_full_list():
    full = generate_all_non_elliptic(FLOWER_SIGNS)
    for k in (0, 6, 12, 24):
        kept = [canonical_form(w) for w in full if w.vertex_count <= k]
        assert [canonical_form(w) for w in generate_non_elliptic(FLOWER_SIGNS, k)] == kept


def test_dominant_paths_count_the_invariant_dimension():
    for n in range(11):
        for signs in _admissible(n):
            paths = list(_dominant_paths(signs))
            assert len(set(paths)) == len(paths) == invariant_dimension(signs), signs


def test_generation_is_capped_by_the_invariant_dimension(monkeypatch):
    # one dimension count per call serves both the cap and the basis check
    counted = []
    original = generate_module.invariant_dimension

    def counting(signs):
        counted.append(signs)
        return original(signs)

    monkeypatch.setattr(generate_module, "invariant_dimension", counting)
    assert len(generate_all_non_elliptic("+-+-+-")) == 6
    assert len(counted) == 1
    monkeypatch.setattr(generate_module, "MAX_WEBS", 5)
    with pytest.raises(SizeGuardError, match="capped at 5"):
        generate_non_elliptic("+-+-+-", 0)
    with pytest.raises(SizeGuardError):
        generate_all_non_elliptic("+-+-+-")


def test_basis_check_compares_every_grown_web(monkeypatch):
    # the count is checked before the vertex bound filters
    monkeypatch.setattr(generate_module, "invariant_dimension", lambda signs: 7)
    with pytest.raises(TheoremViolationError, match="dimension 7"):
        generate_non_elliptic("+-+-+-", 0)


def test_stuck_growth_is_a_theorem_violation():
    # states (-1, 1) never close off: no pair has a larger left state
    with pytest.raises(TheoremViolationError):
        _grow(("+", "-"), (-1, 1))
