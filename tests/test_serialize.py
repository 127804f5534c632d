"""Tests for the dict form of the report dataclasses, against `dataclasses.asdict`."""

import dataclasses
import json

import pytest

from pooltest import (
    DecoderId,
    Prior,
    TestDesign,
    epsilon_bound,
    gen_doubly_regular,
    mean_log_bound,
    monte_carlo_error,
    new_design,
    reduce_design,
    to_dict,
    verify_theorem,
)

import helpers

# items 0-26 share one test, so each has 26 co-items, over the exact budget
WIDE = new_design([set(range(27)), {27, 28}, {28, 29}], 30)


def reports():
    """One report of each kind, with nested dataclasses, None fields and infinities."""
    prior = Prior(0.3)
    small = gen_doubly_regular(12, 2, 4, seed=1)
    _, log = reduce_design(new_design([{0}, {0, 1}, {1, 2, 3}, set()], 4))
    return [
        ("sim", monte_carlo_error(small, prior, DecoderId.DD, 500, 3)),
        ("verify exact", verify_theorem(small, prior)),
        ("verify skipped", verify_theorem(WIDE, prior, trials=64)),
        ("disguise exact", mean_log_bound(small, prior, exact_budget=25)),
        ("disguise skipped", mean_log_bound(WIDE, prior, exact_budget=25)),
        ("disguise no tests", mean_log_bound(new_design([], 3), prior, 25)),
        ("disguise weight 1", mean_log_bound(new_design([{0}], 2), prior, 25)),
        ("bound", epsilon_bound(prior)),
        ("bound delta", dataclasses.replace(
            epsilon_bound(prior), delta=0.1, epsilon_delta=0.02, counting_bound=8.8)),
        ("reduction", log),
    ]


REPORTS = reports()


@pytest.mark.parametrize("name, report", REPORTS, ids=[r[0] for r in REPORTS])
def test_matches_asdict_and_round_trips(name, report):
    data = to_dict(report)
    expected = helpers.to_dict_reference(report)
    assert data == expected
    assert json.dumps(data) == json.dumps(expected)
    assert json.loads(json.dumps(data)) == helpers.json_reference(report)


def test_reports_cover_nested_and_none_fields():
    by_name = {name: to_dict(report) for name, report in REPORTS}
    assert by_name["sim"]["decoder"] == "dd"
    assert by_name["verify exact"]["lemma_checks"] and not by_name["verify exact"]["lemma_skipped"]
    assert by_name["verify skipped"]["lemma_skipped"] == tuple(range(27))
    assert by_name["disguise skipped"]["items"][0]["exact_prob"] is None
    assert by_name["disguise no tests"]["min_weight_term"] is None
    assert by_name["disguise weight 1"]["items"][0]["log_bound"] == float("-inf")
    assert by_name["reduction"]["resolved_items"]


def test_design_matches_asdict_without_incidence():
    for d in (gen_doubly_regular(144, 2, 9, seed=1), TestDesign(n=0, row_masks=()), WIDE):
        d.incidence  # built and cached, yet no field
        data = to_dict(d)
        assert data == helpers.to_dict_reference(d)
        assert json.dumps(data) == json.dumps(helpers.to_dict_reference(d))
        assert list(data) == ["n", "row_masks", "weights"]
