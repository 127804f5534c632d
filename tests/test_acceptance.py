"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Expected values marked as derived are recomputed here from independent oracles
(exhaustive scans, full enumerations) rather than trusted from the library.
"""

import json
import math

import numpy as np
import pytest

from pooltest import (
    DecoderId,
    Prior,
    epsilon_bound,
    exact_average_error,
    gen_bernoulli,
    gen_doubly_regular,
    gen_individual,
    mean_log_bound,
    monte_carlo_error,
    new_design,
    reduce_design,
    sim,
)
from pooltest.cli import run

import helpers

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def scan_oracle():
    """Exhaustive w = 2..10^4 scan, independent of the certified implementation."""
    return {p: helpers.scan_l_star(p, 10**4) for p in (0.1, 0.3, 0.5)}


def _bound_json(p: float, capsys) -> dict:
    assert run(["bound", "-p", str(p), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_bound_values(scan_oracle, capsys):
    half = _bound_json(0.5, capsys)
    three = _bound_json(0.3, capsys)
    tenth = _bound_json(0.1, capsys)
    ok = (
        abs(half["epsilon"] - 0.125) <= 1e-9
        and half["w_star"] == 2
        and abs(three["epsilon"] - 0.027) <= 1e-9
        and abs(tenth["l_star"] - (-5.3569)) <= 1e-3
        and tenth["w_star"] == 6
    )
    # every reported minimum must match the independent exhaustive scan
    for p, data in ((0.5, half), (0.3, three), (0.1, tenth)):
        value, w = scan_oracle[p]
        ok = ok and abs(data["l_star"] - value) <= 1e-12 and data["w_star"] == w
        ok = ok and abs(data["epsilon"] - min(p, 1 - p) * math.exp(value)) <= 1e-12
    with capsys.disabled():
        report("criterion 1 (bound values)", ok)


def test_criterion_2_lemma_suite(capsys):
    rng = np.random.default_rng(2024)
    worst_gap = math.inf
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        T = int(rng.integers(1, 13))
        design = helpers.random_min2_design(rng, n, T)
        for p in P_GRID:
            # one pass per design gives every item's product bound and exact
            # probability; at most 11 co-items each, so every item is counted
            for item in mean_log_bound(design, Prior(p), exact_budget=25).items:
                exact, bound = item.exact_prob, item.fkg_bound
                worst_gap = min(worst_gap, exact - bound)
                ok = ok and exact >= bound - 1e-12

    # independence family: disjoint co-item groups make the bound exact
    equality_ok = True
    for weights in ([2], [2, 3], [3, 3, 2], [2, 2, 2, 4]):
        rows = []
        next_item = 1
        for w in weights:
            rows.append({0, *range(next_item, next_item + w - 1)})
            next_item += w - 1
        design = new_design(rows, next_item)
        for p in P_GRID:
            item = mean_log_bound(design, Prior(p), exact_budget=25).items[0]
            exact, bound = item.exact_prob, item.fkg_bound
            equality_ok = equality_ok and math.isclose(
                exact, bound, rel_tol=1e-10, abs_tol=1e-12
            )
    with capsys.disabled():
        report(
            "criterion 2 (disguise bound suite)",
            ok and equality_ok,
            f"worst exact-bound gap {worst_gap:.3e}",
        )


def test_criterion_3_floor_exhaustive(capsys):
    ok = True
    worst_margin = math.inf
    for p in P_GRID:
        prior = Prior(p)
        floor = epsilon_bound(prior).epsilon
        for n, t_range in ((3, (1, 2)), (4, (1, 2, 3))):
            for T in t_range:
                for design in helpers.all_designs(n, T):
                    err = exact_average_error(design, prior, DecoderId.MAP)
                    worst_margin = min(worst_margin, err - floor)
                    ok = ok and err >= floor - 1e-12
    with capsys.disabled():
        report(
            "criterion 3 (floor, exhaustive small designs)",
            ok,
            f"worst error-floor margin {worst_margin:.3e}",
        )


def test_criterion_4_floor_random(capsys):
    ok = True
    worst_margin = math.inf
    for seed in range(200):
        design = gen_bernoulli(10, 9, 0.3, seed=seed)
        for p in (0.3, 0.5):
            prior = Prior(p)
            floor = epsilon_bound(prior).epsilon
            err = exact_average_error(design, prior, DecoderId.MAP)
            worst_margin = min(worst_margin, err - floor)
            ok = ok and err >= floor - 1e-12
    with capsys.disabled():
        report(
            "criterion 4 (floor, random 9x10 designs)",
            ok,
            f"worst margin {worst_margin:.3e}",
        )


def test_criterion_5_individual_testing_baseline(capsys):
    ok = True
    for n in range(1, 15):
        design = gen_individual(n)
        for p in P_GRID:
            ok = ok and exact_average_error(design, Prior(p), DecoderId.MAP) == 0.0
    mc = monte_carlo_error(gen_individual(10), Prior(0.3), DecoderId.MAP, 10_000, 1)
    ok = ok and mc.estimate == 0.0 and mc.ci_low == 0.0
    with capsys.disabled():
        report("criterion 5 (individual testing is error-free)", ok)


def test_criterion_6_doubly_regular_floor(capsys):
    prior = Prior(0.3)
    derived = (1 - 0.7**3) ** 2
    ok = True
    details = []
    independent = 0
    for n in (16, 32, 64):
        design = gen_doubly_regular(n, 2, 4, seed=100 + n)
        items = mean_log_bound(design, prior, exact_budget=25).items
        # every item's product bound is the doubly regular floor (1 - q^3)^2
        ok = ok and all(abs(item.fkg_bound - derived) <= 1e-12 for item in items)
        floor, exact = items[0].fkg_bound, items[0].exact_prob
        ok = ok and exact >= floor - sim.FLOOR_TOLERANCE
        # When item 0's two tests share no co-item, their disguise events are
        # independent and the floor holds with equality.
        first, second = [m for m in design.row_masks if m & 1]
        if first & second == 1:
            ok = ok and abs(exact - derived) <= sim.FLOOR_TOLERANCE
            independent += 1
        details.append(f"n={n}:{exact:.6f}")
    ok = ok and independent == 2  # at these seeds only n = 16 has overlapping tests
    with capsys.disabled():
        report(
            "criterion 6 (doubly regular designs keep a disguise floor)",
            ok,
            ", ".join(details),
        )


def test_criterion_7_figure_curve(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    assert run(["figure", "--p-min", "0.05", "--p-max", "0.95", "--steps", "19",
                "-o", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().strip().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    ok = header == "p,L_star,w_star,epsilon" and len(rows) == 19
    half_rows = [r for r in rows if abs(float(r[0]) - 0.5) < 1e-9]
    ok = ok and len(half_rows) == 1 and abs(float(half_rows[0][3]) - 0.125) <= 1e-9
    for r in rows:
        p, eps = float(r[0]), float(r[3])
        ok = ok and eps > 0.0
        if p <= 0.1 + 1e-12:
            ok = ok and eps < 1e-3
    with capsys.disabled():
        report("criterion 7 (floor curve shape)", ok)


def test_criterion_8_map_optimality(capsys):
    ok = True
    for p in (0.3, 0.5):
        prior = Prior(p)
        for n in (1, 2, 3):
            for T in (0, 1, 2):
                for design in helpers.all_designs(n, T):
                    map_err = exact_average_error(design, prior, DecoderId.MAP)
                    comp_err = exact_average_error(design, prior, DecoderId.COMP)
                    dd_err = exact_average_error(design, prior, DecoderId.DD)
                    best = helpers.brute_force_optimal_error(design, p)
                    ok = (
                        ok
                        and map_err <= comp_err + 1e-12
                        and map_err <= dd_err + 1e-12
                        and abs(map_err - best) <= 1e-12
                    )
    with capsys.disabled():
        report("criterion 8 (MAP is per-outcome optimal)", ok)


def test_criterion_9_mc_calibration(capsys):
    design = new_design([{0, 1}], 2)
    prior = Prior(0.3)
    exact = exact_average_error(design, prior, DecoderId.MAP)
    covered = 0
    for seed in range(100):
        result = monte_carlo_error(design, prior, DecoderId.MAP, 10_000, seed)
        if result.ci_low <= exact <= result.ci_high:
            covered += 1
    deterministic = True
    for workers in (1, 2, 8):
        a = monte_carlo_error(design, prior, DecoderId.MAP, 10_000, 7, workers)
        b = monte_carlo_error(design, prior, DecoderId.MAP, 10_000, 7, workers)
        deterministic = deterministic and a == b
    ok = abs(exact - 0.30) <= 1e-12 and covered >= 90 and deterministic
    with capsys.disabled():
        report(
            "criterion 9 (Monte Carlo calibration)",
            ok,
            f"coverage {covered}/100",
        )


def test_criterion_10_reduction_suite(capsys):
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        T = int(rng.integers(1, 7))
        base = helpers.random_messy_design(rng, n, T)
        rows = [{i for i in range(n) if m >> i & 1} for m in base.row_masks]
        rows.append(set())  # injected weight-0 test
        rows.append({int(rng.integers(0, n))})  # injected weight-1 test
        design = new_design(rows, n)
        reduced, _ = reduce_design(design)
        ok = ok and all(w >= 2 for w in reduced.weights)
        again, _ = reduce_design(reduced)
        ok = ok and again == reduced
        prior = Prior(0.3)
        original_err = exact_average_error(design, prior, DecoderId.MAP)
        reduced_err = exact_average_error(reduced, prior, DecoderId.MAP)
        ok = ok and reduced_err <= original_err + 1e-12
    with capsys.disabled():
        report("criterion 10 (reduction suite)", ok)
