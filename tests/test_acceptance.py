"""The acceptance gate: every criterion at its stated scale, exact
tolerances, one printed verdict line per criterion."""

import pytest

from forestalg import (acceptance, clear_caches, lambda_alg, poset_homology,
                       skewpoly)
from forestalg.skewpoly import SkewPoly


def _report(rep):
    verdict = "PASS" if rep["pass"] else "FAIL"
    print(f"\ncriterion {rep['criterion']}: {verdict} ({rep['seconds']}s)")
    return rep["pass"]


def test_criterion_1_hilbert_series():
    rep = acceptance.criterion_1_hilbert(n_max=9)
    assert _report(rep)
    assert rep["total_dimension_9"] == 3145
    assert rep["seconds"] < 120


def test_criterion_2_euler_characteristic():
    rep = acceptance.criterion_2_euler(n_max_even=10, n_max_odd=9)
    assert _report(rep)
    assert rep["rows"][5]["value"] == -3
    assert rep["rows"][9]["value"] == -1575


def test_criterion_3_freeness_and_torsion():
    rep = acceptance.criterion_3_freeness(n_max=8)
    assert _report(rep)
    assert rep["six_index_membership"][6]["2x_in_ideal"]
    assert rep["six_index_membership"][7]["2x_in_ideal"]
    assert not rep["six_index_membership"][6]["1x_in_ideal"]


def test_criterion_3_reports_a_block_without_unit_pivots(monkeypatch):
    # doubled tri relations span the same Q space, so the (5, 2) block keeps
    # its dimension 9, but its pivots lead with 2: undecided, and failing
    real = lambda_alg._relations_cached

    def doubled(variant, labels):
        rels = real(variant, labels)
        if variant != "tri":
            return rels
        return [SkewPoly({m: 2 * c for m, c in r.terms.items()}) for r in rels]

    monkeypatch.setattr(lambda_alg, "_relations_cached", doubled)
    lambda_alg.block_dimension.cache_clear()
    try:
        assert lambda_alg.block_dimension("tri", 5, 2) == (9, False)
        rep = acceptance.criterion_3_freeness(n_max=6)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert not rep["pass"]
    assert rep["divisors"] == {3: [], 4: [], 5: [], 6: [(5, 2, None)]}
    assert lambda_alg.block_dimension("tri", 5, 2) == (9, True)


def test_criterion_3_reads_freeness_off_criterion_1s_blocks(monkeypatch):
    # one Q elimination per block serves both criteria, the quad linear
    # lattices are certified by their substitution, and Smith runs only on
    # the six-index memberships
    smith_calls = []
    for module in (acceptance, poset_homology):
        real = module.smith_divisors
        monkeypatch.setattr(
            module, "smith_divisors",
            lambda rows, module=module, real=real:
            smith_calls.append(module.__name__) or real(rows))
    assert not hasattr(skewpoly, "smith_divisors")
    assert not hasattr(lambda_alg, "smith_divisors")
    clear_caches()
    assert acceptance.criterion_1_hilbert(n_max=8)["pass"]
    after_1 = lambda_alg.block_dimension.cache_info()
    assert after_1.misses == after_1.currsize
    rep = acceptance.criterion_3_freeness(n_max=8)
    assert rep["pass"]
    assert rep["divisors"] == {n: [] for n in range(3, 9)}
    after_3 = lambda_alg.block_dimension.cache_info()
    assert after_3.misses == after_1.misses
    assert after_3.hits > after_1.hits
    quad_lattices = lambda_alg._quad_linear_data.cache_info()
    assert quad_lattices.currsize == quad_lattices.misses == 6
    assert smith_calls == ["forestalg.acceptance"] * 4  # n = 6, 7, twice


def test_criterion_3_lists_an_uncertified_linear_lattice(monkeypatch):
    real = lambda_alg._quad_linear_data
    monkeypatch.setattr(lambda_alg, "_quad_linear_data",
                        lambda n: (real(n)[0], n != 5))
    try:
        rep = acceptance.criterion_3_freeness(n_max=6)
    finally:
        monkeypatch.undo()
    assert not rep["pass"]
    assert rep["divisors"] == {3: [], 4: [], 5: [("quad-linear", None)], 6: []}


def test_criterion_4_basic_forest_basis():
    rep = acceptance.criterion_4_basis(n_max=9, pairing_max=8)
    assert _report(rep)
    assert rep["all_degree2_reductions_terminate"]
    assert all(rep["pairing_triangular"].values())


def test_criterion_5_poset_homology():
    rep = acceptance.criterion_5_poset(n_max=9)
    assert _report(rep)
    assert rep["ranks"][9] == 11025
    assert rep["seconds"] < 300


def test_criterion_6_whitney_exactness():
    rep = acceptance.criterion_6_whitney(n_max=8)
    assert _report(rep)
    assert rep["rows"][8]["dims"] == {0: 1, 1: 56, 2: 784, 3: 2304, 4: 1575}


def test_criterion_7_keel_counting():
    rep = acceptance.criterion_7_keel_count(n_max=9, funceq_order=10)
    assert _report(rep)
    assert rep["m5_betti"]


def test_criterion_8_bockstein():
    rep = acceptance.criterion_8_bockstein(n_max=7, twisted_max=6)
    assert _report(rep)
    assert all(rep["beta_squared_zero"].values())
    assert rep["derivation_on_random_pairs"]


def test_criterion_9_operad():
    rep = acceptance.criterion_9_operad(trials=100, seed=2026)
    assert _report(rep)
    assert rep["jacobi"]["rank"] == 9


def test_criterion_10_quadratic_dual():
    rep = acceptance.criterion_10_dual(n_max=9, span_max=7)
    assert _report(rep)
    assert rep["seconds"] < 600
