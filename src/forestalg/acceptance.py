"""The acceptance suite: one callable per criterion, each returning a report
dict with a boolean "pass".  The CLI's all-acceptance subcommand and the test
suite both run these; everything is exact, so "pass" means exact equality.
"""

from __future__ import annotations

import time
from itertools import combinations

from . import forests, keel, lambda_alg, operad, poset_homology, quadratic_dual
from .linalg import BitEchelon, smith_divisors
from .series import (keel_betti_polynomial, odd_square_product_poly,
                     verify_functional_equation_B)
from .skewpoly import SkewPoly, slice_rows


def _timed(fn):
    t0 = time.time()
    out = fn()
    out["seconds"] = round(time.time() - t0, 2)
    return out


def criterion_1_hilbert(n_max: int = 9) -> dict:
    """Quotient dimensions of both presentations match the product formula
    degreewise for 3 <= n <= n_max (with vanishing above the top degree)."""
    def run():
        rows = {}
        ok = True
        for n in range(3, n_max + 1):
            tri = lambda_alg.hilbert_polynomial(
                lambda_alg.Presentation("tri", range(1, n)))
            quad = lambda_alg.hilbert_polynomial(
                lambda_alg.Presentation("quad", range(1, n + 1)))
            formula = odd_square_product_poly(n - 1)
            want = [formula.get(d, 0) for d in range(max(formula) + 1)]
            good = tri == want and quad == want
            rows[n] = {"tri": tri, "quad": quad, "formula": want, "ok": good}
            ok = ok and good
        total9 = sum(rows[9]["tri"]) if 9 in rows else None
        return {"criterion": 1, "pass": ok and (total9 == 3145 or n_max < 9),
                "total_dimension_9": total9, "rows": rows}
    return _timed(run)


def criterion_2_euler(n_max_even: int = 10, n_max_odd: int = 9) -> dict:
    """Hilbert polynomial at t = -1: zero for even n, signed double
    factorials for odd n."""
    def run():
        ok = True
        rows = {}
        for n in range(3, max(n_max_even, n_max_odd) + 1):
            if n % 2 == 0 and n > n_max_even:
                continue
            if n % 2 == 1 and n > n_max_odd:
                continue
            formula = odd_square_product_poly(n - 1)
            value = sum(c * (-1) ** d for d, c in formula.items())
            want = lambda_alg.expected_euler_characteristic(n)
            rows[n] = {"value": value, "expected": want}
            ok = ok and value == want
        return {"criterion": 2, "pass": ok, "rows": rows}
    return _timed(run)


def _doubles_and_members(lattice: list[dict],
                         targets: list[dict]) -> tuple[bool, bool | None]:
    """(whether 2t lies in the row lattice L of ``lattice`` for every
    target t, whether some target itself lies in L), the second None when
    the certificate below does not decide it.

    - 2t: L' = L + <2t> contains L.  Equal rank and Smith divisors of L and
      L' mean L' = L: with equal rank both have the same saturation S, and
      [S : L] = [S : L'] [L' : L], where [S : L] is the product of the
      divisors of L.  Conversely L' = L has the same divisors.
    - t: when every 2t lies in L and the divisors of L are 1 or 2, S/L is
      killed by 2, so 2S lies in L, and each t lies in S (2t in S, which is
      saturated).  Then t lies in L exactly when t mod 2 lies in the F_2
      span of L mod 2: from t = l + 2w with l in L, 2w = t - l lies in S,
      so w does, and 2w lies in 2S, inside L.
    """
    rank_divisors = smith_divisors(lattice)
    doubled = rank_divisors == smith_divisors(
        lattice + [{c: 2 * v for c, v in t.items()} for t in targets])
    if not doubled or any(d > 2 for d in rank_divisors[1]):
        return doubled, None

    def bits(row: dict) -> int:
        return sum(1 << c for c, v in row.items() if v & 1)

    mod2 = BitEchelon()
    mod2.extend(bits(row) for row in lattice)
    return True, any(mod2.contains(bits(t)) for t in targets)


def criterion_3_freeness(n_max: int = 8) -> dict:
    """No nontrivial elementary divisors in the integral slices (blocked,
    plus the linear-relation lattice of the quad presentation), and 2 times
    the six-index family lies in the ideal of the other two over Z for
    n = 6, 7 while the family itself does not.  Tree blocks are free by the
    unit pivots of the Q echelon that gave their dimension
    (``block_dimension``), the linear lattice by the substitution that
    kills it (``lambda_alg._quad_linear_data``), and the memberships follow
    from the Smith divisors of the degree-2 slice and its mod-2 span
    (``_doubles_and_members``).  A block without unit pivots, or a linear
    lattice without the certificate, lists null divisors, and an undecided
    membership reads null; each fails the criterion."""
    def run():
        ok = True
        divisor_rows = {}
        for n in range(3, n_max + 1):
            labels = n - 1
            bad = []
            for s in range(3, labels + 1):
                if s % 2 == 0:
                    continue
                e = (s - 1) // 2
                if not lambda_alg.block_dimension("tri", s, e)[1]:
                    bad.append((s, e, None))
            if not lambda_alg._quad_linear_data(n)[1]:
                bad.append(("quad-linear", None))
            divisor_rows[n] = bad
            ok = ok and not bad
        membership = {}
        for n in (6, 7):
            quad = lambda_alg.Presentation("quad", range(1, n + 1))
            linear = quad.linear_relations()
            shared3 = [r for r in quad.quadratic_relations() if len(r.terms) == 1]
            six_index = [r for r in quad.quadratic_relations() if len(r.terms) > 1]
            columns, rows = slice_rows(linear + shared3, 2, quad.universe)
            col_of = {m: i for i, m in enumerate(columns)}
            doubled, plain = _doubles_and_members(
                list(rows), [{col_of[m]: c for m, c in r.terms.items()}
                             for r in six_index])
            membership[n] = {"2x_in_ideal": doubled, "1x_in_ideal": plain}
            ok = ok and doubled and plain is False
        return {"criterion": 3, "pass": ok, "divisors": divisor_rows,
                "six_index_membership": membership}
    return _timed(run)


def criterion_4_basis(n_max: int = 9, pairing_max: int = 8) -> dict:
    """Basic forest counts match quotient dimensions degreewise; every
    non-basic degree-2 monomial reduces to basic coordinates; the pairing
    matrices are unit upper triangular."""
    def run():
        ok = True
        counts = {}
        for n in range(3, n_max + 1):
            labels = tuple(range(1, n))
            good = True
            per_degree = {}
            dims = lambda_alg.hilbert_polynomial(
                lambda_alg.Presentation("tri", labels))
            for d in range(len(dims)):
                cnt = forests.count_basic_forests(labels, d)
                per_degree[d] = {"basic": cnt, "dim": dims[d]}
                good = good and cnt == dims[d]
            counts[n] = per_degree
            ok = ok and good
        reductions = True
        for n in range(4, n_max + 1):
            pres = lambda_alg.Presentation("tri", range(1, n))
            for m in combinations(range(len(pres.universe)), 2):
                try:
                    lambda_alg.forest_normal_form(SkewPoly({m: 1}), pres)
                except AssertionError:
                    reductions = False
        pairings = {}
        for n in range(5, pairing_max + 1):
            rep = operad.triangular_pairing_certificate(n)
            pairings[n] = rep["triangular"]
        ok = ok and reductions and all(pairings.values())
        return {"criterion": 4, "pass": ok, "counts_match": counts,
                "all_degree2_reductions_terminate": reductions,
                "pairing_triangular": pairings}
    return _timed(run)


def criterion_5_poset(n_max: int = 9) -> dict:
    """Poset homology torsion-free, concentrated, with the generating
    function ranks."""
    def run():
        rep = poset_homology.verify_egf_ranks(n_max)
        ok = all(v["ok"] for v in rep.values())
        frozen = {2: 1, 3: 1, 4: 3, 5: 9, 6: 45, 7: 225, 8: 1575}
        for n, want in frozen.items():
            if n <= n_max and rep[n]["rank"] != want:
                ok = False
        return {"criterion": 5, "pass": ok,
                "ranks": {n: v["rank"] for n, v in rep.items()},
                "details": rep}
    return _timed(run)


def criterion_6_whitney(n_max: int = 8) -> dict:
    """The Whitney sequence is exact over Z for n <= 8."""
    def run():
        rows = {}
        ok = True
        for n in range(2, n_max + 1):
            w = poset_homology.whitney_homology(n)
            rows[n] = {"dims": w["dims"], "exact": w["exact"]}
            ok = ok and w["exact"]
        return {"criterion": 6, "pass": ok, "rows": rows}
    return _timed(run)


def criterion_7_keel_count(n_max: int = 9, funceq_order: int = 10) -> dict:
    """Canonical monomial counts match the ODE coefficients; the functional
    equation residual vanishes; the five-point complex space has Betti
    numbers (1, 5, 1).  The counts come from the recursion on label-set
    size (the relabelling lemma in `keel`), whose oracle in the tests is
    the degree tally of the enumerated monomials."""
    def run():
        ok = True
        rows = {}
        for n in range(2, n_max + 1):
            rep = keel.canonical_count_report(n)
            rows[n] = rep["match"]
            ok = ok and rep["match"]
        funceq = verify_functional_equation_B(funceq_order)
        spot = keel_betti_polynomial(4) == {0: 1, 1: 5, 2: 1}
        ok = ok and funceq and spot
        return {"criterion": 7, "pass": ok, "counts_match": rows,
                "functional_equation_zero": funceq, "m5_betti": spot}
    return _timed(run)


def criterion_8_bockstein(n_max: int = 7, twisted_max: int = 6) -> dict:
    """beta squares to zero and is a derivation on the full basis; its
    cohomology matches the skew ring mod 2; the twisted variant matches the
    poset ranks mod 2."""
    def run():
        import random
        ok = True
        sq = {}
        for n in range(3, n_max + 1):
            ring = keel.KeelRing(n)
            basis = ring.canonical_monomials()
            good = all(not keel.beta(ring, keel.beta(ring, {m: 1}))
                       for m in basis)
            sq[n] = good
            ok = ok and good
        # derivation on random pairs (mod 2 the Koszul sign is invisible)
        rng = random.Random(2026)
        ring = keel.KeelRing(min(n_max, 6))
        basis = ring.canonical_monomials()
        der = True
        for _ in range(50):
            m1, m2 = rng.choice(basis), rng.choice(basis)
            agg = {}
            for sid, e in list(m1) + list(m2):
                agg[sid] = agg.get(sid, 0) + e
            prod = tuple(sorted(agg.items()))
            lhs = keel.beta(ring, ring.reduce({prod: 1}, mod2=True))
            rhs: dict = {}
            for part, other in ((m1, m2), (m2, m1)):
                for mm, c in keel.beta(ring, {part: 1}).items():
                    agg2 = {}
                    for sid, e in list(mm) + list(other):
                        agg2[sid] = agg2.get(sid, 0) + e
                    k = tuple(sorted(agg2.items()))
                    rhs[k] = rhs.get(k, 0) ^ 1
            rhs = ring.reduce({k: v for k, v in rhs.items() if v}, mod2=True)
            der = der and lhs == rhs
        dims = {}
        for n in range(2, n_max + 1):
            got = keel.bockstein_cohomology(n)
            formula = odd_square_product_poly(n)
            want = {d: c for d, c in formula.items() if c}
            dims[n] = got == want
            ok = ok and dims[n]
        twisted = {}
        for n in range(2, twisted_max + 1):
            got = keel.bockstein_cohomology(n, twisted=True)
            if n % 2 == 1:
                want = {}
            else:
                deg, rank = poset_homology._egf_expected(n)
                want_rank = rank
                got_rank = sum(got.values())
                twisted[n] = got_rank == want_rank
                ok = ok and twisted[n]
                continue
            twisted[n] = got == want
            ok = ok and twisted[n]
        ok = ok and der
        return {"criterion": 8, "pass": ok, "beta_squared_zero": sq,
                "derivation_on_random_pairs": der,
                "dims_match_mod2": dims, "twisted_match": twisted}
    return _timed(run)


def criterion_9_operad(trials: int = 100, seed: int = 2026) -> dict:
    """Coassociativity across random composable pairs, relation preservation
    under the coproduct, and the 10-term matrix facts."""
    def run():
        import random
        rng = random.Random(seed)
        ok_co = True
        for _ in range(trials):
            if not operad.coassociativity_check(
                    *operad.random_composable_pair(rng)):
                ok_co = False
        ok_rel = True
        for _ in range(12):
            ns = rng.randint(4, 6)
            nt = rng.randint(1, 3)
            fmap = {i + 1: 100 + rng.randint(1, nt) for i in range(ns)}
            tgt = tuple(100 + i for i in range(1, nt + 1))
            f = operad.FiniteMap.make(fmap, tgt)
            ok_rel = ok_rel and operad.relations_map_to_relations(f, "quad")
            ok_rel = ok_rel and operad.relations_map_to_relations(f, "tri")
        jac = operad.jacobi_10term_check()
        ok = (ok_co and ok_rel and jac["rank"] == 9
              and jac["alternating_sum_zero"] and jac["kernel_dim"] == 1
              and jac["kernel_vector_in_span"])
        return {"criterion": 9, "pass": ok, "coassociativity": ok_co,
                "relation_preservation": ok_rel, "jacobi": jac}
    return _timed(run)


def criterion_10_dual(n_max: int = 9, span_max: int = 7) -> dict:
    """Dual relation span equals the commutator families (n <= span_max);
    dual dimensions match the inverse Hilbert series through degree 3."""
    def run():
        ok = True
        span = {}
        for n in range(4, span_max + 1):
            span[n] = quadratic_dual.dual_span_matches_explicit(n)
            ok = ok and span[n]
        dims = {}
        for n in range(4, n_max + 1):
            rep = quadratic_dual.koszul_numerator_check(n, 3)
            dims[n] = rep["match"]
            ok = ok and rep["match"]
        return {"criterion": 10, "pass": ok, "span_match": span,
                "inverse_hilbert_match": dims}
    return _timed(run)


ALL_CRITERIA = [
    criterion_1_hilbert, criterion_2_euler, criterion_3_freeness,
    criterion_4_basis, criterion_5_poset, criterion_6_whitney,
    criterion_7_keel_count, criterion_8_bockstein, criterion_9_operad,
    criterion_10_dual,
]


def run_all(printer=None) -> dict:
    results = {}
    for fn in ALL_CRITERIA:
        rep = fn()
        results[rep["criterion"]] = rep
        if printer is not None:
            verdict = "PASS" if rep["pass"] else "FAIL"
            printer(f"criterion {rep['criterion']:2d}: {verdict} "
                    f"({rep['seconds']}s)")
    results["pass"] = all(r["pass"] for r in results.values()
                          if isinstance(r, dict))
    return results
