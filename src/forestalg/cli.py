"""Command-line front end: every verification as a subcommand with
machine-readable output.

Exit codes: 0 all asserted invariants hold, 1 an invariant failed, 2 usage
error, 3 resources exhausted (a MemoryError or RecursionError: the size is
beyond this process, which proves nothing about the invariants).  Identical
configuration produces byte-identical JSON.  Elements are entered as JSON
term lists; no parser beyond JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance, forests, keel, lambda_alg, operad, poset_homology
from . import quadratic_dual, series
from .rings import QQ
from .skewpoly import poly_from_json_terms


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":"),
                          default=str)
    elif args.format == "pretty":
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    else:  # csv: flatten one level
        lines = []
        for key in sorted(report, key=str):
            value = report[key]
            if isinstance(value, dict):
                for k2 in sorted(value, key=str):
                    lines.append(f"{key}.{k2},{value[k2]}")
            else:
                lines.append(f"{key},{value}")
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        print(text)


def _at_least(value: int, lo: int, name: str = "--n") -> int:
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return value


def _parse_range(spec: str, lo: int) -> list[int]:
    """The values of ``n`` or of the inclusive range ``a-b``, all >= lo."""
    a, sep, b = spec.partition("-")
    try:
        first = int(a)
        last = int(b) if sep else first
    except ValueError:
        raise ValueError(f"--n must be an integer >= {lo} or a range a-b, "
                         f"got {spec!r}") from None
    if last < first:
        raise ValueError(f"--n range {spec!r} is empty")
    _at_least(first, lo)
    return list(range(first, last + 1))


def cmd_hilbert(args) -> int:
    _at_least(args.n, 1)
    pres = lambda_alg.Presentation(args.variant, range(1, args.n)
                                   if args.variant != "quad"
                                   else range(1, args.n + 1))
    dims = lambda_alg.hilbert_polynomial(pres)
    formula = series.odd_square_product_poly(args.n - 1)
    want = [formula.get(d, 0) for d in range(max(formula) + 1)]
    report = {"n": args.n, "variant": args.variant, "poincare": dims,
              "formula": want, "match": dims == want}
    _emit(report, args)
    return 0 if report["match"] else 1


def cmd_basis(args) -> int:
    _at_least(args.n, 1)
    if args.degree is not None:
        _at_least(args.degree, 0, "--degree")
    labels = tuple(range(1, args.n))
    pres = lambda_alg.Presentation("tri", labels)
    dims = lambda_alg.hilbert_polynomial(pres)
    degrees = [args.degree] if args.degree is not None else list(range(len(dims)))
    table = {}
    ok = True
    for d in degrees:
        cnt = forests.count_basic_forests(labels, d)
        dim = dims[d] if d < len(dims) else 0
        table[d] = {"basic_forests": cnt, "quotient_dimension": dim}
        ok = ok and cnt == dim
    report = {"n": args.n, "degrees": table, "certified": ok}
    if args.partitions:
        tw = lambda_alg.Presentation("twisted", labels)
        pdims = lambda_alg.partition_component_dims(tw)
        report["partition_dimensions"] = {
            "|".join("".join(map(str, p)) for p in part): info["dimension"]
            for part, info in sorted(pdims.items())}
    _emit(report, args)
    return 0 if ok else 1


def cmd_reduce(args) -> int:
    _at_least(args.n, 1)
    labels = tuple(range(1, args.n))
    pres = lambda_alg.Presentation(args.variant, labels)
    data = json.loads(args.element)
    x = poly_from_json_terms(QQ, pres.universe, data)
    nf = lambda_alg.forest_normal_form(x, pres)
    terms = []
    for g in sorted(nf, key=lambda g: g.sorted_edges):
        c = nf[g]
        terms.append({"monomial": [list(e) for e in g.sorted_edges],
                      "numerator": c.numerator, "denominator": c.denominator})
    _emit({"n": args.n, "variant": args.variant, "normal_form": terms}, args)
    return 0


def _map_ns(fn, ns: list[int], jobs: int) -> list:
    """Run an independent per-n computation, in processes when jobs > 1.

    Results come back in input order either way, so reports stay
    byte-identical across parallelism settings.
    """
    if jobs > 1 and len(ns) > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, ns))
    return [fn(n) for n in ns]


def _poset_row(n: int) -> dict:
    rep = poset_homology.egf_rank_row(n)
    return {"degree": rep["degree"], "rank": rep["rank"],
            "torsion": rep["torsion"], "ok": rep["ok"]}


def cmd_poset_homology(args) -> int:
    ns = _parse_range(args.n, 2)
    rows = dict(zip(ns, _map_ns(_poset_row, ns, args.jobs)))
    ok = all(r["ok"] for r in rows.values())
    report = rows[ns[0]] if "-" not in args.n else rows
    _emit(report, args)
    return 0 if ok else 1


def _whitney_row(n: int) -> dict:
    w = poset_homology.whitney_homology(n)
    return {"dims": w["dims"], "exact": w["exact"]}


def cmd_whitney(args) -> int:
    ns = _parse_range(args.n, 2)
    rows = dict(zip(ns, _map_ns(_whitney_row, ns, args.jobs)))
    ok = all(r["exact"] for r in rows.values())
    _emit(rows[ns[0]] if "-" not in args.n else rows, args)
    return 0 if ok else 1


def cmd_egf(args) -> int:
    # verify_arcsin_ode compares coefficients through order - 2
    order = _at_least(args.order, 2, "--order")
    P = series.basic_forest_egf(order)
    from math import factorial
    table = {}
    ok = True
    for n in range(order + 1):
        row = {j: int(c * factorial(n)) for j, c in P.u_coefficient(n).items()}
        formula = series.odd_square_product_poly(n)
        match = row == {d: c for d, c in formula.items() if c}
        table[n] = {"coefficients": dict(sorted(row.items())), "match": match}
        ok = ok and match
    arc = series.verify_arcsin_ode(order)
    report = {"order": order, "arcsin_ode": arc, "rows": table,
              "series": series.arcsin_series(order).to_json_terms()}
    ok = ok and arc
    _emit(report, args)
    return 0 if ok else 1


def cmd_keel_count(args) -> int:
    # verify_functional_equation_B checks nothing below order 2
    _at_least(args.order, 2, "--order")
    ok = True
    rows = {}
    for n in _parse_range(args.n, 2):
        rep = keel.canonical_count_report(n)
        rows[n] = rep
        ok = ok and rep["match"]
    funceq = series.verify_functional_equation_B(args.order)
    ok = ok and funceq
    _emit({"rows": rows, "functional_equation_zero": funceq}, args)
    return 0 if ok else 1


def cmd_bockstein(args) -> int:
    # the twisted differential runs on the full canonical basis of a KeelRing
    _at_least(args.n, 2 if args.twisted else 0)
    got = keel.bockstein_cohomology(args.n, twisted=args.twisted)
    report = {"n": args.n, "twisted": args.twisted,
              "dims": dict(sorted(got.items()))}
    if not args.twisted:
        report["connected_blocks"] = {
            m: dict(keel.hbeta_connected_block(m)) for m in range(3, args.n + 1)}
        formula = series.odd_square_product_poly(args.n)
        report["expected"] = {d: c for d, c in sorted(formula.items()) if c}
        report["match"] = got == report["expected"]
    _emit(report, args)
    return 0 if report.get("match", True) else 1


def cmd_bound(args) -> int:
    _at_least(args.n, 0)
    rep = keel.betti_upper_bound(args.n)
    _emit(rep, args)
    return 0 if rep["equal"] else 1


def cmd_pairing(args) -> int:
    _at_least(args.n, 1)
    rep = operad.triangular_pairing_certificate(args.n)
    _emit(rep, args)
    return 0 if rep["triangular"] else 1


def cmd_cooperad_check(args) -> int:
    import random
    _at_least(args.trials, 0, "--trials")
    rng = random.Random(args.seed)
    ok = all([operad.coassociativity_check(*operad.random_composable_pair(rng))
              for _ in range(args.trials)])
    rel = all(operad.relations_map_to_relations(
        operad.FiniteMap.make({i + 1: 100 + (i % 2) + 1 for i in range(5)},
                              (101, 102)), flavor)
        for flavor in ("quad", "tri"))
    report = {"trials": args.trials, "coassociativity_all": ok,
              "relation_preservation": rel, "seed": args.seed}
    _emit(report, args)
    return 0 if ok and rel else 1


def cmd_jacobi(args) -> int:
    rep = operad.jacobi_10term_check()
    out = {"rank": rep["rank"],
           "alternating_sum": "zero" if rep["alternating_sum_zero"] else "nonzero",
           "kernel_dim": rep["kernel_dim"],
           "kernel_vector_in_span": rep["kernel_vector_in_span"]}
    _emit(out, args)
    good = (rep["rank"] == 9 and rep["alternating_sum_zero"]
            and rep["kernel_dim"] == 1)
    return 0 if good else 1


def cmd_dual(args) -> int:
    _at_least(args.n, 1)
    _at_least(args.degree, 0, "--degree")
    rep = quadratic_dual.koszul_numerator_check(args.n, args.degree)
    if args.n <= 7:
        rep["span_match"] = quadratic_dual.dual_span_matches_explicit(args.n)
    _emit(rep, args)
    return 0 if rep["match"] and rep.get("span_match", True) else 1


def cmd_all_acceptance(args) -> int:
    results = acceptance.run_all(printer=lambda s: print(s, file=sys.stderr))
    summary = {str(k): (v["pass"] if isinstance(v, dict) else v)
               for k, v in results.items()}
    _emit(summary, args)
    return 0 if results["pass"] else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line on
    stderr and exit code 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report to a file")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallelism degree (block computations are "
                             "independent; 1 keeps everything sequential)")
    ap = _Parser(
        prog="forestalg", parents=[common],
        description="exact verifications for the forest-indexed cohomology rings")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("hilbert", help="quotient dimensions by degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("quad", "tri"), default="tri")
    p.set_defaults(fn=cmd_hilbert)

    p = add("basis", help="basic forest counts vs dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--partitions", action="store_true",
                   help="include the partition-graded dimension table")
    p.set_defaults(fn=cmd_basis)

    p = add("reduce", help="normal form of a JSON term list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("tri", "twisted"), default="tri")
    p.add_argument("--element", required=True,
                   help='JSON like [{"monomial": [[1,2,3],[1,4,5]], "numerator": 1}]')
    p.set_defaults(fn=cmd_reduce)

    p = add("poset-homology", help="odd-partition poset homology")
    p.add_argument("--n", required=True, help="n or lo-hi range")
    p.set_defaults(fn=cmd_poset_homology)

    p = add("whitney", help="Whitney exactness certificate")
    p.add_argument("--n", required=True, help="n or lo-hi range")
    p.set_defaults(fn=cmd_whitney)

    p = add("egf", help="generating-function cross-checks")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=cmd_egf)

    p = add("keel-count", help="canonical monomials vs the ODE")
    p.add_argument("--n", required=True, help="n or lo-hi range")
    p.add_argument("--order", type=int, default=10,
                   help="functional equation check order")
    p.set_defaults(fn=cmd_keel_count)

    p = add("bockstein", help="Bockstein cohomology dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twisted", action="store_true")
    p.set_defaults(fn=cmd_bockstein)

    p = add("bound", help="certified Betti upper bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_bound)

    p = add("pairing", help="triangular pairing certificate")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_pairing)

    p = add("cooperad-check", help="coassociativity trials")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(fn=cmd_cooperad_check)

    p = add("jacobi", help="the 10-term identity report")
    p.set_defaults(fn=cmd_jacobi)

    p = add("dual", help="quadratic dual dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(fn=cmd_dual)

    p = add("all-acceptance", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_all_acceptance)
    return ap


def _env_jobs() -> int:
    value = os.environ.get("FORESTALG_JOBS", "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"FORESTALG_JOBS must be an integer, "
                         f"got {value!r}") from None


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # shared flags use suppressed defaults so they work on either side of the
    # subcommand; fill the fallbacks here
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "out"):
        args.out = None
    try:
        if not hasattr(args, "jobs"):
            args.jobs = _env_jobs()
        return args.fn(args)
    # checked first: a RecursionError is also a RuntimeError
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: resource exhausted: {type(exc).__name__}{detail}",
              file=sys.stderr)
        return 3
    # an OverflowError (a size too large to index) is not an invariant
    except (ValueError, KeyError, json.JSONDecodeError, RuntimeError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
