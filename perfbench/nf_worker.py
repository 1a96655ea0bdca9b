"""Normal-form query worker: one process, one closed-loop client.

Usage (started by run.py):
  python3 perfbench/nf_worker.py --labels 7 --degrees 2,3 --seed 1
      [--seconds 25 --batch 200 | --queries 2000] [--setup-only] [--trace]
      [--ref-script perfbench/ref_work.py]

Set-up builds the certified basic-forest bases of the tri presentation on
labels 1..L for the given degrees, then prints ``ready``.  The client then
sends seeded random homogeneous elements, as JSON term lists parsed with
``poly_from_json_terms``, to ``forest_normal_form``; each is sent after the
previous one returns.  With ``--seconds`` it runs whole batches until the
time is up; with ``--queries`` it runs exactly that many.  After each timed
batch, outside its timing, every query that raised counts as failed, and the
answers of the first batch and every fourth answer after it are checked
independently: each key must be a basic forest and x - sum c_F F must lie in
the degree slice of the ideal.  Answers are
dropped after their batch, so memory does not grow with the window; the
summary keeps digests of the first batch's answers and of all answers.  The last line
of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from time import perf_counter, process_time

# answers after the first batch are checked at this stride, which keeps the
# check (about one slice reduction per answer) a small share of the window
CHECK_EVERY = 4


def element_stream(seed: int, labels: int, degrees: tuple):
    """Seeded homogeneous elements as JSON term lists.  Each monomial picks
    triples that pairwise share at most one label (a shared pair makes the
    product vanish outright), with indices in random order."""
    rng = random.Random(seed)
    universe = list(range(1, labels + 1))
    while True:
        d = rng.choice(degrees)
        terms = []
        for _ in range(rng.randint(1, 4)):
            mono = []
            while len(mono) < d:
                t = rng.sample(universe, 3)
                if all(len(set(t) & set(u)) <= 1 for u in mono):
                    mono.append(t)
            terms.append({"monomial": mono,
                          "numerator": rng.choice((-3, -2, -1, 1, 2, 3, 5)),
                          "denominator": rng.choice((1, 1, 1, 2, 3))})
        yield terms


def answer_terms(nf) -> list:
    return sorted([[list(e) for e in f.sorted_edges], c.numerator,
                   c.denominator] for f, c in nf.items())


def run_batch(call, todo: list, latencies: list) -> tuple[list, tuple]:
    """Answer each element in turn, appending each query's latency.  A query
    that raises answers None.  Returns (answers, (wall s, cpu s))."""
    answers = []
    w0, c0 = perf_counter(), process_time()
    for data in todo:
        q0 = perf_counter()
        try:
            nf = call(data)
        except (ValueError, KeyError, AssertionError) as exc:
            print(f"query failed: {exc!r}", file=sys.stderr)
            nf = None
        latencies.append(perf_counter() - q0)
        answers.append(nf)
    return answers, (perf_counter() - w0, process_time() - c0)


def tally(todo: list, answers: list, start: int, first: int, check,
          digests: tuple) -> tuple[int, int]:
    """(checked, failed) of one finished batch whose first query has number
    ``start``.  Every query that raised is a failure.  Of the others, the
    first ``first`` queries and every CHECK_EVERY-th after them go through
    ``check`` (skipped when it is None), and all are hashed into ``digests``
    = (first batch's answers, all answers)."""
    checked = failed = 0
    for i, (data, nf) in enumerate(zip(todo, answers), start=start):
        if nf is None:
            failed += 1
            continue
        if check is not None and (i < first or i % CHECK_EVERY == 0):
            checked += 1
            failed += not check(data, nf)
        text = json.dumps(answer_terms(nf), separators=(",", ":")).encode()
        digests[1].update(text + b"\n")
        if i < first:
            digests[0].update(text + b"\n")
    return checked, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--labels", type=int, required=True)
    ap.add_argument("--degrees", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--batch", type=int, default=200)
    ap.add_argument("--queries", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ref-script",
                    help="time this script as a fresh process after each batch")
    args = ap.parse_args()
    degrees = tuple(int(d) for d in args.degrees.split(","))

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    from forestalg import forests, lambda_alg
    from forestalg.rings import QQ
    from forestalg.lambda_alg import degree_slice
    from forestalg.skewpoly import poly_from_json_terms

    labels = tuple(range(1, args.labels + 1))
    pres = lambda_alg.Presentation("tri", labels)

    path = [(2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(max(degrees))]

    def setup():
        # the first normal form in each degree certifies that degree's basis
        for d in degrees:
            lambda_alg.forest_normal_form(pres.monomial(path[:d], ring=QQ),
                                          pres)

    def query(data):
        x = poly_from_json_terms(QQ, pres.universe, data)
        return lambda_alg.forest_normal_form(x, pres)

    def call(data):
        return tracer.root(query, data)[0] if tracer else query(data)

    residues = {}  # basic forest -> its residue modulo the degree slice

    def residue(p):
        return degree_slice(pres, p.degree()).reduce(p).terms

    def correct(data, nf) -> bool:
        """x - sum c_F F lies in the ideal: the slice residue is linear, so
        compare residue(x) with sum c_F residue(F)."""
        x = poly_from_json_terms(QQ, pres.universe, data)
        if not x:
            return nf == {}
        diff = dict(residue(x))
        for f, c in nf.items():
            if f not in residues:
                if not forests.is_basic(f):
                    return False
                residues[f] = residue(pres.monomial(f.sorted_edges, ring=QQ))
            for m, v in residues[f].items():
                diff[m] = diff.get(m, 0) - c * v
        return not any(diff.values())

    if tracer:
        tracer.root(setup)
    else:
        setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    stream = element_stream(args.seed, args.labels, degrees)
    queries = checked = failed = 0
    latencies, batches, ref_s = [], [], []
    first_batch, all_answers = hashlib.sha256(), hashlib.sha256()
    start = perf_counter()
    round_s = 0.0  # last batch plus its check
    while True:
        if args.queries is not None:
            size = min(args.batch, args.queries - queries)
            if size <= 0:
                break
        else:
            if batches and perf_counter() - start + round_s > args.seconds:
                break
            size = args.batch
        r0 = perf_counter()
        todo = [next(stream) for _ in range(size)]
        answers, cost = run_batch(call, todo, latencies)
        batches.append(cost)
        # outside the timed batch.  A traced worker skips the check, which
        # would enter the traced layers; its answers are compared with an
        # untraced worker's through the digest of all answers instead.
        c, f = tally(todo, answers, queries, args.batch,
                     None if tracer else correct, (first_batch, all_answers))
        checked += c
        failed += f
        queries += size
        if args.ref_script:
            t0 = perf_counter()
            subprocess.run([sys.executable, args.ref_script], check=True,
                           stdout=subprocess.DEVNULL)
            ref_s.append(perf_counter() - t0)
        round_s = perf_counter() - r0

    summary = {"queries": queries, "checked": checked, "failed": failed,
               "batches": batches, "latencies": latencies, "ref_s": ref_s,
               "digest": first_batch.hexdigest(),
               "answers_digest": all_answers.hexdigest()}
    if tracer:
        summary["trace"] = tracer.totals()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
