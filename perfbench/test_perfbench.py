"""Self-tests of the benchmark at smoke sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def traced(*argv):
    """(report, trace record) of one traced CLI op."""
    proc = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env=run.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = [l for l in proc.stderr.splitlines() if l.startswith("TRACE ")][-1]
    return proc.stdout, json.loads(line[6:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    code, result = bench("--workload", workload, "--smoke", "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
    assert code == 0 and result is not None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: got["unit"] for name, got in result["metrics"].items()}
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_corrupted_report_is_a_failure(tmp_path):
    shutil.copytree(BENCH / "expected", tmp_path, dirs_exist_ok=True)
    target = tmp_path / "hilbert_n_6.out"
    target.write_bytes(target.read_bytes().replace(b"[1,10,9]", b"[1,10,8]", 1))
    attempted, failed, _, _ = run.cli_workload(
        run.SMOKE_WORKLOADS["hilbert"], run.DEFAULT_SEED, 1, 0, tmp_path)
    assert 1 <= failed < attempted


def test_changed_normal_form_digest_is_a_failure(tmp_path):
    digest = tmp_path / "normal-form-smoke.sha256"
    digest.write_text("0" * 64 + "\n")
    _, failed, _, _ = run.nf_workload(run.NF_SMOKE, run.DEFAULT_SEED, 1, 0,
                                      digest)
    assert failed >= 1


def test_query_that_raises_past_the_first_batch_is_a_failure():
    import hashlib
    import nf_worker

    def call(data):
        if data == "bad":
            raise AssertionError("normal form escaped the basic-forest span")
        return {}

    todo = ["good", "bad", "good"]
    latencies = []
    answers, _ = nf_worker.run_batch(call, todo, latencies)
    assert answers == [{}, None, {}] and len(latencies) == 3
    # queries 201..203 of a worker with batches of 200: none is sampled
    checked, failed = nf_worker.tally(todo, answers, 201, 200,
                                      lambda data, nf: True,
                                      (hashlib.sha256(), hashlib.sha256()))
    assert (checked, failed) == (0, 1)


def test_without_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hilbert", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# each op and the wrapped kernels it is known to call
KNOWN_KERNELS = {
    ("hilbert", "--n", "6"): [
        "linalg.FieldEchelon.add", "skewpoly.ideal_slice",
        "lambda_alg._relations_cached", "lambda_alg.block_dimension",
        "lambda_alg.assembled_dimension", "series.odd_square_product_poly"],
    ("hilbert", "--n", "5", "--variant", "quad"): [
        "linalg.smith_divisors", "linalg.FieldEchelon.same_span",
        "lambda_alg.quad_tri_span_match"],
    ("poset-homology", "--n", "6"): [
        "linalg.smith_divisors", "poset_homology.homology_of_bounded"],
    ("whitney", "--n", "5"): [
        "linalg.HermiteEchelon.add", "linalg.HermiteEchelon.contains",
        "linalg.kernel_basis_fast", "linalg.smith_divisors",
        "poset_homology.interval_homology_by_sizes"],
    ("bockstein", "--n", "5"): [
        "linalg.BitEchelon.add", "keel.KeelRing.reduce",
        "keel.KeelRing.canonical_monomials", "keel.beta"],
    ("pairing", "--n", "6"): [
        "forests.pairing", "forests.canonical_ternary_forest",
        "operad.triangular_pairing_certificate"],
    ("dual", "--n", "6"): [
        "quadratic_dual.dual_block_dimension", "linalg.FieldEchelon.add"],
    ("reduce", "--n", "6", "--element",
     '[{"monomial": [[1,4,5],[2,3,5]], "numerator": 1}]'): [
        "linalg.BasisSolver.coordinates", "linalg.BasisSolver.__init__",
        "skewpoly.IdealSlice.reduce", "skewpoly.poly_from_json_terms",
        "lambda_alg.forest_normal_form"],
}


@pytest.mark.parametrize("argv", list(KNOWN_KERNELS), ids=" ".join)
def test_tracer_sees_every_known_kernel(argv):
    plain = subprocess.run([sys.executable, "-m", "forestalg.cli", *argv],
                           capture_output=True, text=True, cwd=ROOT,
                           env=run.child_env(), timeout=120)
    report, record = traced(*argv)
    assert report == plain.stdout  # tracing leaves the report untouched
    missing = [k for k in KNOWN_KERNELS[argv] if not record["calls"].get(k)]
    assert not missing
    # self times partition the root span
    total = sum(v for k, v in record["totals"].items() if k.endswith(".self_s"))
    assert abs(total - record["wall_s"]) <= 0.01 * record["wall_s"] + 1e-3


@pytest.mark.parametrize("argv, counter", [
    (("pairing", "--n", "6"), "forests.pairing.calls"),
    (("hilbert", "--n", "6"), "lambda_alg.relations.count"),
    (("poset-homology", "--n", "6"), "linalg.smith.diag"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_trace_counts_repeat_exactly(argv, counter):
    _, first = traced(*argv)
    _, second = traced(*argv)
    counts = {k: v for k, v in first["totals"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["totals"].items()
                      if not k.endswith("_s")}
    assert first["calls"] == second["calls"]
    assert counts[counter] > 0
