"""forestalg benchmark: cold-process CLI workloads and a normal-form query loop.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --smoke ...   (tiny sizes)
  python3 perfbench/run.py --record                      (store the reports)

Workloads: hilbert, poset, normal-form, keel-operad (see perfbench/README.md).
Every CLI op runs in a fresh process with ``--jobs 1``, because the module
caches would otherwise turn a repeat into a cache lookup.  Each report is
compared byte for byte with the one stored in perfbench/expected/.  Fresh
reference processes run between the measured ones, and each time is scaled
by the two around it, which cancels the host's speed swings (see REF_S).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected"
OP_TIMEOUT_S = 150
SETUP_REPEATS = 5      # cold interpreter + import, median reported
NF_SETUP_REPEATS = 2   # worker set-up including the certified bases
# Times are scaled to a host on which the reference work (ref_work.py, run as
# a fresh process between the measured ones) takes REF_S seconds.  The host
# this was built on swings by up to 2x within seconds; scaling each time by
# the reference runs just before and after it cancels most of that.
REF_SCRIPT = BENCH_DIR / "ref_work.py"
REF_S = 0.4

# workload -> CLI ops; "{seed}" is replaced by the run's seed
CLI_WORKLOADS = {
    "hilbert": [["hilbert", "--n", "7", "--variant", "quad"],
                ["hilbert", "--n", "8"]],
    "poset": [["poset-homology", "--n", "8"], ["whitney", "--n", "7"]],
    "keel-operad": [["keel-count", "--n", "9"], ["bockstein", "--n", "7"],
                    ["pairing", "--n", "7"], ["dual", "--n", "8"],
                    ["cooperad-check", "--seed", "{seed}"]],
}
# smoke sizes: each workload still does more work than the start-up noise,
# so that run_s (start-up left out) stays positive
SMOKE_WORKLOADS = {
    "hilbert": [["hilbert", "--n", "6", "--variant", "quad"],
                ["hilbert", "--n", "6"]],
    "poset": [["poset-homology", "--n", "8"], ["whitney", "--n", "5"]],
    "keel-operad": [["keel-count", "--n", "8"], ["bockstein", "--n", "5"],
                    ["pairing", "--n", "6"], ["dual", "--n", "7"],
                    ["cooperad-check", "--trials", "10", "--seed", "{seed}"]],
}
# tri presentation on labels 1..labels; batch = queries per timed batch;
# trace_queries = fixed query count of a traced run
NF = {"labels": 7, "degrees": "2,3", "batch": 200, "trace_queries": 2000}
NF_SMOKE = {"labels": 5, "degrees": "2", "batch": 20, "trace_queries": 40}
WORKLOADS = (*CLI_WORKLOADS, "normal-form")
DEFAULT_SEED = 1
RECORD_SEED = 2026  # cooperad-check reports are stored with this seed

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Op:
    """One finished child process: its output, exit code and own rusage."""

    def __init__(self, cmd, stdout, stderr, code, wall, usage):
        self.cmd, self.stdout, self.stderr, self.code = cmd, stdout, stderr, code
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # kilobytes on Linux


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH_DIR),
                    env.get("PYTHONPATH")) if p)
    env["FORESTALG_JOBS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], on_line=None) -> Op:
    """Run cmd to completion and reap it with wait4, so the rusage is the
    child's own (RUSAGE_CHILDREN would give a running maximum of RSS).
    ``on_line`` sees each stdout line as it arrives."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        chunks = []
        for line in proc.stdout:
            chunks.append(line)
            if on_line is not None:
                on_line(line)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        timer.cancel()
        reader.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Op(cmd, b"".join(chunks), b"".join(err), proc.returncode, wall,
              usage)


def op_slug(template: list[str]) -> str:
    return "_".join(a.lstrip("-").replace("{seed}", "SEED") for a in template)


def expected_report(template: list[str], seed: int, expected_dir: Path) -> bytes:
    text = (expected_dir / (op_slug(template) + ".out")).read_bytes()
    return text.replace(b"@SEED@", str(seed).encode())


def cli_cmd(argv: list[str], traced: bool) -> list[str]:
    entry = [str(BENCH_DIR / "traced_cli.py")] if traced else ["-m", "forestalg.cli"]
    return [sys.executable, *entry, *argv, "--jobs", "1"]


def check_op(op: Op, want: bytes) -> bool:
    if op.code == 0 and op.stdout == want:
        return True
    print(f"FAILED: {' '.join(op.cmd[1:])} exit {op.code}; "
          f"stderr: {op.stderr.decode(errors='replace')[-300:]}",
          file=sys.stderr)
    return False


# ---------------------------------------------------------------------------
# CLI workloads


def scaled(values, refs: list[float]) -> list[float]:
    """Scale (value, j) pairs, each measured between reference runs j and
    j + 1, to a host on which the reference takes REF_S: times REF_S over the
    geometric mean of those two reference times.  The host's speed swings
    within seconds, so the neighbouring reference runs track it far better
    than the run's median reference time."""
    return [v * REF_S / math.sqrt(refs[j] * refs[j + 1]) for v, j in values]


def reference_run() -> float:
    """Wall time of one fresh reference-work process."""
    op = spawn([sys.executable, str(REF_SCRIPT)])
    if op.code != 0:
        raise RuntimeError(f"reference work exited {op.code}: "
                           f"{op.stderr.decode(errors='replace')[-300:]}")
    return op.wall


def cli_workload(templates, seed, seconds, trace, expected_dir):
    ops = [[a.replace("{seed}", str(seed)) for a in t] for t in templates]
    wants = [expected_report(t, seed, expected_dir) for t in templates]
    attempted = failed = 0

    def run(i, traced=False) -> Op:
        nonlocal attempted, failed
        op = spawn(cli_cmd(ops[i], traced))
        attempted += 1
        failed += not check_op(op, wants[i])
        return op

    if trace:
        plain, traced = [], []
        for i in range(len(ops)):  # alternate, so host drift hits both alike
            plain.append(run(i))
            traced.append(run(i, traced=True))
        raw: Counter = Counter()
        frac = 0.0
        for op in traced:
            totals = trace_totals(op)
            raw.update(totals)
            frac = max(frac, totals.get("cli.self_s", 0.0) / op.wall)
        metrics = layers.layer_metrics(raw)
        metrics["cli.self_frac_max"] = frac
        metrics["trace_overhead"] = (sum(o.wall for o in traced)
                                     / sum(o.wall for o in plain))
        return attempted, failed, metrics, {}

    # a reference run precedes every measured process and one follows the
    # last; samples are (process, index of the reference run before it)
    refs: list[float] = []

    def after_ref(measure):
        refs.append(reference_run())
        return measure(), len(refs) - 1

    setups = [after_ref(lambda: spawn([sys.executable, "-c",
                                       "import forestalg.cli"]))
              for _ in range(SETUP_REPEATS)]
    samples: list[list[tuple[Op, int]]] = [[] for _ in ops]
    start = perf_counter()
    for i in range(len(ops)):  # one full pass, then any op that still fits
        samples[i].append(after_ref(lambda: run(i)))
    progressed = True
    while progressed:
        progressed = False
        for i in range(len(ops)):
            guess = (statistics.median(refs)
                     + statistics.median(o.wall for o, _ in samples[i]))
            if perf_counter() - start + guess <= seconds:
                samples[i].append(after_ref(lambda: run(i)))
                progressed = True
    refs.append(reference_run())

    def median_scaled(entries, attr):
        return statistics.median(scaled(
            [(getattr(o, attr), j) for o, j in entries], refs))

    # every op pays the start-up again; it is set-up, so run_s and cpu_s
    # leave the run's median start-up out of each op
    start_wall = median_scaled(setups, "wall")
    start_cpu = median_scaled(setups, "cpu")
    metrics = {"run_s": sum(median_scaled(s, "wall") - start_wall
                            for s in samples),
               "cpu_s": sum(median_scaled(s, "cpu") - start_cpu
                            for s in samples),
               "setup_s": start_wall,
               "peak_rss_mb": max(statistics.median(o.rss_mb for o, _ in s)
                                  for s in samples)}
    notes = {" ".join(op): f"{len(s)} runs, median "
             f"{statistics.median(o.wall for o, _ in s):.3f} s unscaled"
             for op, s in zip(ops, samples)}
    notes["reference"] = f"{len(refs)} runs, median {statistics.median(refs):.3f} s"
    return attempted, failed, metrics, notes


def trace_totals(op: Op) -> dict:
    """The op's trace totals; none if it died before writing them (it then
    counts as failed)."""
    for line in reversed(op.stderr.decode(errors="replace").splitlines()):
        if line.startswith("TRACE "):
            return json.loads(line[6:])["totals"]
    return {}


# ---------------------------------------------------------------------------
# normal-form workload


def nf_cmd(cfg, seed, *extra) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "nf_worker.py"),
            "--labels", str(cfg["labels"]), "--degrees", cfg["degrees"],
            "--seed", str(seed), "--batch", str(cfg["batch"]), *extra]


def nf_run(cmd) -> tuple[Op, float | None, dict]:
    """(process, seconds from start to ``ready``, final summary)."""
    t0 = perf_counter()
    ready: list[float] = []

    def on_line(line: bytes) -> None:
        if line.strip() == b"ready" and not ready:
            ready.append(perf_counter() - t0)

    op = spawn(cmd, on_line)
    lines = op.stdout.decode().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return op, (ready[0] if ready else None), summary


def percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def nf_workload(cfg, seed, seconds, trace, digest_file):
    if trace:
        plain_op, _, plain = nf_run(nf_cmd(cfg, seed, "--queries",
                                           str(cfg["trace_queries"])))
        traced_op, _, traced = nf_run(nf_cmd(cfg, seed, "--queries",
                                             str(cfg["trace_queries"]),
                                             "--trace"))
        attempted = plain.get("queries", 0) + traced.get("queries", 0)
        failed = (nf_failed(plain_op, plain, seed, digest_file)
                  + nf_failed(traced_op, traced, seed, digest_file))
        if not plain or not traced:
            return max(attempted, 1), failed + 1, {}, {}
        if traced["answers_digest"] != plain["answers_digest"]:
            print("FAILED: traced normal forms differ from untraced ones",
                  file=sys.stderr)
            failed += 1
        raw = Counter(traced["trace"]["totals"])
        metrics = layers.layer_metrics(raw)
        lat = sorted(plain["latencies"])
        t_plain = sum(b[0] for b in plain["batches"])
        t_traced = sum(b[0] for b in traced["batches"])
        metrics["cli.self_frac_max"] = raw["cli.self_s"] / traced_op.wall
        metrics["trace_overhead"] = t_traced / t_plain
        metrics["nf.p50_ms"] = percentile(lat, 0.50) * 1e3
        metrics["nf.p99_ms"] = percentile(lat, 0.99) * 1e3
        return attempted, failed, metrics, {"latency samples": len(lat)}

    refs: list[float] = []  # as in cli_workload
    setups: list[tuple[float, int]] = []
    for _ in range(NF_SETUP_REPEATS - 1):
        refs.append(reference_run())
        op, ready_s, _ = nf_run(nf_cmd(cfg, seed, "--setup-only"))
        if op.code != 0 or ready_s is None:
            return 1, 1, {}, {}
        setups.append((ready_s, len(refs) - 1))
    refs.append(reference_run())
    op, ready_s, summary = nf_run(nf_cmd(cfg, seed, "--seconds", str(seconds),
                                         "--ref-script", str(REF_SCRIPT)))
    failed = nf_failed(op, summary, seed, digest_file)
    if ready_s is None or not summary:
        return 1, max(failed, 1), {}, {}
    # the worker runs a reference after each batch: its set-up and batch 0
    # sit between refs[j] and refs[j + 1], batch k between j + k and j + k + 1
    j = len(refs) - 1
    setups.append((ready_s, j))
    refs.extend(summary["ref_s"])
    batches = summary["batches"]
    lat = sorted(summary["latencies"])
    metrics = {"run_s": statistics.median(scaled(
                   [(b[0], j + k) for k, b in enumerate(batches)], refs)),
               "cpu_s": statistics.median(scaled(
                   [(b[1], j + k) for k, b in enumerate(batches)], refs)),
               "setup_s": statistics.median(scaled(setups, refs)),
               "peak_rss_mb": op.rss_mb}
    notes = {"queries": summary["queries"], "checked": summary["checked"],
             "batches": len(batches),
             "nf_p50_ms": percentile(lat, 0.50) * 1e3,
             "nf_p99_ms": percentile(lat, 0.99) * 1e3,
             "reference": f"{len(refs)} runs, median {statistics.median(refs):.3f} s"}
    return summary["queries"], failed, metrics, notes


def nf_failed(op: Op, summary: dict, seed, digest_file: Path) -> int:
    if op.code != 0 or not summary:
        print(f"FAILED: normal-form worker exit {op.code}; stderr: "
              f"{op.stderr.decode(errors='replace')[-300:]}", file=sys.stderr)
        return max(1, summary.get("failed", 0))
    failed = summary["failed"]
    if seed == DEFAULT_SEED and summary["digest"] != digest_file.read_text().strip():
        print("FAILED: normal-form answers differ from the stored digest",
              file=sys.stderr)
        failed += 1
    return failed


# ---------------------------------------------------------------------------
# recording the reports of this commit


def record() -> None:
    """Store every op's report and the normal-form digest (default seed)."""
    EXPECTED.mkdir(exist_ok=True)
    for table in (CLI_WORKLOADS, SMOKE_WORKLOADS):
        for templates in table.values():
            for t in templates:
                argv = [a.replace("{seed}", str(RECORD_SEED)) for a in t]
                op = spawn(cli_cmd(argv, traced=False))
                if op.code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {op.code}")
                text = op.stdout
                if "{seed}" in t:
                    text = text.replace(f'"seed":{RECORD_SEED}'.encode(),
                                        b'"seed":@SEED@')
                (EXPECTED / (op_slug(t) + ".out")).write_bytes(text)
                print("recorded", " ".join(argv))
    for cfg, name in ((NF, "normal-form"), (NF_SMOKE, "normal-form-smoke")):
        _, _, summary = nf_run(nf_cmd(cfg, DEFAULT_SEED, "--queries",
                                      str(cfg["batch"])))
        if summary.get("failed", 1):
            raise SystemExit(f"{name}: answers failed the membership check")
        (EXPECTED / f"{name}.sha256").write_text(summary["digest"] + "\n")
        print("recorded", name, "digest")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="store the reports of the current code and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "forestalg" / "cli.py").is_file():
        print(f"error: no forestalg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    if args.workload == "normal-form":
        cfg = NF_SMOKE if args.smoke else NF
        digest = EXPECTED / ("normal-form-smoke.sha256" if args.smoke
                             else "normal-form.sha256")
        attempted, failed, metrics, notes = nf_workload(
            cfg, args.seed, args.seconds, args.trace, digest)
    else:
        table = SMOKE_WORKLOADS if args.smoke else CLI_WORKLOADS
        attempted, failed, metrics, notes = cli_workload(
            table[args.workload], args.seed, args.seconds, args.trace, EXPECTED)

    units = layers.LAYER_METRICS if args.trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(units)
    print(f"{args.workload}: fail_ratio {failed}/{attempted}; "
          + "; ".join(f"{k} {v}" for k, v in notes.items()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
