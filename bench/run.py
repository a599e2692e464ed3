"""latlab benchmark: closed-loop gen, check and verify workloads.

    python3 bench/run.py --workload check --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

One client in one process runs the workload's fixed op list in passes until
``--seconds`` of op time is used (at least one pass).  Outputs are checked
after each pass, untimed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced passes so it can report the
tracing overhead, and writes its spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).with_name("reference_digests.json")
DEFAULT_SEED = 0
# numpy's BLAS runs the float32 matmuls of closure, covers and subspace
# containment; one thread keeps timings steady on a shared machine.
BLAS_THREADS = "1"
SETUP_SAMPLES = 16
# String hashing decides the iteration order of latlab's statement sets, and
# with it the cost of its linear scans; a fixed seed keeps that cost the same
# in every run.
HASH_SEED = "0"
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def with_hash_seed(script: str, argv=None) -> int | None:
    """Re-run ``script`` under the fixed hash seed unless it already has it.

    Returns the child's exit code, or None when this process is the one to
    do the work.
    """
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return None
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    args = sys.argv[1:] if argv is None else argv
    return subprocess.run([sys.executable, script, *args], env=env).returncode


def prepare() -> None:
    """Fix the BLAS thread count and import latlab from this checkout's src."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import latlab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import latlab from {SRC}: {exc}")
    if SRC not in Path(latlab.__file__).resolve().parents:
        raise SystemExit(f"bench: latlab was imported from {latlab.__file__}, not {SRC}")


class Gate:
    """Untimed correctness gate.  An op fails when its outcome fails the
    op's own checks, differs from the reference digest recorded for its key,
    or differs from an earlier outcome of the same op."""

    def __init__(self, reference: dict[str, str], require_reference: bool):
        self.reference = reference
        self.require_reference = require_reference
        self.digests: dict[str, str] = {}
        self._problems: dict[str, list[str]] = {}

    def judge(self, op, raw) -> list[str]:
        if isinstance(raw, Exception):
            return [f"raised {raw!r}"]
        try:
            code, body = op.render(raw)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"unreadable outcome: {exc!r}"]
        digest = hashlib.sha256(f"{code}\n{body}".encode()).hexdigest()
        if op.key in self.digests:
            if digest != self.digests[op.key]:
                return ["outcome differs from an earlier run of the same op"]
            return self._problems[op.key]
        try:
            problems = op.check(code, body)
        except Exception as exc:  # a malformed outcome is a failed op
            problems = [f"check raised {exc!r}"]
        expected = self.reference.get(op.key)
        if expected is None and self.require_reference:
            problems.append("no reference digest for this op")
        elif expected is not None and expected != digest:
            problems.append("report digest differs from the reference")
        self.digests[op.key] = digest
        self._problems[op.key] = problems
        return problems


def run_pass(ops, gate: Gate, tracer=None) -> tuple[list[float], int]:
    """One pass over the op list: per-op latencies and the failed-op count.

    Each op's inputs are prepared, untimed, at the start of the pass.
    """
    states = [op.prepare() for op in ops]
    gc.collect()
    latencies, raws = [], []
    for i, (op, state) in enumerate(zip(ops, states)):
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            raw = op.invoke(state)
        except Exception as exc:  # counted as a failed op by the gate
            raw = exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        raws.append(raw)
    failed = 0
    for op, raw in zip(ops, raws):
        problems = gate.judge(op, raw)
        if problems:
            failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)
    return latencies, failed


def use_cpu(i: int) -> None:
    """Move this process to the i-th CPU it may use, round robin.

    Other tenants slow one CPU at a time, and which one moves every few
    seconds.  Taking successive samples on each CPU in turn keeps one slow
    CPU from holding every sample of an op.
    """
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def cold_starts(count: int) -> list[float]:
    """Wall times of ``python -m latlab gen m3`` from spawn through exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(count):
        use_cpu(i)
        start = time.perf_counter()
        # No timeout: Popen.wait with a timeout polls in sleeps of up to 50 ms,
        # which would quantize the samples.
        subprocess.run([sys.executable, "-m", "latlab", "gen", "m3"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload: a summary for people and the result object.

    Each op is timed once per pass and its latency is the median of its
    passes.  Passes take turns over the CPUs.  ``setup_s`` is the median of
    cold starts sampled before and after the passes, so that they span the
    run.
    """
    import tracing
    import workloads

    reference = {}
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(name, {})
    gate = Gate(reference, require_reference=seed == DEFAULT_SEED)
    starts = [] if trace else cold_starts(SETUP_SAMPLES // 2)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = workloads.build(name, seed, work)
        tracer = tracing.Tracer() if trace else None
        modes = (False, True) if trace else (False,)
        per_op = {mode: [[] for _ in ops] for mode in modes}
        pass_s = []
        passes = dict.fromkeys(modes, 0)
        attempted = failed = 0
        used = 0.0
        turn = 0
        while True:
            use_cpu(turn)
            turn += 1
            round_s = 0.0
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    latencies, bad = run_pass(ops, gate, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                for samples, latency in zip(per_op[traced], latencies):
                    samples.append(latency)
                passes[traced] += 1
                attempted += len(ops)
                failed += bad
                round_s += sum(latencies)
                pass_s.append(round(sum(latencies), 3))
            used += round_s
            if used + round_s > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    typical = {mode: [statistics.median(samples) for samples in per_op[mode]]
               for mode in modes}
    op_s = typical[False]
    p90 = statistics.quantiles(op_s, n=10)[-1]
    summary = {
        "workload": name, "seed": seed, "blas_threads": int(BLAS_THREADS),
        "ops_per_pass": len(ops), "passes": passes[False], "traced_passes": passes.get(True, 0),
        "ops_above_p90": sum(t > p90 for t in op_s), "failed_frac": failed / attempted,
        "pass_s": pass_s,
    }
    if trace:
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
        traced_s = sum(sum(samples) for samples in per_op[True])
        overhead = (sum(typical[True]) - sum(op_s)) / sum(op_s)
        values = tracer.metrics(passes[True], traced_s, overhead)
        units = tracing.metric_units()
    else:
        starts += cold_starts(SETUP_SAMPLES - len(starts))
        values = {"wall_s": sum(op_s), "op_p50_ms": statistics.median(op_s) * 1000.0,
                  "op_p90_ms": p90 * 1000.0, "setup_s": statistics.median(starts),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return summary, result


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        # A workload whose gate failed exits 1 and still prints its result.
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"\n{'metric':<58}" + "".join(f"{n:>14}" for n in results) + "  unit")
    first = next(iter(results.values()))
    for metric, entry in first["metrics"].items():
        row = "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in results.values())
        print(f"{metric:<58}{row}  {entry['unit']}")
    for field in ("attempted", "failed"):
        print(f"{field:<58}" + "".join(f"{r[field]:>14}" for r in results.values()))
    print(f"{'failed_frac':<58}"
          + "".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
          + "  ratio")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    code = with_hash_seed(__file__, argv)
    if code is not None:
        return code
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gen", "check", "verify", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    if args.workload == "all":
        return run_all(args)
    summary, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                    for k, v in summary.items()))
    for name, entry in result["metrics"].items():
        print(f"  {name:<58} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
