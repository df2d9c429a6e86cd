"""fanokit benchmark: seeded CLI jobs, end-to-end times and a per-layer trace.

Run from the repository root, with the environment that BENCHMARK.json pins:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONHASHSEED=0 \
        python3 fanobench/run.py --workload soliton --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job is one ``fanokit.cli.main``
call, exactly as ``fanokit <command> --input ... --output ...`` would run.
A run repeats whole rounds of its workload's job list, as many as the first
round says fit in ``--seconds``; round r draws fresh documents from (seed, r).  Inputs are written before a round is timed, outputs go to a
temporary directory, and every output is checked after the last round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced and one round with every layer wrapped (see tracing.py) and prints
the per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CheckFailed, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".fanobench"
SETUP_SAMPLES = 5
MAX_ROUNDS = 40  # keeps a run within its time limit if a round becomes very cheap
WARMUP_DOC = {"polytope": {"vertices": [["-1"], ["2"]]}}

# Measured in a fresh interpreter: what every CLI invocation pays before work.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fanokit.cli
rc = fanokit.cli.main(["soliton", "--input", sys.argv[2], "--output", sys.argv[3]])
elapsed = time.perf_counter() - t0
print(repr(elapsed) if rc == 0 else "failed")
"""


def measure_setup(warm_in: Path, warm_out: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(warm_in), str(warm_out)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0 or proc.stdout.strip() == "failed":
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def run_round(cli, jobs, folder: Path, before_job=None):
    """Write the round's inputs, then time each job; returns per-job records."""
    folder.mkdir()
    paths = []
    for i, job in enumerate(jobs):
        inp, out = folder / f"{i:02d}.in.json", folder / f"{i:02d}.out.json"
        inp.write_text(json.dumps(job.doc))
        job.doc = None  # on disk now; rounds must not grow the resident set
        paths.append((str(inp), out))
    records = []
    for job, (inp, out) in zip(jobs, paths):
        gc.collect()
        if before_job is not None:
            before_job()
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                status = cli.main([job.command, "--input", inp, "--output", str(out)])
            except Exception as exc:  # a known fault escapes main as a raw exception
                status = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        records.append({"job": job, "out": out, "status": status, "wall": wall, "cpu": cpu,
                        "log": log.getvalue()})
    return records


def check_outputs(rounds) -> tuple[bool, int, int]:
    """Checks every output; returns (correct, attempted, failed)."""
    correct, attempted, failed = True, 0, 0
    for r, records in enumerate(rounds):
        for rec in records:
            job = rec["job"]
            attempted += 1
            if rec["status"] != 0:
                failed += 1
                if job.known_failure is None:
                    tail = rec["log"].strip().splitlines()[-1:] or [""]
                    print(f"round {r} {job.name}: unexpected failure {rec['status']!r} "
                          f"{tail[0]}", file=sys.stderr)
                continue
            if job.known_failure is not None:
                print(f"round {r} {job.name}: known fault ({job.known_failure}) no longer "
                      "fails; checking against the closed form", file=sys.stderr)
            try:
                job.check(json.loads(rec["out"].read_text()))
            except (CheckFailed, KeyError, ValueError, TypeError) as exc:
                correct = False
                print(f"round {r} {job.name}: wrong output: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
    return correct, attempted, failed


def newton_iterations(records) -> int:
    total = 0
    for rec in records:
        if rec["status"] == 0:
            result = json.loads(rec["out"].read_text()).get("result")
            if isinstance(result, dict) and "iterations" in result:
                total += int(result["iterations"])
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("soliton", "spectra", "filtration"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fanokit" / "cli.py").is_file():
        print(f"fanobench: no fanokit sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmpname:
        tmp = Path(tmpname)
        warm_in, warm_out = tmp / "warmup.in.json", tmp / "warmup.out.json"
        warm_in.write_text(json.dumps(WARMUP_DOC))
        setup_samples = [] if args.trace else measure_setup(warm_in, warm_out)
        sys.path.insert(0, str(SRC))
        import fanokit.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["soliton", "--input", str(warm_in), "--output", str(warm_out)])

        rounds = []
        if args.trace:
            from tracing import Tracer

            rounds.append(run_round(cli, make_jobs(args.workload, args.seed, 0, SRC), tmp / "r0"))
            tracer = Tracer()
            tracer.install()
            span_starts = []  # where each job's spans begin, so spans group by job
            rounds.append(run_round(cli, make_jobs(args.workload, args.seed, 1, SRC), tmp / "r1",
                                    lambda: span_starts.append(len(tracer.kind))))
        else:
            # as many whole rounds as the first one says fit in --seconds
            target = 1
            while len(rounds) < target:
                jobs = make_jobs(args.workload, args.seed, len(rounds), SRC)
                rounds.append(run_round(cli, jobs, tmp / f"r{len(rounds)}"))
                if len(rounds) == 1:
                    first = sum(rec["wall"] for rec in rounds[0])
                    target = min(MAX_ROUNDS, max(1, round(args.seconds / first)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct, attempted, failed = check_outputs(rounds)
        walls = [sum(rec["wall"] for rec in records) for records in rounds]
        if args.trace:
            metrics, absent = tracer.metrics(walls[1])
            metrics["trace.overhead_s"] = walls[1] - walls[0]
            metrics["optimize.newton_iters"] = newton_iterations(rounds[1])
            layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
            if abs(layer_sum + metrics["trace.outside_s"] - walls[1]) > 1e-6 * walls[1]:
                correct = False
                print("trace: layer self times do not add up to the traced wall time",
                      file=sys.stderr)
            if absent:
                print("trace: absent names (metrics read 0): " + ", ".join(absent),
                      file=sys.stderr)
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.save(WORK / "traces" / f"{args.workload}-seed{args.seed}.npz",
                        span_starts, [rec["job"].name for rec in rounds[1]])
            units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(sum(rec["cpu"] for rec in records)
                                           for records in rounds),
                # median over job slots of each slot's median over rounds
                "job_p50_s": statistics.median(statistics.median(rec["wall"] for rec in slot)
                                               for slot in zip(*rounds)),
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_p50_s": "s",
                     "peak_rss_mb": "MB"}
        (WORK / "runs").mkdir(exist_ok=True)
        raw = [[{"job": rec["job"].name, "wall": rec["wall"], "cpu": rec["cpu"]} for rec in records]
               for records in rounds]
        (WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"setup_samples": setup_samples, "rounds": raw}))
        print(f"fanobench {args.workload} seed {args.seed}: {len(rounds)} round(s), "
              f"round walls {[round(w, 3) for w in walls]}", file=sys.stderr)
        for rec in rounds[-1]:
            print(f"  {rec['job'].name:<18} {rec['wall']:8.3f} s", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
