"""ssfourier benchmark: end-to-end and per-layer timing of the CLI in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload (see ``workloads.py``) is a closed loop with one caller
that runs a job -- a fixed list of ``ssfourier.cli.run(argv)`` calls --
back to back, then checks every output.  Jobs repeat until the next one
would end past ``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics (the 90th percentile of job wall and CPU seconds, peak
RSS, and the median set-up time of three fresh processes).  The first job
of a run warms caches and lazy imports and is checked but not timed.  On a
shared host, job times sit at a steady contended level with bursts of
faster jobs whenever neighbours go idle; the median flips between the two
from run to run, while the 90th percentile tracks the contended level and
varies about half as much.  With ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics
from the traced ones (see ``spans.py``); layers the workload never
reaches are measured on one toy-sized job of every workload, run traced
at the end.  The last stdout line is the JSON result; the line before it
carries the job count, quartiles, failure share, worker-process RSS and
the environment fingerprint.  Spans and results are kept in memory and
written to ``.perfbench/`` when the run ends.

The program is always imported from ``src/`` of this checkout; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 3
# One BLAS thread per process: the scan workload already runs two worker
# processes, and on a shared 2-core machine a second BLAS thread buys little
# wall time while making every job wait on the busier core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread cap)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"job_p90_s": "s", "cpu_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import ssfourier and its CLI from this checkout's ``src/`` only."""
    init = ROOT / "src" / "ssfourier" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"perfbench: no ssfourier sources at {init.parent}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import ssfourier
    import ssfourier.cli

    if Path(ssfourier.__file__).resolve() != init.resolve():
        sys.stderr.write(f"perfbench: imported ssfourier from {ssfourier.__file__}\n")
        raise SystemExit(2)
    return ssfourier.cli


def _cpu_s() -> float:
    """User+system seconds of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(cli, ops, tracer=None, job_id="") -> dict:
    """Run one job's invocations back to back, then check their outputs.

    Only the invocations are timed; building inputs and checking outputs
    happen outside the measured interval (and outside the root span).
    """
    for op in ops:
        op.out.unlink(missing_ok=True)
    codes, logs = [], []
    if tracer is not None:
        tracer.job = job_id
    root = tracer.span("job") if tracer is not None else contextlib.nullcontext()
    cpu0 = _cpu_s()
    with root as root_span:
        t0 = time.perf_counter()
        for op in ops:
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    codes.append(cli.run(op.argv))
                except (Exception, SystemExit):  # a failed invocation must not end the run
                    codes.append(traceback.format_exc(limit=3))
            logs.append(log.getvalue())
        wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    failures = []  # one entry per failed operation
    for op, code, log in zip(ops, codes, logs):
        if code != 0:
            problems = [f"exit {code} {log[-300:]}"]
        else:
            try:
                problems = op.check(op.out.read_bytes())
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"check raised {exc!r}"]
        if problems:
            name = " ".join(a for a in op.argv if not a.startswith("--xi="))[:160]
            failures.append(f"{name}: {'; '.join(problems)}")
    out_bytes = sum(op.out.stat().st_size for op in ops if op.out.exists())
    if root_span is not None:
        root_span.work["out_bytes"] = out_bytes
    return {"wall": wall, "cpu": cpu, "attempted": len(ops), "failures": failures}


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the program and build inputs."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        ).stdout.strip() or "unknown"
    except OSError:
        git = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the result line and the detail record."""
    cli = load_program()
    build = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = spans.Tracer() if trace else None
    plain, traced, failures, attempted = [], [], [], 0
    try:
        rounds, rep, start = [], 0, time.perf_counter()
        while True:
            t_round = time.perf_counter()
            job = run_job(cli, build(np.random.default_rng([seed, rep]), workdir, toy))
            plain.append(job)
            if trace:
                restore = spans.install(tracer)
                try:
                    ops = build(np.random.default_rng([seed, rep + 1]), workdir, toy)
                    traced.append(run_job(cli, ops, tracer, f"{workload}:{rep + 1}"))
                finally:
                    restore()
            rep += 2 if trace else 1
            rounds.append(time.perf_counter() - t_round)
            if time.perf_counter() - start + statistics.median(rounds) > seconds:
                break
        if trace:
            restore = spans.install(tracer)
            try:
                for name, toy_build in WORKLOADS.items():
                    ops = toy_build(np.random.default_rng([seed, 0]), workdir, True)
                    traced.append(run_job(cli, ops, tracer, f"toy:{name}"))
            finally:
                restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job in plain + traced:
        attempted += job["attempted"]
        failures += job["failures"]
    timed = plain[1:] or plain  # the first job is the warm-up
    walls, cpus = [j["wall"] for j in timed], [j["cpu"] for j in timed]
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "jobs": len(walls),
        "job_s_quartiles": _quartiles(walls),
        "cpu_s_quartiles": _quartiles(cpus),
        "fail_share": len(failures) / attempted,
        "failures": failures[:10],
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "fingerprint": fingerprint(),
    }
    if trace:
        metrics, detail["toy_sourced"] = layer_metrics(tracer, workload)
        detail["work_per_job"] = work_per_job(tracer, workload)
        metrics["trace.overhead"] = {
            "value": statistics.median(j["wall"] for j in traced[1:len(plain)] or traced[:1])
            / statistics.median(walls), "unit": "ratio"}
        detail["traced_job_s"] = [j["wall"] for j in traced]
    else:
        setup = setup_seconds(workload, seed)
        detail["setup_s_samples"] = setup
        values = {
            "job_p90_s": _p90(walls),
            "cpu_p90_s": _p90(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"result": result, "detail": detail,
              "jobs": [{"wall": j["wall"], "cpu": j["cpu"]} for j in plain]}
    if trace:
        record["spans"] = tracer.to_json()
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {"result": result, "detail": detail}


def layer_metrics(tracer, workload: str):
    """Per-layer metrics from the workload's traced jobs, toy jobs as fallback."""
    jobs = {s.job for s in tracer.spans}
    own = {j for j in jobs if j.startswith(f"{workload}:")}
    toy = {j for j in jobs if j.startswith("toy:")}
    metrics, toy_sourced = {}, []
    for name, (names, kind, key, unit) in spans.LAYER_METRICS.items():
        value = spans.layer_metric(tracer.spans, own, names, kind, key)
        if value is None:
            value = spans.layer_metric(tracer.spans, toy, names, kind, key)
            toy_sourced.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, toy_sourced


def work_per_job(tracer, workload: str) -> dict:
    """Median per-job totals of every work count of the workload's own jobs."""
    totals: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        if s.job.startswith(f"{workload}:"):
            for key, value in s.work.items():
                per_job = totals.setdefault(f"{s.name}.{key}", {})
                per_job[s.job] = per_job.get(s.job, 0) + value
    return {k: statistics.median(v.values()) for k, v in sorted(totals.items())}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; prints one row per metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        print(f"{workload:6s} {'fail_share':34s} {detail['fail_share']:.6g} (of "
              f"{result['attempted']} operations, {detail['jobs']} jobs)")
        for name, m in result["metrics"].items():
            print(f"{workload:6s} {name:34s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program and build one job's inputs, then exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        load_program()
        WORKLOADS[args.workload](np.random.default_rng([args.seed, 0]), OUT, False)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return 0
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["detail"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
