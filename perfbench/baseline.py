"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py --seeds 701-710 --seconds 24

For every seed, runs each workload once in a fresh process with
``--trace 0`` (workloads interleaved, so that a slow stretch of a shared
machine hits all of them alike), then one ``--trace 1`` run per workload
on the first seed.  It then reads back the records those runs left in
``.perfbench/``, prints per workload and end-to-end metric the median over
seeds and the spread (distance between the first and third quartile of
``statistics.quantiles(values, n=4)``, as a share of the median), and
writes ``perfbench/baseline.json``: the recipes, the layer -> end-to-end
map, the medians and quartiles, the traced per-layer values and the
environment fingerprint.  ``--summarize-only`` skips the runs and
aggregates the records already there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import OUT, load_program
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# which end-to-end metric each per-layer metric should move, on which workload
LAYER_MAP = {
    "fourier.product.points_per_s": "job_p90_s/cpu_p90_s on scan; no change on push/dim",
    "fourier.product.factors_per_s": "job_p90_s/cpu_p90_s on scan; no change on push/dim",
    "fourier.mu_hat.us_per_call": "job_p90_s on probe only; a batched-kernel gain shows on scan, not here",
    "fourier.sum.terms_per_s": "job_p90_s on push (circles) and dim (lattice); no change on scan/probe",
    "fourier.energy.self_s": "job_p90_s on dim",
    "fourier.grid_scan.self_s": "job_p90_s/cpu_p90_s on scan",
    "measures.tower.atoms_per_s": "job_p90_s and peak_rss_mb on push/dim",
    "measures.tower.self_s": "job_p90_s and peak_rss_mb on push/dim",
    "dimensions.binning.atoms_per_s": "job_p90_s and peak_rss_mb on dim",
    "dimensions.estimate.self_s": "job_p90_s and peak_rss_mb on dim",
    "dimensions.alpha.self_s": "job_p90_s on dim",
    "pushforward.frostman.self_s": "job_p90_s on push",
    "pushforward.annulus.self_s": "job_p90_s on push",
    "pushforward.decay_profile.self_s": "job_p90_s on push",
    "sparse.cover.self_s": "job_p90_s/cpu_p90_s on scan (includes the private scan kernel)",
    "sparse.cover.points_per_s": "job_p90_s/cpu_p90_s on scan",
    "sparse.enumerate.self_s": "job_p90_s on probe",
    "sparse.enumerate.sequences": "work count on probe; a correct change keeps it",
    "sparse.verify.samples_per_s": "job_p90_s on probe",
    "bounds.self_s": "job_p90_s on probe; negligible on push",
    "bounds.delta.calls": "job_p90_s on probe (bisection iterations); negligible on push",
    "cli.self_s": "job_p90_s on scan and probe (argparse, serialisation, file write)",
    "cli.out_bytes": "scan and probe; result files should stay byte-identical",
    "trace.overhead": "median traced over median untraced job wall time of the same run",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.DEVNULL, check=True,
    )
    record = load_record(workload, seed, trace)
    print(workload, seed, trace, record["detail"]["jobs"], record["result"]["failed"],
          {k: round(m["value"], 4) for k, m in record["result"]["metrics"].items()},
          flush=True)


def load_record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def recipe(workload: str) -> list[str]:
    ops = WORKLOADS[workload](np.random.default_rng([0, 0]), Path("OUT"), False)
    return [" ".join("--xi=<seeded frequencies>" if a.startswith("--xi=") else a
                     for a in op.argv) for op in ops]


def summarize(workload: str, seeds: list[int]) -> dict:
    runs = [load_record(workload, seed, 0) for seed in seeds]
    results = [r["result"] for r in runs]
    e2e = {}
    for metric, m in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        e2e[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                       "unit": m["unit"]}
        print(f"  {workload:6s} {metric:12s} median {median:.4f} spread {spread:.4f}")
    traced = load_record(workload, seeds[0], 1)
    return {
        "recipe": recipe(workload),
        "seeds": seeds,
        "jobs_per_run": [r["detail"]["jobs"] for r in runs],
        "fail_share": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
        "end_to_end": e2e,
        "per_layer": {k: m["value"] for k, m in traced["result"]["metrics"].items()},
        "per_layer_from_toy_jobs": traced["detail"]["toy_sourced"],
        "work_per_job": traced["detail"]["work_per_job"],
        "fingerprint": traced["detail"]["fingerprint"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 701-710")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--summarize-only", action="store_true",
                        help="aggregate the records in .perfbench/ without running")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds, names = list(range(first, last + 1)), args.workloads.split(",")
    if not args.summarize_only:
        for seed in seeds:
            for name in names:
                run_once(name, seed, args.seconds, 0)
        for name in names:
            run_once(name, seeds[0], args.seconds, 1)
    load_program()  # the recipes import the program
    workloads = {name: summarize(name, seeds) for name in names}
    out = {"seconds": args.seconds, "layer_map": LAYER_MAP, "workloads": workloads}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
