"""End-to-end benchmark of the ``repro`` commands users wait for.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It times real ``python -m repro``
processes (and one ``repro serve`` process under HTTP load), checks every
output, and prints a report followed, as its last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the run repeats a slice of the workload with the
layer tracer installed and reports the per-layer metrics instead, and
writes the spans as a Chrome trace under ``.perfbench/traces/``.

Workloads, metrics and the prediction of which layer moves which metric
are listed in BENCHMARK.json and ``perfbench/predictions.json``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback

from common import ROOT, SRC, WORK, Outcome, load_expected

WORKLOADS = ("cold_cli", "warm_cli", "row1_tolerance", "serve_mixed")


def provenance(seed):
    """Where a result came from: commit (and a digest of ``src/``, since a
    checkout without git has no commit), interpreter, libraries, cores."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    chrome = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
    outcome = Outcome()
    try:
        if args.workload == "serve_mixed":
            import serve_load

            serve_load.run(args.seed, args.seconds, args.trace, scratch,
                           outcome, chrome, prov)
        else:
            import cli_load

            cli_load.run(args.workload, args.seed, args.seconds, args.trace,
                         scratch, load_expected(), outcome, chrome, prov)
    except Exception:  # a broken program must still end in a clean exit code
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    for note in outcome.notes:
        print(note)
    for name, metric in outcome.metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':<26} {failed_frac:>14.6g} ratio"
          f"   ({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures[:10]:
        print(f"  FAILED: {failure}")

    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, provenance=prov, workload=args.workload,
                       seconds=args.seconds, trace=args.trace), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
