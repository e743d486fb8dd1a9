"""Shared pieces of the benchmark: paths, process timing, statistics,
output digests and the recorded expected outputs."""

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (scratch stores, span files, Chrome traces,
#: result files) lives under this directory of the checkout.
WORK = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(HERE, "launch.py")
PREPARE = os.path.join(HERE, "prepare.py")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

PYTHON = sys.executable

#: Graph seeds the CLI workloads draw from.  Their n=16 three-strategy
#: sweeps each simulate 61k-74k rounds in 2.0-2.1 s in one process on a
#: 2-vCPU machine (seeds 0-20 range from 46k to 110k rounds and 1.7 to
#: 3.6 s), so a run's cost does not hinge on which seeds it draws; the
#: recorded output digests in expected.json cover exactly this pool.
GRAPH_SEEDS = (0, 9, 13, 14, 18)

#: Sweep strategies and eval suites of the cold_cli / warm_cli round.
SWEEP_STRATEGIES = "squatter,idle,ghost_squatter"
EVAL_SUITES = ("beyond_tolerance", "scheduler_stress", "torus_strong")
#: Strategies of the row1_tolerance round, from the batchable set.  An
#: odd count keeps the median command inside one strategy's cluster of
#: wall times instead of in the gap between two.
ROW1_STRATEGIES = ("squatter", "idle", "flag_spammer")


def cli_round(graph_seed):
    """The commands of one cold_cli / warm_cli round (without --store)."""
    g = str(graph_seed)
    return [
        ["sweep", "--n", "16", "--strategies", SWEEP_STRATEGIES, "--seed", g],
        ["table1"],
    ] + [["eval", suite, "--json"] for suite in EVAL_SUITES]


def row1_round(graph_seed):
    """The commands of one row1_tolerance round."""
    return [
        ["tolerance", "--row", "1", "--n", "64", "--strategy", s,
         "--seed", str(graph_seed)]
        for s in ROW1_STRATEGIES
    ]


def command_id(argv):
    """The key of a command in expected.json: its arguments, no store."""
    if "--store" in argv:
        i = argv.index("--store")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #

_STORE_LINE = re.compile(
    rb"^store .*: (\d+) cell\(s\) answered from cache, (\d+) computed, "
    rb"(\d+) total entries\n", re.M)


def output_digest(stdout: bytes) -> str:
    """SHA-256 of a command's stdout without its store-traffic line,
    which names the (temporary) store path and says hit or computed."""
    body = _STORE_LINE.sub(b"", stdout)
    return hashlib.sha256(body).hexdigest()


def store_traffic(stdout: bytes):
    """``(answered from cache, computed)`` from the store-traffic line,
    or ``None`` when the command printed none (``eval --json``)."""
    m = _STORE_LINE.search(stdout)
    return None if m is None else (int(m.group(1)), int(m.group(2)))


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def store_lines(path) -> int:
    """Cell lines in a run store's shards (no repro import needed)."""
    total = 0
    if os.path.isdir(path):
        for name in os.listdir(path):
            if name.startswith("shard-"):
                with open(os.path.join(path, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def dir_bytes(path) -> int:
    total = 0
    if os.path.isdir(path):
        for name in os.listdir(path):
            total += os.path.getsize(os.path.join(path, name))
    return total


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #

def program_env(unbuffered=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Finished:
    """One program process, timed from spawn to exit."""

    argv: list
    code: int
    wall_s: float
    maxrss_mb: float
    start_ns: int
    end_ns: int
    stdout: bytes
    stderr: bytes


def run_program(argv, scratch, timeout=150.0) -> Finished:
    """Spawn ``argv``, wait for it and time it; stdout and stderr go to
    files so no pipe can fill up and stall the program."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=program_env())
        status, rusage = wait_rusage(proc, timeout)
        end = time.perf_counter_ns()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Finished(argv, status, (end - start) / 1e9, rusage.ru_maxrss / 1024.0,
                    start, end, stdout, stderr)


def wait_rusage(proc, timeout):
    """Wait for ``proc`` and return ``(exit code, its own rusage)``;
    kill it if it outlives ``timeout`` seconds."""
    # os.kill, not proc.kill: Popen would poll and reap the child itself
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def repro_argv(args, traced_spans=None):
    """``python -m repro <args>``, or the same command under the layer
    tracer writing its spans to ``traced_spans``."""
    if traced_spans is None:
        return [PYTHON, "-m", "repro", *args]
    return [PYTHON, LAUNCH, traced_spans, "--", *args]


def prepare(request, scratch):
    """Run one ``prepare.py`` task in a child process (not timed) and
    return its reply."""
    request_path = os.path.join(scratch, "prepare-request.json")
    reply_path = os.path.join(scratch, "prepare-reply.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    done = subprocess.run([PYTHON, PREPARE, request_path, reply_path],
                          cwd=ROOT, env=program_env(), capture_output=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"prepare.py {request['task']} failed: "
                           + done.stderr.decode(errors="replace")[-1000:])
    with open(reply_path, encoding="utf-8") as fh:
        return json.load(fh)


def import_probe(scratch, n):
    """Median seconds from spawn to exit of a fresh interpreter that
    imports ``repro.cli`` — how long before a CLI command can take work."""
    walls = []
    for _ in range(n):
        done = run_program([PYTHON, "-c", "import repro.cli"], scratch)
        if done.code != 0:
            raise RuntimeError("import repro.cli failed: "
                               + done.stderr.decode(errors="replace")[-500:])
        walls.append(done.wall_s)
    return statistics.median(walls)


def fresh_dir(parent, name):
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

def quantile(values, q):
    """The ``q`` quantile (0 < q < 1) by linear interpolation between
    order statistics; the median for q = 0.5."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #

class Outcome:
    """What one workload run found: metrics, operation counts, and the
    human-readable notes printed above the result line."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = []

    def check(self, ok, what):
        """Count one operation; a failed check names what went wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}
