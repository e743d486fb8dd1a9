"""The CLI workloads: fresh ``python -m repro`` processes, back to back.

* ``cold_cli`` — rounds of ``sweep``, ``table1`` and three ``eval``
  suites, each command computing every cell into its own empty store.
* ``warm_cli`` — the same commands against one store that already holds
  their cells plus a few thousand unrelated ones: no solver runs.
* ``row1_tolerance`` — ``tolerance --row 1 --n 64`` over three batchable
  strategies: 64 cells per command through the batched engine.

Each round draws the graph seed of its ``sweep`` or ``tolerance``
commands from ``GRAPH_SEEDS`` with the run's seed (``warm_cli`` draws
one for the whole run, since its store must already hold the cells).
A run holds a fixed number of whole rounds, those that fill
``--seconds`` at a nominal pace, so every run measures the same mix of
commands.
"""

import os
import random
import shutil
import statistics
import time
from typing import NamedTuple, Optional

import layers
from common import (
    GRAPH_SEEDS, cli_round, command_id, dir_bytes, fresh_dir, import_probe,
    output_digest, prepare, quantile, repro_argv, row1_round, run_program,
    store_lines, store_traffic,
)

#: A command slower than this is not counted in ``goodput_rps``.
LATENCY_LIMIT_S = 30.0
#: Fresh-interpreter import probes behind ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Seconds one round takes on a 2-vCPU machine.  A run holds the whole
#: rounds that fill ``--seconds`` at this pace: a fixed amount of work,
#: so every run and every commit is measured on the same commands, and
#: the machine's speed swings change how long a run takes, not what it
#: holds.
NOMINAL_ROUND_S = {"cold_cli": 7.5, "warm_cli": 3.3, "row1_tolerance": 2.6}
#: Unrelated cells added to the warm store, so opening and reading it
#: costs what a long-used store costs.
UNRELATED_CELLS = 3000


class CliWorkload:
    """One CLI workload's rounds, stores and output checks."""

    def __init__(self, name, rng, scratch, expected):
        self.name = name
        self.rng = rng
        self.scratch = scratch
        self.expected = expected
        self.store = None
        if name == "warm_cli":
            self.graph_seed = rng.choice(GRAPH_SEEDS)

    def next_round(self):
        if self.name == "warm_cli":
            return cli_round(self.graph_seed)
        seed = self.rng.choice(GRAPH_SEEDS)
        return cli_round(seed) if self.name == "cold_cli" else row1_round(seed)

    def store_for(self, index):
        """The ``--store`` directory for the ``index``-th command of a
        round, or ``None`` (row1_tolerance runs without a store)."""
        if self.name == "warm_cli":
            return self.store
        if self.name == "cold_cli":
            return fresh_dir(self.scratch, f"store-{index}")
        return None

    def prepare(self, outcome):
        """Fill the warm store (not timed): its cells by running the
        round's commands once, then the unrelated cells."""
        if self.name != "warm_cli":
            return
        self.store = fresh_dir(self.scratch, "warm-store")
        commands = cli_round(self.graph_seed)
        reply = prepare({"task": "warm_store", "store": self.store,
                         "commands": commands, "unrelated": UNRELATED_CELLS,
                         "seed": self.rng.random()}, self.scratch)
        for args, (code, stdout) in zip(commands, reply["outputs"]):
            outcome.check(self.output_ok(args, code, stdout.encode(), "cold"),
                          f"preparing the warm store: {command_id(args)}")
        self.store_size = store_lines(self.store)

    def traffic(self):
        return {"cold_cli": "cold", "warm_cli": "warm"}.get(self.name)

    def output_ok(self, args, code, stdout, traffic):
        """Exit code 0, stdout digest as recorded, and (for commands
        that report it) every cell computed (cold) or read (warm)."""
        want = self.expected.get(command_id(args))
        if code != 0 or want is None:
            return False
        if output_digest(stdout) != want["sha256"]:
            return False
        seen = store_traffic(stdout)
        if seen is None or traffic is None:
            return True
        return seen == ((0, want["cells"]) if traffic == "cold"
                        else (want["cells"], 0))

    def cells(self, args):
        return self.expected[command_id(args)]["cells"]

    def finish(self, outcome):
        """warm_cli: a store that grew means some command computed."""
        if self.name == "warm_cli":
            outcome.check(store_lines(self.store) == self.store_size,
                          "the warm store grew: a warm command computed cells")


class Ran(NamedTuple):
    """One command of a round: its arguments, process, output check,
    span file (traced rounds) and the bytes its store grew by."""

    args: list
    done: object
    ok: bool
    spans: Optional[str]
    grew: int


def run_round(work, commands, outcome, traced_dir=None):
    """Run one round's commands; returns one :class:`Ran` per command."""
    finished = []
    for index, args in enumerate(commands):
        store = work.store_for(index)
        full = args + ["--store", store] if store else args
        spans = (None if traced_dir is None
                 else os.path.join(traced_dir, f"spans-{index}.json"))
        before = dir_bytes(store) if store else 0
        done = run_program(repro_argv(full, spans), work.scratch)
        ok = work.output_ok(args, done.code, done.stdout, work.traffic())
        outcome.check(ok, f"{command_id(args)}: exit {done.code}, "
                          f"{done.stderr.decode(errors='replace')[-300:]!r}")
        finished.append(Ran(args, done, ok, spans,
                            (dir_bytes(store) if store else 0) - before))
        if store and work.name == "cold_cli":
            shutil.rmtree(store, ignore_errors=True)
    return finished


def run(name, seed, seconds, trace, scratch, expected, outcome, chrome_path,
        provenance):
    rng = random.Random(seed)
    work = CliWorkload(name, rng, scratch, expected)
    work.prepare(outcome)
    if trace:
        traced(work, outcome, chrome_path, provenance)
        work.finish(outcome)
        return
    outcome.put("setup_s", import_probe(scratch, SETUP_PROBES), "s")
    results = []
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / NOMINAL_ROUND_S[name]))):
        results.extend(run_round(work, work.next_round(), outcome))
    elapsed = time.perf_counter() - start
    work.finish(outcome)

    walls = [r.done.wall_s for r in results]
    good = [r for r in results if r.ok and r.done.wall_s <= LATENCY_LIMIT_S]
    cells = sum(work.cells(r.args) for r in good)
    outcome.put("cmd_p50_s", statistics.median(walls), "s")
    outcome.put("cells_per_s", cells / elapsed, "cells/s")
    outcome.put("peak_rss_mb", max(r.done.maxrss_mb for r in results), "MB")
    # Commands run back to back from one client (a closed loop), so each
    # is due when it is spawned and its latency is its wall time.
    outcome.put("req_p50_ms", statistics.median(walls) * 1e3, "ms")
    outcome.put("req_p90_ms", quantile(walls, 0.9) * 1e3, "ms")
    outcome.put("goodput_rps", len(good) / elapsed, "req/s")
    outcome.notes.append(
        f"{len(results)} commands in {elapsed:.1f} s ({cells} cells); "
        f"latency limit {LATENCY_LIMIT_S:.0f} s")


def traced(work, outcome, chrome_path, provenance):
    """One round untraced, then the same round traced; per-layer metrics
    from the traced round's spans."""
    imports = layers.import_metrics(work.scratch)
    commands = work.next_round()
    plain = run_round(work, commands, outcome)
    traced_dir = fresh_dir(work.scratch, "spans")
    runs = run_round(work, commands, outcome, traced_dir)

    spans, orphan = [], {}
    processes = []
    unattributed = 0.0
    for group, r in enumerate(runs):
        if not os.path.exists(r.spans):
            continue
        got, hot = layers.load_spans(r.spans, group)
        spans.extend(got)
        for name, (count, ns) in hot.items():
            slot = orphan.setdefault(name, [0, 0])
            slot[0] += count
            slot[1] += ns
        roots = sum(s.end - s.start for s in got if s.parent is None)
        unattributed += r.done.wall_s - roots / 1e9
        processes.append((group, command_id(r.args), r.done.start_ns, r.done.end_ns))
    metrics = layers.span_metrics(spans, orphan)
    metrics["store.bytes_written"] = sum(r.grew for r in runs)
    plain_wall = sum(r.done.wall_s for r in plain)
    traced_wall = sum(r.done.wall_s for r in runs)
    metrics["tracing.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["unattributed.s"] = unattributed
    metrics.update(imports)
    layers.put_all(outcome, metrics)

    table = layers.layer_table(spans, orphan)
    outcome.notes.append(f"traced round: {len(runs)} commands, "
                         f"{traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced")
    outcome.notes.append(layers.format_layer_table(table, traced_wall, unattributed))
    t0 = min(r.done.start_ns for r in runs)
    layers.write_chrome_trace(chrome_path, spans, processes, t0,
                              dict(provenance, workload=work.name), by_root=False)
    outcome.notes.append(f"Chrome trace: {chrome_path}")
