"""Per-layer metrics from the traced run: span self times, counts,
import-time shares, and the Chrome trace-event export.

A span's *self time* is its duration minus the part of it that its child
spans cover, minus the hot time (``World.step``) charged to it.  A
layer's self time is the sum over its spans; layers are named by the
first part of the span name (``store.get`` belongs to ``store``).
"""

import json
import os
import re
import statistics
from collections import defaultdict

from common import PYTHON, run_program

#: The per-layer metrics every traced run reports, with their units, in
#: the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.networkx_s": "s",
    "import.numpy_s": "s",
    "import.repro_self_s": "s",
    "cli.self_s": "s",
    "graphs.build_calls": "count",
    "graphs.build_s": "s",
    "graphs.fingerprint_s": "s",
    "graphs.quotient_s": "s",
    "scenarios.compile_s": "s",
    "scenarios.parse_s": "s",
    "store.open_s": "s",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.bytes_written": "bytes",
    "executor.cells": "count",
    "executor.solver_calls": "count",
    "executor.key_s": "s",
    "executor.self_s": "s",
    "executor.retries": "count",
    "executor.quarantined": "count",
    "batch.groups": "count",
    "batch.cells": "count",
    "batch.cell_ratio": "ratio",
    "batch.fallback_cells": "count",
    "batch.s": "s",
    "engine.solver_calls": "count",
    "engine.solver_s": "s",
    "engine.rounds": "count",
    "engine.step_s": "s",
    "engine.us_per_round": "us",
    "engine.trace_events_kept": "count",
    "records.encode_s": "s",
    "evals.report_s": "s",
    "serve.warm_hits": "count",
    "serve.dedup_joined": "count",
    "serve.computed": "count",
    "serve.rejected": "count",
    "serve.queue_wait_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.http_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.lag_p90_ms": "ms",
    "tracing.overhead_frac": "ratio",
    "unattributed.s": "s",
}


def put_all(outcome, metrics):
    """Report every per-layer metric, in BENCHMARK.json order; a layer
    the workload never reached reports 0."""
    for name, unit in PER_LAYER_UNITS.items():
        outcome.put(name, metrics.get(name, 0), unit)


# --------------------------------------------------------------------- #
# Import time
# --------------------------------------------------------------------- #

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_shares(stderr: str):
    """Self import time in seconds by top-level package, from the
    ``-X importtime`` report on stderr."""
    shares = defaultdict(float)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            shares[m.group(4).split(".")[0]] += int(m.group(1)) / 1e6
    return shares


def import_metrics(scratch, runs=3):
    """The ``import.*`` metrics: medians over ``runs`` fresh
    ``python -X importtime -c "import repro.cli"`` processes, kept apart
    from the timed runs so those carry no import tracing."""
    samples = defaultdict(list)
    for _ in range(runs):
        done = run_program([PYTHON, "-X", "importtime", "-c", "import repro.cli"],
                           scratch)
        if done.code != 0:
            raise RuntimeError("import repro.cli failed under -X importtime")
        shares = import_shares(done.stderr.decode(errors="replace"))
        samples["import.total_s"].append(sum(shares.values()))
        samples["import.networkx_s"].append(shares.get("networkx", 0.0))
        samples["import.numpy_s"].append(shares.get("numpy", 0.0))
        samples["import.repro_self_s"].append(shares.get("repro", 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #

class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "thread",
                 "args", "self_ns", "group")

    def __init__(self, raw, group):
        (self.id, self.parent, self.root, self.name, self.start, self.end,
         self.thread, self.args) = raw
        self.group = group
        self.self_ns = 0

    @property
    def layer(self):
        return self.name.split(".")[0]

    def hot(self, name):
        return self.args.get("hot", {}).get(name, [0, 0])


def _covered(intervals):
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def load_spans(path, group):
    """Spans of one traced process; ``group`` tags them with the command
    or server they came from (span ids are unique only per process)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spans = [Span(raw, group) for raw in payload["spans"]]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for s in spans:
        hot_ns = sum(ns for _, ns in s.args.get("hot", {}).values())
        s.self_ns = s.end - s.start - _covered(children[s.id]) - hot_ns
    return spans, payload.get("orphan_hot", {})


def layer_table(spans, orphan_hot):
    """``layer -> [span count, self seconds]``; hot ``World.step`` time
    counts toward ``engine``."""
    table = defaultdict(lambda: [0, 0.0])
    for s in spans:
        row = table[s.layer]
        row[0] += 1
        row[1] += s.self_ns / 1e9
        table["engine"][1] += s.hot("engine.step")[1] / 1e9
    table["engine"][1] += orphan_hot.get("engine.step", [0, 0])[1] / 1e9
    return dict(table)


def span_metrics(spans, orphan_hot):
    """The per-layer metrics that come from spans alone."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def self_s(*names):
        return sum(s.self_ns for n in names for s in by[n]) / 1e9

    def hot_total(name, index):
        total = orphan_hot.get(name, [0, 0])[index]
        return total + sum(s.hot(name)[index] for s in spans)

    gets = by["store.get"]
    plans = by["executor.plan"]
    cells = by["executor.cell"]
    runs = by["batch.run"]
    pending = sum(s.args.get("pending", 0) for s in by["batch.plan"])
    batch_cells = sum(s.args["cells"] - s.args["leftover"] for s in runs
                      if "error" not in s.args)
    fallback = sum(s.args["leftover"] for s in runs)
    seen, retries = set(), 0
    for s in cells:  # a cell run again under the same plan is a retry
        key = (s.group, s.parent, s.args.get("cell"))
        retries += key in seen
        seen.add(key)
    step_s = hot_total("engine.step", 1) / 1e9
    rounds = hot_total("engine.rounds", 0)
    return {
        "cli.self_s": self_s("cli.main"),
        "graphs.build_calls": len(by["graphs.build"]),
        "graphs.build_s": self_s("graphs.build", "graphs.resolve"),
        "graphs.fingerprint_s": self_s("graphs.fingerprint"),
        "graphs.quotient_s": self_s("graphs.quotient"),
        "scenarios.compile_s": self_s("scenarios.compile"),
        "scenarios.parse_s": self_s("scenarios.parse"),
        "store.open_s": self_s("store.open"),
        "store.get_calls": len(gets),
        "store.get_s": self_s("store.get"),
        "store.hit_ratio": (sum(1 for s in gets if s.args.get("hit")) / len(gets)
                            if gets else 0.0),
        "store.put_calls": len(by["store.put"]),
        "store.put_s": self_s("store.put"),
        "executor.cells": sum(s.args.get("cells", 0) for s in plans),
        "executor.solver_calls": len(cells) + batch_cells,
        "executor.key_s": self_s("executor.key"),
        "executor.self_s": self_s("executor.plan", "executor.cell"),
        "executor.retries": retries,
        "executor.quarantined": sum(s.args.get("quarantined", 0) for s in plans),
        "batch.groups": len(runs),
        "batch.cells": batch_cells,
        "batch.cell_ratio": batch_cells / pending if pending else 0.0,
        "batch.fallback_cells": fallback,
        "batch.s": self_s("batch.plan", "batch.run"),
        "engine.solver_calls": len(by["engine.solve"]),
        "engine.solver_s": self_s("engine.solve"),
        "engine.rounds": rounds,
        "engine.step_s": step_s,
        "engine.us_per_round": step_s / rounds * 1e6 if rounds else 0.0,
        "engine.trace_events_kept": sum(s.args.get("trace_events", 0)
                                        for s in by["engine.solve"]),
        "records.encode_s": self_s("records.encode"),
        "evals.report_s": self_s("evals.run", "evals.report"),
    }


def charge_compute_to_requests(spans):
    """Treat a computed cell's ``serve.compute`` span as a child of each
    ``serve.http`` request that waited for it (queued or joined), so a
    cold request's self time is its handler work and queue wait, not the
    compute that ran in a worker thread."""
    key_of_request = {}
    for s in spans:
        if s.name == "serve.submit" and s.args.get("status") in ("queued", "joined"):
            key_of_request[s.parent] = s.args["key"]
    compute = defaultdict(list)
    for s in spans:
        if s.name == "serve.compute":
            compute[s.args.get("key")].append((s.start, s.end))
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for s in spans:
        if s.id in key_of_request:
            linked = [(max(a, s.start), min(b, s.end))
                      for a, b in compute[key_of_request[s.id]] if b > s.start and a < s.end]
            s.self_ns = s.end - s.start - _covered(children[s.id] + linked)


def serve_span_metrics(spans):
    """``serve.queue_wait_ms``, ``serve.compute_ms``, ``serve.http_ms``:
    medians over the traced server's requests and computed cells."""
    queued_at = {}
    compute_ids = set()
    for s in spans:
        if s.name == "serve.submit" and s.args.get("status") == "queued":
            queued_at[s.args["key"]] = s.end
        if s.name == "serve.compute":
            compute_ids.add(s.id)
    waits = [(s.start - queued_at[s.args["key"]]) / 1e6 for s in spans
             if s.name == "serve.compute" and s.args.get("key") in queued_at]
    computes = [(s.end - s.start) / 1e6 for s in spans
                if s.name == "executor.plan" and s.parent in compute_ids]
    https = [(s.end - s.start) / 1e6 for s in spans
             if s.name == "serve.http" and s.args.get("path") == "/run"]
    med = lambda v: statistics.median(v) if v else 0.0  # noqa: E731
    return {"serve.queue_wait_ms": med(waits), "serve.compute_ms": med(computes),
            "serve.http_ms": med(https)}


# --------------------------------------------------------------------- #
# Report and Chrome trace
# --------------------------------------------------------------------- #

def format_layer_table(table, wall_s, unattributed_s):
    lines = [f"  {'layer':<12} {'spans':>7} {'self_s':>10} {'share':>7}"]
    for layer, (count, self_sec) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        share = self_sec / wall_s if wall_s else 0.0
        lines.append(f"  {layer:<12} {count:>7} {self_sec:>10.4f} {share:>7.1%}")
    share = unattributed_s / wall_s if wall_s else 0.0
    lines.append(f"  {'(none)':<12} {'':>7} {unattributed_s:>10.4f} {share:>7.1%}"
                 f"   wall time no span covers")
    lines.append(f"  {'total':<12} {'':>7} {wall_s:>10.4f}")
    return "\n".join(lines)


def write_chrome_trace(path, spans, processes, t0_ns, metadata, by_root):
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).

    ``processes`` are ``(group, label, start_ns, end_ns)``: each traced
    command or server, timed from spawn to exit.  A command's spans share
    its track; with ``by_root`` (the server) every request gets its own.
    Hot ``World.step`` totals ride along in each span's args.
    """
    tids = {}

    def tid_of(group, root):
        return tids.setdefault((group, root if by_root else None), len(tids) + 1)

    events = [{"name": label, "cat": "process", "ph": "X", "pid": 1,
               "tid": tid_of(group, None), "ts": (start - t0_ns) / 1e3,
               "dur": (end - start) / 1e3, "args": {"group": group}}
              for group, label, start, end in processes]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
            "tid": tid_of(s.group, s.root),
            "ts": (s.start - t0_ns) / 1e3, "dur": (s.end - s.start) / 1e3,
            "args": dict(s.args, self_us=s.self_ns / 1e3, group=s.group),
        })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata}, fh)

