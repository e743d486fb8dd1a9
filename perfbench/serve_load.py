"""The serve_mixed workload: one ``repro serve --workers 2`` process under
an open loop of ``POST /run`` at a fixed rate.

Every ``1/RATE`` seconds one slot is due.  A slot is a *warm* key (its
cell is already in the server's store), a *cold* key (a cell no request
asked for before), or a cold key followed ``REPEAT_GAP_S`` later by the
same body again, which arrives while the first is still computing and
joins it (single-flight).  Two threads, each with one keep-alive
connection, send the requests: a request whose slot comes up while both
are busy goes out late, and its latency is timed from when it was due,
so a stall shows in every request it delays.  ``loadgen.lag_p90_ms``
says how late the generator ran.

Every response must be 200 with the records ``Scenario.run()`` gives for
the same body (computed before the load, untimed), and the server's
``GET /stats`` counters must account for every request sent.
"""

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import threading
import time

import layers
from common import (
    ROOT, dir_bytes, fresh_dir, prepare, program_env, quantile, repro_argv,
    wait_rusage,
)

#: Slots per second of the open loop.
RATE = 10.0
#: Share of slots that ask for a warm key / a cold key; the rest are a
#: cold key plus an in-flight repeat.  Warm answers take about 2 ms,
#: the rest 40-80 ms, and a warm request that arrives while a cell is
#: computing waits for the event loop too; with these shares the median
#: lies well inside the fast group and p90 inside the slow one.
WARM_SHARE = 0.80
COLD_SHARE = 0.15
REPEAT_GAP_S = 0.003
#: Distinct warm keys held in the store before the load starts.
WARM_KEYS = 12
#: Client connections (and threads): at most the machine's two cores.
CONNECTIONS = 2
#: A request slower than this (from when it was due) is not goodput.
LATENCY_LIMIT_MS = 500.0
#: Server spawns behind ``setup_s`` (median reported); the last one
#: serves the load.
SETUP_PROBES = 3
WORKERS = "2"

#: Cells: Table 1 row 4 on one small random connected graph, squatter
#: adversary, keys told apart by the run seed; each costs about 50 ms
#: to compute on a 2-vCPU machine, and about the same for every seed,
#: so p90 does not hinge on which cells a run draws.
GRAPH_SEEDS = (1,)


def body(graph_seed, run_seed):
    return {"algorithm": 4,
            "graph": {"family": "random_connected",
                      "args": {"n": 8, "seed": graph_seed}},
            "strategy": "squatter", "f": "max", "seed": run_seed}


def canonical(records):
    return json.dumps(records, sort_keys=True)


class Plan:
    """The bodies of a run and the records each must come back with.

    Every pass has the same shape (slot kinds, timing, warm picks); only
    its cold keys are new, so the untraced and traced halves of a traced
    run compare like with like.
    """

    def __init__(self, rng, store_path, seconds, passes, scratch):
        seeds = iter(rng.sample(range(1, 10 ** 6), 10 ** 4))
        self.warm = [body(rng.choice(GRAPH_SEEDS), next(seeds))
                     for _ in range(WARM_KEYS)]
        shape = []
        for slot in range(int(seconds * RATE)):
            draw = rng.random()
            kind = ("warm" if draw < WARM_SHARE else
                    "cold" if draw < WARM_SHARE + COLD_SHARE else "repeat")
            shape.append((slot / RATE, kind, rng.choice(self.warm),
                          rng.choice(GRAPH_SEEDS)))
        self.schedules = []
        for _ in range(passes):
            schedule = []
            for due, kind, warm, graph_seed in shape:
                if kind == "warm":
                    schedule.append((due, "warm", warm))
                    continue
                cold = body(graph_seed, next(seeds))
                schedule.append((due, "cold", cold))
                if kind == "repeat":
                    schedule.append((due + REPEAT_GAP_S, "repeat", cold))
            self.schedules.append(schedule)
        cold = [b for schedule in self.schedules
                for _, kind, b in schedule if kind == "cold"]
        reply = prepare({"task": "serve_plan", "store": store_path,
                         "warm": self.warm, "cold": cold}, scratch)
        self.expected = {canonical(b): canonical(records) for b, records
                         in zip(self.warm + cold, reply["warm"] + reply["cold"])}


class Server:
    """One ``repro serve`` process, timed from spawn to first healthy
    ``GET /healthz``."""

    def __init__(self, store, scratch, spans=None):
        argv = repro_argv(["serve", "--store", store, "--workers", WORKERS,
                           "--port", "0"], spans)
        self.stderr = open(os.path.join(scratch, "serve-stderr"), "wb")
        self.start_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=ROOT,
                                     env=program_env(unbuffered=True))
        try:
            guard = threading.Timer(60.0, os.kill, (self.proc.pid, signal.SIGKILL))
            guard.start()
            try:
                line = self.proc.stdout.readline()
            finally:
                guard.cancel()
            if b"listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.strip().rsplit(b":", 1)[1])
            status, _ = self.get("/healthz")
            self.ready_s = (time.perf_counter_ns() - self.start_ns) / 1e9
            if status != 200:
                raise RuntimeError(f"GET /healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self):
        """SIGINT (the server's Ctrl-C), wait; returns ``(exit code,
        peak RSS in MB)``."""
        os.kill(self.proc.pid, signal.SIGINT)  # not send_signal: it may reap
        code, rusage = wait_rusage(self.proc, 30.0)
        self.end_ns = time.perf_counter_ns()
        self.proc.stdout.close()
        self.stderr.close()
        return code, rusage.ru_maxrss / 1024.0


def drive(port, schedule):
    """Send ``schedule`` open-loop; returns one ``(status, body bytes,
    due, sent, done)`` per entry (perf_counter seconds)."""
    results = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                offset, _, b = schedule[i]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/run", body=json.dumps(b),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    status, data = None, repr(exc).encode()
                results[i] = (status, data, due, sent, time.perf_counter())
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def check_responses(plan, schedule, results, outcome):
    ok = []
    for (_, kind, b), (status, data, *_t) in zip(schedule, results):
        good = False
        if status == 200:
            records = json.loads(data).get("records")
            good = canonical(records) == plan.expected[canonical(b)]
        outcome.check(good, f"POST /run ({kind}): status {status}, "
                            f"{data[:200]!r}" if not good else "")
        ok.append(good)
    return ok


def check_stats(before, after, sent, outcome):
    """The counter diff must account for every request sent."""
    diff = {k: after["counters"][k] - before["counters"][k]
            for k in after["counters"]}
    accounted = (diff["requests"] == sent
                 and diff["warm_hits"] + diff["dedup_joined"] + diff["enqueued"] == sent
                 and diff["computed"] + diff["failed"] + diff["rejected"] == diff["enqueued"]
                 and diff["busy_429"] == 0)
    outcome.check(accounted, f"/stats counters do not account for {sent} "
                             f"requests: {diff}")
    return diff


def serve_pass(plan, schedule, store, scratch, outcome, spans=None, server=None):
    """Run one schedule against a server (started here unless given);
    returns the per-request results, stats diff and server record."""
    server = server or Server(store, scratch, spans)
    try:
        _, before = server.get("/stats")
        bytes_before = dir_bytes(store)
        results = drive(server.port, schedule)
        _, after = server.get("/stats")
        grew = dir_bytes(store) - bytes_before
    finally:
        code, rss = server.stop()
    outcome.check(code == 0, f"repro serve exited with {code}")
    ok = check_responses(plan, schedule, results, outcome)
    diff = check_stats(before, after, len(schedule), outcome)
    return results, ok, diff, server, rss, grew


def latencies_ms(results, since):
    """Per-request latency in ms from ``since`` (2 = due, 3 = sent)."""
    return [(r[4] - r[since]) * 1e3 for r in results]


def run(seed, seconds, trace, scratch, outcome, chrome_path, provenance):
    rng = random.Random(seed)
    store = fresh_dir(scratch, "serve-store")
    plan = Plan(rng, store, seconds / 2 if trace else seconds, 2 if trace else 1,
                scratch)
    if trace:
        traced(plan, store, scratch, outcome, chrome_path, provenance)
        return

    probes, rss = [], []
    server = None
    for i in range(SETUP_PROBES):
        server = Server(store, scratch)
        probes.append(server.ready_s)
        if i < SETUP_PROBES - 1:
            code, peak = server.stop()
            outcome.check(code == 0, f"repro serve exited with {code}")
            rss.append(peak)
    schedule = plan.schedules[0]
    results, ok, diff, _, peak, _ = serve_pass(plan, schedule, store, scratch,
                                               outcome, server=server)
    rss.append(peak)

    lat = latencies_ms(results, 2)
    elapsed = max(r[4] for r in results) - min(r[2] for r in results)
    good = sum(1 for good_, ms in zip(ok, lat) if good_ and ms <= LATENCY_LIMIT_MS)
    outcome.put("setup_s", statistics.median(probes), "s")
    # One request asks for one cell, and is the operation a user waits on.
    outcome.put("cmd_p50_s", statistics.median(lat) / 1e3, "s")
    outcome.put("cells_per_s", sum(ok) / elapsed, "cells/s")
    outcome.put("peak_rss_mb", max(rss), "MB")
    outcome.put("req_p50_ms", statistics.median(lat), "ms")
    outcome.put("req_p90_ms", quantile(lat, 0.9), "ms")
    outcome.put("goodput_rps", good / elapsed, "req/s")
    lag = [(r[3] - r[2]) * 1e3 for r in results]
    outcome.notes.append(
        f"{len(results)} requests over {elapsed:.1f} s at {RATE:g} slots/s "
        f"({CONNECTIONS} connections); latency limit {LATENCY_LIMIT_MS:g} ms; "
        f"generator lag p90 {quantile(lag, 0.9):.2f} ms; "
        f"server counters: warm {diff['warm_hits']}, joined "
        f"{diff['dedup_joined']}, computed {diff['computed']}")


def traced(plan, store, scratch, outcome, chrome_path, provenance):
    """Half the run untraced, half with the tracer in the server; the
    per-layer metrics come from the traced half."""
    imports = layers.import_metrics(scratch)
    plain, *_ = serve_pass(plan, plan.schedules[0], store, scratch, outcome)
    spans_path = os.path.join(scratch, "serve-spans.json")
    results, ok, diff, server, _, grew = serve_pass(
        plan, plan.schedules[1], store, scratch, outcome, spans=spans_path)

    spans, orphan = layers.load_spans(spans_path, 0)
    # The server's own import and main() span its whole (mostly idle)
    # life; the layers are measured per request and per computed cell.
    spans = [s for s in spans if s.name not in ("import", "cli.main")]
    layers.charge_compute_to_requests(spans)
    metrics = layers.span_metrics(spans, orphan)
    metrics.update(layers.serve_span_metrics(spans))
    metrics["store.bytes_written"] = grew
    plain_ms = statistics.mean(latencies_ms(plain, 2))
    traced_ms = statistics.mean(latencies_ms(results, 2))
    metrics["tracing.overhead_frac"] = traced_ms / plain_ms - 1.0
    http_s = sum(s.end - s.start for s in spans
                 if s.name == "serve.http" and s.args.get("path") == "/run") / 1e9
    client_s = sum(latencies_ms(results, 3)) / 1e3
    # Time the clients waited that no server-side handler span covers:
    # transport, the event loop, and response encoding.
    metrics["unattributed.s"] = client_s - http_s
    metrics["serve.warm_hits"] = diff["warm_hits"]
    metrics["serve.dedup_joined"] = diff["dedup_joined"]
    metrics["serve.computed"] = diff["computed"]
    metrics["serve.rejected"] = diff["rejected"]
    metrics["loadgen.sent"] = len(results)
    metrics["loadgen.lag_p90_ms"] = quantile([(r[3] - r[2]) * 1e3 for r in results], 0.9)
    metrics.update(imports)
    layers.put_all(outcome, metrics)

    table = layers.layer_table(spans, orphan)
    outcome.notes.append(
        f"traced half: {len(results)} requests, mean latency {traced_ms:.2f} ms "
        f"traced vs {plain_ms:.2f} ms untraced; self times summed over "
        f"requests (client-side wait {client_s:.3f} s)")
    outcome.notes.append(layers.format_layer_table(table, client_s, client_s - http_s))
    layers.write_chrome_trace(
        chrome_path, spans, [(0, "repro serve", server.start_ns, server.end_ns)],
        server.start_ns, dict(provenance, workload="serve_mixed"), by_root=True)
    outcome.notes.append(f"Chrome trace: {chrome_path}")
