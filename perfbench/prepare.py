"""Preparation that needs the program's own code, run in a child process.

    python perfbench/prepare.py REQUEST.json REPLY.json

The benchmark process itself never imports ``repro``: on Linux a child's
peak RSS (``ru_maxrss``) counts its parent's resident size at fork, so a
parent holding the program would inflate every ``peak_rss_mb`` it reads.

Requests (``task`` picks one):

* ``warm_store`` — run ``commands`` through ``repro.cli.main`` against
  ``store``, then append ``unrelated`` cells no command asks for, shaped
  like a stored one.  Reply: ``{"outputs": [[exit code, stdout], ...]}``.
* ``serve_plan`` — ``Scenario.run()`` every ``warm`` body into ``store``
  and every ``cold`` body without one.  Reply: ``{"warm": [records...],
  "cold": [records...]}``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys


def warm_store(request):
    from repro.analysis.store import RunStore
    from repro.cli import main

    outputs = []
    for args in request["commands"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(args + ["--store", request["store"]])
            except SystemExit as exc:
                code = exc.code
        outputs.append([code, out.getvalue()])
    store = RunStore(request["store"])
    template = store.get(min(store.keys()))
    rng = random.Random(request["seed"])
    for i in range(request["unrelated"]):
        key = hashlib.sha256(f"unrelated {rng.random()} {i}".encode()).hexdigest()
        store.put(key, [dict(rec, seed=1000 + i) for rec in template])
    return {"outputs": outputs}


def serve_plan(request):
    from repro.analysis.store import RunStore
    from repro.scenarios import Scenario

    store = RunStore(request["store"])
    return {
        "warm": [list(Scenario.from_dict(b).run(store=store)) for b in request["warm"]],
        "cold": [list(Scenario.from_dict(b).run()) for b in request["cold"]],
    }


TASKS = {"warm_store": warm_store, "serve_plan": serve_plan}

if __name__ == "__main__":
    request_path, reply_path = sys.argv[1:]
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    reply = TASKS[request["task"]](request)
    with open(reply_path, "w", encoding="utf-8") as fh:
        json.dump(reply, fh)
