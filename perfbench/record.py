"""Re-record expected.json: the stdout digest and cell count of every
command the CLI workloads can draw.

    python3 perfbench/record.py

Run it from the root of a checkout whose outputs are known good (the
repo's byte-identity tests pass).  Each command runs once into its own
empty store; ``cells`` is the number of cells it stored.
"""

import json
import os
import shutil
import sys

from common import (
    EXPECTED_PATH, GRAPH_SEEDS, WORK, cli_round, command_id, fresh_dir,
    output_digest, repro_argv, row1_round, run_program, store_lines,
)


def main():
    scratch = fresh_dir(WORK, f"record-{os.getpid()}")
    commands = {}
    for seed in GRAPH_SEEDS:
        for args in cli_round(seed) + row1_round(seed):
            commands[command_id(args)] = args
    expected = {}
    try:
        for cid, args in sorted(commands.items()):
            store = fresh_dir(scratch, "store")
            done = run_program(repro_argv(args + ["--store", store]), scratch)
            if done.code != 0:
                sys.stderr.write(done.stderr.decode(errors="replace"))
                raise SystemExit(f"{cid}: exit {done.code}")
            expected[cid] = {"sha256": output_digest(done.stdout),
                             "cells": store_lines(store)}
            print(f"{done.wall_s:7.2f} s  {expected[cid]['cells']:4d} cells  {cid}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH} ({len(expected)} commands)")


if __name__ == "__main__":
    main()
