"""Regenerate ``golden.json``, the reference outputs the benchmark's
checks compare against.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter simulated results, and
review the diff: a simulator-only speedup must leave this file as it is.
The file holds the engine event count and simulated end time of the
Fig 3 Sessions init at both measured scales, and the first 16 hex
digits of ``repro.recovery.digest`` for chaos-soak seeds 0..SOAK_SPAN-1.
Soak seeds whose record is not ``ok`` keep their digest and are listed
under ``soak_not_ok``: the ``recovery-soak`` seed set skips them.
"""

from __future__ import annotations

import json
import os
import sys

from common import use_source_tree

SOAK_SPAN = 4096
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def main() -> int:
    use_source_tree()
    from repro.recovery import soak_run
    from simload import GROWTH_NODES, NODES, PPN, SessionsInit, _fig3_main

    sessions = {}
    for nodes in (GROWTH_NODES, NODES):
        world = SessionsInit._world(nodes)
        procs = world.spawn_ranks(_fig3_main)
        t_end = world.run()
        if any(p.exception is not None for p in procs):
            print(f"{nodes * PPN} ranks: a rank raised", file=sys.stderr)
            return 1
        sessions[str(nodes * PPN)] = {
            "events": world.cluster.engine.events_executed, "t_end": t_end}
    digests, not_ok = [], []
    for seed in range(SOAK_SPAN):
        record = soak_run(seed)
        if not record["ok"]:
            print(f"soak seed {seed} is not ok", file=sys.stderr)
            not_ok.append(seed)
        digests.append(record["digest"][:16])
    with open(PATH, "w") as fh:
        json.dump({"sessions": sessions, "soak_not_ok": not_ok,
                   "soak_digest16": digests}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
