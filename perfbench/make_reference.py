"""Regenerate ``reference.json``: the answer digest of every benchmark point.

Each point runs on a freshly built machine, so the reference does not
depend on the warm-machine reuse the workloads exercise.  Rerun only
when the simulated model changes on purpose::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bootstrap import load_repro  # noqa: E402
import inputs  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "reference.json")


def main() -> int:
    load_repro()
    from repro.bench.harness import run_collective
    from repro.hardware.machine import Machine

    start = time.perf_counter()
    digests = {}
    for point in inputs.universe():
        machine = Machine(torus_dims=tuple(point["dims"]))
        result = run_collective(machine, point["family"], point["algorithm"],
                                point["x"], iters=point["iters"])
        digests[inputs.point_id(point)] = inputs.result_digest(result)
    with open(OUT, "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} reference digests in "
          f"{time.perf_counter() - start:.1f} s -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
