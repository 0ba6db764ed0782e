"""Set-up as a CLI call pays it: a fresh interpreter imports discordium and
loads (or generates) the workload's inputs.  Prints one JSON line with the
import time and the time of each ``load_state`` call.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import discordium  # noqa: E402,F401
import discordium.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

from workloads import load_inputs  # noqa: E402

inputs = load_inputs(sys.argv[1], ROOT, int(sys.argv[2]), time.perf_counter)
print(json.dumps({"import_s": import_s, "load_ms": inputs.load_ms}))
