"""One cold start of a workload: import the CLI, parse its arguments and config.

    python3 bench/setup_probe.py CONFIG '[["fidelity", "--config", ...], ...]'

bench/run.py runs this in a fresh interpreter and times it from outside.
It imports nothing of its own before the CLI, so the time is the program's.
It prints one JSON line with the times measured inside, in seconds, and
whether the CLI import loaded scipy.signal.
"""

import json
import sys
import time

t0 = time.perf_counter()
import spadsim.cli  # noqa: E402
import spadsim.config  # noqa: E402

t1 = time.perf_counter()
parser = spadsim.cli.build_parser()
for argv in json.loads(sys.argv[2]):
    parser.parse_args(argv)
spadsim.config.load_scenario(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "scipy_signal_loaded": "scipy.signal" in sys.modules}))
