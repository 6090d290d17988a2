"""Run the driftlab CLI as its console script does, and record where the time went.

Usage: python3 perfbench/cli_entry.py TIMING_FILE <driftlab arguments...>
       python3 perfbench/cli_entry.py TIMING_FILE --setup

The console script is `from driftlab.cli import main; sys.exit(main())`; this
file adds clock reads around it and runs the speed probe of speed.py while
the CLI runs. With `--setup` it builds the CLI's parser instead of calling
main(). TIMING_FILE receives one JSON object: `time.perf_counter()` readings
at the start, after the import and at the end (on Linux that clock is
CLOCK_MONOTONIC, which every process shares, so the parent can line them up
with its own clock), the probes' time spent before the end of the import and
in all, their number and mean time, and the file driftlab.cli was imported from.
Each forked child logs its own probe times to TIMING_FILE.<pid>.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.dont_write_bytecode = True  # for speed.py only; driftlab keeps its bytecode cache
import speed  # noqa: E402

sys.dont_write_bytecode = False

sampler = speed.Sampler()
sampler.start()


def _sample_in_child():
    log = open(f"{sys.argv[1]}.{os.getpid()}", "a", buffering=1, encoding="utf-8")
    speed.Sampler(log).start()


os.register_at_fork(after_in_child=_sample_in_child)
import driftlab.cli  # noqa: E402

imported = time.perf_counter()
probe_import_s = sampler.spent()
if sys.argv[2:] == ["--setup"]:
    driftlab.cli.build_parser()
    code = 0
else:
    code = driftlab.cli.main(sys.argv[2:])
sampler.stop()
done = time.perf_counter()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({
        "start": start,
        "imported": imported,
        "done": done,
        "module": driftlab.cli.__file__,
        "probe_import_s": probe_import_s,
        "probe_s": sampler.spent(),
        "probes": len(sampler.times),
        "probe_mean_s": speed.mean(sampler.times),
    }, fh)
sys.exit(code)
