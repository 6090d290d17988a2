"""Host-speed correction: the benchmark's times in reference seconds.

On a shared host the speed of each CPU follows the load that other tenants
put on the same physical core. On a 2-vCPU cloud VM a fixed pure-Python loop
took about 30% longer in some 15 s windows than in others, and the two vCPUs
slowed down independently of each other (correlation of their 1 s means
below 0.1). The slow phases last longer than a benchmark run, so neither the
fastest nor the median of repeated runs removes them, and a loop timed
between two runs says little about the seconds of the run itself.

So every timed process runs a `Sampler`: after every PROBE_INTERVAL_S of the
process's CPU time a SIGPROF handler in its main thread times a fixed piece
of work, the probe, on the CPU that thread runs on. Counting CPU time rather
than wall time means a process that waits (for its pool workers, say) runs
no probe, so a probe never has to share a CPU with the process's own workers. The probe is half a pure-Python loop and half
numpy binomial draws appended to a list, because the slowdown of the two
kinds of code differs from moment to moment and the CLI does both. The benchmark subtracts the probes'
own time and converts the rest to reference seconds:

    reference seconds = (seconds - probe seconds) * PROBE_REF_S / mean probe time

PROBE_REF_S is the probe's usual time on that VM, so reference seconds are
close to seconds there. A change to the program moves reference seconds as it
moves seconds; a change in the host's load mostly does not. On that VM, cold
runs of one command varied (coefficient of variation) by 18% in seconds and
5% in reference seconds for the bare set-up, and by 23% and 11% for the
main() time of `check --preset needle-n50-twosided`. The probes take about 2%
of the process's time. Forked children, such as the pool workers of
`run_trials`, do not inherit the timer, so cli_entry.py starts a sampler in
each of them that logs its probe times to a file; their mean then covers the
CPUs the workers ran on. The workers' probes stay in the measured time.

speed.py imports numpy for the probe, so a process that runs the sampler
imports numpy before driftlab does; the set-up time still includes it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: iterations of the probe's pure-Python loop
PROBE_LOOPS = 10_000
#: numpy binomial draws of the probe
PROBE_DRAWS = 800
#: seconds between two probes
PROBE_INTERVAL_S = 0.05
#: about the mean probe time inside the CLI on a vCPU of the 2-vCPU host the bounds were set on
PROBE_REF_S = 0.0012


_PROBE_RNG = np.random.default_rng(0)


def probe_loop() -> None:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    draws = []
    for _ in range(PROBE_DRAWS):
        draws.append(float(_PROBE_RNG.binomial(50, 0.02)))


class Sampler:
    """Times the probe every PROBE_INTERVAL_S of CPU time from a SIGPROF handler, between start() and stop().

    With `log`, an open text file, each probe time is also written to it as a line.
    """

    def __init__(self, log=None):
        self.times: list = []
        self.log = log

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        if self.log is not None:
            self.log.write(f"{elapsed!r}\n")

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def spent(self) -> float:
        """Seconds the probes have taken so far."""
        return sum(self.times)


def scale(probe_mean_s: float) -> float:
    """Reference seconds per second, given the probes' mean time; 1 when there was no probe."""
    return PROBE_REF_S / probe_mean_s if probe_mean_s > 0 else 1.0


def mean(times: list) -> float:
    return statistics.fmean(times) if times else 0.0


def read_log(path) -> list:
    """Probe times from a log file; a last line cut short by the process's end is skipped."""
    with open(path, encoding="utf-8") as fh:
        return [float(line) for line in fh if line.endswith("\n")]
