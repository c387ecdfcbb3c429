"""Host-time spans around planestore's module boundaries.

The wrappers live here, in the benchmark, not in the package: each one
replaces a name that a caller module looked up from a callee module (for
example ``planestore.workload.resolve``, which ``gen_trace`` calls), so a
span opens exactly where one layer hands work to the next.  Spans are
aggregated as they close (calls and self time per name); a span's
self time is its duration minus the durations of its direct children,
which cover disjoint parts of it because the program is single-threaded.

Per-mode spans (everything under ``experiment.run_mode``) carry a
``.bitplane`` / ``.traditional`` suffix taken from the enclosing call.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-name aggregates for one traced process."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        # Boundary counters, one entry per call, in call order (a sweep
        # visits targets in order, so index i is target i).
        self.series: dict = defaultdict(list)
        self.mode = None
        # Each frame is [name, start, time covered by direct children].
        self._stack: list = [["(root)", time.perf_counter(), 0.0]]

    def open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, covered = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self._stack[-1][2] += duration

    def wrap(self, module, attr: str, name: str, per_mode=False, mode_arg=None, count=None):
        """Replace ``module.attr`` by a spanned wrapper.

        per_mode appends the current mode to the span name; mode_arg names
        the positional index that carries the mode for calls that set it;
        count(series, mode, result) records boundary counters.
        """
        inner = getattr(module, attr)
        tracer = self

        def spanned(*args, **kwargs):
            outer_mode = tracer.mode
            if mode_arg is not None:
                tracer.mode = args[mode_arg]
            span = f"{name}.{tracer.mode}" if per_mode or mode_arg is not None else name
            tracer.open(span)
            try:
                result = inner(*args, **kwargs)
                if count is not None:
                    count(tracer.series, tracer.mode, result)
            finally:
                tracer.close()
                tracer.mode = outer_mode
            return result

        setattr(module, attr, spanned)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from planestore import cli, config, dram, experiment, workload

        for mod in (config, cli):
            self.wrap(mod, "load_config", "config.load_config")
        for mod in (workload, cli):
            self.wrap(mod, "enumerate_chunks", "workload.enumerate_chunks")

        self.wrap(cli, "cmd_compare", "cli.cmd_compare")
        self.wrap(cli, "cmd_pack", "cli.cmd_pack")
        self.wrap(cli, "run_sweep", "experiment.run_sweep")
        for attr in ("pack", "save_image", "load_image", "unpack_full"):
            self.wrap(cli, attr, f"bitplane.{attr}")

        for attr in ("gen_scores", "solve_thresholds", "assign_formats"):
            self.wrap(experiment, attr, f"workload.{attr}")
        self.wrap(experiment, "run_mode", "experiment.run_mode", mode_arg=2)
        self.wrap(experiment, "gen_trace", "workload.gen_trace", mode_arg=2, count=_count_requests)
        self.wrap(experiment, "energy_breakdown", "dram.energy_breakdown", per_mode=True)
        self.wrap(
            experiment, "chunk_latency_deltas", "experiment.chunk_latency_deltas", per_mode=True
        )

        for attr in ("resolve", "translate", "translate_traditional"):
            self.wrap(workload, attr, f"address.{attr}")

        # dram.run_trace looks both names up in its own module at call time.
        inner_schedule = dram.schedule
        dram.schedule = lambda config, requests: self._timed_commands(
            inner_schedule(config, requests), self.mode
        )
        self.wrap(dram, "simulate", "dram.simulate", per_mode=True, count=_count_sim)

    def _timed_commands(self, commands, mode: str):
        """Yield schedule()'s commands, booking the time spent producing them.

        schedule() is a generator that simulate() drains, so the two
        interleave.  Each step of the generator is timed and booked to
        dram.schedule, and taken out of the consuming span (simulate).
        Draining it into a list first would hold a trace's worth of
        command tuples and make the collector scan them again and again.
        """
        name = f"dram.schedule.{mode}"
        clock, stack, end = time.perf_counter, self._stack, object()
        count, spent = 0, 0.0
        while True:
            start = clock()
            command = next(commands, end)
            step = clock() - start
            spent += step
            stack[-1][2] += step
            if command is end:
                break
            count += 1
            yield command
        self.calls[name] += 1
        self.self_s[name] += spent
        self.series[f"dram.commands.{mode}"].append(count)


def _count_requests(series, mode, entries):
    series[f"workload.requests.{mode}"].append(len(entries))


def _count_sim(series, mode, result):
    series[f"dram.bursts.{mode}"].append(result.num_reads)
    series[f"dram.acts.{mode}"].append(result.num_acts)
