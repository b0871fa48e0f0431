"""Layer hooks installed from outside the engine.

Every hook replaces a module function or a class attribute of the layer's
entry point, and the C delivery loop's ``run`` on the module that
``arrayloop.load()`` returns.  No source file is edited, no
``DiscoveryNode`` method is touched (``behavior_is_pristine()`` would fail
and the array core would decline), and nothing is set on a ``Simulator``
instance (``fastcore.eligible`` would fail).

Two modes share one installer:

* ``timing=False`` (counting): only the cheap taps that the benchmark needs
  to fingerprint a run -- engine paths, C-loop calls and steps, the
  discovery results and transport payloads the workloads produce.  No
  clock is read.
* ``timing=True`` (tracing): the same taps plus a span around every layer
  entry point.  A span's self time is its duration minus the time of the
  spans nested inside it.

Hooks only record while :attr:`Hooks.active` is set, so a workload's
correctness checks can call the same functions without being counted.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from time import perf_counter_ns

#: Node ids carried by each message type besides its variable-length id
#: sets, in wire-tag order (``repro.core.messages.MSG_TYPES``): search and
#: release carry two, conquer and probe one, probe-reply two plus its set.
FIXED_IDS = (0, 0, 2, 2, 0, 0, 0, 1, 0, 1, 2)

#: Layer groups of the self-time table, in display order.
GROUPS = (
    "graphs",
    "parallel",
    "build",
    "convert",
    "scale_graph",
    "py_loop",
    "c_loop",
    "fastcore",
    "network",
    "transport",
    "driver",
    "verification",
    "obs",
    "unattributed",
)


class Protocol:
    """Discovery-protocol traffic of one workload iteration."""

    def __init__(self) -> None:
        self.steps = 0
        self.nodes = 0
        self.msgs: Counter = Counter()
        self.bits: Counter = Counter()
        self.ids = 0

    def add_stats(self, stats, id_bits: int, steps: int, nodes: int) -> None:
        """Fold one run's per-type counters; ids follow ``bit_size``."""
        from repro.core.messages import MSG_TYPES, fixed_bit_bases

        bases = fixed_bit_bases(id_bits)
        width = id_bits if id_bits > 1 else 1
        for tag, name in enumerate(MSG_TYPES):
            count = stats.messages_by_type.get(name, 0)
            if not count:
                continue
            bits = stats.bits_by_type.get(name, 0)
            self.msgs[name] += count
            self.bits[name] += bits
            self.ids += FIXED_IDS[tag] * count + (bits - bases[tag] * count) // width
        self.steps += steps
        self.nodes += nodes

    @property
    def messages(self) -> int:
        return sum(self.msgs.values())

    @property
    def total_bits(self) -> int:
        return sum(self.bits.values())

    def fingerprint(self) -> dict:
        out = {
            "protocol.steps": self.steps,
            "protocol.messages": self.messages,
            "protocol.bits": self.total_bits,
            "protocol.ids": self.ids,
        }
        for name, count in sorted(self.msgs.items()):
            out[f"protocol.msgs.{name}"] = count
        return out


class Hooks:
    """Spans, counters and taps for one benchmark process."""

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        self.active = False
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.group_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.paths: Counter = Counter()
        self.results: list = []
        self.payloads = Protocol()
        self.in_driver = False
        self._stack: list = []
        self._undo: list = []
        self._gc_start = None

    def reset_taps(self) -> None:
        """Forget the outputs tapped so far (one iteration's worth)."""
        self.results.clear()
        self.payloads = Protocol()

    # -- spans -----------------------------------------------------------
    def span(self, name: str, group: str, fn, *, absorb: bool = False):
        """Wrap ``fn`` in a span; with ``absorb`` nested spans count
        towards this span's group (sampling owns the gauges it reads)."""
        if not self.timing:
            return fn
        hooks = self

        def spanned(*args, **kwargs):
            if not hooks.active:
                return fn(*args, **kwargs)
            stack = hooks._stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[3]:
                frame = [0, 0, parent[2], True]
            else:
                frame = [0, 0, group, absorb]
            stack.append(frame)
            frame[0] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - frame[0]
                stack.pop()
                own = duration - frame[1]
                hooks.self_ns[name] += own
                hooks.incl_ns[name] += duration
                hooks.group_ns[frame[2]] += own
                hooks.calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return spanned

    def _on_gc(self, phase, _info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start is not None:
            self.counts["gc.pause_ns"] += perf_counter_ns() - self._gc_start
            self.counts["gc.collections"] += 1
            self._gc_start = None

    # -- patching --------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        old = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append((owner, name, old))

    def patch_method(self, cls, name: str, make) -> None:
        self._set(cls, name, make(vars(cls)[name]))

    def patch_function(self, module, name: str, make) -> None:
        """Replace ``module.name`` and every ``from module import name``
        binding already made in the package's loaded modules."""
        original = getattr(module, name)
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- the layer map -----------------------------------------------------
    def install(self, cmod) -> None:
        """Hook every layer; ``cmod`` is the loaded C delivery loop."""
        import repro.analysis.experiments  # noqa: F401 (bind names first)
        import repro.service  # noqa: F401
        from repro.core import adhoc, arraystate, result, runner
        from repro.faults import reliable
        from repro.graphs import generators
        from repro.obs import events, metrics
        from repro.parallel import executor, jobs
        from repro.service import driver
        from repro.sim import fastcore, network
        from repro.verification import invariants, lemmas

        hooks = self
        span = self.span
        counts = self.counts

        def plain(name, group, **kw):
            return lambda fn: span(name, group, fn, **kw)

        # graphs
        for name in generators.__all__:
            self.patch_function(generators, name, plain("graphs.gen", "graphs"))

        # parallel
        def executor_run(fn):
            def run(self_, jobs_):
                results = fn(self_, jobs_)
                if hooks.active:
                    counts["executor.jobs"] += len(results)
                return results

            return span("executor", "parallel", run)

        self.patch_method(executor.ParallelExecutor, "run", executor_run)
        self.patch_function(
            jobs, "protocol_code_digest", plain("jobs.digest", "parallel")
        )

        # core.runner / core.node
        def build(fn):
            def build_simulation(*args, **kwargs):
                sim, nodes = fn(*args, **kwargs)
                if hooks.active:
                    counts["runner.nodes_built"] += len(nodes)
                return sim, nodes

            return span("runner.build", "build", build_simulation)

        self.patch_function(runner, "build_simulation", build)

        # core.arraystate
        def convert(fn):
            def maybe_run_array(*args):
                executed = fn(*args)
                if executed is None and hooks.active:
                    counts["arraystate.declines"] += 1
                return executed

            return span("arraystate.convert", "convert", maybe_run_array)

        self.patch_function(arraystate, "maybe_run_array", convert)

        def graph_run(fn):
            def run_graph(*args, **kwargs):
                out = fn(*args, **kwargs)
                if hooks.active:
                    hooks.paths["graph"] += 1
                return out

            return span("arraystate.graph_build_verify", "scale_graph", run_graph)

        self.patch_function(arraystate, "run_graph", graph_run)
        self.patch_method(
            arraystate.IdSpace,
            "__init__",
            plain("arraystate.idspace", "scale_graph"),
        )
        self.patch_method(
            arraystate.ArrayCore, "run_loop", plain("arraystate.py_loop", "py_loop")
        )

        # core.arrayloop (C); ``cell[0]`` is the absolute step count
        c_original = cmod.run

        def c_run(core, pool, append, mode, getrandbits, stop, cell):
            if not hooks.active:
                return c_original(core, pool, append, mode, getrandbits, stop, cell)
            before = cell[0]
            try:
                code, aux = c_original(core, pool, append, mode, getrandbits, stop, cell)
            finally:
                counts["arrayloop.c_steps"] += cell[0] - before
                counts["arrayloop.c_calls"] += 1
            if code == 2:
                counts["arrayloop.deopts"] += 1
            elif code == 3:
                counts["arrayloop.pumps"] += 1
            return code, aux

        self._set(cmod, "run", span("arrayloop.c", "c_loop", c_run))

        # sim.network / sim.fastcore
        def sim_run(fn):
            def run(self_, max_steps=None):
                try:
                    return fn(self_, max_steps)
                finally:
                    if hooks.active:
                        hooks.paths[getattr(self_, "_last_run_path", "?")] += 1

            return span("network.run", "network", run)

        self.patch_method(network.Simulator, "run", sim_run)
        self.patch_function(fastcore, "run_fast", plain("fastcore", "fastcore"))
        if self.timing:

            def sim_step(fn):
                def step(self_):
                    stepped = fn(self_)
                    if stepped and hooks.active:
                        counts["network.steps"] += 1
                    return stepped

                return span("network.step", "network", step)

            self.patch_method(network.Simulator, "step", sim_step)
            self.patch_method(
                network.Simulator, "in_flight", plain("network.in_flight", "network")
            )

        # core.result / verification
        def collect(fn):
            def collect_result(*args, **kwargs):
                out = fn(*args, **kwargs)
                if hooks.active:
                    hooks.results.append(out)
                return out

            return span("result.collect", "verification", collect_result)

        self.patch_function(result, "collect_result", collect)
        self.patch_function(
            invariants, "verify_discovery", plain("invariants.verify", "verification")
        )
        self.patch_function(
            lemmas, "check_all_lemmas", plain("lemmas.check", "verification")
        )

        # service
        def driver_run(fn):
            def run(self_):
                hooks.in_driver = True
                try:
                    return fn(self_)
                finally:
                    hooks.in_driver = False

            return span("driver", "driver", run)

        self.patch_method(driver.ServiceDriver, "run", driver_run)
        for name in ("_inject_probe", "_retry_probe"):
            self.patch_method(
                driver.ServiceDriver, name, plain("driver.inject", "driver")
            )
        for name in ("add_node", "add_link"):
            self.patch_method(
                adhoc.AdhocNetwork, name, plain("driver.inject", "driver")
            )

        def adhoc_run(fn):
            warmup = span("driver.warmup", "driver", fn)
            other = span("adhoc.run", "network", fn)

            def run(self_, max_steps=None):
                return (warmup if hooks.in_driver else other)(self_, max_steps)

            return run

        self.patch_method(adhoc.AdhocNetwork, "run", adhoc_run)

        # faults: timer firings and the protocol payloads the transport frames
        def on_timer(fn):
            def timer(self_, tag):
                if hooks.active:
                    counts["reliable.timer_steps"] += 1
                return fn(self_, tag)

            return span("reliable.timer", "transport", timer)

        self.patch_method(reliable.ReliableNode, "on_timer", on_timer)

        def reliable_send(fn):
            from repro.core.messages import MSG_TYPES, fixed_bit_bases

            tags = {name: tag for tag, name in enumerate(MSG_TYPES)}

            def send(self_, dst, payload):
                if hooks.active:
                    payloads = hooks.payloads
                    id_bits = self_.sim.id_bits
                    name = payload.msg_type
                    tag = tags[name]
                    bits = payload.bit_size(id_bits)
                    width = id_bits if id_bits > 1 else 1
                    payloads.msgs[name] += 1
                    payloads.bits[name] += bits
                    payloads.ids += FIXED_IDS[tag] + (
                        bits - fixed_bit_bases(id_bits)[tag]
                    ) // width
                return fn(self_, dst, payload)

            return send

        self.patch_method(reliable.ReliableNode, "reliable_send", reliable_send)

        # obs
        if self.timing:

            def emit(fn):
                def emit_event(self_, event):
                    if hooks.active:
                        counts["events.emitted"] += 1
                    return fn(self_, event)

                return span("events.emit", "obs", emit_event)

            self.patch_method(events.Recorder, "emit", emit)

            def take(fn):
                def sample(self_, step):
                    if hooks.active:
                        counts["metrics.samples"] += 1
                    return fn(self_, step)

                return span("metrics.sample", "obs", sample, absorb=True)

            self.patch_method(metrics.MetricsTimeline, "_take", take)

            def instrument(fn):
                def register(self_, name, reader=None):
                    if reader is not None:
                        reader = span(f"metrics.gauge.{name}", "obs", reader)
                    return fn(self_, name, reader)

                return register

            self.patch_method(metrics.MetricsRegistry, "gauge", instrument)
            self.patch_method(metrics.MetricsRegistry, "histogram", instrument)
            gc.callbacks.append(self._on_gc)
