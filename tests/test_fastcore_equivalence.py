"""Differential equivalence of the compiled fast path vs the object path.

The fast loop (:mod:`repro.sim.fastcore`) promises *bit-identical*
executions: same trace, same per-type message/bit accounting, same step
count, same verification outcome -- for every configuration it accepts,
across every stock scheduler.  These tests pin that promise, plus the
transparent-fallback contract: any configuration the fast loop cannot
serve (fault plans, recorders, profilers, adversaries, monkeypatched
seams) silently takes the object path and still produces identical
results under ``fast=True`` and ``fast=False``.  Traced runs take the
fastcore object loop; the untraced matrix pins the C delivery loop of the
array core against the legacy loop.
"""

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.result import collect_result
from repro.core.runner import build_simulation, default_step_budget
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Recorder
from repro.sim import fastcore
from repro.sim.events import DeliverToken
from repro.sim.network import Simulator, StepLimitExceeded
from repro.sim.scheduler import (
    Adversary,
    AdversarialScheduler,
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)
from repro.verification.invariants import verify_discovery

SCHEDULERS = {
    "fifo": GlobalFifoScheduler,
    "lifo": LifoScheduler,
    "random": lambda: RandomScheduler(seed=7),
}


def _execute(variant, scheduler_factory, *, n=48, seed=3, fast=True, **kwargs):
    """One full run; returns everything an execution can be compared on."""
    graph = build_family("sparse-random", n, seed)
    sim, nodes = build_simulation(
        graph,
        variant,
        scheduler=scheduler_factory(),
        keep_trace=True,
        fast=fast,
        **kwargs,
    )
    sim.run(default_step_budget(graph))
    result = collect_result(graph, nodes, sim, variant)
    report = verify_discovery(result, graph)  # raises on violation
    return {
        "trace": [event.as_tuple() for event in sim.trace.events],
        "messages": dict(sim.stats.messages_by_type),
        "bits": dict(sim.stats.bits_by_type),
        "steps": sim.steps,
        "leaders": result.leaders,
        "verified": (report.n_leaders, report.checks),
    }


def _execute_untraced(variant, scheduler_factory, *, fast):
    """One full untraced run (traced runs decline the C loop)."""
    graph = build_family("sparse-random", 48, 3)
    sim, nodes = build_simulation(
        graph, variant, scheduler=scheduler_factory(), fast=fast
    )
    sim.run(default_step_budget(graph))
    result = collect_result(graph, nodes, sim, variant)
    report = verify_discovery(result, graph)
    return sim._last_run_path, {
        "messages": dict(sim.stats.messages_by_type),
        "bits": dict(sim.stats.bits_by_type),
        "steps": sim.steps,
        "leaders": result.leaders,
        "verified": (report.n_leaders, report.checks),
    }


class TestDifferentialEquivalence:
    """fast=True and fast=False must be indistinguishable, bit for bit."""

    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_identical_executions(self, variant, policy):
        factory = SCHEDULERS[policy]
        legacy = _execute(variant, factory, fast=False)
        fast = _execute(variant, factory, fast=True)
        assert fast == legacy

    @pytest.mark.skipif(
        arrayloop.load() is None, reason="the C delivery loop is not available"
    )
    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_c_loop_matches_legacy(self, variant, policy):
        factory = SCHEDULERS[policy]
        legacy_path, legacy = _execute_untraced(variant, factory, fast=False)
        path, compiled = _execute_untraced(variant, factory, fast=True)
        assert (path, legacy_path) == ("array", "legacy")
        assert compiled == legacy

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules_across_seeds(self, seed):
        """The random fast pop replays the legacy RNG draw sequence."""
        factory = lambda: RandomScheduler(seed=seed)  # noqa: E731
        legacy = _execute("generic", factory, n=64, seed=seed, fast=False)
        fast = _execute("generic", factory, n=64, seed=seed, fast=True)
        assert fast == legacy

    def test_reliable_transport_timers(self):
        """ReliableNode schedules (and cancels) timers: the fast loop must
        execute live TimerTokens and drop cancelled ones exactly like the
        legacy loop."""
        legacy = _execute(
            "generic", GlobalFifoScheduler, fast=False, reliable=True
        )
        fast = _execute(
            "generic", GlobalFifoScheduler, fast=True, reliable=True
        )
        assert fast == legacy

    @pytest.mark.parametrize("order", ["fast_then_legacy", "legacy_then_fast"])
    def test_interrupted_run_resumes_on_either_path(self, order):
        """A step-limited run leaves the scheduler in a legal object-path
        state (int tokens materialized back to DeliverTokens), stats
        folded; the execution can then *continue* on either path and
        still match an uninterrupted legacy run."""
        first_fast = order == "fast_then_legacy"
        reference = _execute("generic", GlobalFifoScheduler, fast=False)

        graph = build_family("sparse-random", 48, 3)
        sim, nodes = build_simulation(
            graph, "generic", scheduler=GlobalFifoScheduler(),
            keep_trace=True, fast=first_fast,
        )
        with pytest.raises(StepLimitExceeded):
            sim.run(max_steps=60)
        # Mid-run observables are already equivalent: pending tokens are
        # real objects, message stats include everything sent so far.
        assert all(
            not isinstance(token, int) for token in sim.scheduler.pending()
        )
        assert sim.steps == 60
        assert sim.in_flight() > 0

        sim.fast = not first_fast
        sim.run(default_step_budget(graph))
        result = collect_result(graph, nodes, sim, "generic")
        report = verify_discovery(result, graph)
        assert {
            "trace": [event.as_tuple() for event in sim.trace.events],
            "messages": dict(sim.stats.messages_by_type),
            "bits": dict(sim.stats.bits_by_type),
            "steps": sim.steps,
            "leaders": result.leaders,
            "verified": (report.n_leaders, report.checks),
        } == reference


class _BlockNothing(Adversary):
    def blocks(self, token, sim):
        return False

    def on_stall(self, sim):  # pragma: no cover - never stalls
        return True


class TestTransparentFallback:
    """Configurations the fast loop cannot serve fall back silently."""

    def _fresh_sim(self, **kwargs):
        graph = build_family("sparse-random", 32, 1)
        sim, nodes = build_simulation(graph, "generic", **kwargs)
        return graph, sim, nodes

    def test_plain_sim_is_eligible(self):
        _graph, sim, _nodes = self._fresh_sim()
        assert fastcore.eligible(sim)

    def test_fault_plan_disables_fast_path_and_matches_legacy(self):
        runs = {}
        for fast in (False, True):
            graph, sim, nodes = self._fresh_sim(
                faults=FaultInjector(FaultPlan(loss=0.2), seed=5),
                reliable=True,
                seed=9,
                fast=fast,
            )
            if fast:
                assert not fastcore.eligible(sim)
            sim.run(default_step_budget(graph))
            result = collect_result(graph, nodes, sim, "generic")
            verify_discovery(result, graph)
            runs[fast] = (
                sim.steps,
                dict(sim.stats.messages_by_type),
                result.leaders,
            )
        assert runs[True] == runs[False]

    def test_recorder_disables_fast_path_and_sees_every_event(self):
        runs = {}
        for fast in (False, True):
            recorder = Recorder()
            graph, sim, _nodes = self._fresh_sim(obs=recorder, fast=fast)
            if fast:
                assert not fastcore.eligible(sim)
            sim.run(default_step_budget(graph))
            runs[fast] = (sim.steps, len(recorder.events))
            assert len(recorder.events) > 0
        assert runs[True] == runs[False]

    def test_profiler_instrumentation_disables_fast_path(self):
        from repro.obs.profile import Profiler

        _graph, sim, _nodes = self._fresh_sim()
        assert fastcore.eligible(sim)
        profiler = Profiler()
        profiler.instrument(sim)
        assert not fastcore.eligible(sim)

    def test_monkeypatched_transmit_disables_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim()
        seen = []
        original = sim.transmit

        def spy(src, dst, message):
            seen.append((src, dst))
            return original(src, dst, message)

        sim.transmit = spy
        assert not fastcore.eligible(sim)
        sim.run()
        assert seen  # the spy saw every send; the fast loop would hide them

    def test_adversarial_scheduler_disables_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim(
            scheduler=AdversarialScheduler(_BlockNothing())
        )
        assert not fastcore.eligible(sim)
        sim.run()

    def test_scheduler_subclass_disables_fast_path(self):
        class RecordingFifo(GlobalFifoScheduler):
            def pop(self, sim):  # pragma: no cover - selection untouched
                return super().pop(sim)

        _graph, sim, _nodes = self._fresh_sim(scheduler=RecordingFifo())
        assert not fastcore.eligible(sim)

    def test_non_fifo_channels_disable_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim(
            channel_discipline="random", channel_seed=2
        )
        assert not fastcore.eligible(sim)


class TestSchedulerSeam:
    """The documented-internal pool seam fastcore relies on."""

    def test_stock_pools_exist(self):
        assert hasattr(GlobalFifoScheduler(), "_queue")
        assert hasattr(LifoScheduler(), "_stack")
        scheduler = RandomScheduler(seed=0)
        assert hasattr(scheduler, "_pool")
        assert hasattr(scheduler, "_rng")

    def test_len_counts_interned_tokens(self):
        """Quiescence detection reads len(scheduler); int tokens pushed by
        the fast transmit must count exactly like object tokens."""
        scheduler = GlobalFifoScheduler()
        scheduler._queue.append(3)
        scheduler.push(DeliverToken("a", "b"))
        assert len(scheduler) == 2
        assert list(scheduler.pending()) == [3, DeliverToken("a", "b")]

    def test_pending_is_lazy(self):
        scheduler = GlobalFifoScheduler()
        scheduler.push(DeliverToken("a", "b"))
        view = scheduler.pending()
        assert iter(view) is view  # an iterator, not a fresh tuple
