"""Tests for the array-backed protocol core (``repro.core.arraystate``).

Five layers:

* unit tests of the interning/order primitives (:class:`IdSpace`,
  :func:`rank_sorted`, :func:`k_smallest`) against their object-path
  definitions (``sorted(..., key=repr)`` et al.);
* engagement: the array core takes over eligible runs
  (``sim._last_run_path == "array"``) and declines -- simulator untouched,
  object fast loop proceeds -- on an empty/small pool or a monkeypatched
  :class:`DiscoveryNode`;
* differential: :func:`run_graph` (the object-free million-node driver)
  reproduces the object path's steps, per-type stats and leader set for
  every variant under both FIFO and seeded-random scheduling;
* the C loop: the compiled ``_arrayloop`` delivery loop and the legacy
  object loop produce identical results, including across a
  ``StepLimitExceeded`` boundary (the ``cell`` step-count protocol);
* channel slots: the C loop's slots (``None``, an inline wire tuple, or a
  deque only while two or more messages queue) hold the legacy loop's
  channel contents at every cut, and materialization hands the simulator
  the legacy loop's channels.
"""

import random
from collections import deque

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.arraystate import (
    ArrayCore,
    IdSpace,
    _Ineligible,
    _slot_messages,
    _to_message,
    k_smallest,
    rank_sorted,
    run_graph,
)
from repro.core.node import VARIANTS, DiscoveryNode, behavior_is_pristine
from repro.core.runner import build_simulation, default_step_budget
from repro.sim.network import StepLimitExceeded

FAMILY = "sparse-random"
N = 32
GRAPH_SEED = 1

#: the array path runs only on the C loop
needs_c = pytest.mark.skipif(
    arrayloop.load() is None, reason="the C delivery loop is not available"
)


def _graph(n=N, seed=GRAPH_SEED):
    return build_family(FAMILY, n, seed)


def _object_outcome(variant="generic", *, seed=None, fast=True, n=N):
    graph = _graph(n)
    sim, nodes = build_simulation(graph, variant, seed=seed, fast=fast)
    steps = sim.run(default_step_budget(graph))
    return {
        "steps": steps,
        "messages": dict(sim.stats.messages_by_type),
        "bits": dict(sim.stats.bits_by_type),
        "leaders": sorted(x for x, node in nodes.items() if node.is_leader),
        "path": sim._last_run_path,
    }


def _scale_outcome(variant="generic", *, seed=None, n=N):
    result = run_graph(_graph(n), variant, seed=seed)
    assert result.verified
    return {
        "steps": result.steps,
        "messages": dict(result.stats.messages_by_type),
        "bits": dict(result.stats.bits_by_type),
        "leaders": sorted(result.leaders),
    }


# ----------------------------------------------------------------------
# Interning and order primitives
# ----------------------------------------------------------------------
class TestIdSpace:
    def test_ranks_match_object_orders(self):
        ids = [5, 1, 12, 7, 103, 20]
        space = IdSpace(ids)
        by_repr = sorted(ids, key=repr)
        by_nat = sorted(ids)
        for i, x in enumerate(ids):
            assert space.repr_rank[i] == by_repr.index(x)
            assert space.nat_rank[i] == by_nat.index(x)
        assert [ids[i] for i in space.by_repr_rank] == by_repr
        assert space.index == {x: i for i, x in enumerate(ids)}

    def test_rejects_duplicate_reprs(self):
        class Blob:
            def __repr__(self):
                return "blob"

            def __lt__(self, other):
                return id(self) < id(other)

        with pytest.raises(_Ineligible, match="reprs are not unique"):
            IdSpace([Blob(), Blob()])

    def test_rejects_unorderable_ids(self):
        with pytest.raises(_Ineligible, match="not mutually orderable"):
            IdSpace([1, "a"])

    def test_rejects_equal_comparing_distinct_ids(self):
        # repr("1") != repr("1.0") but 1 < 1.0 is False both ways: the
        # natural order is not strict, so rank comparisons would invent
        # a tiebreak the object path's tuple comparison does not have.
        with pytest.raises(_Ineligible, match="not strictly totally ordered"):
            IdSpace([1, 1.0])


class TestRankOrders:
    def _space(self):
        return IdSpace(list(range(64)))

    @pytest.mark.parametrize(
        "members",
        [set(), {3}, {3, 17, 40, 9}, set(range(0, 64, 2)), set(range(64))],
        ids=["empty", "one", "sparse", "dense", "full"],
    )
    def test_rank_sorted_equals_sorted_by_repr(self, members):
        space = self._space()
        got = rank_sorted(members, space.repr_rank, space.by_repr_rank)
        assert got == sorted(members, key=lambda i: repr(space.ids[i]))

    @pytest.mark.parametrize("k", [0, 1, 3, 32, 64, 100])
    def test_k_smallest_equals_sorted_prefix(self, k):
        space = self._space()
        members = set(range(0, 64, 3))
        got = k_smallest(members, k, space.repr_rank)
        want = sorted(members, key=lambda i: repr(space.ids[i]))[:k]
        assert got == want


# ----------------------------------------------------------------------
# Engagement and decline
# ----------------------------------------------------------------------
class TestEngagement:
    @needs_c
    def test_array_path_engages_on_stock_run(self):
        graph = _graph(48)
        sim, nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "array"
        assert sim.is_quiescent
        assert any(node.is_leader for node in nodes.values())

    @needs_c
    def test_empty_pool_declines_to_object_loop(self):
        graph = _graph(48)
        sim, _nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "array"
        sim.run()  # nothing pending: the array core declines (pool << n)
        assert sim._last_run_path == "fast"

    @pytest.mark.parametrize(
        "cause", ["no-c-loop", "traced", "custom-rng"], ids=str
    )
    def test_engine_level_declines(self, cause, monkeypatch):
        # Each decline leaves the run to the fastcore object loop, which
        # produces the legacy loop's results (and trace).
        graph = _graph(48)
        kwargs = {"seed": 3}
        if cause == "no-c-loop":
            monkeypatch.setattr(arrayloop, "_module", None)
        elif cause == "traced":
            kwargs["keep_trace"] = True
        sim, nodes = build_simulation(graph, "generic", **kwargs)
        if cause == "custom-rng":

            class Draws(random.Random):
                pass

            sim.scheduler._rng = Draws(3)
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "fast"
        legacy = _object_outcome("generic", seed=3, fast=False, n=48)
        assert sim.steps == legacy["steps"]
        assert dict(sim.stats.messages_by_type) == legacy["messages"]

    def test_small_pool_declines(self):
        # Waking 2 of 48 nodes leaves the pool far below the engagement
        # threshold; the object fast loop must run the whole thing.
        graph = _graph(48)
        sim, _nodes = build_simulation(graph, "generic", auto_wake=False)
        for node_id in list(graph.nodes)[:2]:
            sim.schedule_wake(node_id)
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "fast"

    def test_monkeypatched_node_class_declines(self, monkeypatch):
        # The finding-regression suites monkeypatch DiscoveryNode methods
        # to reproduce historical bugs; the inlined array state machine
        # cannot honour a patched method, so it must stand down.
        calls = []
        orig = DiscoveryNode.on_wake

        def traced(self):
            calls.append(self.node_id)
            return orig(self)

        pristine = _object_outcome()
        monkeypatch.setattr(DiscoveryNode, "on_wake", traced)
        assert not behavior_is_pristine()
        patched = _object_outcome()
        assert patched["path"] == "fast"
        assert calls  # the patch actually took effect
        patched.pop("path")
        pristine.pop("path")
        assert patched == pristine


# ----------------------------------------------------------------------
# run_graph vs the object path
# ----------------------------------------------------------------------
class TestRunGraphDifferential:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    def test_matches_object_path(self, variant, seed):
        scale = _scale_outcome(variant, seed=seed)
        obj = _object_outcome(variant, seed=seed)
        obj.pop("path")
        assert scale == obj

    def test_matches_legacy_loop(self):
        # Triangulation: the legacy object loop, the fast/array object
        # path and the graph driver all agree on one seeded workload.
        legacy = _object_outcome("generic", seed=3, fast=False)
        assert legacy.pop("path") == "legacy"
        assert _scale_outcome("generic", seed=3) == legacy

    def test_step_limit_raises_with_in_flight_count(self):
        graph = _graph()
        full = run_graph(graph, "generic")
        with pytest.raises(StepLimitExceeded, match="in flight"):
            run_graph(graph, "generic", max_steps=full.steps // 2)


# ----------------------------------------------------------------------
# Step-limit boundary and resumption through the array path
# ----------------------------------------------------------------------
@needs_c
class TestStepLimitAndResume:
    def _drive(self, fast):
        graph = _graph(48)
        sim, nodes = build_simulation(graph, "generic", fast=fast)
        probe, _ = build_simulation(graph, "generic", fast=fast)
        total = probe.run(default_step_budget(graph))
        cut = total // 2
        with pytest.raises(StepLimitExceeded):
            sim.run(cut)
        assert sim.steps == cut
        first_path = sim._last_run_path
        sim.run(default_step_budget(graph))  # resume to quiescence
        return (
            sim.steps,
            dict(sim.stats.messages_by_type),
            dict(sim.stats.bits_by_type),
            sorted(x for x, node in nodes.items() if node.is_leader),
        ), first_path

    def test_interrupted_run_resumes_to_identical_state(self):
        fast_final, fast_path = self._drive(fast=True)
        legacy_final, legacy_path = self._drive(fast=False)
        assert fast_path == "array"
        assert legacy_path == "legacy"
        assert fast_final == legacy_final

    def test_materialized_channels_match_legacy_at_each_cut(self):
        # Two seeded-random cuts through the array path, in lockstep with
        # the legacy loop.  The first cut materializes slots into fresh
        # deques; the second run builds slots back out of those deques and
        # must hand the very same deque objects back, refilled.
        graph = _graph(64)
        probe, _ = build_simulation(graph, "generic", seed=0)
        cut = probe.run(default_step_budget(graph)) // 8
        array, _ = build_simulation(graph, "generic", seed=0)
        legacy, _ = build_simulation(graph, "generic", seed=0, fast=False)
        base = None
        for _ in range(2):
            for sim in (array, legacy):
                with pytest.raises(StepLimitExceeded):
                    sim.run(cut)
            assert array._last_run_path == "array"
            assert legacy._last_run_path == "legacy"
            # Precondition: the spill path (two or more queued messages on
            # one channel) is exercised at this cut.
            assert any(len(q) >= 2 for q in array._channels.values())
            assert list(array._channels.items()) == list(legacy._channels.items())
            if base is not None:
                assert all(array._channels[key] is q for key, q in base.items())
            base = dict(array._channels)
        assert len(base) > 0


# ----------------------------------------------------------------------
# Channel slots and released per-node deques, against the legacy loop
# ----------------------------------------------------------------------
def _c_core(monkeypatch, graph, *, max_steps=None):
    """Run ``run_graph`` on the C loop; return the core it left behind."""
    cores = []
    run_loop = ArrayCore.run_loop

    def capture(core, *args):
        cores.append(core)
        return run_loop(core, *args)

    monkeypatch.setattr(ArrayCore, "run_loop", capture)
    if max_steps is None:
        run_graph(graph, "generic")
    else:
        with pytest.raises(StepLimitExceeded):
            run_graph(graph, "generic", max_steps=max_steps)
    monkeypatch.undo()
    (core,) = cores
    return core


def _legacy_sim(graph, *, max_steps=None):
    sim, nodes = build_simulation(graph, "generic", fast=False)
    if max_steps is None:
        sim.run(default_step_budget(graph))
    else:
        with pytest.raises(StepLimitExceeded):
            sim.run(max_steps)
    return sim, nodes


def _core_channels(core):
    """The core's channels as the simulator's ``_channels`` items."""
    ids = core.ids
    return [
        ((ids[src], ids[dst]), [_to_message(m, ids) for m in _slot_messages(slot)])
        for src, dst, slot in zip(core.chan_src, core.chan_dst, core.chanq)
    ]


@needs_c
class TestChannelSlots:
    N_SLOTS = 2000

    @staticmethod
    def _assert_slot_layout(core):
        for slot in core.chanq:
            assert slot is None or type(slot) is tuple or (
                type(slot) is deque and len(slot) >= 2
            )
        for column in (core.inbox, core.previous, core.probe_prev):
            assert not any(type(q) is deque and not q for q in column)

    def test_completed_run_holds_no_channel_containers(self, monkeypatch):
        graph = _graph(self.N_SLOTS)
        core = _c_core(monkeypatch, graph)
        legacy, _ = _legacy_sim(graph)
        assert len(core.chanq) > self.N_SLOTS
        assert all(slot is None for slot in core.chanq)
        self._assert_slot_layout(core)
        assert _core_channels(core) == [
            (key, list(queue)) for key, queue in legacy._channels.items()
        ]

    def test_tiers_agree_on_slots_mid_run(self, monkeypatch):
        # The C loop's slots, routing queues and parked messages at a cut
        # equal the legacy loop's channels and node queues at that step.
        graph = _graph(self.N_SLOTS)
        full = run_graph(graph, "generic")
        cut = full.steps // 3
        core = _c_core(monkeypatch, graph, max_steps=cut)
        legacy, nodes = _legacy_sim(graph, max_steps=cut)
        # Precondition: some channel has spilled to a deque at the cut.
        assert any(type(slot) is deque for slot in core.chanq)
        self._assert_slot_layout(core)
        assert _core_channels(core) == [
            (key, list(queue)) for key, queue in legacy._channels.items()
        ]
        ids = core.ids
        for i, node_id in enumerate(ids):
            node = nodes[node_id]
            assert [
                (_to_message(m, ids), ids[s]) for m, s in core.previous[i] or ()
            ] == list(node.previous)
            assert [
                (ids[s], _to_message(m, ids)) for s, m in core.deferred[i] or ()
            ] == node._deferred
            assert not core.inbox[i] and not node._inbox


# ----------------------------------------------------------------------
# C loop vs the legacy loop
# ----------------------------------------------------------------------
@needs_c
class TestCompiledLoop:
    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    def test_loops_identical(self, seed):
        # With the C loop loaded, run_graph always runs on it.
        for variant in VARIANTS:
            legacy = _object_outcome(variant, seed=seed, fast=False)
            assert legacy.pop("path") == "legacy"
            assert _scale_outcome(variant, seed=seed) == legacy

    def test_loops_identical_across_limit_boundary(self, monkeypatch):
        # The cell protocol: the absolute step count must survive the C
        # loop's exits, including the raising one, and the in-flight count
        # in the message must be the legacy loop's.
        graph = _graph(48)
        full = run_graph(graph, "generic")
        cut = full.steps // 2
        core = _c_core(monkeypatch, graph, max_steps=cut)
        assert core.steps_out == cut
        with pytest.raises(StepLimitExceeded) as compiled:
            run_graph(graph, "generic", max_steps=cut)
        legacy, _ = build_simulation(graph, "generic", fast=False)
        with pytest.raises(StepLimitExceeded) as reference:
            legacy.run(cut)
        assert legacy.steps == cut
        assert str(compiled.value) == str(reference.value)
