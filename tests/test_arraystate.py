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
* the C loop: the compiled ``_arrayloop`` delivery loop and the pure-Python
  ``run_loop`` body produce identical results, including across a
  ``StepLimitExceeded`` boundary (the ``cell`` step-count protocol);
* channel slots: both tiers leave the same slot contents (``None``, an
  inline wire tuple, or a deque only while two or more messages queue),
  and materialization hands the simulator the legacy loop's channels.
"""

from collections import deque

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.arraystate import (
    ArrayCore,
    IdSpace,
    _Ineligible,
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
    def test_array_path_engages_on_stock_run(self):
        graph = _graph(48)
        sim, nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "array"
        assert sim.is_quiescent
        assert any(node.is_leader for node in nodes.values())

    def test_empty_pool_declines_to_object_loop(self):
        graph = _graph(48)
        sim, _nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert sim._last_run_path == "array"
        sim.run()  # nothing pending: the array core declines (pool << n)
        assert sim._last_run_path == "fast"

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
# Channel slots and released per-node deques
# ----------------------------------------------------------------------
class TestChannelSlots:
    N_SLOTS = 2000

    def _cores(self, monkeypatch, *, pure_python, max_steps=None):
        cores = []
        run_loop = ArrayCore.run_loop

        def capture(core, *args):
            cores.append(core)
            return run_loop(core, *args)

        monkeypatch.setattr(ArrayCore, "run_loop", capture)
        if pure_python:
            monkeypatch.setattr(arrayloop, "_module", None)
        graph = _graph(self.N_SLOTS)
        if max_steps is None:
            run_graph(graph, "generic")
        else:
            with pytest.raises(StepLimitExceeded):
                run_graph(graph, "generic", max_steps=max_steps)
        monkeypatch.undo()
        (core,) = cores
        return core

    @staticmethod
    def _assert_slot_layout(core):
        for slot in core.chanq:
            assert slot is None or type(slot) is tuple or (
                type(slot) is deque and len(slot) >= 2
            )
        for column in (core.inbox, core.previous):
            assert not any(type(q) is deque and not q for q in column)

    def test_completed_run_holds_no_channel_containers(self, monkeypatch):
        compiled = self._cores(monkeypatch, pure_python=False)
        python = self._cores(monkeypatch, pure_python=True)
        for core in (compiled, python):
            assert len(core.chanq) > self.N_SLOTS
            assert all(slot is None for slot in core.chanq)
            self._assert_slot_layout(core)
        assert compiled.chanq == python.chanq

    def test_tiers_agree_on_slots_mid_run(self, monkeypatch):
        full = run_graph(_graph(self.N_SLOTS), "generic")
        cut = full.steps // 3
        compiled = self._cores(monkeypatch, pure_python=False, max_steps=cut)
        python = self._cores(monkeypatch, pure_python=True, max_steps=cut)
        # Precondition: some channel has spilled to a deque at the cut.
        assert any(type(slot) is deque for slot in compiled.chanq)
        for core in (compiled, python):
            self._assert_slot_layout(core)
        assert compiled.chanq == python.chanq
        assert compiled.inbox == python.inbox
        assert compiled.previous == python.previous


# ----------------------------------------------------------------------
# C loop vs pure-Python loop
# ----------------------------------------------------------------------
class TestCompiledLoop:
    def _pure_python(self, monkeypatch):
        # load() is memoized on _module; anything not the unset sentinel
        # is returned as-is, so this pins the pure-Python run_loop body.
        monkeypatch.setattr(arrayloop, "_module", None)

    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    def test_loops_identical(self, seed, monkeypatch):
        compiled = _scale_outcome("generic", seed=seed)
        self._pure_python(monkeypatch)
        assert arrayloop.load() is None
        assert _scale_outcome("generic", seed=seed) == compiled

    def test_loops_identical_across_limit_boundary(self, monkeypatch):
        # The cell protocol: the absolute step count must survive the
        # C/Python boundary on every exit, including the raising one.
        graph = _graph(48)
        full = run_graph(graph, "generic")
        cut = full.steps // 2

        def interrupted():
            with pytest.raises(StepLimitExceeded) as err:
                run_graph(graph, "generic", max_steps=cut)
            return str(err.value)

        compiled_msg = interrupted()
        self._pure_python(monkeypatch)
        assert interrupted() == compiled_msg
