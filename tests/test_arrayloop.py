"""The C delivery loop (``core/_arrayloop.c``) against the reference handlers.

Three contracts of the one fast engine:

* **probes**: Ad-hoc probes injected while discovery is still running are
  delivered, forwarded, parked and answered inside the C loop, with the
  legacy loop's steps, stats, leaders and probe results, and every
  ``run()`` call ends in code 0 (drained) or 1 (step limit);
* **ProtocolError parity**: a protocol-impossible message raises the
  reference handler's exact error from inside the C loop, and the
  simulator is materialized afterwards exactly as the legacy loop leaves
  it;
* **no silent fallback**: without the C loop, ``run_graph`` builds node
  objects, warns once naming the reason, and returns the C run's result.
"""

import re
import warnings

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.adhoc import AdhocNetwork
from repro.core.arraystate import run_graph
from repro.core.messages import (
    ABORT,
    Conquer,
    Info,
    MergeAccept,
    MergeFail,
    MoreDone,
    ProbeReply,
    Query,
    QueryReply,
    Release,
    Search,
)
from repro.core.node import ProtocolError
from repro.core.runner import build_simulation, default_step_budget
from repro.sim.network import StepLimitExceeded

needs_c = pytest.mark.skipif(
    arrayloop.load() is None, reason="the C delivery loop is not available"
)


@pytest.fixture
def c_codes(monkeypatch):
    """Every ``(code, aux)`` the C loop's ``run()`` returns in the test."""
    cmod = arrayloop.load()
    original = cmod.run
    codes = []

    def run(*args):
        result = original(*args)
        codes.append(result[0])
        return result

    monkeypatch.setattr(cmod, "run", run)
    return codes


# ----------------------------------------------------------------------
# Probes while discovery runs
# ----------------------------------------------------------------------
def _probed_discovery(fast, *, n=64, seed=5):
    """Interrupt an Ad-hoc discovery early, inject a probe at every awake
    node that accepts one, and run to quiescence."""
    graph = build_family("sparse-random", n, seed)
    net = AdhocNetwork(graph, seed=seed, fast=fast)
    with pytest.raises(StepLimitExceeded):
        net.run(n // 2)
    first_path = net.sim._last_run_path
    handles = {
        node_id: net.probe_async(node_id)
        for node_id in net.nodes
        if net.can_probe(node_id)
    }
    net.run()
    return net, handles, first_path


class TestProbeDifferential:
    @needs_c
    def test_probes_in_flight_match_legacy(self, c_codes):
        array, array_handles, array_first = _probed_discovery(fast=True)
        legacy, legacy_handles, legacy_first = _probed_discovery(fast=False)
        assert array_first == "array"
        assert array.sim._last_run_path == "array"
        assert legacy.sim._last_run_path == "legacy"
        # Preconditions: probes crossed the network, some of them from
        # nodes that were not yet settled (parked, then forwarded).
        by_type = dict(array.stats.messages_by_type)
        assert by_type.get("probe", 0) > 0
        assert by_type.get("probe-reply", 0) > 0
        assert sum(not h.immediate for h in array_handles.values()) > 1
        assert c_codes and set(c_codes) <= {0, 1}

        assert array.sim.steps == legacy.sim.steps
        assert by_type == dict(legacy.stats.messages_by_type)
        assert dict(array.stats.bits_by_type) == dict(legacy.stats.bits_by_type)
        assert array.result().leaders == legacy.result().leaders
        assert list(array_handles) == list(legacy_handles)
        for node_id, handle in array_handles.items():
            assert handle.done
            assert handle.answer == legacy_handles[node_id].answer
        for node_id, node in array.nodes.items():
            assert node.probe_results == legacy.nodes[node_id].probe_results
            assert not node.probe_outstanding


# ----------------------------------------------------------------------
# ProtocolError parity
# ----------------------------------------------------------------------
def _leader(nodes):
    return next(x for x, node in nodes.items() if node.is_leader)


def _inactive(nodes):
    return next(x for x, node in nodes.items() if node.status == "inactive")


def _other(nodes, *avoid):
    return next(x for x in nodes if x not in avoid)


#: arm -> (variant, pick (src, dst, message) from the quiescent nodes,
#: expected error text pattern).  Each message is impossible for the
#: receiver's state in the reference handlers.
ARMS = {
    "query-to-waiting-leader": (
        "generic",
        lambda nodes: (_inactive(nodes), _leader(nodes), Query(3)),
        r"query from .* in status wait; queries only ever reach inactive",
    ),
    "unexpected-query-reply": (
        "generic",
        lambda nodes: (_inactive(nodes), _leader(nodes), QueryReply(frozenset(), True)),
        r"unexpected query-reply from .* in status wait",
    ),
    "merge-accept-to-inactive": (
        "generic",
        lambda nodes: (_leader(nodes), _inactive(nodes), MergeAccept()),
        r"merge-accept in status inactive",
    ),
    "merge-fail-to-inactive": (
        "generic",
        lambda nodes: (_leader(nodes), _inactive(nodes), MergeFail()),
        r"merge-fail in status inactive",
    ),
    "info-to-waiting-leader": (
        "generic",
        lambda nodes: (
            _inactive(nodes),
            _leader(nodes),
            Info(1, frozenset(), frozenset(), frozenset(), frozenset()),
        ),
        r"info in status wait",
    ),
    "conquer-to-leader": (
        "generic",
        lambda nodes: (_inactive(nodes), _leader(nodes), Conquer(_inactive(nodes), 99)),
        r"conquer in status wait; conquer messages only ever reach inactive",
    ),
    "more-done-to-inactive": (
        "generic",
        lambda nodes: (_leader(nodes), _inactive(nodes), MoreDone(True)),
        r"more-done in status inactive",
    ),
    "release-to-route-at-leader": (
        "generic",
        lambda nodes: (
            _inactive(nodes),
            _leader(nodes),
            Release(_inactive(nodes), ABORT, _inactive(nodes), 1),
        ),
        r"release for .* in status wait; only inactive nodes route releases",
    ),
    "release-to-route-empty-previous": (
        "generic",
        lambda nodes: (
            _leader(nodes),
            _inactive(nodes),
            Release(_leader(nodes), ABORT, _leader(nodes), 1),
        ),
        r"release to route but previous queue empty",
    ),
    "own-release-while-idle": (
        "generic",
        lambda nodes: (
            _inactive(nodes),
            _leader(nodes),
            Release(_inactive(nodes), ABORT, _leader(nodes), 1),
        ),
        r"own release \(abort\) in status wait with awaiting_release=False",
    ),
    "search-outranks-terminated-leader": (
        "bounded",
        lambda nodes: (
            _inactive(nodes),
            _leader(nodes),
            Search(
                _inactive(nodes),
                99,
                _other(nodes, _inactive(nodes), _leader(nodes)),
                False,
            ),
        ),
        r"terminated leader outranked by search from .* termination was unsound",
    ),
    "probe-reply-to-route-at-leader": (
        "adhoc",
        lambda nodes: (
            _inactive(nodes),
            _leader(nodes),
            ProbeReply(_leader(nodes), frozenset(nodes), _inactive(nodes)),
        ),
        r"probe-reply to route in status wait",
    ),
    "probe-reply-empty-probe-queue": (
        "adhoc",
        lambda nodes: (
            _leader(nodes),
            _inactive(nodes),
            ProbeReply(_leader(nodes), frozenset(nodes), _leader(nodes)),
        ),
        r"probe-reply but probe queue empty",
    ),
}


def _inject_and_run(variant, pick, fast):
    """Quiesce a discovery, then put one impossible message at the head
    of the pool, behind it one (no-op) wake per node so the pool is large
    enough for the array path, and run."""
    graph = build_family("sparse-random", 32, 2)
    sim, nodes = build_simulation(graph, variant, fast=fast)
    sim.run(default_step_budget(graph))
    src, dst, message = pick(nodes)
    sim.transmit(src, dst, message)
    for node_id in nodes:
        sim.schedule_wake(node_id)
    with pytest.raises(ProtocolError) as err:
        sim.run(default_step_budget(graph))
    return sim, str(err.value)


class TestProtocolErrorParity:
    @needs_c
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_c_loop_raises_the_reference_error(self, arm, c_codes):
        variant, pick, pattern = ARMS[arm]
        array, array_error = _inject_and_run(variant, pick, fast=True)
        legacy, legacy_error = _inject_and_run(variant, pick, fast=False)
        assert array._last_run_path == "array"
        assert legacy._last_run_path == "legacy"
        assert c_codes  # the raise came out of the C loop
        assert re.search(pattern, legacy_error)
        assert array_error == legacy_error
        assert array.steps == legacy.steps
        assert array.in_flight() == legacy.in_flight()
        assert list(array._channels.items()) == list(legacy._channels.items())
        assert list(array.scheduler.pending()) == list(legacy.scheduler.pending())
        assert dict(array.stats.messages_by_type) == dict(
            legacy.stats.messages_by_type
        )


# ----------------------------------------------------------------------
# No silent fallback
# ----------------------------------------------------------------------
class TestNoSilentFallback:
    @needs_c
    @pytest.mark.parametrize("variant", ["generic", "adhoc"])
    @pytest.mark.parametrize("seed", [None, 4], ids=["fifo", "random"])
    def test_object_fallback_warns_and_matches_c(self, variant, seed, monkeypatch):
        graph = build_family("sparse-random", 40, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the C run warns about nothing
            compiled = run_graph(graph, variant, seed=seed)
        monkeypatch.setattr(arrayloop, "_module", None)
        with pytest.warns(RuntimeWarning, match="C delivery loop is unavailable") as record:
            objects = run_graph(graph, variant, seed=seed)
        assert len(record) == 1
        assert objects.verified and compiled.verified
        assert objects.steps == compiled.steps
        assert dict(objects.stats.messages_by_type) == dict(
            compiled.stats.messages_by_type
        )
        assert dict(objects.stats.bits_by_type) == dict(compiled.stats.bits_by_type)
        assert objects.leaders == compiled.leaders
        assert objects.n_components == compiled.n_components

    def test_warning_names_the_load_failure(self, monkeypatch):
        monkeypatch.setattr(arrayloop, "_module", arrayloop._UNSET)
        monkeypatch.setattr(arrayloop, "_reason", None)
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        assert arrayloop.load() is None
        assert arrayloop.unavailable_reason() == "REPRO_PURE_PYTHON is set"
        with pytest.warns(RuntimeWarning, match=r"\(REPRO_PURE_PYTHON is set\)"):
            run_graph(build_family("sparse-random", 12, 1), "generic")

    def test_compile_failure_keeps_the_stderr_tail(self, monkeypatch, tmp_path):
        broken = tmp_path / "_arrayloop.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(arrayloop, "_SOURCE", broken)
        monkeypatch.setattr(arrayloop, "_module", arrayloop._UNSET)
        monkeypatch.setattr(arrayloop, "_reason", None)
        monkeypatch.setenv("REPRO_ARRAYLOOP_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
        assert arrayloop.load() is None
        reason = arrayloop.unavailable_reason()
        if reason == "no C compiler on PATH":
            pytest.skip(reason)
        assert "exited" in reason and "_arrayloop.c" in reason
