"""Failure injection: the simulator must catch protocol violations.

A production-quality simulator fails loudly on misbehaving programs
rather than producing silently wrong science.  These tests feed the
scheduler programs that break each rule in turn — and check that the
degraded-but-legal case (sends to halted nodes, silently dropped) is
*observable*: the runtime reports delivered/dropped message counts
through the telemetry recorder, identically on every engine.  A corrupt
result-cache entry must cost a recomputation, never a wrong record or an
aborted sweep, and a killed pool worker must fail the sweep with a typed
error instead of hanging it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.engine.cache import ResultCache, cache_key
from repro.engine.executor import execute_unit, run_units
from repro.engine.records import ResultRecord
from repro.engine.spec import GraphSpec, JobSpec
from repro.exceptions import (
    InconsistentOutputError,
    RoundLimitExceeded,
    SimulationError,
)
from repro.obs import recording
from repro.portgraph import from_networkx
from repro.runtime import (
    ENGINES,
    NodeProgram,
    run_anonymous,
    use_engine,
)
from repro.runtime.outputs import decode_edge_set


class SendsOnBadPort(NodeProgram):
    def send(self, rnd):
        return {self.degree + 1: "x"}

    def receive(self, rnd, inbox):
        self.halt()


class SendsOnZeroPort(NodeProgram):
    def send(self, rnd):
        return {0: "x"}

    def receive(self, rnd, inbox):
        self.halt()


class HaltsWithBadPort(NodeProgram):
    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt({self.degree + 5})


class HaltsWithNegativePort(NodeProgram):
    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt({-1})


class Spins(NodeProgram):
    def send(self, rnd):
        return {i: rnd for i in range(1, self.degree + 1)}

    def receive(self, rnd, inbox):
        pass


class AsymmetricOutput(NodeProgram):
    """Degree-1 nodes select their edge only if ... nothing: a program
    whose output depends on nothing shared, breaking §2.2 consistency."""

    counter = 0

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        AsymmetricOutput.counter += 1
        if AsymmetricOutput.counter % 2:
            self.halt({1})
        else:
            self.halt(frozenset())


@pytest.fixture
def triangle_graph():
    return from_networkx(nx.complete_graph(3))


class TestSchedulerGuards:
    def test_bad_send_port_high(self, triangle_graph):
        with pytest.raises(SimulationError):
            run_anonymous(triangle_graph, SendsOnBadPort)

    def test_bad_send_port_zero(self, triangle_graph):
        with pytest.raises(SimulationError):
            run_anonymous(triangle_graph, SendsOnZeroPort)

    def test_bad_halt_port(self, triangle_graph):
        with pytest.raises(SimulationError):
            run_anonymous(triangle_graph, HaltsWithBadPort)

    def test_negative_halt_port(self, triangle_graph):
        with pytest.raises(SimulationError):
            run_anonymous(triangle_graph, HaltsWithNegativePort)

    def test_round_limit_guard(self, triangle_graph):
        with pytest.raises(RoundLimitExceeded):
            run_anonymous(triangle_graph, Spins, max_rounds=25)

    def test_round_limit_message_mentions_counts(self, triangle_graph):
        with pytest.raises(RoundLimitExceeded, match="3 node"):
            run_anonymous(triangle_graph, Spins, max_rounds=5)


class HaltsEarlyAtLeaves(NodeProgram):
    """Degree-1 nodes halt after the first round; the middle node keeps
    broadcasting for two more rounds, so its sends drop."""

    def send(self, rnd):
        return {i: rnd for i in range(1, self.degree + 1)}

    def receive(self, rnd, inbox):
        if self.degree == 1 or rnd >= 2:
            self.halt(frozenset())


class TestDeliveryTelemetry:
    """Dropped sends are legal but must be observable (SentMessage.dropped
    end-to-end: trace label, strict-mode error, and runtime counters)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delivered_and_dropped_counted(self, engine):
        # path 0-1-2: round 0 delivers 4 messages everywhere; rounds 1-2
        # the middle node broadcasts 2 messages each to halted leaves.
        graph = from_networkx(nx.path_graph(3))
        with recording() as rec:
            with use_engine(engine):
                result = run_anonymous(graph, HaltsEarlyAtLeaves)
        assert result.rounds == 3
        assert rec.counters["runtime.runs"] == 1
        assert rec.counters["runtime.rounds"] == 3
        assert rec.counters["runtime.messages.delivered"] == 4
        assert rec.counters["runtime.messages.dropped"] == 4

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counters_match_trace_labels(self, engine):
        """The counters agree with the ground truth in the full trace."""
        graph = from_networkx(nx.path_graph(3))
        with recording() as rec:
            with use_engine(engine):
                result = run_anonymous(
                    graph, HaltsEarlyAtLeaves, record_trace=True
                )
        messages = [
            m for rnd in result.trace.rounds for m in rnd.messages
        ]
        delivered = sum(1 for m in messages if not m.dropped)
        dropped = sum(1 for m in messages if m.dropped)
        assert rec.counters["runtime.messages.delivered"] == delivered
        assert rec.counters["runtime.messages.dropped"] == dropped

    @pytest.mark.parametrize("engine", ENGINES)
    def test_strict_delivery_rejects_the_same_run(self, engine):
        graph = from_networkx(nx.path_graph(3))
        with use_engine(engine):
            with pytest.raises(SimulationError, match="halted"):
                run_anonymous(
                    graph, HaltsEarlyAtLeaves, strict_delivery=True
                )

    def test_no_recorder_no_counters(self):
        """Without a recorder the run is untouched (no-op fast path)."""
        graph = from_networkx(nx.path_graph(3))
        result = run_anonymous(graph, HaltsEarlyAtLeaves)
        assert result.rounds == 3


class TestOutputGuards:
    def test_inconsistent_output_detected_on_decode(self):
        graph = from_networkx(nx.path_graph(2))
        AsymmetricOutput.counter = 0
        result = run_anonymous(graph, AsymmetricOutput)
        with pytest.raises(InconsistentOutputError):
            decode_edge_set(graph, result.outputs)

    def test_decode_error_names_offender(self):
        graph = from_networkx(nx.path_graph(2))
        with pytest.raises(InconsistentOutputError, match="X"):
            decode_edge_set(
                graph, {0: frozenset({1}), 1: frozenset()}
            )


class TestCacheReadValidation:
    """A corrupt cache entry is a logged miss: recomputed, overwritten,
    and never served as another unit's record or allowed to abort the
    sweep."""

    @staticmethod
    def units():
        return [
            JobSpec(
                algorithm,
                GraphSpec.make("regular", seed=seed, d=3, n=12),
                optimum="none",
            )
            for algorithm in ("port_one", "regular_odd")
            for seed in (1, 2)
        ]

    @staticmethod
    def sweep(cache):
        return run_units(TestCacheReadValidation.units(), cache=cache,
                         backend="inline")

    def test_swapped_entries_are_recomputed(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        first = self.sweep(cache)
        keys = [cache_key(unit) for unit in self.units()]
        a, b = cache.path_for(keys[0]), cache.path_for(keys[1])
        a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
        a.write_bytes(b_bytes)
        b.write_bytes(a_bytes)

        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            again = self.sweep(ResultCache(tmp_path))
        assert [r.key for r in again.records] == keys
        assert again.records == first.records
        assert again.computed == 2 and again.cache_hits == len(keys) - 2
        assert sum("holds the record of key" in r.getMessage()
                   for r in caplog.records) == 2
        assert json.loads(a.read_bytes())["key"] == keys[0]
        assert json.loads(b.read_bytes())["key"] == keys[1]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda record: record.pop("algorithm"),  # missing field
            lambda record: record.update(extra=7),  # wrong type
            lambda record: record.update(rounds="1"),  # str for int
            lambda record: record.update(solution_size=True),  # bool for int
        ],
        ids=["missing-field", "wrong-type", "str-rounds", "bool-size"],
    )
    def test_unparseable_record_is_recomputed(self, tmp_path, caplog,
                                              damage):
        cache = ResultCache(tmp_path)
        first = self.sweep(cache)
        key = cache_key(self.units()[2])
        record = json.loads(cache.path_for(key).read_text())
        damage(record)
        cache.path_for(key).write_text(json.dumps(record))

        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            again = self.sweep(ResultCache(tmp_path))
        assert again.records == first.records
        assert again.computed == 1
        assert any("malformed cache entry" in r.getMessage()
                   for r in caplog.records)
        assert json.loads(cache.path_for(key).read_text()) == (
            first.records[2].to_json_dict()
        )

    def test_scalar_table_follows_field_order(self):
        """``from_json_dict`` passes the scalars positionally, so a
        record with a two-sided bracket must round-trip field for
        field."""
        from repro.engine.records import _BRACKET_DEFAULTS, _FIELD_TYPES

        names = [f.name for f in dataclasses.fields(ResultRecord)]
        assert list(_FIELD_TYPES) == names[:-1]
        assert list(_BRACKET_DEFAULTS) == names[-7:-1]
        record = ResultRecord(
            "k", "bounded_degree", "regular", "r", 8, 12, 3, 5, 0, False,
            0, 1, 40, 7, 3, 4, 5, 4, 5, 3, {"x": 1},
        )
        assert ResultRecord.from_json_dict(record.to_json_dict()) == record

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rounds", "1"),
            ("num_nodes", 12.0),
            ("solution_size", True),
            ("optimum_upper", None),
            ("optimum_exact", 1),
            ("algorithm", 3),
            ("key", None),
            ("messages", "7"),
            ("messages", False),
        ],
    )
    def test_wrong_scalar_type_rejected(self, field, value):
        """``from_json_dict`` raises ``TypeError`` (which the cache turns
        into a logged miss) for every scalar field of the wrong type."""
        data = execute_unit(self.units()[0]).to_json_dict()
        assert ResultRecord.from_json_dict(data).to_json_dict() == data
        data[field] = value
        with pytest.raises(TypeError, match=repr(field)):
            ResultRecord.from_json_dict(data)


#: A measure that SIGKILLs the process running it on one chosen graph.
KILLER_MODULE = """
import os
import signal

from repro.registry.measures import Measure, register_measure


@register_measure
class KillsItsWorker(Measure):
    name = "test_kills_worker"
    check_feasible = False

    def measure(self, graph, run):
        if run.spec.graph.label() == os.environ.get("REPRO_TEST_KILL_LABEL"):
            os.kill(os.getpid(), signal.SIGKILL)
        return {}
"""

#: Four one-unit cells on two workers; the third cell kills its worker.
#: Prints what the sweep raised, the cache it left behind, a re-run
#: without the killer, and the inline records, as one JSON object.
CRASH_SCRIPT = """
import json
import os
import sys

import kill_worker_measure  # noqa: F401  (registers the measure)
from repro.engine import GraphSpec, JobSpec, ResultCache, cache_key, run_units
from repro.engine.executor import execute_unit

units = [
    JobSpec("port_one", GraphSpec.make("regular", seed=seed, d=3, n=10),
            measure="test_kills_worker", optimum="none")
    for seed in range(4)
]
killed = units[2].graph.label()
cache = ResultCache(sys.argv[1])
os.environ["REPRO_TEST_KILL_LABEL"] = killed
try:
    run_units(units, workers=2, backend="process", cache=cache)
    error, message = None, ""
except Exception as exc:
    error, message = type(exc).__name__, str(exc)
cached = {key: cache.get(key).to_json_dict() for key in cache.keys()}
del os.environ["REPRO_TEST_KILL_LABEL"]
rerun = run_units(units, workers=2, backend="process", cache=cache)
print(json.dumps({
    "error": error,
    "message": message,
    "killed": killed,
    "killed_key": cache_key(units[2]),
    "cached": cached,
    "inline": {cache_key(u): execute_unit(u).to_json_dict() for u in units},
    "rerun_computed": rerun.computed,
    "rerun_hits": rerun.cache_hits,
}))
"""


class TestWorkerCrash:
    """A pool worker killed mid-sweep (the OOM killer's way) fails the
    sweep with a typed error naming the lost cell; the cells that
    finished are cached, and a re-run computes only the rest."""

    def test_killed_worker_raises_instead_of_hanging(self, tmp_path):
        (tmp_path / "kill_worker_measure.py").write_text(KILLER_MODULE)
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(src), env.get("PYTHONPATH", "")]
        )
        try:
            done = subprocess.run(
                [sys.executable, "-c", CRASH_SCRIPT, str(tmp_path / "cache")],
                capture_output=True, text=True, env=env, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the sweep hung after a pool worker was killed")
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.splitlines()[-1])
        assert out["error"] == "WorkerCrashedError"
        assert out["killed"] in out["message"]
        cached = out["cached"]
        assert out["killed_key"] not in cached
        assert cached  # the cells that finished reached the cache
        for key, record in cached.items():
            assert record == out["inline"][key]
        assert out["rerun_hits"] == len(cached)
        assert out["rerun_computed"] == len(out["inline"]) - len(cached)
