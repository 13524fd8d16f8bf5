"""Tests for repro.plugins entry-point discovery.

A fake installed distribution (module + ``.dist-info`` with an
``entry_points.txt``) is materialised on ``sys.path``, which is exactly
what ``importlib.metadata`` scans — no packaging tooling needed.  The
contracts under test:

* a plugin distribution's registrations show up in the catalogue (and
  therefore in work units, sweeps, and the CLI) without any edit to
  repo source;
* load order is deterministic and duplicate entry-point names are
  rejected (first wins, rest skipped loudly);
* a broken plugin is logged and skipped — never crashes discovery, the
  registry, or the CLI;
* spawn-started ProcessBackend workers re-create plugin registrations
  (origin-module re-import plus the lazy rescan in fresh processes).
"""

from __future__ import annotations

import sys

import pytest

from repro import api
from repro.engine import GraphSpec, JobSpec
from repro.plugins import PLUGIN_GROUP, format_plugins, load_plugins
from repro.plugins import discovery
from repro.registry import ALGORITHMS, algorithm_names

#: A well-behaved plugin module: registers one central-model algorithm.
GOOD_PLUGIN = """\
from repro.registry import register_central

register_central(
    "{name}",
    lambda graph: frozenset(graph.edges),
    description="third-party test plugin: selects every edge",
)
"""


@pytest.fixture
def plugin_site(tmp_path, monkeypatch):
    """A factory for fake installed distributions under one site dir.

    Yields ``add(dist, module, source, entries)``; tears down every
    registration, imported module, and the discovery cache afterwards.
    """
    monkeypatch.syspath_prepend(str(tmp_path))
    before = set(algorithm_names())
    modules: list[str] = []

    def add(dist: str, module: str | None, source: str,
            entries: dict[str, str]) -> None:
        if module is not None:
            (tmp_path / f"{module}.py").write_text(source)
            modules.append(module)
        # Wheel-normalised dir name: dashes in the project name become
        # underscores, or importlib.metadata mis-parses (and dedupes).
        info = tmp_path / f"{dist.replace('-', '_')}-0.1.dist-info"
        info.mkdir()
        (info / "METADATA").write_text(
            f"Metadata-Version: 2.1\nName: {dist}\nVersion: 0.1\n"
        )
        lines = "".join(
            f"{name} = {target}\n" for name, target in entries.items()
        )
        (info / "entry_points.txt").write_text(
            f"[{PLUGIN_GROUP}]\n{lines}"
        )

    yield add

    for name in set(algorithm_names()) - before:
        ALGORITHMS.unregister(name)
    for module in modules:
        sys.modules.pop(module, None)
    discovery._records.clear()  # force a rescan on the next lookup


class TestDiscovery:
    def test_plugin_registers_without_repo_edits(self, plugin_site):
        plugin_site(
            "eds-ring", "eds_ring_plugin",
            GOOD_PLUGIN.format(name="plug_ring"), {"ring": "eds_ring_plugin"},
        )
        records = load_plugins(reload=True)
        assert [(r.name, r.loaded) for r in records] == [("ring", True)]
        assert "plug_ring" in algorithm_names()
        record = api.run_one(
            "plug_ring", api.graph("cycle", n=6), optimum="exact"
        )
        assert record.solution_size == 6

    def test_callable_entry_point_is_invoked(self, plugin_site):
        plugin_site(
            "eds-hook", "eds_hook_plugin",
            "from repro.registry import register_central\n"
            "def install():\n"
            "    register_central('plug_hooked',\n"
            "                     lambda graph: frozenset(graph.edges))\n",
            {"hook": "eds_hook_plugin:install"},
        )
        records = load_plugins(reload=True)
        assert records[0].loaded
        assert "plug_hooked" in algorithm_names()

    def test_load_order_is_sorted_by_name(self, plugin_site):
        plugin_site("eds-b", "eds_plug_b",
                    GOOD_PLUGIN.format(name="plug_b"), {"bbb": "eds_plug_b"})
        plugin_site("eds-a", "eds_plug_a",
                    GOOD_PLUGIN.format(name="plug_a"), {"aaa": "eds_plug_a"})
        records = load_plugins(reload=True)
        assert [r.name for r in records] == ["aaa", "bbb"]

    def test_group_caches_are_independent(self, plugin_site):
        plugin_site("eds-grp", "eds_grp_plugin",
                    GOOD_PLUGIN.format(name="plug_grp"),
                    {"grp": "eds_grp_plugin"})
        # Scanning an unrelated group first must not poison the default
        # group's cache (or vice versa).
        assert load_plugins(group="no.such.group", reload=True) == ()
        records = load_plugins(reload=True)
        assert [r.name for r in records] == ["grp"]
        assert load_plugins(group="no.such.group") == ()

    def test_idempotent_without_reload(self, plugin_site):
        plugin_site("eds-once", "eds_once_plugin",
                    GOOD_PLUGIN.format(name="plug_once"),
                    {"once": "eds_once_plugin"})
        first = load_plugins(reload=True)
        # A second call must not re-import (which would raise
        # DuplicateNameError from the registry) — it serves the cache.
        assert load_plugins() is first


class TestIsolation:
    def test_duplicate_entry_point_names_rejected(self, plugin_site):
        plugin_site("eds-one", "eds_dup_one",
                    GOOD_PLUGIN.format(name="plug_dup_one"),
                    {"dup": "eds_dup_one"})
        plugin_site("eds-two", "eds_dup_two",
                    GOOD_PLUGIN.format(name="plug_dup_two"),
                    {"dup": "eds_dup_two"})
        records = load_plugins(reload=True)
        assert len(records) == 2
        winner, loser = records
        assert winner.loaded and winner.value == "eds_dup_one"
        assert not loser.loaded and "duplicate" in loser.error
        assert "plug_dup_one" in algorithm_names()
        assert "plug_dup_two" not in algorithm_names()

    def test_broken_plugin_is_logged_and_skipped(self, plugin_site, caplog):
        plugin_site("eds-broken", "eds_broken_plugin",
                    "raise RuntimeError('kaboom')\n",
                    {"broken": "eds_broken_plugin"})
        plugin_site("eds-fine", "eds_fine_plugin",
                    GOOD_PLUGIN.format(name="plug_fine"),
                    {"fine": "eds_fine_plugin"})
        with caplog.at_level("WARNING", logger="repro.plugins.discovery"):
            records = load_plugins(reload=True)
        broken = next(r for r in records if r.name == "broken")
        assert not broken.loaded and "kaboom" in broken.error
        assert "kaboom" in caplog.text
        # The healthy plugin and the whole catalogue survive.
        assert next(r for r in records if r.name == "fine").loaded
        assert "plug_fine" in algorithm_names()
        assert "port_one" in algorithm_names()

    def test_missing_entry_point_target_is_isolated(self, plugin_site):
        plugin_site("eds-ghost", None, "", {"ghost": "eds_no_such_module"})
        records = load_plugins(reload=True)
        assert len(records) == 1
        assert not records[0].loaded

    def test_colliding_registration_is_isolated(self, plugin_site):
        # A plugin that claims a built-in name fails inside load();
        # the registry rejects it and discovery records the error.
        plugin_site("eds-squat", "eds_squat_plugin",
                    GOOD_PLUGIN.format(name="port_one"),
                    {"squat": "eds_squat_plugin"})
        records = load_plugins(reload=True)
        assert not records[0].loaded
        assert "already registered" in records[0].error
        # The built-in is untouched.
        from repro.registry import get_algorithm
        assert get_algorithm("port_one").origin == "repro.algorithms.port_one"


class TestFormatting:
    def test_format_plugins_empty(self):
        assert "no plugins discovered" in format_plugins(())

    def test_format_plugins_table(self, plugin_site):
        plugin_site("eds-tbl", "eds_tbl_plugin",
                    GOOD_PLUGIN.format(name="plug_tbl"),
                    {"tbl": "eds_tbl_plugin"})
        text = format_plugins(load_plugins(reload=True))
        assert "tbl" in text and "loaded" in text

    def test_cli_plugins_command(self, plugin_site, capsys):
        from repro.cli import main

        plugin_site("eds-cli", "eds_cli_plugin",
                    GOOD_PLUGIN.format(name="plug_cli"),
                    {"cli": "eds_cli_plugin"})
        load_plugins(reload=True)
        assert main(["plugins"]) == 0
        out = capsys.readouterr().out
        assert "eds_cli_plugin" in out and "loaded" in out


class TestEngineIntegration:
    def test_plugin_visible_in_compare_cli(self, plugin_site, capsys):
        """The acceptance criterion: a third-party-style plugin joins
        `repro-eds compare` with zero edits to repo source."""
        from repro.cli import main

        plugin_site("eds-cmp", "eds_cmp_plugin",
                    GOOD_PLUGIN.format(name="plug_compare"),
                    {"cmp": "eds_cmp_plugin"})
        load_plugins(reload=True)
        code = main([
            "compare", "--families", "regular", "--degrees", "3",
            "--sizes", "8", "--seeds", "1", "--no-cache",
            "--backend", "inline", "--quiet",
            "--algorithms", "port_one,central_optimal,plug_compare",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plug_compare" in out

    def test_worker_reimports_entry_point_plugin(self, plugin_site):
        """A spawn worker payload re-creates the plugin by importing its
        origin module (the dist's module registers at import time)."""
        from repro.engine.backends.process import _plugin_modules, _worker

        plugin_site("eds-wrk", "eds_wrk_plugin",
                    GOOD_PLUGIN.format(name="plug_worker"),
                    {"wrk": "eds_wrk_plugin"})
        load_plugins(reload=True)
        unit = JobSpec("plug_worker", GraphSpec.make("cycle", n=6))
        modules = _plugin_modules([unit])
        assert modules == ("eds_wrk_plugin",)
        # One task is one cell: a list of (index, spec dict) pairs.
        payload = ([(0, unit.to_json_dict())], modules, False, False)

        # Simulate the spawn worker's fresh interpreter: the plugin's
        # registration and module are gone, only the payload remains.
        ALGORITHMS.unregister("plug_worker")
        sys.modules.pop("eds_wrk_plugin")
        ((index, record, telemetry),) = _worker(payload)
        assert index == 0
        assert telemetry is None  # collection was off in the payload
        assert record["solution_size"] == 6
        assert "plug_worker" in algorithm_names()

    def test_plugin_units_run_through_process_pool(self, plugin_site):
        plugin_site("eds-pool", "eds_pool_plugin",
                    GOOD_PLUGIN.format(name="plug_pool"),
                    {"pool": "eds_pool_plugin"})
        load_plugins(reload=True)
        units = [
            JobSpec("plug_pool", GraphSpec.make("cycle", n=n))
            for n in (4, 5, 6, 7)
        ]
        report = api.run_sweep(units, workers=2, backend="process")
        assert [r.solution_size for r in report.records] == [4, 5, 6, 7]
