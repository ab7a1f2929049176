"""Per-checker positive/negative fixture tests for tools/reprolint.

Each checker has a ``bad_*`` fixture that must produce findings (the test
that fails before the paired fix/pragma exists) and a ``good_*`` fixture
exercising the legitimate patterns the checker must not flag — including the
repo's own idioms (``*_locked`` hooks, condition-variable waits, struct
method aliases, dataclass ``default_factory`` locks).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # ``tools`` lives at the repo root, not under src/

from tools.reprolint import CHECKERS, load_project, run  # noqa: E402
from tools.reprolint.core import parse_pragmas  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"


def lint(*names: str):
    project = load_project([FIXTURES / name for name in names], root=REPO_ROOT)
    return run(project, CHECKERS)


def rules_of(report) -> set:
    return {finding.rule for finding in report.findings}


# ------------------------------------------------------------ lock discipline
class TestLockDiscipline:
    def test_bad_fixture_flags_every_unlocked_mutation(self):
        report = lint("bad_lock_discipline.py")
        findings = [f for f in report.findings if f.rule == "lock-discipline"]
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "MixedCounter.count" in messages
        assert "MixedCounter.cache" in messages

    def test_good_fixture_is_clean(self):
        assert lint("good_lock_discipline.py").clean


# ------------------------------------------------------------------ lock order
class TestLockOrder:
    def test_bad_fixture_reports_the_cycle(self):
        report = lint("bad_lock_order.py")
        findings = [f for f in report.findings if f.rule == "lock-order"]
        assert len(findings) == 1
        assert "_accounts_lock" in findings[0].message
        assert "_journal_lock" in findings[0].message

    def test_good_fixture_is_clean(self):
        assert lint("good_lock_order.py").clean


# ----------------------------------------------------------- blocking under lock
class TestBlockingUnderLock:
    def test_bad_fixture_flags_sleep_queue_ops_and_join(self):
        report = lint("bad_blocking.py")
        findings = [f for f in report.findings if f.rule == "blocking-under-lock"]
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "sleep" in messages
        assert ".get()" in messages
        assert ".put()" in messages
        assert ".join()" in messages

    def test_good_fixture_exemptions_hold(self):
        # CV waits on the held lock, dict.get/str.join, non-blocking queue
        # variants and blocking calls outside locks must all pass.
        assert lint("good_blocking.py").clean


# ------------------------------------------------------------------ fork safety
class TestForkSafety:
    def test_bad_fixture_flags_import_time_primitives(self):
        report = lint("bad_fork_safety.py")
        findings = [f for f in report.findings if f.rule == "fork-safety"]
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "module scope" in messages
        assert "class Worker body" in messages
        assert "SharedMemory" in messages

    def test_good_fixture_per_instance_state_is_clean(self):
        assert lint("good_fork_safety.py").clean

    def test_unreachable_module_is_not_flagged(self):
        # Linted together with a fork root that does not import it, the bad
        # module is outside the fork-visible set and must not be flagged.
        root_src = "import threading\n\ndef launch():\n    return threading.Thread\n"
        root = FIXTURES / "launcher.py"  # module part 'launcher' marks a fork root
        root.write_text(root_src, encoding="utf-8")
        try:
            report = lint("launcher.py", "bad_fork_safety.py")
            assert not [f for f in report.findings if f.rule == "fork-safety"]
        finally:
            root.unlink()


# ------------------------------------------------------------------- fork site
class TestForkSite:
    def test_bad_fixture_flags_every_fork_site(self):
        report = lint("bad_fork_site.py")
        findings = [f for f in report.findings if f.rule == "fork-site"]
        assert sorted(f.line for f in findings) == [12, 16, 20, 25, 34]
        messages = " ".join(f.message for f in findings)
        assert "os.fork() forks" in messages
        assert "get_context('fork')" in messages
        assert "Process(...).start() forks" in messages

    def test_good_fixture_is_clean(self):
        assert lint("good_fork_site.py").clean

    def test_the_spawner_module_may_fork(self):
        spawner = FIXTURES / "spawner.py"  # module name 'spawner' marks the allowed site
        spawner.write_text((FIXTURES / "bad_fork_site.py").read_text(encoding="utf-8"),
                           encoding="utf-8")
        try:
            assert not [f for f in lint("spawner.py").findings if f.rule == "fork-site"]
        finally:
            spawner.unlink()

    def test_only_src_is_checked_when_the_project_has_src(self):
        project = load_project([REPO_ROOT / "src" / "repro" / "launcher",
                                FIXTURES / "bad_fork_site.py"], root=REPO_ROOT)
        assert not [f for f in run(project, CHECKERS).findings if f.rule == "fork-site"]


# ---------------------------------------------------------------- solver state
class TestSolverState:
    def test_bad_fixture_flags_every_store_outside_init(self):
        report = lint("bad_solver_state.py")
        findings = [f for f in report.findings if f.rule == "solver-state"]
        assert sorted(f.line for f in findings) == [18, 22, 23, 27, 28, 29]
        messages = " ".join(f.message for f in findings)
        assert "CachingSolver.iter_steps stores to self.calls" in messages
        assert "CachingSolver.iter_steps stores to self.last_field" in messages
        assert "CachingSolver.reset stores to self.last_field" in messages  # del

    def test_good_fixture_is_clean(self):
        assert lint("good_solver_state.py").clean

    def test_only_src_is_checked_when_the_project_has_src(self):
        project = load_project([REPO_ROOT / "src" / "repro" / "solvers",
                                FIXTURES / "bad_solver_state.py"], root=REPO_ROOT)
        assert not [f for f in run(project, CHECKERS).findings if f.rule == "solver-state"]


# ------------------------------------------------------------------ sleep poll
class TestSleepPoll:
    def test_bad_fixture_flags_every_sleep_awaited_in_a_loop(self):
        report = lint("bad_sleep_poll.py")
        findings = [f for f in report.findings if f.rule == "sleep-poll"]
        assert sorted(f.line for f in findings) == [14, 19, 25, 29]
        messages = " ".join(f.message for f in findings)
        assert "asyncio.sleep()" in messages
        assert "nap()" in messages  # ``from asyncio import sleep as nap``
        assert "aio.sleep()" in messages  # ``import asyncio as aio``

    def test_good_fixture_is_clean(self):
        assert lint("good_sleep_poll.py").clean

    def test_only_src_is_checked_when_the_project_has_src(self):
        project = load_project([REPO_ROOT / "src" / "repro" / "server" / "serving.py",
                                FIXTURES / "bad_sleep_poll.py"], root=REPO_ROOT)
        assert not [f for f in run(project, CHECKERS).findings if f.rule == "sleep-poll"]


# ------------------------------------------------------------ thread boundary
class TestThreadBoundary:
    PROJECT = FIXTURES / "thread_boundary_project"

    def lint(self, name):
        """Run this rule on one fixture, as ``src/<name>`` of its own project
        (whose ``src/`` is all tests, so ``test-only`` is not run)."""
        checkers = [checker for checker in CHECKERS if checker.RULE == "thread-boundary"]
        return run(load_project([self.PROJECT / "src" / name], root=self.PROJECT), checkers)

    def test_bad_fixture_flags_every_way_out_of_the_failure_path(self):
        report = self.lint("bad_thread_boundary.py")
        findings = [f for f in report.findings if f.rule == "thread-boundary"]
        assert sorted(f.line for f in findings) == [16, 18, 25, 33, 39, 53]
        messages = " ".join(f.message for f in findings)
        assert "`lambda: self.step()` is not a function or method" in messages
        assert "`_prepare_then_run` runs statements outside one try" in messages
        assert "`_run_then_report` runs statements outside one try" in messages
        assert "`_catch_exceptions_only` has no `except BaseException`" in messages
        assert "`_log_only` has no `except BaseException`" in messages
        assert "`work` runs statements outside one try" in messages  # a pool.submit target

    def test_good_fixture_is_clean(self):
        assert self.lint("good_thread_boundary.py").clean

    def test_only_src_is_checked(self):
        report = lint("thread_boundary_project/src/bad_thread_boundary.py")
        assert not [f for f in report.findings if f.rule == "thread-boundary"]


# ------------------------------------------------------------------ wire layout
class TestWireLayout:
    def test_bad_fixture_flags_every_drift_shape(self):
        report = lint("bad_wire_layout.py")
        findings = [f for f in report.findings if f.rule == "wire-layout"]
        assert len(findings) == 5
        messages = " ".join(f.message for f in findings)
        assert "packs 17 bytes" in messages  # declared 13 vs calcsize 17
        assert "no explicit byte order" in messages
        assert "4 args" in messages  # pack_into arity (buffer + offset + 2 values)
        assert "3 args" in messages  # alias pack arity
        assert "needs 32 bytes" in messages  # offset past budget

    def test_good_fixture_and_alias_idioms_are_clean(self):
        assert lint("good_wire_layout.py").clean

    def test_header_dtype_drift_from_its_struct_is_flagged(self):
        report = lint("bad_header_dtype.py")
        findings = [f for f in report.findings if f.rule == "wire-layout"]
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "format '<f4' does not match struct code 'd' ('<f8')" in messages
        assert "offset 13 but calcsize of '<Bqd' is 17" in messages
        assert "itemsize must name RECORD_HEADER_BYTES" in messages
        assert "2 formats and 2 offsets for the 3 fields of _PAIR_HEADER" in messages

    def test_header_dtype_mirroring_its_struct_is_clean(self):
        assert lint("good_header_dtype.py").clean

    def test_repo_wire_modules_stay_consistent(self):
        # The real invariants: messages.py headers and shm_ring.py offset
        # families must keep matching their declared byte sizes.
        project = load_project(
            [
                REPO_ROOT / "src" / "repro" / "parallel" / "messages.py",
                REPO_ROOT / "src" / "repro" / "parallel" / "shm_ring.py",
            ],
            root=REPO_ROOT,
        )
        report = run(project, CHECKERS, rules=["wire-layout"])
        assert report.clean, [f.render() for f in report.findings]


# ---------------------------------------------------------------- unused imports
class TestUnusedImport:
    def test_bad_fixture_flags_every_unread_binding(self):
        report = lint("bad_unused_import.py")
        findings = [f for f in report.findings if f.rule == "unused-import"]
        assert [f.line for f in findings] == [5, 6, 8, 9, 17]
        messages = " ".join(f.message for f in findings)
        assert "'os.path'" in messages
        assert "'List'" in messages and "'Dict'" not in messages
        assert "'queue as channels'" in messages

    def test_good_fixture_exemptions_hold(self):
        # __all__ exports, __future__, dotted imports, string annotations and
        # function-local imports read in their function must all pass.
        assert lint("good_unused_import.py").clean

    def test_src_package_init_files_are_reexport_hubs(self, tmp_path):
        hub = tmp_path / "src" / "repro" / "pkg" / "__init__.py"
        hub.parent.mkdir(parents=True)
        hub.write_text("from repro.pkg.impl import Thing\n", encoding="utf-8")
        plain = tmp_path / "tools" / "__init__.py"
        plain.parent.mkdir()
        plain.write_text("from tools.impl import Thing\n", encoding="utf-8")
        report = run(load_project([hub, plain], root=tmp_path), CHECKERS)
        assert [f.path for f in report.findings] == ["tools/__init__.py"]


# ------------------------------------------------------------------ line length
class TestLineLength:
    def test_bad_fixture_flags_every_long_line(self):
        report = lint("bad_line_length.py")
        findings = [f for f in report.findings if f.rule == "line-length"]
        assert [f.line for f in findings] == [3, 8, 12]
        assert "101 characters" in findings[0].message

    def test_good_fixture_counts_characters_not_bytes(self):
        assert lint("good_line_length.py").clean

    def test_limit_is_ruffs_line_length(self):
        import re

        from tools.reprolint.check_line_length import MAX_LINE_LENGTH

        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        ruff = re.search(r"^\[tool\.ruff\]\n(?:.*\n)*?line-length = (\d+)$", pyproject, re.M)
        assert ruff is not None and int(ruff.group(1)) == MAX_LINE_LENGTH


# -------------------------------------------------------------------- test only
class TestTestOnly:
    PROJECT = FIXTURES / "test_only_project"

    def findings(self, *paths, root=None):
        project = load_project(paths or [self.PROJECT], root=root or self.PROJECT)
        return [f for f in run(project, CHECKERS).findings if f.rule == "test-only"]

    def flagged(self, findings, path):
        return [(f.message.split()[0], f.line) for f in findings if f.path == path]

    def test_bad_fixture_flags_what_only_tests_reach(self):
        assert self.flagged(self.findings(), "src/pkg/bad.py") == [
            ("only_tested", 4),  # a string under tools/ keeps nothing alive
            ("reexported_only", 8),  # an __init__.py import alone keeps nothing alive
            ("listed_only", 12),  # nor does an __all__ entry
            ("recursive", 16),  # nor a call from its own body
            ("Helper", 21),  # nor a docstring
            ("Helper.tested_method", 24),
        ]

    def test_fields_only_tests_read_or_only_written_are_flagged(self):
        assert self.flagged(self.findings(), "src/pkg/fields.py") == [
            ("Stats.tested_only", 9),  # read by tests/ alone
            ("Stats.counted", 10),  # only ``+=``
            ("Stats.appended", 11),  # only ``.append(...)`` as a statement
            ("Stats.keyed", 12),  # only ``x.keyed[k] = v``
            ("Tracker._seen", 18),  # a ``self`` attribute, only ``.add(...)``-ed
        ]

    def test_an_external_api_name_keeps_no_method_alive(self):
        # ``time.sleep`` in benchmarks/ and ``"sleep"`` in a tools/ table both
        # name something outside src/: neither keeps ``Clock.sleep`` alive.
        assert self.flagged(self.findings(), "src/pkg/clock.py") == [("Clock.sleep", 10)]

    def test_good_fixture_is_clean(self):
        # A factory-table entry, a string target in benchmarks/, a getattr
        # string, a method reached by attribute and a dunder method; a field
        # read in benchmarks/, one named in a string, a self attribute read in
        # its class, an exception's payload.
        flagged = {f.path for f in self.findings()}
        assert flagged == {
            "src/pkg/bad.py", "src/pkg/fields.py", "src/pkg/clock.py", "src/pkg/settings.py"
        }
        assert self.flagged(self.findings(), "src/pkg/good.py") == []

    def test_settings_only_tests_pass_are_flagged(self):
        # Kept: a field passed in its position, one passed to ``replace``, a
        # parameter a ``**`` splat passes, one a subclass passes to
        # ``super().__init__``, ``host``/``port`` and a ``None`` default.
        assert self.flagged(self.findings(), "src/pkg/settings.py") == [
            ("RunConfig.retry_timeout", 10),  # only ``tests/uses.py`` passes it
            ("Engine(spin=)", 19),  # no call passes it
        ]

    def test_the_report_counts_the_settable_values(self):
        project = load_project([self.PROJECT], root=self.PROJECT)
        # RunConfig's six fields (its ClassVar is no field), Engine(spin=),
        # Pool(workers=) and Buffer(threshold=); carve-outs count too.
        assert run(project, CHECKERS, rules=["test-only"]).measures == {"settable_values": 9}
        assert run(project, CHECKERS, rules=["line-length"]).measures == {}

    def settings_findings(self, root, lib, app):
        root.mkdir()
        (root / "lib.py").write_text(lib, encoding="utf-8")
        (root / "app.py").write_text(app, encoding="utf-8")
        return [f.message.split()[0] for f in self.findings(root, root=root)
                if "passed by nothing" in f.message]

    def test_a_class_in_a_factory_table_is_passed_its_keywords(self, tmp_path):
        lib = ("class Sampler:\n    def __init__(self, seed=0):\n        self.seed = seed\n\n"
               "    def draw(self):\n        return self.seed\n")
        direct = "import lib\n\nlib.Sampler().draw()\n"
        assert self.settings_findings(tmp_path / "direct", lib, direct) == ["Sampler(seed=)"]
        table = ("import lib\n\n\ndef make(name, seed):\n"
                 "    return {'s': lib.Sampler}[name](seed=seed)\n\n\n"
                 "make('s', 1).draw()\n")
        assert self.settings_findings(tmp_path / "table", lib, table) == []

    def test_forwarding_kwargs_passes_nothing_new(self, tmp_path):
        lib = ("class Sampler:\n    def __init__(self, seed=0):\n        self.seed = seed\n\n"
               "    def draw(self):\n        return self.seed\n")
        app = ("import lib\n\n\ndef traced(fn):\n    def call(*args, **kwargs):\n"
               "        return fn(*args, **kwargs)\n    return call\n\n\n"
               "{'s': lib.Sampler}['s']().draw()\n")
        assert self.settings_findings(tmp_path / "forward", lib, app) == ["Sampler(seed=)"]

    def field_findings(self, root, lib, app):
        root.mkdir()
        (root / "lib.py").write_text(lib, encoding="utf-8")
        (root / "app.py").write_text(app, encoding="utf-8")
        return [f.message.split()[0] for f in self.findings(root, root=root)]

    def test_a_field_named_in_a_string_is_kept(self, tmp_path):
        lib = ("from dataclasses import dataclass\n\n\n"
               "@dataclass\nclass Row:\n    traced: int = 0\n")
        app = "import lib\n\nrow = lib.Row()\n"
        assert self.field_findings(tmp_path / "unnamed", lib, app) == ["Row.traced"]
        named = app + 'value = getattr(row, "traced")\n'
        assert self.field_findings(tmp_path / "named", lib, named) == []

    def test_an_exception_attribute_is_kept(self, tmp_path):
        lib = ("class {base}:\n    pass\n\n\nclass Failure({base}):\n"
               "    def __init__(self, errors):\n        self.errors = errors\n")
        app = "import lib\n\nraise lib.Failure([])\n"
        plain = lib.format(base="Base")
        assert self.field_findings(tmp_path / "plain", plain, app) == ["Failure.errors"]
        error = lib.format(base="BaseError")  # exempt through its project base class
        assert self.field_findings(tmp_path / "error", error, app) == []

    def test_the_verdict_does_not_depend_on_the_paths_given(self):
        whole = self.findings()
        assert self.findings(self.PROJECT / "src") == whole
        bad = self.PROJECT / "src" / "pkg" / "bad.py"
        assert self.findings(bad) == [f for f in whole if f.path == "src/pkg/bad.py"]

    def test_only_src_is_checked_when_the_project_has_src(self):
        helper = REPO_ROOT / "src" / "repro" / "utils" / "seeding.py"
        assert self.findings(helper, FIXTURES / "bad_solver_state.py", root=REPO_ROOT) == []

    def test_a_project_without_src_is_checked_whole(self, tmp_path):
        (tmp_path / "lib.py").write_text(
            "def used():\n    pass\n\n\ndef only_tested():\n    pass\n", encoding="utf-8")
        (tmp_path / "app.py").write_text("from lib import used\n\nused()\n", encoding="utf-8")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "check_lib.py").write_text(
            "from lib import only_tested, used\n\nonly_tested()\nused()\n", encoding="utf-8")
        findings = self.findings(tmp_path, root=tmp_path)
        assert [(f.path, f.message.split()[0]) for f in findings] == [("lib.py", "only_tested")]


# --------------------------------------------------------------- pragma protocol
class TestPragmas:
    def test_justified_pragmas_suppress_inline_and_own_line(self):
        report = lint("pragma_suppressed.py")
        assert report.clean
        assert len(report.suppressed) == 2
        assert {f.rule for f in report.suppressed} == {"lock-discipline"}

    def test_unjustified_pragma_does_not_suppress(self):
        report = lint("pragma_misuse.py")
        assert rules_of(report) == {"lock-discipline", "bad-pragma", "unused-pragma"}
        assert not report.suppressed

    def test_pragmas_in_string_literals_are_ignored(self):
        text = 'DOC = "# reprolint: allow[lock-discipline] -- not a comment"\n'
        assert parse_pragmas(text) == []
        assert len(parse_pragmas("x = 1  # reprolint: allow[wire-layout] -- why\n")) == 1


# ------------------------------------------------------------------------- CLI
class TestCli:
    def test_exit_codes_and_json_report(self, tmp_path):
        from tools.reprolint.__main__ import main

        json_path = tmp_path / "report.json"
        assert main([str(FIXTURES / "good_blocking.py"), "-q"]) == 0
        assert (
            main([str(FIXTURES / "bad_blocking.py"), "-q", "--json", str(json_path)]) == 1
        )
        import json

        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["checked_files"] == 1
        assert len(payload["findings"]) == 4
        assert payload["measures"] == {"settable_values": 0}  # no src/ module given

    def test_rules_filter_and_unknown_rule(self, tmp_path):
        from tools.reprolint.__main__ import main

        assert main([str(FIXTURES / "bad_blocking.py"), "-q", "--rules", "wire-layout"]) == 0
        assert main([str(FIXTURES / "bad_blocking.py"), "--rules", "nonsense"]) == 2

    def test_summary_rendering(self, tmp_path):
        from tools.reprolint.__main__ import main

        summary = tmp_path / "summary.md"
        main([str(FIXTURES / "bad_wire_layout.py"), "-q", "--summary", str(summary)])
        text = summary.read_text(encoding="utf-8")
        assert "## reprolint" in text
        assert "wire-layout" in text
        assert "| settable_values | 0 |" in text
