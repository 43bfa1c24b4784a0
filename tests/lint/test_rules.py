"""Fixture-snippet tests for the determinism rule family and the engine.

Each rule gets a true-positive snippet (the rule fires, at the right line),
a true-negative snippet (the rule stays silent on the benign spelling), and
a baseline-suppression case.  Snippets are written into a temp project laid
out like the real one (``tmp_path/src/repro/...``) so the ``applies_to``
path prefixes resolve exactly as they do in production.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import (
    Baseline,
    BaselineEntry,
    available_rules,
    run_lint,
)
from repro.lint.registry import rule_spec

pytestmark = pytest.mark.lint


def lint_snippet(tmp_path, relpath, source, *, rules, baseline=None):
    """Write one dedented snippet into a temp project and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint(
        tmp_path, rules=rules, baseline=baseline if baseline is not None else Baseline()
    )


def found(report, rule):
    return [f for f in report.new_findings if f.rule == rule]


class TestWallClock:
    def test_flags_time_and_datetime_reads(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            import time
            from datetime import datetime

            def stamp():
                started = time.perf_counter()
                wall = time.time()
                created = datetime.now()
                return started, wall, created
            """,
            rules=["wall-clock"],
        )
        findings = found(report, "wall-clock")
        assert len(findings) == 3
        assert [f.line for f in findings] == [6, 7, 8]
        assert all(f.severity == "error" for f in findings)

    def test_ignores_simulated_clock_attributes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            def advance(state):
                # The *simulated* clock is the point of the engine.
                state.time = state.time + 1.0
                return state.clock.now  # attribute on own object, not the module
            """,
            rules=["wall-clock"],
        )
        assert found(report, "wall-clock") == []

    def test_flags_implicit_now_fallbacks(self, tmp_path):
        """localtime()/ctime()/strftime(fmt) with no time argument read the
        clock; journal timestamps must flow through repro.obs.clock."""
        report = lint_snippet(
            tmp_path,
            "src/repro/obs/snippet.py",
            """
            import time
            from time import gmtime

            def stamp():
                local = time.localtime()
                label = time.ctime()
                pretty = time.strftime("%Y-%m-%d")
                utc = gmtime()
                return local, label, pretty, utc
            """,
            rules=["wall-clock"],
        )
        findings = found(report, "wall-clock")
        assert [f.line for f in findings] == [6, 7, 8, 9]

    def test_explicit_time_arguments_are_pure_conversions(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/obs/snippet.py",
            """
            import time
            from time import gmtime

            def render(ts):
                parts = time.localtime(ts)
                label = time.ctime(ts)
                pretty = time.strftime("%Y-%m-%d", parts)
                utc = gmtime(ts)
                return parts, label, pretty, utc
            """,
            rules=["wall-clock"],
        )
        assert found(report, "wall-clock") == []

    def test_baseline_suppresses_by_stripped_line_text(self, tmp_path):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="wall-clock",
                    path="src/repro/simulation/snippet.py",
                    context="started = time.perf_counter()",
                    justification="bench wall-clock; never feeds a digest",
                )
            ]
        )
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            import time

            def bench():
                started = time.perf_counter()
                return started
            """,
            rules=["wall-clock"],
            baseline=baseline,
        )
        assert found(report, "wall-clock") == []
        assert len(report.baselined_findings) == 1
        assert report.baselined_findings[0].justification.startswith("bench wall-clock")


class TestUnseededRng:
    def test_flags_unseeded_constructors_and_global_state(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/workload/snippet.py",
            """
            import random

            import numpy as np

            def draw():
                rng = np.random.default_rng()
                legacy = np.random.uniform(0.0, 1.0)
                stdlib = random.random()
                bare = random.Random()
                return rng, legacy, stdlib, bare
            """,
            rules=["unseeded-rng"],
        )
        assert len(found(report, "unseeded-rng")) == 4

    def test_seeded_and_instance_draws_are_fine(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/workload/snippet.py",
            """
            import random

            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                keyed = np.random.default_rng(seed=seed)
                local = random.Random(42)
                return rng.uniform(0.0, 1.0), keyed, local.random()
            """,
            rules=["unseeded-rng"],
        )
        assert found(report, "unseeded-rng") == []


class TestSetIteration:
    def test_flags_bare_set_iteration_in_core(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/core/snippet.py",
            """
            def emit(jobs, extras):
                for job in set(jobs):
                    yield job
                for extra in {1, 2, 3}:
                    yield extra
            """,
            rules=["set-iteration"],
        )
        findings = found(report, "set-iteration")
        assert len(findings) == 2
        assert all(f.severity == "warning" for f in findings)

    def test_sorted_set_iteration_is_fine(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/core/snippet.py",
            """
            def emit(jobs):
                for job in sorted(set(jobs)):
                    yield job
            """,
            rules=["set-iteration"],
        )
        assert found(report, "set-iteration") == []

    def test_rule_is_scoped_to_ordered_output_packages(self, tmp_path):
        # Same bare-set iteration outside core/simulation/store: out of scope.
        report = lint_snippet(
            tmp_path,
            "src/repro/analysis/snippet.py",
            """
            def tally(names):
                return [name for name in set(names)]
            """,
            rules=["set-iteration"],
        )
        assert found(report, "set-iteration") == []


class TestFloatEquality:
    def test_flags_float_comparison_in_branch_conditions(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/lp/snippet.py",
            """
            def solve(slope, total):
                if slope != 0.0:
                    return total / slope
                while total == 1.0:
                    total -= 0.5
                return all(c == 0.0 for c in [total])
            """,
            rules=["float-equality"],
        )
        assert len(found(report, "float-equality")) == 3

    def test_ignores_integers_and_non_boolean_contexts(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/lp/snippet.py",
            """
            def build(model, expr, count):
                if count == 2:          # int comparison: exact by construction
                    pass
                constraint = expr == 1.0  # constraint DSL, not a branch
                model.add(constraint)
            """,
            rules=["float-equality"],
        )
        assert found(report, "float-equality") == []


class TestObsRecorderDefault:
    def test_flags_concrete_recorder_construction_and_installation(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            from repro.obs.metrics import MetricsRecorder, install_recorder

            from repro.obs import metrics

            def engine_setup():
                sink = MetricsRecorder()
                install_recorder(sink)
                other = metrics.MetricsRecorder()
                return sink, other
            """,
            rules=["obs-recorder-default"],
        )
        findings = found(report, "obs-recorder-default")
        assert [f.line for f in findings] == [7, 8, 9]
        assert all(f.severity == "error" for f in findings)
        assert any("injected" in f.message for f in findings)

    def test_injection_and_null_defaults_are_legal(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            from repro.obs.metrics import NULL_RECORDER, NullRecorder, get_recorder

            class Engine:
                def __init__(self, recorder=None):
                    self.recorder = recorder  # resolved at run() time

                def run(self):
                    recorder = self.recorder or get_recorder()
                    fallback = NullRecorder()
                    return recorder, fallback, NULL_RECORDER
            """,
            rules=["obs-recorder-default"],
        )
        assert found(report, "obs-recorder-default") == []

    def test_drivers_outside_the_runtime_subtrees_may_install(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/cli_helper.py",
            """
            from repro.obs.metrics import MetricsRecorder, install_recorder

            def enable_metrics():
                install_recorder(MetricsRecorder())
            """,
            rules=["obs-recorder-default"],
        )
        assert found(report, "obs-recorder-default") == []

    def test_baseline_suppresses_a_grandfathered_site(self, tmp_path):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="obs-recorder-default",
                    path="src/repro/store/snippet.py",
                    context="sink = MetricsRecorder()",
                    justification="grandfathered local sink; removal tracked",
                )
            ]
        )
        report = lint_snippet(
            tmp_path,
            "src/repro/store/snippet.py",
            """
            from repro.obs.metrics import MetricsRecorder

            def legacy():
                sink = MetricsRecorder()
                return sink
            """,
            rules=["obs-recorder-default"],
            baseline=baseline,
        )
        assert found(report, "obs-recorder-default") == []
        assert len(report.baselined_findings) == 1


class TestWallClockSanctionedModule:
    def test_obs_clock_is_the_only_exempt_module(self, tmp_path):
        source = """
        import time

        def wall_clock():
            return time.perf_counter()
        """
        exempt = lint_snippet(
            tmp_path, "src/repro/obs/clock.py", source, rules=["wall-clock"]
        )
        assert found(exempt, "wall-clock") == []
        elsewhere = lint_snippet(
            tmp_path, "src/repro/obs/trace.py", source, rules=["wall-clock"]
        )
        assert len(found(elsewhere, "wall-clock")) == 1


class TestEngineAndBaselineHygiene:
    def test_unjustified_baseline_entry_is_an_error(self, tmp_path):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="wall-clock",
                    path="src/repro/simulation/snippet.py",
                    context="started = time.perf_counter()",
                    justification="",
                )
            ]
        )
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            import time

            def bench():
                return time.perf_counter()
            """,
            rules=["wall-clock"],
            baseline=baseline,
        )
        hygiene = found(report, "lint-baseline")
        assert any("no justification" in f.message for f in hygiene)
        assert any(f.severity == "error" for f in hygiene)

    def test_stale_baseline_entry_is_a_warning(self, tmp_path):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="wall-clock",
                    path="src/repro/simulation/gone.py",
                    justification="matched a line that has since been fixed",
                )
            ]
        )
        report = lint_snippet(
            tmp_path,
            "src/repro/simulation/snippet.py",
            """
            def pure():
                return 1
            """,
            rules=["wall-clock"],
            baseline=baseline,
        )
        hygiene = found(report, "lint-baseline")
        assert len(hygiene) == 1
        assert hygiene[0].severity == "warning"
        assert "stale" in hygiene[0].message

    def test_syntax_errors_surface_as_parse_findings(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/core/broken.py",
            """
            def broken(:
                pass
            """,
            rules=["wall-clock"],
        )
        assert len(found(report, "lint-parse")) == 1

    def test_builtin_rules_are_registered(self):
        names = available_rules()
        for expected in (
            "wall-clock",
            "unseeded-rng",
            "set-iteration",
            "float-equality",
            "epoch-guard",
            "obs-recorder-default",
            "policy-explicit-hooks",
        ):
            assert expected in names

    def test_unknown_rule_name_is_rejected(self):
        with pytest.raises(KeyError, match="unknown rule"):
            rule_spec("no-such-rule")


class TestBaselineFile:
    def test_a_missing_file_is_an_empty_baseline(self, tmp_path):
        from repro.lint.baseline import load_baseline

        baseline = load_baseline(tmp_path / "absent.json")
        assert baseline.entries == []
        assert baseline.path == tmp_path / "absent.json"

    def test_entries_load_with_optional_context_and_justification(self, tmp_path):
        import json

        from repro.lint.baseline import load_baseline

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"entries": [{"rule": "wall-clock", "path": "src/x.py"}]}))
        (entry,) = load_baseline(path).entries
        assert (entry.rule, entry.path, entry.context, entry.justification) == (
            "wall-clock", "src/x.py", "", "",
        )

    @pytest.mark.parametrize(
        "payload",
        ['["not", "an", "object"]', '{"version": 1}', '{"entries": [{"rule": "wall-clock"}]}'],
    )
    def test_malformed_files_are_rejected(self, tmp_path, payload):
        from repro.lint.baseline import load_baseline

        path = tmp_path / "baseline.json"
        path.write_text(payload)
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(path)
