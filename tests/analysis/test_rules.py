"""Per-rule fixtures: each rule fires on the bug it protects against
(with the right rule id, file and line) and stays quiet on clean code.

These are the mutation smoke-tests promised by docs/LINT.md: every
fixture in a ``flags_*`` test is a minimal reintroduction of the class
of bug the rule exists to block.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.base import RULE_REGISTRY, default_rules

LIB_PATH = "src/repro/fake_module.py"  # library-only rules apply here
APP_PATH = "scripts/fake_script.py"  # ... and not here


def lint(source: str, path: str = LIB_PATH):
    return lint_source(textwrap.dedent(source), path)


def rules_hit(source: str, path: str = LIB_PATH) -> list[str]:
    return [v.rule for v in lint(source, path).violations]


class TestRegistry:
    def test_all_six_rules_registered(self):
        expected = {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"}
        assert expected <= set(RULE_REGISTRY)

    def test_default_rules_sorted_by_id(self):
        ids = [rule.id for rule in default_rules()]
        assert ids == sorted(ids)

    def test_rule_metadata_complete(self):
        for rule in default_rules():
            assert rule.id.startswith("RPR")
            assert rule.name and rule.summary and rule.invariant


class TestSeededRng:
    def test_flags_unseeded_default_rng(self):
        report = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        (violation,) = report.violations
        assert violation.rule == "RPR001"
        assert violation.path == LIB_PATH
        assert violation.line == 3
        assert "seed" in violation.message

    def test_flags_global_state_calls(self):
        assert rules_hit(
            """
            import numpy as np
            import random
            x = np.random.shuffle([1, 2])
            y = random.randint(0, 5)
            """
        ) == ["RPR001", "RPR001"]

    def test_seeded_constructions_are_clean(self):
        assert rules_hit(
            """
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng(42)
            b = np.random.default_rng(seed=7)
            c = default_rng(0)
            """
        ) == []

    def test_resolves_through_aliases(self):
        assert rules_hit(
            """
            from numpy.random import default_rng as make_rng
            rng = make_rng()
            """
        ) == ["RPR001"]

    def test_library_only(self):
        source = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert rules_hit(source, path=APP_PATH) == []


class TestOrderedAccumulation:
    def test_flags_sum_over_set(self):
        (violation,) = lint("total = sum({1.0, 2.0, 3.0})\n").violations
        assert violation.rule == "RPR002"
        assert violation.line == 1

    def test_flags_sum_over_dict_values(self):
        assert rules_hit("total = sum(scores.values())\n") == ["RPR002"]

    def test_flags_comprehension_over_set(self):
        assert rules_hit("total = sum(x * 2 for x in {1.0, 2.0})\n") == ["RPR002"]

    def test_flags_augmented_loop_over_values(self):
        assert rules_hit(
            """
            total = 0.0
            for ap in scores.values():
                total += ap
            """
        ) == ["RPR002"]

    def test_flags_map_over_raw_dict_values(self):
        # The historical bug: MAP off a journal-restored dict's values.
        assert rules_hit(
            "score = mean_average_precision(list(per_user.values()))\n"
        ) == ["RPR002"]

    def test_sorted_values_are_clean(self):
        assert rules_hit(
            """
            total = sum(scores[k] for k in sorted(scores))
            score = mean_average_precision(sorted(per_user.values()))
            """
        ) == []

    def test_applies_outside_library_too(self):
        assert rules_hit("total = sum(scores.values())\n", path=APP_PATH) == [
            "RPR002"
        ]


class TestWallClock:
    def test_flags_time_time(self):
        (violation,) = lint(
            """
            import time
            stamp = time.time()
            """
        ).violations
        assert violation.rule == "RPR003"
        assert violation.line == 3

    def test_flags_datetime_now(self):
        assert rules_hit(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        ) == ["RPR003"]

    def test_perf_counter_allowed(self):
        assert rules_hit(
            """
            import time
            t0 = time.perf_counter()
            """
        ) == []

    def test_reachable_from_cache_key_gets_stern_message(self):
        report = lint(
            """
            import time

            def _stamp():
                return time.time()

            def artifact_key(params):
                return (params, _stamp())
            """
        )
        (violation,) = report.violations
        assert violation.rule == "RPR003"
        assert "cache-key" in violation.message
        assert "_stamp" in violation.message

    def test_unreachable_read_gets_plain_message(self):
        report = lint(
            """
            import time

            def emit():
                return time.time()
            """
        )
        (violation,) = report.violations
        assert "cache-key" not in violation.message

    def test_library_only(self):
        source = """
        import time
        stamp = time.time()
        """
        assert rules_hit(source, path=APP_PATH) == []


class TestErrorTaxonomy:
    def test_flags_bare_value_error(self):
        (violation,) = lint(
            """
            def f(n):
                if n < 0:
                    raise ValueError("negative")
            """
        ).violations
        assert violation.rule == "RPR004"
        assert violation.line == 4
        assert "ValidationError" in violation.message

    def test_flags_runtime_error_and_exception(self):
        assert rules_hit(
            """
            raise RuntimeError("boom")
            raise Exception("worse")
            """
        ) == ["RPR004", "RPR004"]

    def test_taxonomy_types_are_clean(self):
        assert rules_hit(
            """
            from repro.errors import ValidationError

            def f(n):
                raise ValidationError("negative")
            """
        ) == []

    def test_imported_name_shadowing_builtin_is_clean(self):
        # A name bound by an import is not the builtin.
        assert rules_hit(
            """
            from mypkg.errors import ValueError
            raise ValueError("actually a custom type")
            """
        ) == []

    def test_bare_reraise_is_clean(self):
        assert rules_hit(
            """
            try:
                f()
            except KeyError:
                raise
            """
        ) == []

    def test_library_only(self):
        assert rules_hit('raise ValueError("x")\n', path=APP_PATH) == []


#: RPR005's tracked callables: the import that binds the name, a call,
#: the call spelled through a module or receiver chain, and one of the
#: entry's own delegation names. The one :class:`Sampler` does the work of
#: the resource and stack samplers it replaced; it keeps a row for each
#: role, each bound through one of the two modules that export it.
TRACKED = [
    pytest.param("", 'tracer.span("train")', 'self.tracer.span("train")',
                 "span", id="span"),
    pytest.param("from repro.obs import Sampler",
                 "Sampler(hz=50.0)", "repro.obs.Sampler()", "sampler",
                 id="ResourceSampler"),
    pytest.param("from repro.obs.sampling import Sampler",
                 "Sampler(hz=97.0)", "sampling.Sampler()", "sampler",
                 id="StackSampler"),
]

#: (function def, flagged?); the tracked call is on the def's second line.
WITH_ONLY_CASES = [
    pytest.param("def run(tracer, stack):\n    obj = {call}\n    return obj",
                 True, id="bare"),
    pytest.param("def run(tracer, stack):\n    with {call} as obj:\n        return obj",
                 False, id="with"),
    pytest.param("def run(tracer, stack):\n    return stack.enter_context({call})",
                 False, id="enter_context"),
    pytest.param("def {delegation}(tracer, stack):\n    return {call}",
                 False, id="delegation_return"),
    pytest.param("def start(tracer, stack):\n    return {call}",
                 True, id="other_return"),
    pytest.param("def run(self):\n    return {qualified}",
                 True, id="qualified"),
    pytest.param("def start(tracer, stack):\n    return {call}  "
                 "# repro: allow[RPR005] -- fixture keeps a raw one",
                 False, id="pragma"),
]


class TestWithOnly:
    """RPR005: spans and Samplers enter via `with`."""

    @pytest.mark.parametrize("function, flagged", WITH_ONLY_CASES)
    @pytest.mark.parametrize("imports, call, qualified, delegation", TRACKED)
    def test_verdict(self, imports, call, qualified, delegation, function, flagged):
        source = "\n".join([
            "from repro.obs import sampling",
            imports,
            function.format(call=call, qualified=qualified, delegation=delegation),
        ])
        report = lint_source(source, LIB_PATH)
        if not flagged:
            assert report.violations == []
            return
        (violation,) = report.violations
        assert violation.rule == "RPR005"
        assert violation.line == 4
        assert "outside a `with` statement" in violation.message

    def test_delegation_names_are_per_callable(self):
        # `span` delegates spans, not samplers.
        assert rules_hit(
            """
            from repro.obs.sampling import Sampler

            def span(hz):
                return Sampler(hz=hz)
            """
        ) == ["RPR005"]


class TestPicklableSpec:
    def test_flags_callable_field(self):
        (violation,) = lint(
            """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class SweepSpec:
                scorer: Callable[[int], float]
            """
        ).violations
        assert violation.rule == "RPR006"
        assert violation.line == 7
        assert "scorer" in violation.message

    def test_flags_string_annotation(self):
        assert rules_hit(
            """
            from dataclasses import dataclass

            @dataclass
            class JobSpec:
                hook: "Callable[[], None]"
            """
        ) == ["RPR006"]

    def test_flags_lambda_default(self):
        assert rules_hit(
            """
            from dataclasses import dataclass, field

            @dataclass
            class GridSpec:
                a: object = lambda: 1
                b: object = field(default=lambda: 2)
            """
        ) == ["RPR006", "RPR006"]

    def test_flags_local_spec_class(self):
        report = lint(
            """
            from dataclasses import dataclass

            def build():
                @dataclass
                class LocalSpec:
                    n: int
                return LocalSpec(1)
            """
        )
        (violation,) = report.violations
        assert violation.rule == "RPR006"
        assert "local" in violation.message

    def test_plain_fields_and_non_spec_classes_clean(self):
        assert rules_hit(
            """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class SweepSpec:
                name: str
                seeds: tuple

            @dataclass
            class NotASpecHolder:
                fn: Callable[[], None]
            """
        ) == []


class TestUnboundedWait:
    EXEC_PATH = "src/repro/experiments/fake_executor.py"

    def test_flags_bare_get_join_result(self):
        report = lint(
            """
            def supervise(task_queue, process, future):
                blob = task_queue.get()
                process.join()
                return future.result()
            """,
            path=self.EXEC_PATH,
        )
        assert [v.rule for v in report.violations] == ["RPR008"] * 3
        assert all(v.path == self.EXEC_PATH for v in report.violations)
        assert "timeout" in report.violations[0].message

    def test_bounded_and_nonblocking_waits_clean(self):
        assert rules_hit(
            """
            def supervise(task_queue, result_queue, process, future):
                a = task_queue.get(timeout=1.0)
                b = result_queue.get_nowait()
                c = result_queue.get(block=False)
                process.join(timeout=0.5)
                return future.result(timeout=30), a, b, c
            """,
            path=self.EXEC_PATH,
        ) == []

    def test_lookalike_methods_clean(self):
        # mapping.get(key) and separator.join(parts) share names with
        # the blocking calls but always take positional arguments.
        assert rules_hit(
            """
            def render(mapping, parts):
                value = mapping.get("key")
                return ", ".join(parts), value
            """,
            path=self.EXEC_PATH,
        ) == []

    def test_scoped_to_the_executor_layer(self):
        source = """
            def wait(process):
                process.join()
            """
        assert rules_hit(source, path=LIB_PATH) == []
        assert rules_hit(source, path=APP_PATH) == []
        assert rules_hit(source, path=self.EXEC_PATH) == ["RPR008"]

    def test_pragma_suppresses_with_justification(self):
        assert rules_hit(
            """
            def drain(result_queue):
                return result_queue.get()  # repro: allow[RPR008] -- final drain after all workers joined
            """,
            path=self.EXEC_PATH,
        ) == []


class TestEventLogProgress:
    EXEC_PATH = "src/repro/experiments/fake_runner.py"

    def test_flags_print_in_the_sweep_machinery(self):
        report = lint(
            """
            def announce(cell):
                print(f"done {cell}")
            """,
            path=self.EXEC_PATH,
        )
        (violation,) = report.violations
        assert violation.rule == "RPR009"
        assert violation.path == self.EXEC_PATH
        assert violation.line == 3
        assert "EventLog.emit" in violation.message

    def test_flags_sys_stream_writes(self):
        report = lint(
            """
            import sys

            def announce(cell):
                sys.stderr.write(f"done {cell}\\n")
                sys.stdout.writelines([f"{cell}\\n"])
            """,
            path=self.EXEC_PATH,
        )
        assert [v.rule for v in report.violations] == ["RPR009"] * 2
        assert "sys.stderr.write" in report.violations[0].message

    def test_event_emission_and_file_writes_clean(self):
        assert rules_hit(
            """
            def announce(events, stream, record):
                events.emit("cell_joined", cell=record["cell"])
                stream.write("journal line\\n")
            """,
            path=self.EXEC_PATH,
        ) == []

    def test_scoped_to_the_experiments_package(self):
        source = """
            def announce(cell):
                print(f"done {cell}")
            """
        # Console rendering is legal in the obs sinks, the CLI and
        # anywhere outside src/repro -- only the sweep machinery is held
        # to event emission.
        assert rules_hit(source, path="src/repro/obs/progress.py") == []
        assert rules_hit(source, path="src/repro/cli.py") == []
        assert rules_hit(source, path=APP_PATH) == []
        assert rules_hit(source, path=self.EXEC_PATH) == ["RPR009"]

    def test_pragma_suppresses_with_justification(self):
        assert rules_hit(
            """
            def announce(cell):
                print(f"done {cell}")  # repro: allow[RPR009] -- interactive debug helper, never imported by the runner
            """,
            path=self.EXEC_PATH,
        ) == []


class TestProfileArtifactMutation:
    """RPR010: profile artifacts change only through the update protocol."""

    def test_flags_subscript_assignment(self):
        report = lint(
            """
            def patch(artifact, uid, profile):
                artifact.profiles[uid] = profile
            """
        )
        (violation,) = report.violations
        assert violation.rule == "RPR010"
        assert violation.path == LIB_PATH
        assert violation.line == 3
        assert "ProfileState.update" in violation.message

    def test_flags_augmented_assignment_and_del(self):
        assert rules_hit(
            """
            def trim(artifact, uid):
                artifact.profiles[uid] += 1
                del artifact.profiles[uid]
            """
        ) == ["RPR010", "RPR010"]

    def test_flags_mutating_dict_methods(self):
        assert rules_hit(
            """
            def merge(artifact, extra, uid):
                artifact.profiles.update(extra)
                artifact.profiles.pop(uid)
                artifact.profiles.clear()
                artifact.profiles.setdefault(uid, {})
            """
        ) == ["RPR010"] * 4

    def test_flags_attribute_rebinds(self):
        assert rules_hit(
            """
            def swap(artifact, replacement):
                artifact.profiles = replacement
            """
        ) == ["RPR010"]

    def test_flags_tuple_unpacking_targets(self):
        assert rules_hit(
            """
            def unpack(artifact, uid, profile, other):
                artifact.profiles[uid], other = profile, None
            """
        ) == ["RPR010"]

    def test_local_profiles_dict_is_clean(self):
        # The builder's own dict under construction is the legitimate
        # way profiles come to exist; only artifact attributes are held
        # to immutability.
        assert rules_hit(
            """
            def build(model, users):
                profiles = {}
                for uid in users:
                    profiles[uid] = model.build_user_model(())
                profiles.update({})
                return profiles
            """
        ) == []

    def test_reading_profiles_is_clean(self):
        assert rules_hit(
            """
            def score(artifact, uid):
                profile = artifact.profiles[uid]
                return dict(artifact.profiles.items()), profile
            """
        ) == []

    def test_library_only(self):
        source = """
            def patch(artifact, uid, profile):
                artifact.profiles[uid] = profile
            """
        assert rules_hit(source, path=APP_PATH) == []
        assert rules_hit(source, path=LIB_PATH) == ["RPR010"]

    def test_pragma_suppresses_with_justification(self):
        assert rules_hit(
            """
            def patch(artifact, uid, profile):
                artifact.profiles[uid] = profile  # repro: allow[RPR010] -- migration shim for pre-protocol caches
            """
        ) == []
