"""Tests of GUARDRAIL, the repo's static-analysis suite (repro.lint).

Each rule gets a fixture tree shaped like the real layout
(``<tmp>/repro/<package>/<module>.py``) with one deliberate violation,
plus a clean twin proving the rule doesn't overfire.  The framework
tests cover suppression comments, the baseline file, deterministic JSON
output, and the CLI's CI-facing exit codes.  The last test is the
acceptance criterion: the shipped ``src/`` tree lints clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    Severity,
    all_rules,
    findings_to_json,
    render_findings,
    run_lint,
)
from repro.lint.__main__ import main

SRC = Path(__file__).resolve().parent.parent / "src"


def write_tree(root, files):
    """Write ``{relative/path.py: source}`` under ``root``; return root."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(root, **kwargs):
    return run_lint([str(root)], **kwargs)


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_and_entropy_calls(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/clocky.py": """\
                import time
                import uuid


                def stamp():
                    return time.time(), uuid.uuid4()
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 2
        assert any("wall-clock" in m for m in messages)
        assert any("ambient entropy" in m for m in messages)

    def test_aliased_import_still_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/aliased.py": """\
                from datetime import datetime as dt


                def now():
                    return dt.now()
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        assert len(result.findings) == 1
        assert "datetime.datetime.now" in result.findings[0].message

    def test_module_level_random_and_unseeded_instance(self, tmp_path):
        write_tree(tmp_path, {
            "repro/workloads/draws.py": """\
                import random


                def draw():
                    return random.random()


                def unseeded():
                    return random.Random()


                def seeded_is_legal():
                    return random.Random(7)
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        assert len(result.findings) == 2
        assert {f.line for f in result.findings} == {5, 9}

    def test_id_ordering(self, tmp_path):
        write_tree(tmp_path, {
            "repro/guardian/ordering.py": """\
                def order(items):
                    return sorted(items, key=id)


                def stable(items):
                    return sorted(items, key=lambda item: item.name)
                """,
            # The stream factory itself is exempt by charter.
            "repro/sim/rng.py": """\
                def order(items):
                    return sorted(items, key=id)
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        assert len(result.findings) == 1
        assert result.findings[0].path.endswith("guardian/ordering.py")


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_upward_import(self, tmp_path):
        write_tree(tmp_path, {
            "repro/hardware/widget.py": """\
                from repro.guardian.cluster import Cluster
                """,
        })
        result = lint(tmp_path, select=["layering"])
        assert len(result.findings) == 1
        assert "upward import" in result.findings[0].message

    def test_downward_import_is_legal(self, tmp_path):
        write_tree(tmp_path, {
            "repro/guardian/widget.py": """\
                from repro.hardware import Node
                from repro.sim import Environment
                """,
        })
        assert not lint(tmp_path, select=["layering"]).findings

    def test_relative_upward_import_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "repro/hardware/widget.py": """\
                from ..guardian import cluster
                """,
        })
        result = lint(tmp_path, select=["layering"])
        assert len(result.findings) == 1

    def test_probe_package_needs_allowlist(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/probing.py": """\
                from repro.measure import MetricsRegistry
                """,
            # config.py is the composition root: it subscribes the
            # registry and the collector to the probe.
            "repro/encompass/config.py": """\
                from repro.measure import MetricsRegistry
                from repro.trace import TraceCollector
                """,
            # The cluster installs nothing, so it may import neither.
            "repro/guardian/cluster.py": """\
                from repro.trace import TraceCollector
                """,
        })
        result = lint(tmp_path, select=["layering"])
        paths = sorted(finding.path for finding in result.findings)
        assert len(paths) == 2
        assert paths[0].endswith("core/probing.py")
        assert paths[1].endswith("guardian/cluster.py")
        assert all("env.probe" in f.message for f in result.findings)

    def test_runtime_must_not_import_lint(self, tmp_path):
        write_tree(tmp_path, {
            "repro/sim/meta.py": """\
                import repro.lint
                """,
        })
        result = lint(tmp_path, select=["layering"])
        assert len(result.findings) == 1
        assert "tooling" in result.findings[0].message


# ----------------------------------------------------------------------
# engine-private
# ----------------------------------------------------------------------
class TestEnginePrivateRule:
    def test_reads_and_writes_outside_sim(self, tmp_path):
        write_tree(tmp_path, {
            "repro/guardian/sneaky.py": """\
                from heapq import heappush


                def jump(env, event, when):
                    env._eid += 1
                    heappush(env._queue, (when, 0, env._eid, event))
                    return env._now, getattr(env, "_active_process")
                """,
        })
        result = lint(tmp_path, select=["engine-private"])
        assert rules_fired(result) == ["engine-private"]
        names = sorted(f.message.split("`")[1] for f in result.findings)
        assert names == ["_active_process", "_eid", "_eid", "_now", "_queue"]

    def test_sim_package_and_public_api_are_legal(self, tmp_path):
        write_tree(tmp_path, {
            "repro/sim/loop.py": """\
                def bump(env):
                    env._eid += 1
                    return env._queue, env._now, env._active_process
                """,
            "repro/guardian/polite.py": """\
                def defer(env, event, when):
                    seq = env.reserve_seq()
                    env.schedule_at(event, when, seq)
                    return env.now, env.active_process, env._safe_queue
                """,
        })
        assert not lint(tmp_path, select=["engine-private"]).findings

    def test_suppression_marks_a_deliberate_peek(self, tmp_path):
        write_tree(tmp_path, {
            "repro/measure/depth.py": """\
                def depth(env):
                    return len(env._queue)  # repro: allow[engine-private]
                """,
        })
        assert not lint(tmp_path, select=["engine-private"]).findings


# ----------------------------------------------------------------------
# figure3
# ----------------------------------------------------------------------
class TestFigure3Rule:
    def test_unknown_member(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/typo.py": """\
                from repro.core.states import TxState


                def f():
                    return TxState.PREPARED
                """,
        })
        result = lint(tmp_path, select=["figure3"])
        assert len(result.findings) == 1
        assert "not a Figure-3 state" in result.findings[0].message

    def test_illegal_guarded_broadcast(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/edges.py": """\
                from repro.core.states import TxState


                def resurrect(broadcaster, transid, current):
                    if current == TxState.ENDED:
                        broadcaster.broadcast(transid, TxState.ACTIVE)


                def legal(broadcaster, transid, current):
                    if current == TxState.ENDING:
                        broadcaster.broadcast(transid, TxState.ENDED)
                """,
        })
        result = lint(tmp_path, select=["figure3"])
        assert len(result.findings) == 1
        assert "ENDED -> ACTIVE" in result.findings[0].message

    def test_membership_guard_and_assignment(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/tables.py": """\
                from repro.core.states import TxState


                def skip_ending(table, transid, current):
                    if current in (TxState.ACTIVE, TxState.ENDING):
                        table[transid] = TxState.ENDED
                """,
        })
        result = lint(tmp_path, select=["figure3"])
        # ACTIVE -> ENDED skips the ending state; ENDING -> ENDED is legal.
        assert len(result.findings) == 1
        assert "ACTIVE -> ENDED" in result.findings[0].message

    def test_literal_table_must_be_subgraph(self, tmp_path):
        write_tree(tmp_path, {
            "repro/encompass/mytable.py": """\
                from repro.core.states import TxState

                SHORTCUTS = {
                    TxState.ACTIVE: (TxState.ENDED,),
                    TxState.ENDING: (TxState.ENDED,),
                }
                """,
        })
        result = lint(tmp_path, select=["figure3"])
        assert len(result.findings) == 1
        assert "literal transition table" in result.findings[0].message

    def test_unguarded_sites_are_left_to_runtime(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/runtimeonly.py": """\
                from repro.core.states import TxState


                def f(broadcaster, transid, state):
                    broadcaster.broadcast(transid, state)
                """,
        })
        assert not lint(tmp_path, select=["figure3"]).findings


# ----------------------------------------------------------------------
# probe-coverage
# ----------------------------------------------------------------------
class TestProbeCoverageRule:
    """Each case runs a second input too: reaching ``env.probe`` covers
    a send path, and reaching any other environment attribute (the
    ``env.metrics``/``env.trace`` names of the retired side channels
    included) covers nothing."""

    def test_unprobed_send_path(self, tmp_path):
        for attr in ("node", "env.metrics"):
            root = tmp_path / attr
            write_tree(root, {
                "repro/guardian/sender.py": f"""\
                    class Sender:
                        def dispatch(self, payload):
                            seen = self.{attr}
                            self.node.buses.record_transfer(1.0)
                    """,
            })
            result = lint(root, select=["probe-coverage"])
            assert len(result.findings) == 1, attr
            assert "Sender.dispatch()" in result.findings[0].message

    def test_direct_probe_covers(self, tmp_path):
        for probe_line in ('self.env.probe.count("sender.dispatches")',
                           'self.env.probe.emit("dispatch", payload=payload)'):
            root = tmp_path / str(len(probe_line))
            write_tree(root, {
                "repro/guardian/sender.py": f"""\
                    class Sender:
                        def dispatch(self, payload):
                            {probe_line}
                            self.node.buses.record_transfer(1.0)
                    """,
            })
            assert not lint(root, select=["probe-coverage"]).findings, probe_line

    def test_coverage_propagates_through_callees(self, tmp_path):
        # The probe lives in the delegate, even in another file.
        cases = {"trace": 1, "probe": 0, "metrics": 1}
        for attr, expected in cases.items():
            root = tmp_path / attr
            write_tree(root, {
                "repro/guardian/outer.py": """\
                    class Outer:
                        def send(self, payload):
                            message = Message(payload)
                            self.delegate.charge_transit(message)
                    """,
                "repro/guardian/inner.py": f"""\
                    class Inner:
                        def charge_transit(self, message):
                            hub = self.env.{attr}
                    """,
            })
            findings = lint(root, select=["probe-coverage"]).findings
            assert len(findings) == expected, attr

    def test_generic_names_carry_no_credit(self, tmp_path):
        # `append` collides with probed functions elsewhere; the chain
        # through it must not launder coverage onto the send path.
        for attr in ("trace", "probe"):
            root = tmp_path / attr
            write_tree(root, {
                "repro/guardian/leaky.py": f"""\
                    class Log:
                        def append(self, record):
                            hub = self.env.{attr}
                            if hub is not None:
                                hub.emit(record)


                    class Sender:
                        def dispatch(self, payload):
                            self.log.append(payload)
                            self.node.buses.record_transfer(1.0)
                    """,
            })
            result = lint(root, select=["probe-coverage"])
            assert len(result.findings) == 1, attr
            assert "Sender.dispatch()" in result.findings[0].message

    def test_outside_guardian_is_out_of_scope(self, tmp_path):
        write_tree(tmp_path, {
            "repro/hardware/bus.py": """\
                class Bus:
                    def push(self, payload):
                        self.record_transfer(1.0)
                """,
            # Out of scope even when it reads only the XRAY registry.
            "repro/hardware/wire.py": """\
                class Wire:
                    def push(self, payload):
                        metrics = self.env.metrics
                        self.record_transfer(1.0)
                """,
        })
        assert not lint(tmp_path, select=["probe-coverage"]).findings

    def test_unprobed_boxcar_coroutine(self, tmp_path):
        # BOXCAR scope: a discprocess flush coroutine with no probe on
        # any call path is invisible — and nothing waits on it to notice.
        for probe_line in ("pass", "metrics = self.env.metrics"):
            root = tmp_path / str(len(probe_line))
            write_tree(root, {
                "repro/discprocess/flush.py": f"""\
                    class Volume:
                        def _boxcar_timer(self, proc):
                            yield self.env.timeout(5.0)
                            yield from self.push_cargo(proc)

                        def push_cargo(self, proc):
                            {probe_line}
                            yield from self.filesystem.send(proc, "$aud", {{}})
                    """,
            })
            result = lint(root, select=["probe-coverage"])
            assert len(result.findings) == 1, probe_line
            assert "Volume._boxcar_timer()" in result.findings[0].message

    def test_audit_ship_requires_probe(self, tmp_path):
        cases = {"pass": 1, "self.env.probe.count('boxcar.ships')": 0}
        for probe_line, expected in cases.items():
            root = tmp_path / str(expected)
            write_tree(root, {
                "repro/discprocess/ship.py": f"""\
                    class Volume:
                        def _forward(self, proc):
                            op = AppendAudit(volume=self.name, records=())
                            {probe_line}
                            yield from self.filesystem.send(proc, "$aud", op)
                    """,
            })
            result = lint(root, select=["probe-coverage"])
            assert len(result.findings) == expected, probe_line
            if expected:
                assert "Volume._forward()" in result.findings[0].message

    def test_boxcar_coroutine_covered_via_ship_delegate(self, tmp_path):
        # The probe lives on the AppendAudit sender; the coroutines that
        # merely decide *when* to flush inherit coverage through it.
        cases = {"self.env.probe.count('boxcar.flushes')": 0,
                 "metrics = self.env.metrics": 2}
        for probe_line, expected in cases.items():
            root = tmp_path / str(expected)
            write_tree(root, {
                "repro/discprocess/flush.py": f"""\
                    class Volume:
                        def _boxcar_timer(self, proc):
                            yield self.env.timeout(5.0)
                            yield from self._forward_cargo(proc)

                        def _forward_cargo(self, proc):
                            op = AppendAudit(volume=self.name, records=())
                            {probe_line}
                            yield from self.filesystem.send(proc, "$aud", op)
                    """,
            })
            findings = lint(root, select=["probe-coverage"]).findings
            assert len(findings) == expected, probe_line

    def test_boxcar_policy_helpers_out_of_scope(self, tmp_path):
        # Plain functions (no yield) that just mention boxcar — policy
        # resolution, validation — are not send paths, probed or not.
        write_tree(tmp_path, {
            "repro/discprocess/policy.py": """\
                def resolve_boxcar(boxcar):
                    if boxcar is False or boxcar is None:
                        return None
                    return boxcar


                def count_boxcar(env):
                    env.probe.count("boxcar.resolved")
                """,
        })
        assert not lint(tmp_path, select=["probe-coverage"]).findings


# ----------------------------------------------------------------------
# exception-hygiene
# ----------------------------------------------------------------------
class TestExceptionHygieneRule:
    def test_bare_except(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/swallow.py": """\
                def f(work):
                    try:
                        work()
                    except:
                        return None
                """,
        })
        result = lint(tmp_path, select=["exception-hygiene"])
        assert len(result.findings) == 1
        assert "bare except" in result.findings[0].message

    def test_broad_except_needs_justification(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/broad.py": """\
                def unjustified(work):
                    try:
                        work()
                    except Exception:
                        return None


                def justified(work):
                    try:
                        work()
                    except Exception:  # noqa: BLE001 - surfaced to the caller
                        return None
                """,
        })
        result = lint(tmp_path, select=["exception-hygiene"])
        assert len(result.findings) == 1
        assert result.findings[0].line == 4

    def test_noqa_code_alone_is_not_a_justification(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/codeonly.py": """\
                def f(work):
                    try:
                        work()
                    except Exception:  # noqa: BLE001
                        return None
                """,
        })
        assert len(lint(tmp_path, select=["exception-hygiene"]).findings) == 1

    def test_recovery_path_may_not_swallow_silently(self, tmp_path):
        write_tree(tmp_path, {
            "repro/guardian/pair.py": """\
                def takeover(work):
                    try:
                        work()
                    except Exception:  # noqa: BLE001 - backup also gone
                        pass
                """,
        })
        result = lint(tmp_path, select=["exception-hygiene"])
        assert len(result.findings) == 1
        assert "swallows" in result.findings[0].message


# ----------------------------------------------------------------------
# framework: suppression, baseline, output, CLI
# ----------------------------------------------------------------------
class TestSuppression:
    def test_inline_and_line_above(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/suppressed.py": """\
                import time


                def inline():
                    return time.time()  # repro: allow[determinism]


                def above():
                    # repro: allow[determinism]
                    return time.time()


                def unsuppressed():
                    return time.time()
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        assert len(result.findings) == 1
        assert result.findings[0].line == 14
        assert result.suppressed == 2

    def test_suppression_is_per_rule(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/wrongrule.py": """\
                import time


                def f():
                    return time.time()  # repro: allow[layering]
                """,
        })
        assert len(lint(tmp_path, select=["determinism"]).findings) == 1


class TestBaseline:
    def test_round_trip_absorbs_existing_findings(self, tmp_path):
        root = write_tree(tmp_path / "tree", {
            "repro/apps/legacy.py": """\
                import time


                def f():
                    return time.time()
                """,
        })
        first = lint(root, select=["determinism"])
        assert len(first.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(first.findings).save(baseline_path)

        second = run_lint(
            [str(root)], select=["determinism"],
            baseline=Baseline.load(baseline_path),
        )
        assert not second.findings
        assert second.baselined == 1

    def test_new_findings_pierce_the_baseline(self, tmp_path):
        root = write_tree(tmp_path / "tree", {
            "repro/apps/legacy.py": """\
                import time


                def f():
                    return time.time()
                """,
        })
        baseline = Baseline.from_findings(
            lint(root, select=["determinism"]).findings
        )
        write_tree(root, {
            "repro/apps/fresh.py": """\
                import time


                def g():
                    return time.time()
                """,
        })
        result = run_lint([str(root)], select=["determinism"], baseline=baseline)
        assert len(result.findings) == 1
        assert result.findings[0].path.endswith("fresh.py")


class TestOutput:
    def test_json_is_deterministic_and_parseable(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/one.py": """\
                import time


                def f():
                    return time.time()
                """,
        })
        result = lint(tmp_path, select=["determinism"])
        first = findings_to_json(result)
        second = findings_to_json(lint(tmp_path, select=["determinism"]))
        assert first == second
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["rules"] == ["determinism"]
        (finding,) = payload["findings"]
        assert finding["rule"] == "determinism"
        assert finding["severity"] == "error"
        assert finding["code"] == "return time.time()"

    def test_text_render_mentions_rule_and_location(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/one.py": """\
                import time


                def f():
                    return time.time()
                """,
        })
        text = render_findings(lint(tmp_path, select=["determinism"]))
        assert "[determinism]" in text
        assert "one.py:5:" in text

    def test_parse_error_becomes_a_finding(self, tmp_path):
        write_tree(tmp_path, {
            "repro/apps/broken.py": "def f(:\n",
        })
        result = lint(tmp_path)
        assert rules_fired(result) == ["parse"]
        assert result.findings[0].severity is Severity.ERROR


class TestCli:
    VIOLATION = {
        "repro/apps/bad.py": """\
            import time


            def f():
                return time.time()
            """,
    }

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/apps/ok.py": "X = 1\n"})
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, self.VIOLATION)
        assert main([str(tmp_path)]) == 1
        assert "[determinism]" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule_or_severity(self, tmp_path):
        assert main(["--select", "no-such-rule", str(tmp_path)]) == 2
        assert main(["--severity", "loud", str(tmp_path)]) == 2
        assert main(["--baseline", str(tmp_path / "missing.json"),
                     str(tmp_path)]) == 2

    def test_ignore_disarms_a_rule(self, tmp_path):
        write_tree(tmp_path, self.VIOLATION)
        assert main(["--ignore", "determinism", str(tmp_path)]) == 0

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        write_tree(tmp_path, self.VIOLATION)
        baseline = tmp_path / "baseline.json"
        assert main(["--baseline", str(baseline), "--write-baseline",
                     str(tmp_path)]) == 0
        assert baseline.exists()
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, self.VIOLATION)
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in all_rules():
            assert cls.name in out


# ----------------------------------------------------------------------
# acceptance: the shipped tree lints clean
# ----------------------------------------------------------------------
class TestSourceTree:
    @pytest.mark.skipif(not SRC.is_dir(), reason="src tree not present")
    def test_src_lints_clean_at_default_severity(self):
        result = run_lint([str(SRC)])
        assert result.files_scanned > 50
        offenders = [
            f for f in result.findings if f.severity >= Severity.WARNING
        ]
        assert offenders == [], render_findings(result)
