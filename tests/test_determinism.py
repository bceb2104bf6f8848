"""Whole-system determinism: the property everything else leans on.

The calibration note for this reproduction flagged Python's GIL as the
obstacle to faithful concurrent transaction load; the discrete-event
design answers it — same seed, same history, bit for bit, including
failure interleavings.  These tests pin that property so a stray use of
wall-clock time or unseeded randomness cannot creep in silently.
"""

import pytest

from repro.apps.banking import (
    build_banking_system,
    check_consistency,
    debit_credit_input,
)
from repro.workloads import (
    FailureSchedule,
    random_failure_schedule,
    run_closed_loop,
)
import random


def run_once(seed, with_failures):
    system, terminals = build_banking_system(
        seed=seed, accounts=12, tellers=4, terminals=4, keep_trace=True,
    )
    rng = random.Random(seed)
    if with_failures:
        protect = []
        node = system.cluster.node("alpha")
        for volume in node.volumes.values():
            protect.append(volume.drives[0])
        events = random_failure_schedule(
            system.cluster, rng, 2500.0, 2, kinds=("cpu",), protect=protect,
        )
        FailureSchedule(system.cluster, events)

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(12, 4, 2, (5, -5, 10)),
        duration=2500.0, think_time=12.0, rng=rng,
    )
    report = check_consistency(system, "alpha")
    fingerprint = (
        round(system.env.now, 6),
        result.committed,
        result.failed,
        tuple(round(m.latency, 6) for m in result.metrics),
        report["account_total"],
        report["history_count"],
        tuple(
            (r.kind, str(sorted(r.fields.items())))
            for r in system.probe.records[:2000]
        ),
    )
    return fingerprint


class TestDeterminism:
    def test_cross_process_hash_seed_independence(self):
        """Runs must not depend on PYTHONHASHSEED (set iteration order).

        Two subprocesses with different hash seeds must produce the
        same history fingerprint — this is what makes results published
        in EXPERIMENTS.md reproducible on any machine.
        """
        import subprocess, sys, os, pathlib
        script = (
            "import sys; sys.path.insert(0, 'tests');"
            "from test_determinism import run_once;"
            "import hashlib;"
            "print(hashlib.sha256(repr(run_once(99, True)).encode()).hexdigest())"
        )
        outputs = []
        for hash_seed in ("1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env,
                cwd=str(pathlib.Path(__file__).resolve().parent.parent),
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1], "history depends on PYTHONHASHSEED"

    def test_identical_seeds_identical_histories(self):
        assert run_once(12345, with_failures=False) == run_once(
            12345, with_failures=False
        )

    def test_identical_seeds_identical_histories_with_failures(self):
        assert run_once(777, with_failures=True) == run_once(
            777, with_failures=True
        )

    def test_different_seeds_diverge(self):
        a = run_once(1, with_failures=False)
        b = run_once(2, with_failures=False)
        assert a != b
