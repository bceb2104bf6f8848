"""FASTPATH's contract: faster, but byte-identical simulated history.

Two independent proofs:

* **golden digests** — SHA-256 of the XRAY report and TRACE timeline of
  a pinned-seed banking run.  An optimised simulator must reproduce
  them bit for bit.  The run exercises every layer the optimization
  touched: event scheduling (__slots__ events, bound heap ops),
  process-pair checkpoints and DISCPROCESS record images
  (fast_deepcopy), message dispatch, and the cache probe sites.
* **hash-seed independence** — the same digests under two different
  ``PYTHONHASHSEED`` values (fresh interpreters).  Iteration order of
  str-keyed dicts varies across hash seeds; identical output means no
  set/dict-iteration order leaks into simulated history.
"""

import subprocess
import sys
from pathlib import Path

from repro.bench import determinism_digests

# Captured with `python -m repro.bench --digest`.  They pin the whole
# simulated history of `determinism_digests()`'s run (the bank of
# `repro.apps.banking.build_banking_system`, seed 11, driven 1.5 s) and
# the exact content of the XRAY report and the TRACE timeline drawn
# from it.  A refactor or an optimisation must leave both unchanged.
# Re-record only for an intended change of simulated history or of a
# report's content, and say in CHANGES.md what differs and why (the
# past re-records are listed there).
GOLDEN = {
    "xray_sha256":
        "cdc06c94607d208dffc777f036265ba201ed5f7460051b41bd11ec04eb36c792",
    "timeline_sha256":
        "f1348eec0f47b5bdd5e7fd978e5cc6532a778110c88d76ba2f7d657bae6d550d",
}


def test_golden_digests_unchanged_by_optimization():
    assert determinism_digests() == GOLDEN, (
        "XRAY/TRACE output changed — the fast path altered simulated "
        "history.  If the change is an intentional behaviour change, "
        "re-record GOLDEN (python -m repro.bench --digest) and say why."
    )


def _digests_under_hash_seed(seed: str) -> str:
    repo = Path(__file__).resolve().parent.parent
    env = {
        "PYTHONPATH": str(repo / "src"),
        "PYTHONHASHSEED": seed,
        # A bare env: PATH only so the interpreter itself resolves.
        "PATH": "/usr/bin:/bin",
    }
    result = subprocess.run(
        [sys.executable, "-c",
         "from repro.bench import determinism_digests;"
         "import json; print(json.dumps(determinism_digests(), sort_keys=True))"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_digests_independent_of_hash_randomization():
    first = _digests_under_hash_seed("1")
    second = _digests_under_hash_seed("31337")
    assert first == second, (
        "simulated history depends on PYTHONHASHSEED — some set/dict "
        "iteration order is leaking into the event schedule"
    )
    # And both match the in-process (randomized-hash) run.
    import json

    assert json.loads(first) == GOLDEN
