"""FASTPATH's contract: faster, but byte-identical simulated history.

Two independent proofs:

* **golden digests** — SHA-256 of the XRAY report and TRACE timeline of
  a pinned-seed banking run, captured on the pre-optimization tree.
  The optimized simulator must reproduce them bit for bit.  The run
  exercises every layer the optimization touched: event scheduling
  (__slots__ events, bound heap ops), process-pair checkpoints and
  DISCPROCESS record images (fast_deepcopy), message dispatch, and the
  cache probe sites.
* **hash-seed independence** — the same digests under two different
  ``PYTHONHASHSEED`` values (fresh interpreters).  Iteration order of
  str-keyed dicts varies across hash seeds; identical output means no
  set/dict-iteration order leaks into simulated history.
"""

import subprocess
import sys
from pathlib import Path

from repro.bench import determinism_digests

# Captured with `python -m repro.bench --digest`.  Re-recorded once for
# BOXCAR: asynchronous batched audit forwarding + multi-part checkpoints
# intentionally change simulated history (fewer AppendAudit round-trips,
# a ForceBoxcar drain in phase one), so the pre-BOXCAR digests no longer
# apply.  Re-recorded once more when the boxcar lost its departure
# timer: images now leave a DISCPROCESS only when a drain, a takeover or
# a full boxcar needs them, a forward no longer pays a separate removal
# checkpoint, and an AUDITPROCESS force claims its images before the
# disc wait.  The XRAY digest was re-recorded once more when a guardian
# request shrank to a transit timer plus a reply event: the report
# differs only in ``events_processed`` (14,496 -> 6,872), and the TRACE
# timeline digest is unchanged.  The XRAY digest was re-recorded once
# more when every count moved to the always-on ``env.probe``: only the
# report's ``counters`` section differs (it now lists the probe's counts,
# event kinds included, and drops ten names that duplicated a kept
# store), and the TRACE timeline digest is unchanged.  The XRAY digest
# was re-recorded once more when a SEND to an idle server-class
# instance stopped costing a getter event (the parked instance resumes
# inside the delivering step): the report differs only in
# ``events_processed`` (6,754 -> 6,711), and the TRACE timeline digest
# is unchanged.  The XRAY digest was re-recorded once more when TRACE
# became a subscriber that builds its spans from uncounted probe notes:
# the report differs only in ``counters``, where the four ``trace.*``
# kinds (root/send/rpc/serve) leave, and the TRACE timeline digest is
# unchanged.  The XRAY digest was re-recorded once more when a timed
# lock wait became one event (the waiter's own, failed by its deadline)
# instead of an ``AnyOf`` race that cost one more event per granted
# wait: the report differs only in ``events_processed`` (6,711 ->
# 6,588), and the TRACE timeline digest is unchanged.  The XRAY digest
# was re-recorded once more when a granted lock wait started disarming
# its deadline timer (a tombstone the engine skips uncounted, instead of
# a no-op expiry event): the report differs only in ``events_processed``
# (6,588 -> 6,496), and the TRACE timeline digest is unchanged.  The
# XRAY digest was re-recorded once more when the TMP pump stopped
# ticking every 200 ms with nothing to do (it now waits on one event,
# woken by new work, with a retry timer only while work is pending):
# the one-node run loses its idle pump ticks, the report differs only
# in ``events_processed`` (6,496 -> 6,488), and the TRACE timeline
# digest is unchanged.  The XRAY digest was re-recorded once more when
# the pump went and each safe delivery, queued abort and sweep became
# its own TMP coroutine: the TMP's start no longer spawns an idle
# coroutine, the report differs only in ``events_processed`` (6,488 ->
# 6,487), and the TRACE timeline digest is unchanged.  Both digests
# were re-recorded when each drive of a mirrored volume got its own arm
# (a cache miss reads from whichever drive is free) and phase one's
# boxcar drain stopped waiting for other transactions' cargo: the run's
# history changes, 110 -> 126 units commit in its 1.5 s (125 with the
# arms alone) and it processes 6,487 -> 7,345 events.  Both digests
# were re-recorded once more when XRAY began to fold TRACE's span tree
# (ONE-SPAN) instead of a span log of its own, with three new phase
# notes (checkpoint message, cache hits, completion write).  The
# simulated history did not change: the XRAY report differs only in
# ``transactions`` (the categories gain ``network``, ``queue`` and
# ``unattributed`` and lose ``other``; ``unattributed_ms`` becomes
# ``background_ms``; ``dropped`` goes; the 130 transactions, their
# outcomes and their 8,154.05 ms total latency are unchanged), and the
# timeline gains 4,547 phase spans beside its 1,668 request and 1,794
# serve spans, each span's args naming its cost category.  Any
# *further* digest change must again be justified.
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
