"""Tests of the benchmark itself: every output check must fail against a
wrong reference, the request plan must follow its seed, call counts must
repeat across hash seeds, and ``run.py`` must print every metric and
refuse a checkout without a source tree.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from common import ROOT, use_source_tree  # noqa: E402

use_source_tree()

import serveload  # noqa: E402
import simload  # noqa: E402

with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


def _run_bench(*args: str, cwd: str = ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


# -- sessions-init ------------------------------------------------------------
def _small_sessions_run(golden):
    wl = simload.SessionsInit(0, golden, os.path.join(ROOT, "src"))
    world = wl._world(simload.GROWTH_NODES)
    procs = world.spawn_ranks(simload._fig3_main)
    t_end = world.run()
    return wl.check(world, procs, t_end, simload.GROWTH_NODES)


def test_sessions_check_passes_on_reference():
    assert _small_sessions_run(GOLDEN) == (True, None)


@pytest.mark.parametrize("field,delta", [("events", 1), ("t_end", 1e-9)])
def test_sessions_check_fails_on_wrong_reference(field, delta):
    wrong = copy.deepcopy(GOLDEN)
    wrong["sessions"][str(simload.GROWTH_NODES * simload.PPN)][field] += delta
    matches, error = _small_sessions_run(wrong)
    assert not matches and "!= reference" in error


# -- recovery-soak ------------------------------------------------------------
def test_soak_check_passes_and_fails_on_wrong_digest():
    from repro.recovery import soak_run

    wl = simload.RecoverySoak(0, GOLDEN, "")
    record = soak_run(3)
    assert wl.check(record) == (True, None)
    wrong = copy.deepcopy(GOLDEN)
    wrong["soak_digest16"][3] = "0" * 16
    matches, error = simload.RecoverySoak(0, wrong, "").check(record)
    assert not matches and "digest" in error


def test_soak_check_fails_on_a_seed_that_is_not_ok():
    """A known-defect seed fails the same way as at the reference: it
    counts as failed but matches the reference; against another
    reference digest it is a mismatch too."""
    from repro.recovery import soak_run

    seed = GOLDEN["soak_not_ok"][0]
    record = soak_run(seed)
    matches, error = simload.RecoverySoak(0, GOLDEN, "").check(record)
    assert matches and "not ok" in error
    wrong = copy.deepcopy(GOLDEN)
    wrong["soak_digest16"][seed] = "0" * 16
    assert simload.RecoverySoak(0, wrong, "").check(record)[0] is False


def test_soak_seeds_are_consecutive_from_the_benchmark_seed():
    span = len(GOLDEN["soak_digest16"])
    wl = simload.RecoverySoak(span + 7, GOLDEN, "")
    assert [wl.soak_seed(i) for i in range(3)] == [7, 8, 9]
    # The set repeats for the whole window.
    assert wl.soak_seed(simload.SOAK_SET + 1) == 8


def test_soak_set_skips_the_known_defect_seeds():
    bad = GOLDEN["soak_not_ok"][0]
    wl = simload.RecoverySoak(bad - 1, GOLDEN, "")
    assert wl.seeds[:2] == [bad - 1, bad + 1]
    assert len(wl.seeds) == simload.SOAK_SET
    span = len(GOLDEN["soak_digest16"])
    wrapped = simload.RecoverySoak(span - 1, GOLDEN, "")
    assert wrapped.seeds[:2] == [span - 1, 0]


def test_run_s_is_the_median_over_inputs_of_scaled_medians():
    out = simload.SimPass()
    for key, s in [(1, 3.0), (2, 5.0), (1, 2.0), (3, 9.0), (3, 1.0), (1, 7.0)]:
        out.add_op(key, 100.0, s)
    # input medians: 1 -> 3.0, 2 -> 5.0, 3 -> 5.0
    assert out.run_s == 5.0 and out.attempted == 6


def test_reference_speed_scales_by_the_loop_time():
    from common import REFERENCE_S, at_reference_speed

    assert at_reference_speed(1.0, REFERENCE_S, REFERENCE_S) == 1.0
    # The host ran the loop at half speed: the time halves.
    assert abs(at_reference_speed(2.0, REFERENCE_S, 3 * REFERENCE_S) - 1.0) < 1e-12


# -- serve-fleet-mix ----------------------------------------------------------
def _reply(key, ok=True, digest="d"):
    return serveload.Reply(0, serveload.UNIQUE, key, 0.001, ok, digest)


def test_serve_check_counts_wrong_digests_and_errors():
    out = serveload.ServePass(replies=[_reply(1), _reply(2, digest="x"),
                                       _reply(3, ok=False, digest=None)])
    serveload.FleetMix.check(out, {1: "d", 2: "d", 3: "d"})
    assert out.failed == 2 and out.mismatched == 2


def test_serve_reference_is_run_simspec():
    wl = serveload.FleetMix(0, GOLDEN, "")
    ref = serveload.run_simspec(serveload.SPEC, serveload.PROGRAM, 11)["digest"]
    out = serveload.ServePass(replies=[_reply(11, digest=ref)])
    serveload.FleetMix.check(out, wl.references(out))
    assert out.failed == 0 and len(wl.direct_s) == 1
    bad = serveload.ServePass(replies=[_reply(11, digest=ref[::-1])])
    serveload.FleetMix.check(bad, wl.references(bad))
    assert bad.failed == 1 and bad.mismatched == 1


def test_mix_follows_its_seed():
    a, b, c = (serveload.Mix(s, slots=4000) for s in (5, 5, 6))
    assert a.kinds == b.kinds and a.keys == b.keys
    assert a.kinds != c.kinds
    n = len(a.kinds)
    dup = sum(k == serveload.DUP for k in a.kinds) / n
    rep = sum(k == serveload.REPEAT for k in a.kinds) / n
    assert abs(dup - serveload.SHARE_DUP) < 0.03
    assert abs(rep - serveload.SHARE_REPEAT) < 0.03
    for k, kind in enumerate(a.kinds):
        if kind == serveload.DUP:
            assert a.keys[0][k] == a.keys[1][k]
    assert len(set(a.keys[0]) | set(a.keys[1])) > 4 * serveload.HOT_CAPACITY


def test_fold_spans_subtracts_nested_stages():
    tel = serveload.LiveTelemetry(clock=iter(range(100)).__next__)
    # Each begin/end reads the clock once: spans nest as client > route >
    # request > queue, and the run follows the queue.
    sids = [tel.begin("client:c0", "serve.client.request", trace="c0-1"),
            tel.begin("fleet:router", "serve.route", trace="c0-1"),
            tel.begin("req:c0-1", "serve.request", trace="c0-1"),
            tel.begin("req:c0-1", "serve.queue", trace="c0-1")]
    tel.end(sids.pop())
    run = tel.begin("serve:worker/0", "serve.run", trace="c0-1")
    tel.end(run)
    for sid in reversed(sids):
        tel.end(sid)
    stages = serveload.fold_spans(tel)
    assert stages == {"client": [2.0], "route": [2.0], "request": [3.0],
                      "queue": [1.0], "run": [1.0]}


# -- call counts and hash seeds ----------------------------------------------
_COUNT_CODE = """
import json, sys
sys.path.insert(0, {here!r})
from common import Profiled, fold_profile, use_source_tree
use_source_tree()
import simload
from repro.recovery import soak_run
world = simload.SessionsInit._world(4)
prof = Profiled()
with prof:
    world.spawn_ranks(simload._fig3_main)
    world.run()
    soak_run(2)
print(json.dumps(fold_profile(prof.profile, {src!r}).calls, sort_keys=True))
"""


def test_call_counts_repeat_across_hash_seeds():
    code = _COUNT_CODE.format(here=HERE, src=os.path.join(ROOT, "src"))
    outs = []
    for hashseed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(json.loads(res.stdout))
    assert outs[0] == outs[1] == outs[2]
    assert all(outs[0][g] > 0 for g in ("simtime", "prrte", "pmix", "ompi"))


# -- run.py -------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["recovery-soak", "serve-fleet-mix",
                                      "sessions-init-1k"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(workload, trace):
    res = _run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["end_to_end" if trace == "0" else "per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    res = _run_bench("--workload", "recovery-soak", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path),
                     env=env)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
