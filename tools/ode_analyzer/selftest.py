#!/usr/bin/env python3
"""Self-test for tools/ode_analyzer over the seeded fixture TUs.

Each check must fire exactly on its seeded violations (fixtures/<check>_bad.cc)
and stay quiet on the clean twin (fixtures/<check>_clean.cc). Also covers the
inline-suppression path, exit codes, and the baseline round trip.

pytest-style: every `test_*` function is collected and run; assertion
failures are reported per test. No external dependencies.

Usage: python3 tools/ode_analyzer/selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
CONFIG = os.path.join(FIXTURES, "config.json")


def run_analyzer(sources, checks=None, extra=None):
    """Runs the analyzer CLI over fixture sources; returns (rc, findings)."""
    with tempfile.TemporaryDirectory() as td:
        out = os.path.join(td, "findings.json")
        cmd = [sys.executable, os.path.join(ROOT, "tools", "ode_analyzer"),
               "--root", ROOT, "--config", CONFIG, "--no-baseline",
               "--json", out, "--sources"]
        cmd += [os.path.join(FIXTURES, s) for s in sources]
        for c in checks or []:
            cmd += ["--check", c]
        cmd += extra or []
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        findings = []
        if os.path.exists(out):
            with open(out, encoding="utf-8") as f:
                findings = json.load(f)
        return proc, findings


def msgs(findings):
    return [fd["msg"] for fd in findings]


def assert_quiet(name):
    proc, findings = run_analyzer([name])
    assert proc.returncode == 0, \
        f"{name} should be clean, got rc={proc.returncode}:\n{proc.stdout}"
    assert not findings, f"{name} should yield no findings: {msgs(findings)}"


# -- lock-order --------------------------------------------------------------

def test_lock_order_fires_on_seeded_violations():
    proc, findings = run_analyzer(["lock_order_bad.cc"],
                                  checks=["lock-order"])
    assert proc.returncode == 1, proc.stdout
    text = "\n".join(msgs(findings))
    assert "contradicts the documented lock order" in text, text
    assert "lock-order cycle" in text, text
    assert "self-acquisition of Pool::mu_" in text, text
    assert "self-acquisition of Shard::latch" in text, text


def test_lock_order_quiet_on_clean_twin():
    assert_quiet("lock_order_clean.cc")


# -- snapshot-lock-free ------------------------------------------------------

def test_snapshot_fires_on_unguarded_path():
    proc, findings = run_analyzer(["snapshot_bad.cc"],
                                  checks=["snapshot-lock-free"])
    assert proc.returncode == 1, proc.stdout
    assert len(findings) == 1, msgs(findings)
    assert "RunReadTransaction" in findings[0]["msg"]
    assert "LockManager::Acquire" in findings[0]["msg"]


def test_snapshot_quiet_when_guarded():
    assert_quiet("snapshot_clean.cc")


# -- txn-escape --------------------------------------------------------------

def test_txn_escape_fires_on_all_three_sinks():
    proc, findings = run_analyzer(["txn_escape_bad.cc"],
                                  checks=["txn-escape"])
    assert proc.returncode == 1, proc.stdout
    text = "\n".join(msgs(findings))
    assert len(findings) == 3, msgs(findings)
    assert "stored into member 'pinned_'" in text, text
    assert "captured by a lambda handed to Submit()" in text, text
    assert "used after Commit()" in text, text


def test_txn_escape_quiet_on_clean_twin():
    assert_quiet("txn_escape_clean.cc")


# -- dropped-status ----------------------------------------------------------

def test_dropped_status_fires_including_void_and_case_label():
    proc, findings = run_analyzer(["dropped_status_bad.cc"],
                                  checks=["dropped-status"])
    assert proc.returncode == 1, proc.stdout
    assert len(findings) == 3, msgs(findings)
    text = "\n".join(msgs(findings))
    assert "result of Wal::Append" in text, text
    assert "(void)-cast discards" in text, text
    assert any("Dispatch" in m for m in msgs(findings)), text


def test_dropped_status_quiet_on_ternary_assignments():
    assert_quiet("dropped_status_clean.cc")


# -- archive-symmetry --------------------------------------------------------

def test_archive_symmetry_fires_on_all_skews():
    proc, findings = run_analyzer(["archive_bad.cc"],
                                  checks=["archive-symmetry"])
    assert proc.returncode == 1, proc.stdout
    text = "\n".join(msgs(findings))
    assert "serializes field 'size' 2 times" in text, text
    assert "field 'live' is missing" in text, text
    assert "field 'crc' is missing" in text, text
    assert "'checksum' which is not a declared field" in text, text
    assert "reads Fixed16 where" in text and "wrote Fixed32" in text, text
    assert "reads offset '+16'" in text, text
    assert "writes 2 fields but" in text, text


def test_archive_symmetry_quiet_on_clean_twin():
    assert_quiet("archive_clean.cc")


# -- driver behavior ---------------------------------------------------------

def test_inline_suppression_silences_finding():
    proc, findings = run_analyzer(["suppressed.cc"])
    assert proc.returncode == 0, proc.stdout
    assert not findings, msgs(findings)


def test_clean_twins_quiet_under_all_checks_at_once():
    proc, findings = run_analyzer([
        "lock_order_clean.cc", "snapshot_clean.cc", "txn_escape_clean.cc",
        "dropped_status_clean.cc", "archive_clean.cc"])
    assert proc.returncode == 0, proc.stdout
    assert not findings, msgs(findings)


def test_baseline_round_trip():
    with tempfile.TemporaryDirectory() as td:
        baseline = os.path.join(td, "baseline.json")
        cmd = [sys.executable, os.path.join(ROOT, "tools", "ode_analyzer"),
               "--root", ROOT, "--config", CONFIG, "--baseline", baseline,
               "--sources", os.path.join(FIXTURES, "dropped_status_bad.cc")]
        first = subprocess.run(cmd + ["--update-baseline"],
                               capture_output=True, text=True, check=False)
        assert first.returncode == 0, first.stdout + first.stderr
        second = subprocess.run(cmd, capture_output=True, text=True,
                                check=False)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "3 baselined finding(s)" in second.stdout, second.stdout


def test_index_cache_reused_across_runs():
    with tempfile.TemporaryDirectory() as td:
        extra = ["--cache-dir", td]
        proc, _ = run_analyzer(["archive_clean.cc"], extra=extra)
        assert "(0 cache hits)" in proc.stdout, proc.stdout
        proc, _ = run_analyzer(["archive_clean.cc"], extra=extra)
        assert "(1 cache hits)" in proc.stdout, proc.stdout


def main():
    tests = sorted((name, fn) for name, fn in globals().items()
                   if name.startswith("test_") and callable(fn))
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}\n     {e}")
        else:
            print(f"ok   {name}")
    print(f"\node_analyzer selftest: {len(tests) - failures}/{len(tests)} "
          f"passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
