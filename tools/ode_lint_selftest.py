#!/usr/bin/env python3
"""Self-test for tools/ode_lint.py.

Pins down the tokenize-aware stripper (ode_analyzer's shared lexer): raw
string literals (an embedded `"` must not end the literal early) and digit
separators (`1'000` must not open a phantom char literal) must not leak
comment or string text into the "code" channel, where the storage/server
mutex rules would fire on mutex names that were never declared — and real
violations must still fire through it.

pytest-style: every `test_*` function is collected and run. No external
dependencies.

Usage: python3 tools/ode_lint_selftest.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ode_lint  # noqa: E402

# A raw string whose body embeds quotes around a mutex-shaped declaration.
# A stripper that treats the first embedded `"` as end-of-string leaks
# `Mutex smuggled_mu;` into the code channel.
RAW_STRING_SRC = '''\
struct Help {
  const char* text = R"(usage: "Mutex smuggled_mu;" is not a declaration)";
};
'''

# A stripper that reads the digit separator as opening a char literal closes
# it at the apostrophe in "don't", exposing the rest of that line's comment
# (including `Mutex fake_mu;`) as code.
DIGIT_SEP_SRC = """\
struct Limits {
  int backlog = 1'000;  // don't write Mutex fake_mu; here (docs/SERVER.md)
};
"""

# A genuine violation must keep firing through the tokenize-aware stripper.
REAL_VIOLATION_SRC = """\
struct Rogue {
  Mutex extra_mu_;
};
"""


def run_rule(check, path, src):
    findings = []
    stripped = ode_lint.strip_cxx_noise(src)
    check(path, src.splitlines(), stripped.splitlines(), findings)
    return findings


def test_raw_string_content_is_not_code():
    findings = run_rule(ode_lint.check_storage_mutexes,
                        "src/storage/help.h", RAW_STRING_SRC)
    assert not findings, [f.msg for f in findings]


def test_digit_separator_comment_is_not_code():
    findings = run_rule(ode_lint.check_server_mutexes,
                        "src/server/limits.h", DIGIT_SEP_SRC)
    assert not findings, [f.msg for f in findings]


def test_real_storage_mutex_still_fires():
    findings = run_rule(ode_lint.check_storage_mutexes,
                        "src/storage/rogue.h", REAL_VIOLATION_SRC)
    assert any("extra_mu_" in f.msg for f in findings), \
        "the tokenize-aware stripper must not hide real declarations"


def test_real_server_mutex_still_fires():
    findings = run_rule(ode_lint.check_server_mutexes,
                        "src/server/rogue.h", REAL_VIOLATION_SRC)
    assert any("extra_mu_" in f.msg for f in findings)


# The buffer pool's shard latch type: both mutex rules must see it.
ADAPTIVE_MUTEX_SRC = """\
struct Pool {
  mutable AdaptiveMutex latch;
};
"""


def test_adaptive_mutex_is_covered_by_storage_mutex():
    findings = run_rule(ode_lint.check_storage_mutexes,
                        "src/storage/pool.h", ADAPTIVE_MUTEX_SRC)
    assert any("latch" in f.msg for f in findings), \
        "an unlisted AdaptiveMutex in src/storage/ must be reported"


def test_adaptive_mutex_is_covered_by_mutex_guarded():
    findings = run_rule(ode_lint.check_mutexes,
                        "src/storage/pool.h", ADAPTIVE_MUTEX_SRC)
    assert any(f.rule == "mutex-guarded" and "latch" in f.msg
               for f in findings), [f.msg for f in findings]


def test_inline_allow_still_honored():
    src = "struct S {\n  Mutex ok_mu_;  // ode-lint: allow(storage-mutex)\n};\n"
    findings = run_rule(ode_lint.check_storage_mutexes,
                        "src/storage/s.h", src)
    assert not findings, [f.msg for f in findings]


def test_stripper_preserves_line_structure():
    for src in (RAW_STRING_SRC, DIGIT_SEP_SRC, REAL_VIOLATION_SRC):
        assert ode_lint.strip_cxx_noise(src).count("\n") == src.count("\n")


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
    print(f"\node_lint selftest: {len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
