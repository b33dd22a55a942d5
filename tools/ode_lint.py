#!/usr/bin/env python3
"""ODE project lint: engine-specific invariants clang-tidy cannot express.

Rules (each can be suppressed on a specific line with a trailing
`// ode-lint: allow(<rule>)` comment — see the suppression policy in
docs/STATIC_ANALYSIS.md):

  mutex-guarded      Every ode::Mutex / ode::AdaptiveMutex member must protect
                     something: at least one GUARDED_BY/PT_GUARDED_BY/
                     REQUIRES/ACQUIRE annotation in the same file must name
                     it. A mutex nothing is
                     annotated against is a mutex the thread-safety analysis
                     silently ignores.

  raw-mutex          No std::mutex / std::shared_mutex / std::condition_variable
                     members outside util/mutex.h. The std primitives carry no
                     capability attributes, so clang's -Wthread-safety cannot
                     see locks taken through them; use ode::Mutex / ode::CondVar.

  naked-new-in-txn   No naked `new` inside a transaction body (a lambda passed
                     to RunTransaction / InTransaction). Persistent objects
                     must go through Transaction::New (the paper's pnew), and
                     transient ones through std::make_unique — a raw `new`
                     in a body that can abort-and-retry is a leak on every
                     retry and a double-free waiting to happen.

  txn-ptr-member     No Transaction* stored as a class member. A transaction
                     dies at Commit()/Abort(); a stored pointer outlives the
                     two-phase lock scope it was valid under. The one
                     sanctioned owner is concur::SessionManager.

  test-labels        Every ode_test() in tests/CMakeLists.txt must carry at
                     least one ctest LABELS property so CI label filters
                     (-L crash / metrics / concurrency / unit) cover every
                     test; an unlabeled test silently escapes every gated run.

  storage-mutex      The storage layer's mutex set is curated: its lock order
                     (txn_mu_ -> commit_mu_ -> pool shard mu, documented in
                     docs/STORAGE.md) is what keeps commit, checkpoint and
                     the buffer pool deadlock-free. A new ode::Mutex member
                     under src/storage/ must be slotted into that order and
                     added to STORAGE_MUTEX_ALLOWLIST here; an unreviewed
                     mutex is a lock-order inversion waiting to happen.

  server-mutex       The network server's mutex set is curated the same way:
                     its lock order (Conn::mu -> Server::mu_, documented in
                     docs/SERVER.md "Scheduling") is what keeps the epoll
                     loop, the workers and Shutdown deadlock-free. A new
                     ode::Mutex member under src/server/ must be slotted into
                     that order and added to SERVER_MUTEX_ALLOWLIST here.

  snapshot-lock-free Read-only snapshot transactions must never acquire from
                     the LockManager (docs/CONCURRENCY.md "MVCC snapshot
                     reads" — zero read-side lock waits is the contract).
                     Every direct lock_manager().Acquire( call site in
                     src/core/transaction.cc — and every Lock*() helper call
                     on the index read paths (src/core/forall.h,
                     src/query/join.h, src/query/index_manager.cc) — must be
                     preceded, in the same function, by a snapshot guard
                     (`if (snapshot_)`, `txn.snapshot()` or RejectIfSnapshot)
                     so no lock acquisition is reachable on a snapshot code
                     path. The one sanctioned exception is the S(schema) lock
                     every transaction holds (allow it explicitly).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Tokenize-aware comment/string stripping shared with ode_analyzer, whose
# lexer sits beside this tool: it handles raw string literals (R"(...)"
# spanning lines) and digit separators (1'000) correctly.
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "ode_analyzer"))
import cxx_lexer  # noqa: E402

CXX_EXTS = (".h", ".cc")
ALLOW_RE = re.compile(r"//\s*ode-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")


class Finding:
    def __init__(self, rule, path, line, msg):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based
        self.msg = msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def allowed_rules(line):
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def strip_cxx_noise(text):
    """Blanks out comments and string/char literals, preserving line structure
    so reported line numbers stay true. ode-lint: allow(...) markers are
    honored *before* stripping (they live in comments)."""
    return cxx_lexer.strip_to_code(text)


# --- Rule: mutex-guarded & raw-mutex ---------------------------------------

# ode::Mutex and ode::AdaptiveMutex members (util/mutex.h).
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(?:ode::)?(?:Adaptive)?Mutex\s+(\w+)\s*;")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\b"
)


def check_mutexes(path, raw_lines, stripped_lines, findings):
    basename = os.path.normpath(path).replace(os.sep, "/")
    whole = "\n".join(stripped_lines)
    for idx, line in enumerate(stripped_lines, start=1):
        raw = raw_lines[idx - 1]
        allow = allowed_rules(raw)
        if not basename.endswith("util/mutex.h"):
            m = RAW_MUTEX_RE.search(line)
            if m and "raw-mutex" not in allow:
                findings.append(
                    Finding(
                        "raw-mutex",
                        path,
                        idx,
                        f"std::{m.group(1)} is invisible to -Wthread-safety; "
                        "use ode::Mutex / ode::CondVar (util/mutex.h)",
                    )
                )
        for m in MUTEX_DECL_RE.finditer(line):
            name = m.group(1)
            if "mutex-guarded" in allow:
                continue
            uses = re.search(
                r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
                r"ACQUIRE|ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|EXCLUDES|"
                r"TRY_ACQUIRE|RETURN_CAPABILITY)\s*\(([^)]*\b" + re.escape(name)
                + r"\b[^)]*)\)",
                whole,
            )
            if not uses:
                findings.append(
                    Finding(
                        "mutex-guarded",
                        path,
                        idx,
                        f"mutex member '{name}' has no GUARDED_BY/REQUIRES "
                        "annotation naming it in this file — nothing is "
                        "checked against it",
                    )
                )


# --- Rule: storage-mutex -----------------------------------------------------

# The reviewed mutex set of src/storage/, keyed by file suffix. Adding a
# mutex to the storage layer means slotting it into the documented lock order
# (docs/STORAGE.md "Lock order") and extending this list in the same change.
STORAGE_MUTEX_ALLOWLIST = {
    # ckpt_mu_: background-checkpointer handshake, a leaf lock.
    "src/storage/engine.h": {"txn_mu_", "commit_mu_", "ckpt_mu_"},
    "src/storage/buffer_pool.h": {"mu"},  # per-shard mutex
}


def check_storage_mutexes(path, raw_lines, stripped_lines, findings):
    norm = os.path.normpath(path).replace(os.sep, "/")
    if "src/storage/" not in norm:
        return
    allowed = set()
    for suffix, names in STORAGE_MUTEX_ALLOWLIST.items():
        if norm.endswith(suffix):
            allowed = names
            break
    for idx, line in enumerate(stripped_lines, start=1):
        for m in MUTEX_DECL_RE.finditer(line):
            name = m.group(1)
            if name in allowed:
                continue
            if "storage-mutex" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.append(
                Finding(
                    "storage-mutex",
                    path,
                    idx,
                    f"new mutex member '{name}' in the storage layer — slot "
                    "it into the documented lock order (docs/STORAGE.md) and "
                    "add it to STORAGE_MUTEX_ALLOWLIST in tools/ode_lint.py",
                )
            )


# --- Rule: server-mutex -------------------------------------------------------

# The reviewed mutex set of src/server/. The lock order is strict: a thread
# holding Conn::mu may take Server::mu_, never the reverse
# (docs/SERVER.md "Scheduling"). Extending the server with a new mutex means
# slotting it into that order and extending this list in the same change.
SERVER_MUTEX_ALLOWLIST = {
    "src/server/server.h": {"mu_", "mu"},  # Server::mu_, Conn::mu
}


def check_server_mutexes(path, raw_lines, stripped_lines, findings):
    norm = os.path.normpath(path).replace(os.sep, "/")
    if "src/server/" not in norm:
        return
    allowed = set()
    for suffix, names in SERVER_MUTEX_ALLOWLIST.items():
        if norm.endswith(suffix):
            allowed = names
            break
    for idx, line in enumerate(stripped_lines, start=1):
        for m in MUTEX_DECL_RE.finditer(line):
            name = m.group(1)
            if name in allowed:
                continue
            if "server-mutex" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.append(
                Finding(
                    "server-mutex",
                    path,
                    idx,
                    f"new mutex member '{name}' in the server layer — slot "
                    "it into the documented lock order (docs/SERVER.md) and "
                    "add it to SERVER_MUTEX_ALLOWLIST in tools/ode_lint.py",
                )
            )


# --- Rule: naked-new-in-txn -------------------------------------------------

TXN_BODY_OPEN_RE = re.compile(r"\b(RunTransaction|InTransaction)\s*\(")
NEW_RE = re.compile(r"(?<![\w.>:])new\b(?!\s*\()")  # `new T`, not `operator new()`


def txn_body_spans(text):
    """Yields (start, end) offsets of the balanced-paren extent of each
    RunTransaction(...)/InTransaction(...) call in comment/string-stripped
    text. The lambda body lives inside those parens."""
    for m in TXN_BODY_OPEN_RE.finditer(text):
        depth = 0
        i = m.end() - 1  # the '('
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    yield m.end(), i
                    break
            i += 1


def check_naked_new(path, raw_lines, stripped_text, findings):
    line_of = _offset_to_line_table(stripped_text)
    for start, end in txn_body_spans(stripped_text):
        body = stripped_text[start:end]
        for m in NEW_RE.finditer(body):
            off = start + m.start()
            lineno = line_of(off)
            raw = raw_lines[lineno - 1]
            if "naked-new-in-txn" in allowed_rules(raw):
                continue
            findings.append(
                Finding(
                    "naked-new-in-txn",
                    path,
                    lineno,
                    "naked `new` inside a transaction body — persistent "
                    "objects go through Transaction::New (pnew), transient "
                    "ones through std::make_unique (bodies retry on "
                    "deadlock; a raw new leaks on every retry)",
                )
            )


def _offset_to_line_table(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)

    def line_of(off):
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return line_of


# --- Rule: snapshot-lock-free -------------------------------------------------

LOCK_ACQUIRE_RE = re.compile(r"lock_manager\(\)\s*\.\s*Acquire\s*\(")
SNAPSHOT_GUARD_RE = re.compile(
    r"\bsnapshot_\b|\bsnapshot\s*\(\)|\bRejectIfSnapshot\s*\("
)
FUNC_START_RE = re.compile(r"^\S.*\bTransaction::\w+\s*\(")
# Index read paths lock through Transaction helpers, not Acquire directly;
# a helper call with no snapshot guard earlier in the function would put a
# lock on a snapshot scan/probe path.
LOCK_HELPER_RE = re.compile(
    r"\bLock(?:Cluster|Schema\w*|Index\w*|Object\w*)\s*\("
)
SNAPSHOT_LOCK_HELPER_FILES = (
    "src/core/forall.h",
    "src/query/join.h",
    "src/query/index_manager.cc",
)


def check_snapshot_lock_free(path, raw_lines, stripped_lines, findings):
    norm = os.path.normpath(path).replace(os.sep, "/")
    if norm.endswith("src/core/transaction.cc"):
        lock_re = LOCK_ACQUIRE_RE
    elif any(norm.endswith(f) for f in SNAPSHOT_LOCK_HELPER_FILES):
        lock_re = LOCK_HELPER_RE
    else:
        return
    guard_seen = False
    for idx, line in enumerate(stripped_lines, start=1):
        if FUNC_START_RE.match(line) or line.startswith("}"):
            guard_seen = False  # new function scope (or left the previous one)
        if SNAPSHOT_GUARD_RE.search(line):
            guard_seen = True
        if lock_re.search(line):
            if guard_seen:
                continue
            if "snapshot-lock-free" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.append(
                Finding(
                    "snapshot-lock-free",
                    path,
                    idx,
                    "lock_manager().Acquire with no preceding snapshot guard "
                    "in this function — a read-only snapshot transaction "
                    "could reach this lock; guard with `if (snapshot_)` / "
                    "RejectIfSnapshot, or allow the site explicitly if every "
                    "transaction (snapshots included) must hold the lock",
                )
            )


# --- Rule: txn-ptr-member -----------------------------------------------------

TXN_MEMBER_RE = re.compile(r"\bTransaction\s*\*\s*\w+_\s*(=\s*[^;]+)?;")
TXN_PTR_ALLOWLIST = (
    # The session map is the sanctioned owner of cross-call Transaction
    # pointers: it binds one to a thread and unbinds it at CloseOut.
    "src/concur/session_manager.h",
    # CachePin/Transaction internals hold `this`-adjacent pointers strictly
    # within the transaction's own lifetime.
    "src/core/transaction.h",
)


def check_txn_members(path, raw_lines, stripped_lines, findings):
    norm = os.path.normpath(path).replace(os.sep, "/")
    if any(norm.endswith(a) for a in TXN_PTR_ALLOWLIST):
        return
    for idx, line in enumerate(stripped_lines, start=1):
        if TXN_MEMBER_RE.search(line):
            if "txn-ptr-member" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.append(
                Finding(
                    "txn-ptr-member",
                    path,
                    idx,
                    "Transaction* stored as a member — a transaction dies at "
                    "Commit()/Abort(); hold it on the stack or go through "
                    "Database::active_txn()",
                )
            )


# --- Rule: test-labels --------------------------------------------------------

ODE_TEST_RE = re.compile(r"^\s*ode_test\(\s*(\w+)([^)]*)\)", re.M)
SET_PROPS_RE = re.compile(
    r"set_tests_properties\(([^)]*?)PROPERTIES([^)]*?)\)", re.S
)


def check_test_labels(tests_cmake, findings):
    try:
        with open(tests_cmake, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        findings.append(Finding("test-labels", tests_cmake, 1, f"unreadable: {e}"))
        return

    labeled = set()
    for m in SET_PROPS_RE.finditer(text):
        names, props = m.group(1), m.group(2)
        if "LABELS" in props:
            labeled.update(re.findall(r"\w+", names))

    for m in ODE_TEST_RE.finditer(text):
        name, rest = m.group(1), m.group(2)
        lineno = text[: m.start()].count("\n") + 1
        if "LABELS" in rest:
            continue
        if name not in labeled:
            findings.append(
                Finding(
                    "test-labels",
                    tests_cmake,
                    lineno,
                    f"test '{name}' has no ctest LABELS property — it escapes "
                    "every label-filtered CI run (use "
                    f"`ode_test({name} LABELS unit)` or set_tests_properties)",
                )
            )

    # Every *_test.cc on disk must actually be registered with ctest.
    tests_dir = os.path.dirname(tests_cmake)
    registered = {m.group(1) for m in ODE_TEST_RE.finditer(text)}
    for fn in sorted(os.listdir(tests_dir)):
        if fn.endswith("_test.cc"):
            stem = fn[: -len(".cc")]
            if stem not in registered:
                findings.append(
                    Finding(
                        "test-labels",
                        os.path.join(tests_dir, fn),
                        1,
                        f"test file {fn} is not registered via ode_test() — "
                        "it never runs under ctest",
                    )
                )


# --- Driver -------------------------------------------------------------------


def iter_cxx_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            # ode_analyzer's fixtures are seeded violations by design.
            dirnames[:] = [d for d in dirnames if d != "fixtures"]
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTS):
                    yield os.path.join(dirpath, fn)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    ap.add_argument(
        "--rule",
        action="append",
        choices=[
            "mutex-guarded",
            "raw-mutex",
            "naked-new-in-txn",
            "txn-ptr-member",
            "test-labels",
            "storage-mutex",
            "server-mutex",
            "snapshot-lock-free",
        ],
        help="run only the named rule(s); default: all",
    )
    args = ap.parse_args()
    rules = set(args.rule) if args.rule else None

    def on(rule):
        return rules is None or rule in rules

    findings = []
    scan_dirs = ["src", "tools", "bench", "examples", "tests"]
    for path in iter_cxx_files(args.root, scan_dirs):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"ode_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        raw_lines = raw.splitlines()
        stripped = strip_cxx_noise(raw)
        stripped_lines = stripped.splitlines()
        rel = os.path.relpath(path, args.root)
        if on("mutex-guarded") or on("raw-mutex"):
            check_mutexes(rel, raw_lines, stripped_lines, findings)
        if on("storage-mutex"):
            check_storage_mutexes(rel, raw_lines, stripped_lines, findings)
        if on("server-mutex"):
            check_server_mutexes(rel, raw_lines, stripped_lines, findings)
        if on("snapshot-lock-free"):
            check_snapshot_lock_free(rel, raw_lines, stripped_lines, findings)
        if on("naked-new-in-txn"):
            check_naked_new(rel, raw_lines, stripped, findings)
        if on("txn-ptr-member"):
            check_txn_members(rel, raw_lines, stripped_lines, findings)

    if on("test-labels"):
        check_test_labels(os.path.join(args.root, "tests", "CMakeLists.txt"), findings)

    for f in findings:
        print(f)
    if findings:
        print(f"ode_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ode_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
