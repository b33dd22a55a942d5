"""Structural C++ index for ode_analyzer's token frontend.

Builds, per translation unit (really: per file — headers are indexed
standalone, which the single-include-guard style of this codebase makes
well-defined), a serializable summary of everything the five checks need:

  * function definitions with qualified names, return types, parameter and
    local variable types, thread-safety annotations,
  * an ordered event stream per function body: mutex acquisitions
    (ode::MutexLock sites) with their scope, call sites with held-lock and
    snapshot-guard context, member stores, pointer-local declarations,
  * record (class/struct) definitions with fields in declaration order,
    mutex members, and the `ar(...)` field list of any OdeFields method,
  * hand-written Encode*/Decode* (Serialize*/Deserialize*) field-op
    sequences for the archive-symmetry check.

The index is pure data (dicts/lists/strings) so it can be cached as JSON
keyed by file hash; see INDEX_VERSION.
"""

import re

from cxx_lexer import (
    KIND_IDENT,
    KIND_NUMBER,
    KIND_PP,
    KIND_PUNCT,
    KIND_STRING,
    LEXER_VERSION,
    tokenize,
)

INDEX_VERSION = 9  # combined with LEXER_VERSION in the cache key

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "case", "assert",
}
NOT_A_CALLEE = CONTROL_KEYWORDS | {
    "new", "delete", "throw", "else", "do", "const_cast", "static_cast",
    "dynamic_cast", "reinterpret_cast", "defined", "noexcept", "alignas",
    "typeid", "co_await", "co_return", "co_yield",
}
TYPE_KEYWORDS = {
    "const", "constexpr", "mutable", "static", "inline", "volatile",
    "unsigned", "signed", "long", "short", "auto", "void", "bool", "char",
    "int", "float", "double", "typename", "register", "thread_local",
}
# The subset of TYPE_KEYWORDS that can stand alone as a complete type.
_BUILTIN_TYPE_KEYWORDS = {
    "unsigned", "signed", "long", "short", "bool", "char", "int", "float",
    "double", "auto",
}
# Thread-safety annotation macros (util/thread_annotations.h) that may trail
# a function signature or a member declaration.
ANNOT_MACROS = {
    "REQUIRES", "REQUIRES_SHARED", "ACQUIRE", "ACQUIRE_SHARED", "RELEASE",
    "RELEASE_SHARED", "EXCLUDES", "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED",
    "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY", "RETURN_CAPABILITY",
    "GUARDED_BY", "PT_GUARDED_BY", "CAPABILITY", "SCOPED_CAPABILITY",
    "LOCKS_EXCLUDED", "NO_THREAD_SAFETY_ANALYSIS", "ODE_NODISCARD",
}
TRAILING_QUALS = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "&", "&&", "->", "::", "*", "try",
}

_ENCDEC_RE = re.compile(r"^(Encode|Decode|Serialize|Deserialize)([A-Z]\w*)$")
_CODING_OP_RE = re.compile(
    r"^(?:Encode|Decode|Put|Get)(Fixed16|Fixed32|Fixed64|Varint32|Varint64|"
    r"LengthPrefixedSlice)$"
)
_SNAPSHOT_GUARD_IDENTS = {"snapshot_", "RejectIfSnapshot"}
# Member types registered as mutexes (util/mutex.h): both take MutexLock.
MUTEX_TYPES = {"Mutex", "AdaptiveMutex"}


def index_file(path, text):
    """Returns the index dict for one file."""
    toks = tokenize(text)
    b = _Builder(path, toks)
    b.run()
    return {
        "path": path,
        "functions": b.functions,
        "records": b.records,
        "encdec": b.encdec,
    }


class _Scope:
    __slots__ = ("kind", "name", "record", "func")

    def __init__(self, kind, name="", record=None, func=None):
        self.kind = kind  # namespace|record|function|lambda|block|enum|init
        self.name = name
        self.record = record
        self.func = func


class _Builder:
    def __init__(self, path, toks):
        self.path = path
        self.toks = toks
        self.functions = []
        self.records = []
        self.encdec = []
        self.scopes = []
        self.blk_counter = 0

    # -- scope helpers -------------------------------------------------------

    def cur_func(self):
        for s in reversed(self.scopes):
            if s.kind == "function":
                return s.func
            if s.kind == "record":  # class nested inside a function body
                return None
        return None

    def lambda_depth(self):
        d = 0
        for s in reversed(self.scopes):
            if s.kind == "lambda":
                d += 1
            elif s.kind == "function":
                break
        return d

    def cur_record(self):
        for s in reversed(self.scopes):
            if s.kind == "record":
                return s.record
            if s.kind == "function":
                return None
        return None

    def scope_prefix(self):
        parts = []
        for s in self.scopes:
            if s.kind == "record" and s.name:
                parts.append(s.name)
        return "::".join(parts)

    # -- main loop -----------------------------------------------------------

    def run(self):
        toks = self.toks
        i, n = 0, len(toks)
        while i < n:
            t = toks[i]
            if t.kind == KIND_PUNCT and t.text == "{":
                i = self.open_brace(i)
                continue
            if t.kind == KIND_PUNCT and t.text == "}":
                self.close_brace(toks[i])
                i += 1
                continue
            func = self.cur_func()
            if func is not None:
                i = self.body_token(func, i)
                continue
            rec = self.cur_record()
            if rec is not None:
                i = self.record_token(rec, i)
                continue
            i += 1
        # Close any unterminated scopes (malformed input) silently.

    # -- brace classification ------------------------------------------------

    def open_brace(self, i):
        """toks[i] is '{'. Classifies it, pushes a scope, returns i+1."""
        toks = self.toks
        kind, name, extra = self.classify_brace(i)
        if kind == "namespace":
            self.scopes.append(_Scope("namespace", name))
        elif kind == "record":
            rec = {
                "qual": self.qualify(name) if name else "",
                "line": toks[i].line,
                "fields": [],
                "ode_args": None,
                "mutexes": [],
                "file": self.path,
            }
            self.records.append(rec)
            self.scopes.append(_Scope("record", name, record=rec))
        elif kind == "function":
            func = extra
            self.functions.append(func)
            self.scopes.append(_Scope("function", func["qual"], func=func))
            self.emit(func, {"k": "blk_open", "line": toks[i].line})
        elif kind == "lambda":
            f = self.cur_func()
            if f is not None:
                self.emit(f, {"k": "lambda_open", "line": toks[i].line,
                              "captures": extra or []})
            self.scopes.append(_Scope("lambda"))
        elif kind == "enum":
            self.scopes.append(_Scope("enum", name))
        else:  # block / init / unknown
            f = self.cur_func()
            if f is not None and kind == "block":
                self.emit(f, {"k": "blk_open", "line": toks[i].line})
            self.scopes.append(_Scope(kind))
        return i + 1

    def close_brace(self, tok):
        if not self.scopes:
            return
        s = self.scopes.pop()
        if s.kind == "function":
            s.func["end_line"] = tok.line
            self.emit(s.func, {"k": "blk_close", "line": tok.line})
        elif s.kind == "lambda":
            f = self.cur_func()
            if f is not None:
                self.emit(f, {"k": "lambda_close", "line": tok.line})
        elif s.kind == "block":
            f = self.cur_func()
            if f is not None:
                self.emit(f, {"k": "blk_close", "line": tok.line})

    def qualify(self, name):
        p = self.scope_prefix()
        if p and name and "::" not in name:
            return p + "::" + name
        return name

    def classify_brace(self, i):
        """Returns (kind, name, extra) for the '{' at token index i."""
        toks = self.toks
        j = i - 1
        # Skip over tokens irrelevant to classification that directly precede
        # some brace forms.
        if j < 0:
            return ("block", "", None)
        t = toks[j]

        # `namespace X {` / `namespace {`
        if t.kind == KIND_IDENT and j >= 1 and toks[j - 1].text == "namespace":
            return ("namespace", t.text, None)
        if t.text == "namespace":
            return ("namespace", "", None)
        if t.kind == KIND_STRING and j >= 1 and toks[j - 1].text == "extern":
            return ("block", "", None)

        # Statement-ish openers.
        if t.text in (";", "{", "}", "else", "do", "try"):
            return ("block", "", None)
        if t.text in ("=", ",", "(", "return"):
            return ("init", "", None)

        # record / enum: scan back to the statement boundary looking for the
        # class/struct/union/enum keyword at top nesting.
        kind_kw, kw_name = self.find_record_keyword(j)
        if kind_kw == "enum":
            return ("enum", kw_name, None)
        if kind_kw is not None:
            return ("record", kw_name, None)

        # Lambda: `] {` or `] (params) qualifiers {` — find a ']' while
        # skipping one trailing paren group + qualifiers.
        k = j
        k = self.skip_trailing(k)
        if k >= 0 and toks[k].text == ")":
            po = self.match_back(k, "(", ")")
            if po is not None and po - 1 >= 0 and toks[po - 1].text == "]":
                caps = self.lambda_captures(po - 1)
                return ("lambda", "", caps)
        if k >= 0 and toks[k].text == "]":
            caps = self.lambda_captures(k)
            return ("lambda", "", caps)

        # Function (or control block): after skipping trailing qualifiers and
        # annotation macro groups we expect `name ( params )`.
        k = self.skip_trailing(j)
        guessed = self.function_at(k, i)
        if guessed is not None:
            return guessed
        return ("block", "", None)

    def find_record_keyword(self, j):
        """Looks backwards from token j for `class|struct|union|enum [class]
        NAME [final] [: bases]` ending at the '{'. Returns (kind, name)."""
        toks = self.toks
        k = j
        steps = 0
        # Walk back over what a base-clause / name may contain.
        while k >= 0 and steps < 60:
            tt = toks[k].text
            if tt in (";", "}", "{", ")", "]"):
                return (None, None)
            if tt in ("class", "struct", "union"):
                # Disqualify `enum class` handled below; find the name ahead.
                if k >= 1 and toks[k - 1].text == "enum":
                    return ("enum", self.name_after(k))
                # `template <...> class X {` or member `class X {`.
                return ("record", self.name_after(k - 1))
            if tt == "enum":
                return ("enum", self.name_after(k))
            if tt in ("=", "return") or toks[k].kind == KIND_PP:
                return (None, None)
            k -= 1
            steps += 1
        return (None, None)

    def name_after(self, k):
        """First plain identifier after token k that is not a keyword."""
        toks = self.toks
        j = k + 1
        while j < len(toks):
            t = toks[j]
            if t.text in ("class", "struct", "union", "enum", "final",
                          "alignas", "CAPABILITY", "SCOPED_CAPABILITY"):
                j += 1
                continue
            if t.text == "(":  # macro arg list e.g. CAPABILITY("mutex")
                depth = 1
                j += 1
                while j < len(toks) and depth:
                    if toks[j].text == "(":
                        depth += 1
                    elif toks[j].text == ")":
                        depth -= 1
                    j += 1
                continue
            if t.kind == KIND_IDENT:
                return t.text
            return ""
        return ""

    def skip_trailing(self, k):
        """Skips backwards over trailing return types, cv/ref qualifiers and
        annotation macro groups between a ')' and '{'."""
        toks = self.toks
        steps = 0
        while k >= 0 and steps < 80:
            t = toks[k]
            if t.text == ")":
                po = self.match_back(k, "(", ")")
                if po is None:
                    return k
                head = toks[po - 1] if po - 1 >= 0 else None
                if head is not None and head.kind == KIND_IDENT and (
                    head.text in ANNOT_MACROS or head.text.isupper()
                ):
                    k = po - 2
                    steps += 1
                    continue
                return k  # a real param-list ')'
            if t.kind == KIND_IDENT and t.text in TRAILING_QUALS:
                k -= 1
            elif t.text in TRAILING_QUALS:
                k -= 1
            elif t.kind == KIND_IDENT and (t.text.isupper() and len(t.text) > 2):
                k -= 1  # bare macro like NO_THREAD_SAFETY_ANALYSIS
            elif t.text == ">":
                g = self.match_back_angle(k)
                if g is None:
                    return k
                k = g - 1
            elif t.kind == KIND_IDENT or t.text == "::":
                # trailing return type idents after '->'
                back = k
                seen_arrow = False
                while back >= 0 and steps < 80:
                    bt = toks[back].text
                    if bt == "->":
                        seen_arrow = True
                        break
                    if bt in (")", ";", "{", "}"):
                        break
                    back -= 1
                    steps += 1
                if seen_arrow:
                    k = back - 1
                else:
                    return k
            else:
                return k
            steps += 1
        return k

    def function_at(self, k, brace_i):
        """If toks[k] is the ')' of a parameter list of a function definition
        whose body opens at brace_i, returns ('function', name, func-dict).
        Handles constructor initializer lists. Returns None otherwise."""
        toks = self.toks
        if k < 0 or toks[k].text != ")":
            return None
        po = self.match_back(k, "(", ")")
        if po is None or po == 0:
            return None
        name_i = po - 1
        nm = toks[name_i]
        # Constructor initializer list: `Ctor(args) : a_(x), b_(y) {`
        # We land on the last init entry; walk back to the ':' then redo.
        if nm.kind == KIND_IDENT and nm.text not in CONTROL_KEYWORDS:
            b = self.init_list_start(name_i)
            if b is not None:
                return self.function_at(b, brace_i)
        if nm.kind != KIND_IDENT or nm.text in CONTROL_KEYWORDS:
            return None
        if nm.text in NOT_A_CALLEE:
            return None
        # Qualified name: A::B::name  (and operator names are skipped).
        qual_parts = [nm.text]
        q = name_i - 1
        while q - 1 >= 0 and toks[q].text == "::" and toks[q - 1].kind == KIND_IDENT:
            qual_parts.insert(0, toks[q - 1].text)
            q -= 2
        if toks[q].text == "~" if q >= 0 else False:
            qual_parts[-1] = "~" + qual_parts[-1]
            q -= 1
        # Reject obvious non-definitions: `name(args) {` where name is a
        # variable + init-brace is rare at namespace/class scope; accept.
        ret = self.return_type_text(q)
        if ret is None:
            return None
        qual = "::".join(qual_parts)
        if "::" not in qual:
            qual = self.qualify(qual)
        cls = qual.rsplit("::", 1)[0] if "::" in qual else ""
        params = self.parse_params(po, k)
        func = {
            "qual": qual,
            "cls": cls,
            "name": qual_parts[-1],
            "file": self.path,
            "line": toks[brace_i].line,
            "decl_line": toks[name_i].line,
            "end_line": toks[brace_i].line,
            "ret": ret,
            "params": params,
            "locals": {},
            "ann": self.signature_annotations(k + 1, brace_i),
            "events": [],
        }
        return ("function", qual, func)

    def init_list_start(self, name_i):
        """If name_i sits inside a ctor init list, returns the index of the
        ')' closing the constructor's parameter list, else None."""
        toks = self.toks
        k = name_i
        steps = 0
        while k >= 0 and steps < 400:
            t = toks[k]
            if t.text in (";", "{", "}"):
                return None
            if t.text == ")":
                po = self.match_back(k, "(", ")")
                if po is None:
                    return None
                k = po - 1
                continue
            if t.text == "}":
                po = self.match_back(k, "{", "}")
                if po is None:
                    return None
                k = po - 1
                continue
            if t.text == ":" and k >= 1 and toks[k - 1].text == ")":
                return k - 1
            if t.text == ":" and (k < 1 or toks[k - 1].text != ":"):
                return None
            k -= 1
            steps += 1
        return None

    def return_type_text(self, q):
        """Collects the return-type tokens before index q (inclusive) back to
        the previous statement boundary. Returns '' when the function has no
        leading type (constructors), or None when this cannot be a function
        definition (e.g. preceded by `=`)."""
        toks = self.toks
        parts = []
        k = q
        steps = 0
        while k >= 0 and steps < 40:
            t = toks[k]
            if t.text in (";", "{", "}", ":") or t.kind == KIND_PP:
                break
            if t.text in ("=", "return", ",", "("):
                return None
            if t.text == ">":
                g = self.match_back_angle(k)
                if g is None:
                    break
                parts.insert(0, "".join(x.text for x in toks[g : k + 1]))
                k = g - 1
                steps += 1
                continue
            if t.kind in (KIND_IDENT, KIND_NUMBER) or t.text in ("*", "&", "::"):
                parts.insert(0, t.text)
            k -= 1
            steps += 1
        parts = [p for p in parts if p not in ("inline", "static", "constexpr",
                                               "virtual", "explicit", "friend",
                                               "template", "typename")]
        return " ".join(parts)

    def signature_annotations(self, start, end):
        """Thread-safety annotations between the param-list ')' and '{'."""
        toks = self.toks
        ann = {}
        k = start
        while k < end:
            t = toks[k]
            if t.kind == KIND_IDENT and t.text in ANNOT_MACROS and k + 1 < end \
               and toks[k + 1].text == "(":
                close = self.match_fwd(k + 1, "(", ")")
                if close is None:
                    break
                arg = "".join(x.text for x in toks[k + 2 : close])
                ann.setdefault(t.text, []).append(arg)
                k = close + 1
                continue
            k += 1
        return ann

    def parse_params(self, po, pc):
        """Maps parameter name -> base type for `(`=po .. `)`=pc."""
        toks = self.toks
        params = {}
        depth = 0
        cur = []
        for k in range(po + 1, pc):
            t = toks[k]
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                self.one_param(cur, params)
                cur = []
            else:
                cur.append(t)
        self.one_param(cur, params)
        return params

    def one_param(self, ts, params):
        # Strip default argument.
        for idx, t in enumerate(ts):
            if t.text == "=":
                ts = ts[:idx]
                break
        idents = [t for t in ts if t.kind == KIND_IDENT
                  and t.text not in TYPE_KEYWORDS]
        if len(idents) < 2:
            return
        name = idents[-1].text
        base = idents[-2].text
        ptr = any(t.text in ("*", "&") for t in ts)
        params[name] = {"type": base, "ptr": ptr}

    # -- record bodies -------------------------------------------------------

    def record_token(self, rec, i):
        """Handles one class-scope statement starting at token i; returns the
        index to continue from."""
        toks = self.toks
        t = toks[i]
        if t.kind == KIND_PP:
            return i + 1
        # access labels
        if t.kind == KIND_IDENT and t.text in ("public", "private", "protected") \
           and i + 1 < len(toks) and toks[i + 1].text == ":":
            return i + 2
        # Collect the statement up to ';' or '{' at this depth.
        stmt = []
        k = i
        depth = 0
        while k < len(toks):
            tt = toks[k]
            if tt.text in ("(", "[", "{") and tt.text == "{" and depth == 0:
                return k  # method body / nested record: main loop handles '{'
            if tt.text in ("(", "["):
                depth += 1
            elif tt.text in (")", "]"):
                depth -= 1
            elif tt.text == "<":
                depth += 1
            elif tt.text == ">":
                depth = max(0, depth - 1)
            elif tt.text == ";" and depth <= 0:
                stmt.append(tt)
                self.record_statement(rec, stmt)
                return k + 1
            stmt.append(tt)
            k += 1
        return k

    def record_statement(self, rec, stmt):
        """Classifies one `...;` statement at class scope; extracts fields."""
        if not stmt:
            return
        head = stmt[0].text
        if head in ("using", "typedef", "friend", "template", "static",
                    "enum", "class", "struct", "union", "operator", "public",
                    "private", "protected", "constexpr", "explicit", "virtual"):
            return
        # A top-level '(' before any '=' means a function declaration —
        # except a macro-annotated field like `int fd GUARDED_BY(mu) = -1;`.
        texts = [t.text for t in stmt]
        # Strip trailing ';'
        ts = stmt[:-1]
        # Strip initializers: cut at top-level '=' or '{'.
        depth = 0
        cut = len(ts)
        for idx, t in enumerate(ts):
            if t.text in ("(", "[", "<"):
                depth += 1
            elif t.text in (")", "]", ">"):
                depth -= 1
            elif t.text in ("=", "{") and depth <= 0:
                cut = idx
                break
        ts = ts[:cut]
        # Strip trailing annotation macro groups.
        while len(ts) >= 3 and ts[-1].text == ")":
            po = None
            d = 0
            for idx in range(len(ts) - 1, -1, -1):
                if ts[idx].text == ")":
                    d += 1
                elif ts[idx].text == "(":
                    d -= 1
                    if d == 0:
                        po = idx
                        break
            if po is None or po == 0:
                break
            headm = ts[po - 1]
            if headm.kind == KIND_IDENT and (headm.text in ANNOT_MACROS
                                             or headm.text.isupper()):
                ts = ts[: po - 1]
            else:
                return  # function declaration `T name(args);`
        # Strip array extents.
        while len(ts) >= 2 and ts[-1].text == "]":
            d = 0
            for idx in range(len(ts) - 1, -1, -1):
                if ts[idx].text == "]":
                    d += 1
                elif ts[idx].text == "[":
                    d -= 1
                    if d == 0:
                        ts = ts[:idx]
                        break
            else:
                break
        if any(t.text == "(" for t in ts):
            return  # function pointer / method — out of scope
        idents = [t for t in ts if t.kind == KIND_IDENT
                  and t.text not in TYPE_KEYWORDS]
        if len(idents) < 2:
            # Builtin-typed field (`bool perpetual;`, `unsigned int fd;`):
            # the type is entirely keywords, leaving only the declarator.
            builtins = [t.text for t in ts if t.kind == KIND_IDENT
                        and t.text in _BUILTIN_TYPE_KEYWORDS]
            if len(idents) == 1 and builtins and ts and ts[-1] is idents[-1]:
                rec["fields"].append({
                    "name": idents[-1].text, "type": builtins[-1],
                    "line": stmt[0].line,
                    "type_text": " ".join(t.text for t in ts[:-1])})
            return
        name = idents[-1].text
        base = idents[-2].text
        type_text = " ".join(t.text for t in ts[:-1])
        field = {"name": name, "type": base, "line": stmt[0].line,
                 "type_text": type_text}
        rec["fields"].append(field)
        if base in MUTEX_TYPES and "MutexLock" not in type_text:
            rec["mutexes"].append(name)

    # -- function bodies -----------------------------------------------------

    def emit(self, func, ev):
        func["events"].append(ev)

    def body_token(self, func, i):
        toks = self.toks
        t = toks[i]
        if t.kind == KIND_PP:
            return i + 1

        # Snapshot guards.
        if t.kind == KIND_IDENT and (
            t.text in _SNAPSHOT_GUARD_IDENTS
            or (t.text == "snapshot" and i + 2 < len(toks)
                and toks[i + 1].text == "(" and toks[i + 2].text == ")")
        ):
            self.emit(func, {"k": "guard", "line": t.line})
            # fall through: RejectIfSnapshot is also a call

        # MutexLock acquisition: `MutexLock name(expr)` / `ode::MutexLock ...`
        if t.kind == KIND_IDENT and t.text == "MutexLock":
            j = i + 1
            if j < len(toks) and toks[j].kind == KIND_IDENT:
                j += 1
                if j < len(toks) and toks[j].text == "(":
                    close = self.match_fwd(j, "(", ")")
                    if close is not None:
                        expr = "".join(x.text for x in toks[j + 1 : close])
                        self.emit(func, {"k": "acq", "mu": expr,
                                         "line": t.line,
                                         "lambda": self.lambda_depth()})
                        return close + 1
            return i + 1

        # Local declarations with pointer/ref types (for mutex-expr and
        # escape resolution): `T* name = ...` / `T& name = ...` /
        # `auto* name = ...` at statement start.
        if t.kind == KIND_IDENT and self.stmt_start(i):
            decl = self.try_local_decl(func, i)
            if decl is not None:
                return decl

        # Member stores: `name_ = expr;` / `this->name = expr;`
        if t.kind == KIND_IDENT and self.stmt_start(i):
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if nxt is not None and nxt.text == "=" and (
                t.text.endswith("_")
            ):
                rhs = self.stmt_rhs_idents(i + 2)
                self.emit(func, {"k": "store", "lhs": t.text, "rhs": rhs,
                                 "line": t.line,
                                 "lambda": self.lambda_depth()})
                return i + 2
        if t.text == "this" and i + 2 < len(toks) and toks[i + 1].text == "->" \
           and self.stmt_start(i):
            nm = toks[i + 2]
            if i + 3 < len(toks) and toks[i + 3].text == "=":
                rhs = self.stmt_rhs_idents(i + 4)
                self.emit(func, {"k": "store", "lhs": nm.text, "rhs": rhs,
                                 "line": t.line,
                                 "lambda": self.lambda_depth()})
                return i + 4

        # Call sites.
        if t.kind == KIND_IDENT and i + 1 < len(toks) \
           and toks[i + 1].text == "(" and t.text not in NOT_A_CALLEE \
           and t.text != "MutexLock":
            self.record_call(func, i)
            return i + 1

        return i + 1

    def stmt_start(self, i):
        prev = self.toks[i - 1] if i > 0 else None
        if prev is None:
            return True
        if prev.kind == KIND_PP:
            return True
        if prev.text in (";", "{", "}", "else", "do"):
            return True
        if prev.text == ":":
            return self.is_label_colon(i - 1)
        return False

    def is_label_colon(self, ci):
        """True when toks[ci] == ':' closes a `case X:` / `default:` / goto
        label; False for a ternary else-branch or ctor init list (where a
        following call is an expression, not a statement)."""
        toks = self.toks
        k = ci - 1
        depth = 0
        while k >= 0 and ci - k <= 200:
            t = toks[k]
            if t.text in (")", "]"):
                depth += 1
            elif t.text in ("(", "["):
                if depth == 0:
                    return False  # ':' nested in parens (ternary arg, range-for)
                depth -= 1
            elif depth == 0:
                if t.text == "?":
                    return False  # ternary
                if t.text in (";", "{", "}") or t.kind == KIND_PP:
                    nxt = toks[k + 1]
                    if nxt.text in ("case", "default"):
                        return True
                    # `ident:` goto label — exactly one token before the colon.
                    return nxt.kind == KIND_IDENT and ci - (k + 1) == 1
            k -= 1
        return False

    def stmt_rhs_idents(self, i):
        toks = self.toks
        out = []
        k = i
        while k < len(toks) and toks[k].text != ";":
            if toks[k].kind == KIND_IDENT:
                out.append(toks[k].text)
            k += 1
            if k - i > 120:
                break
        return out

    def try_local_decl(self, func, i):
        """Parses `Base [::Base2] [<...>] [*&]+ name [= ( {] ...` at token i.
        Registers the local's base type. Returns the index just past the
        declared name, or None when not a declaration."""
        toks = self.toks
        k = i
        base = toks[k].text
        if base in CONTROL_KEYWORDS or base in ("return", "delete", "goto",
                                                "break", "continue", "throw",
                                                "new", "else", "case"):
            return None
        k += 1
        # qualified: A::B
        while k + 1 < len(toks) and toks[k].text == "::" \
                and toks[k + 1].kind == KIND_IDENT:
            base = toks[k + 1].text
            k += 2
        # template args
        if k < len(toks) and toks[k].text == "<":
            close = self.match_fwd(k, "<", ">")
            if close is None:
                return None
            k = close + 1
        stars = 0
        while k < len(toks) and toks[k].text in ("*", "&", "const"):
            if toks[k].text in ("*", "&"):
                stars += 1
            k += 1
        if stars == 0:
            return None
        if k >= len(toks) or toks[k].kind != KIND_IDENT:
            return None
        name = toks[k].text
        after = toks[k + 1].text if k + 1 < len(toks) else ""
        if after not in ("=", ";", ",", ")"):
            return None
        rhs = []
        if after == "=":
            rhs = self.stmt_rhs_idents(k + 2)
        func["locals"][name] = {"type": base, "ptr": True}
        self.emit(func, {"k": "ptrdecl", "name": name, "type": base,
                         "rhs": rhs, "line": toks[i].line,
                         "lambda": self.lambda_depth()})
        return k + 1

    def record_call(self, func, i):
        """toks[i] is the callee identifier, toks[i+1] == '('."""
        toks = self.toks
        name = toks[i].text
        # Receiver chain: walk back over `expr -> / . / ::`.
        obj = ""
        qual = ""
        j = i - 1
        if j >= 0 and toks[j].text == "::":
            # qualified call X::f(...) — collect the qualifier
            q = []
            k = j
            while k - 1 >= 0 and toks[k].text == "::" \
                    and toks[k - 1].kind == KIND_IDENT:
                q.insert(0, toks[k - 1].text)
                k -= 2
            qual = "::".join(q)
            chain_start = k + 1
        elif j >= 0 and toks[j].text in ("->", "."):
            k = j - 1
            # receiver may be ident, this, or a paren/call chain — capture a
            # short ident-based receiver when possible.
            if k >= 0 and toks[k].kind == KIND_IDENT:
                obj = toks[k].text
                chain_start = k
            elif k >= 0 and toks[k].text == "this":
                obj = "this"
                chain_start = k
            elif k >= 0 and toks[k].text == ")":
                po = self.match_back(k, "(", ")")
                chain_start = po - 1 if po else i
                # receiver like lock_manager().Acquire — record the inner
                # callee name as the object hint.
                if po is not None and po - 1 >= 0 \
                        and toks[po - 1].kind == KIND_IDENT:
                    obj = toks[po - 1].text + "()"
                    chain_start = po - 1
            else:
                chain_start = i
        else:
            chain_start = i

        stmt = self.stmt_start(chain_start)
        void_cast = False
        if chain_start >= 3:
            a, b, c = toks[chain_start - 3 : chain_start]
            if a.text == "(" and b.text == "void" and c.text == ")":
                void_cast = True
                stmt = self.stmt_start(chain_start - 3)

        # Wrapped: any unclosed '(' between statement start and the call.
        wrapped = not stmt and not void_cast
        close = self.match_fwd(i + 1, "(", ")")
        term = ";"
        if close is not None and close + 1 < len(toks):
            term = toks[close + 1].text
        args0 = None
        if close is not None and close > i + 2:
            if toks[i + 2].kind == KIND_IDENT and (
                toks[i + 3].text in (",", ")") if i + 3 < len(toks) else False
            ):
                args0 = toks[i + 2].text
        arg_idents = []
        if close is not None:
            for k in range(i + 2, close):
                if toks[k].kind == KIND_IDENT:
                    arg_idents.append(toks[k].text)
                if len(arg_idents) > 40:
                    break
        self.emit(func, {
            "k": "call", "name": name, "obj": obj, "qual": qual,
            "line": toks[i].line, "stmt": stmt, "void": void_cast,
            "wrapped": wrapped, "term": term, "args0": args0,
            "args": arg_idents, "lambda": self.lambda_depth(),
            "argspan": [toks[i + 1].offset, toks[close].offset]
            if close is not None else None,
        })

        # OdeFields: `ar(f1, f2, ...)` inside a method named OdeFields.
        if func.get("name") == "OdeFields" and name == "ar" and close is not None:
            args = self.split_args(i + 1, close)
            rec = self.enclosing_record_for(func)
            if rec is not None:
                if rec["ode_args"] is None:
                    rec["ode_args"] = []
                rec["ode_args"].extend(args)
            func.setdefault("ode_args", []).extend(args)

        # Encode/Decode field ops.
        m = _ENCDEC_RE.match(func.get("name", ""))
        op = _CODING_OP_RE.match(name)
        if m and op and close is not None:
            args = self.split_args(i + 1, close)
            # Decoders assign the return value: `e->page = DecodeFixed32(p)`.
            # The field being filled is the assignment LHS, not an argument.
            lhs = ""
            if chain_start >= 2 and toks[chain_start - 1].text == "=" \
                    and toks[chain_start - 2].kind == KIND_IDENT:
                lhs = toks[chain_start - 2].text
            self.encdec_op(func, m, op.group(1), args, toks[i].line, lhs)

    def enclosing_record_for(self, func):
        for s in reversed(self.scopes):
            if s.kind == "record":
                return s.record
        return None

    def encdec_op(self, func, m, width, args, line, lhs=""):
        stem = m.group(2)
        kind = "enc" if m.group(1) in ("Encode", "Serialize") else "dec"
        entry = None
        for e in self.encdec:
            if e["fn"] == func["qual"]:
                entry = e
                break
        if entry is None:
            entry = {"fn": func["qual"], "stem": stem, "kind": kind,
                     "file": self.path, "line": func["line"], "ops": []}
            self.encdec.append(entry)
        if lhs:
            # Return-value decode: field comes from the assignment LHS and
            # the (single) argument is the source offset expression.
            field = lhs
            offset = args[0] if args else ""
        else:
            field = args[-1] if args else ""
            offset = args[0] if len(args) > 1 else ""
        entry["ops"].append({"w": width, "off": offset, "field": field,
                             "line": line})

    def lambda_captures(self, rb_index):
        """Given the ']' token index of a lambda introducer, returns the
        captured identifiers."""
        toks = self.toks
        lb = self.match_back(rb_index, "[", "]")
        if lb is None:
            return []
        return [t.text for t in toks[lb + 1 : rb_index]
                if t.kind == KIND_IDENT]

    def split_args(self, po, pc):
        """Splits the argument tokens of the paren group po..pc into
        normalized strings at top-level commas."""
        toks = self.toks
        out = []
        cur = []
        depth = 0
        for k in range(po + 1, pc):
            t = toks[k]
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth -= 1
            if t.text == "," and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                cur.append(t.text)
        if cur:
            out.append("".join(cur))
        return out

    # -- token matching ------------------------------------------------------

    def match_back(self, i, open_c, close_c):
        toks = self.toks
        depth = 0
        k = i
        while k >= 0:
            if toks[k].text == close_c:
                depth += 1
            elif toks[k].text == open_c:
                depth -= 1
                if depth == 0:
                    return k
            k -= 1
        return None

    def match_back_angle(self, i):
        toks = self.toks
        depth = 0
        k = i
        while k >= 0 and i - k < 80:
            t = toks[k].text
            if t == ">":
                depth += 1
            elif t == "<":
                depth -= 1
                if depth == 0:
                    return k
            elif t in (";", "{", "}"):
                return None
            k -= 1
        return None

    def match_fwd(self, i, open_c, close_c):
        toks = self.toks
        depth = 0
        k = i
        while k < len(toks):
            if toks[k].text == open_c:
                depth += 1
            elif toks[k].text == close_c:
                depth -= 1
                if depth == 0:
                    return k
            k += 1
        return None
