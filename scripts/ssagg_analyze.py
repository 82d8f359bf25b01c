#!/usr/bin/env python3
"""ssagg-analyze: project-specific whole-program static analysis.

Checks (DESIGN.md section 14):
  lock-order          acquired-while-holding edge contradicts the rank spec
  lock-rank-missing   Mutex/SharedMutex construction site without a rank
  lock-rank-mismatch  construction site / LockRank enum / spec out of step
  discarded-status    Status / Result<T> return value dropped on the floor
  escaping-pin        Pin() handle discarded or used through a temporary
  guarded-field       field only ever touched under a lock but missing
                      SSAGG_GUARDED_BY
  raw-primitive       std synchronization primitive outside common/mutex.h
  safety-comment      SSAGG_NO_THREAD_SAFETY_ANALYSIS without // SAFETY:

Front-end: libclang when importable (never required), else the tolerant
C++-aware tokenizer below. Both must pass the canary corpus
(scripts/canaries/, run with --self-test).

Output is deterministic: findings print sorted as
  file:line: [check-id] message
and the process exits non-zero iff there are findings.
"""

import argparse
import os
import re
import sys
from collections import defaultdict

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct>->\*?|::|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~=<>]=?|[{}()\[\];:,.?#@\\])
    """,
    re.VERBOSE | re.DOTALL,
)


class Tok:
    __slots__ = ("kind", "val", "line")

    def __init__(self, kind, val, line):
        self.kind = kind
        self.val = val
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.val}@{self.line}"


def tokenize(text):
    """C++ tokens with line numbers; comments/whitespace dropped and
    preprocessor directives swallowed whole (respecting continuations) so
    they never confuse statement parsing."""
    toks = []
    line = 1
    pos = 0
    n = len(text)
    while pos < n:
        m = TOKEN_RE.match(text, pos)
        if not m:
            pos += 1
            continue
        kind = m.lastgroup
        val = m.group()
        if kind == "punct" and val == "#":
            end = pos
            while end < n:
                nl = text.find("\n", end)
                if nl == -1:
                    end = n
                    break
                if nl > 0 and text[nl - 1] == "\\":
                    end = nl + 1
                    continue
                end = nl
                break
            line += text.count("\n", pos, end)
            pos = end
            continue
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, val, line))
        line += val.count("\n")
        pos = m.end()
    return toks


def skip_balanced(toks, i, open_p, close_p):
    """toks[i] == open_p; returns the index just past the matching close."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if v == open_p:
            depth += 1
        elif v == close_p:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def split_top_commas(toks):
    """Split a token list on commas at bracket depth 0."""
    chunks, cur, depth = [], [], 0
    for t in toks:
        if t.val in ("(", "{", "["):
            depth += 1
        elif t.val in (")", "}", "]"):
            depth -= 1
        if t.val == "," and depth == 0:
            chunks.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        chunks.append(cur)
    return chunks


# Identifiers that never name a user class in a declaration.
TYPE_NOISE = {
    "const", "mutable", "static", "constexpr", "inline", "volatile",
    "register", "struct", "class", "typename", "unsigned", "signed", "long",
    "short", "int", "char", "bool", "float", "double", "void", "auto",
    "std", "shared_ptr", "unique_ptr", "weak_ptr", "vector", "atomic",
    "optional", "deque", "unordered_map", "unordered_set", "map", "set",
    "array", "pair", "tuple", "span", "string", "string_view", "function",
    "idx_t", "hash_t", "size_t", "uint64_t", "int64_t", "uint32_t",
    "int32_t", "uint16_t", "uint8_t", "int16_t", "int8_t", "uintptr_t",
    "explicit", "virtual", "friend", "using", "typedef", "operator",
}


def decl_var_and_type(toks):
    """Given declaration tokens up to (not including) an initializer,
    return (var_name, type_guess, is_atomic, is_const). The variable is the
    last identifier; the type guess is the last non-noise identifier before
    it (so `std::shared_ptr<BlockHandle> &handle` -> BlockHandle)."""
    ids = [t.val for t in toks if t.kind == "id"]
    if len(ids) < 2:
        return None, None, False, False
    var = ids[-1]
    is_atomic = "atomic" in ids
    is_const = "const" in ids or "constexpr" in ids
    type_guess = None
    for name in ids[:-1]:
        if name not in TYPE_NOISE:
            type_guess = name
    return var, type_guess, is_atomic, is_const


CXX_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "new",
    "delete", "catch", "throw", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "co_return", "co_await", "case", "default", "do",
    "else", "goto", "try", "using", "typedef", "static_assert", "decltype",
    "noexcept", "operator", "template", "typename", "this", "public",
    "private", "protected", "friend", "virtual", "explicit", "constexpr",
    "const", "static", "inline", "mutable", "namespace", "class", "struct",
    "enum", "union", "template",
}

# Macro-ish call names that intentionally consume or produce values.
CONSUMER_MACRO_RE = re.compile(
    r"^(SSAGG_|EXPECT_|ASSERT_|TEST|TYPED_TEST|INSTANTIATE_|GTEST_|"
    r"BENCHMARK|RUN_ALL_TESTS|CHECK)")

MUTEX_TYPES = ("Mutex", "SharedMutex")


# ---------------------------------------------------------------------------
# Spec / enum parsing
# ---------------------------------------------------------------------------


def parse_spec(path):
    """scripts/lock_hierarchy.txt -> ({lock_name: rank}, findings)."""
    ranks = {}
    findings = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3 or parts[0] != "rank" or not parts[1].isdigit():
                findings.append((path, lineno, "lock-rank-mismatch",
                                 f"unparseable spec line: {raw.strip()!r}"))
                continue
            rank, name = int(parts[1]), parts[2]
            if name in ranks:
                findings.append((path, lineno, "lock-rank-mismatch",
                                 f"duplicate spec entry for {name}"))
            elif rank in ranks.values():
                findings.append(
                    (path, lineno, "lock-rank-mismatch",
                     f"rank {rank} assigned twice (ranks must be unique)"))
            else:
                ranks[name] = rank
    return ranks, findings


def parse_lock_rank_enum(path):
    """lock_rank.h -> {kEnumName: value}."""
    text = open(path, encoding="utf-8").read()
    m = re.search(r"enum class LockRank[^{]*\{(.*?)\};", text, re.DOTALL)
    values = {}
    if not m:
        return values
    body = re.sub(r"//[^\n]*", "", m.group(1))
    for em in re.finditer(r"(k\w+)\s*=\s*(\d+)", body):
        values[em.group(1)] = int(em.group(2))
    return values


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class MutexDecl:
    def __init__(self, file, line, cls, member, rank_enum, name, mutex_type):
        self.file = file
        self.line = line
        self.cls = cls              # enclosing class path, "" at file scope
        self.member = member        # e.g. "queue_lock_"
        self.rank_enum = rank_enum  # e.g. "kEvictionQueue", or None
        self.name = name            # e.g. "BufferManager::queue_lock_"
        self.mutex_type = mutex_type


class FuncInfo:
    def __init__(self, key, file, line):
        self.key = key
        self.file = file
        self.line = line
        self.direct_blocking = set()  # lock names blocking-acquired in body
        self.calls = []    # (candidate_keys, held_list, line, path)
        self.trans = set()  # fixpoint: may blocking-acquire while running


class Analyzer:
    def __init__(self, root, spec_path, lock_dirs, flow_dirs):
        self.root = root
        self.spec_path = spec_path
        self.lock_dirs = lock_dirs
        self.flow_dirs = flow_dirs
        self.findings = []
        self.spec = {}
        self.mutex_decls = []
        self.mutex_by_member = defaultdict(list)
        self.status_funcs = set()
        self.nonstatus_funcs = set()
        self.funcs = {}
        self.method_index = defaultdict(list)
        self.member_types = {}            # (class, member) -> type guess
        self.class_fields = defaultdict(dict)
        self.class_mutexes = defaultdict(list)
        self.field_accesses = defaultdict(list)
        self.edges = []
        self._current_func = None

    def finding(self, file, line, check, msg):
        self.findings.append(
            (os.path.relpath(file, self.root), line, check, msg))

    def collect(self, dirs):
        files = []
        for d in dirs:
            full = os.path.normpath(os.path.join(self.root, d))
            if not os.path.isdir(full):
                continue
            for base, subdirs, names in os.walk(full):
                subdirs.sort()
                for name in sorted(names):
                    if name.endswith((".h", ".cc")):
                        files.append(os.path.join(base, name))
        return sorted(set(files))

    def in_lock_dirs(self, path):
        rel = os.path.relpath(path, self.root)
        return any(d == "." or rel.startswith(d.rstrip("/") + os.sep)
                   for d in self.lock_dirs)

    # -- line-level checks ---------------------------------------------------

    RAW_RE = re.compile(
        r"std::(mutex|shared_mutex|recursive_mutex|condition_variable|"
        r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
        r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>")

    def check_lines(self, path, text):
        rel = os.path.relpath(path, self.root)
        exempt = rel.endswith(os.path.join("common", "mutex.h"))
        # The ledger benchmark is a separate CMake project that is frozen
        # between benchmark revisions; its harness threads hold no library
        # lock, so std primitives there cannot join the rank hierarchy.
        raw_ok = exempt or rel.startswith(os.path.join("bench", "ledger") +
                                          os.sep)
        lines = text.split("\n")
        for i, line in enumerate(lines, 1):
            code = line.split("//", 1)[0]
            if not raw_ok and self.RAW_RE.search(code):
                self.finding(path, i, "raw-primitive",
                             "raw std synchronization primitive; use "
                             "ssagg::Mutex / ScopedLock / CondVar "
                             "(common/mutex.h)")
            if "SSAGG_NO_THREAD_SAFETY_ANALYSIS" in line and not exempt \
                    and "lock_rank" not in rel:
                context = lines[max(0, i - 4):i]
                if not any("// SAFETY:" in c for c in context):
                    self.finding(path, i, "safety-comment",
                                 "SSAGG_NO_THREAD_SAFETY_ANALYSIS without an "
                                 "adjacent '// SAFETY:' comment")

    # -- declaration pass ----------------------------------------------------

    def scan_declarations(self, path, toks):
        """Linear walk tracking namespace/class nesting; classifies every
        class-scope statement as a field or a function declaration."""
        n = len(toks)
        i = 0
        stack = []  # (kind, name, depth)
        depth = 0

        def class_path():
            return "::".join(e[1] for e in stack if e[0] == "class")

        while i < n:
            t = toks[i]
            v = t.val
            if v == "{":
                depth += 1
                stack.append(("block", "", depth))
                i += 1
                continue
            if v == "}":
                while stack and stack[-1][2] == depth:
                    stack.pop()
                depth -= 1
                i += 1
                continue
            if t.kind == "id" and v == "namespace":
                j = i + 1
                name = ""
                if j < n and toks[j].kind == "id":
                    name = toks[j].val
                    j += 1
                if j < n and toks[j].val == "{":
                    depth += 1
                    stack.append(("ns", name, depth))
                    i = j + 1
                else:
                    i = j
                continue
            if t.kind == "id" and v == "enum":
                # Skip the whole enum: its body has comma statements that
                # would otherwise corrupt statement gathering.
                j = i + 1
                while j < n and toks[j].val not in ("{", ";"):
                    j += 1
                if j < n and toks[j].val == "{":
                    j = skip_balanced(toks, j, "{", "}")
                i = j
                continue
            if t.kind == "id" and v in ("class", "struct") and \
                    (i == 0 or toks[i - 1].val not in ("<", ",", "(")):
                j = i + 1
                name = None
                while j < n and toks[j].val not in ("{", ";", "("):
                    if toks[j].kind == "id" and name is None and \
                            toks[j].val not in ("final", "alignas"):
                        name = toks[j].val
                    if toks[j].val == ":":
                        # base list: the name is already set
                        while j < n and toks[j].val != "{":
                            j += 1
                        break
                    j += 1
                if j < n and toks[j].val == "{" and name:
                    depth += 1
                    stack.append(("class", name, depth))
                    i = j + 1
                else:
                    i = j if j > i else i + 1
                continue

            if t.kind == "id" and v in ("public", "private", "protected") \
                    and i + 1 < n and toks[i + 1].val == ":":
                i += 2
                continue
            in_class = bool(stack) and stack[-1][0] == "class"
            in_block = bool(stack) and stack[-1][0] == "block"
            stmt_ok_start = (i == 0 or toks[i - 1].val in
                             (";", "{", "}", ":") or
                             toks[i - 1].val in ("public", "private",
                                                 "protected"))
            scope_ok = in_class or depth == 0 or \
                (stack and stack[-1][0] == "ns") or \
                (in_block and v == "static")
            if t.kind == "id" and v not in ("template", "using", "typedef",
                                            "enum", "friend", "return") \
                    and stmt_ok_start and scope_ok:
                # Gather one statement: up to ';' or a function body '{'.
                j = i
                paren_seen = False
                body_start = None
                broke_on_close = False
                sig = []
                while j < n:
                    tv = toks[j].val
                    if tv == ";":
                        break
                    if tv == "}":
                        broke_on_close = True  # malformed: hand back to walk
                        break
                    if tv == "operator" and toks[j].kind == "id":
                        # keep "operator" + its symbol opaque so "operator="
                        # is not mistaken for an initializer
                        sig.append(toks[j])
                        if j + 1 < n:
                            sig.append(toks[j + 1])
                        j += 2
                        continue
                    if tv == "(":
                        end = skip_balanced(toks, j, "(", ")")
                        if not paren_seen:
                            paren_seen = True
                            sig.append(toks[j])
                            sig.extend(toks[j + 1:end])
                            j = end
                            continue
                        j = end
                        continue
                    if tv == "{":
                        prev = toks[j - 1].val if j > 0 else ""
                        if paren_seen and (prev == ")" or prev in (
                                "const", "noexcept", "override", "final") or
                                prev.startswith("SSAGG_")):
                            body_start = j
                            break
                        # brace initializer (e.g. Mutex m{...};)
                        end = skip_balanced(toks, j, "{", "}")
                        sig.append(toks[j])
                        sig.extend(toks[j + 1:end])
                        j = end
                        continue
                    if tv == ":" and paren_seen:
                        # ctor initializer list -> body follows
                        while j < n and toks[j].val != "{":
                            if toks[j].val in ("(", "{"):
                                j = skip_balanced(
                                    toks, j, toks[j].val,
                                    ")" if toks[j].val == "(" else "}")
                                continue
                            j += 1
                        continue
                    if tv == "=" and not paren_seen:
                        # initializer: swallow to ';' (never past a '}')
                        while j < n and toks[j].val not in (";", "}"):
                            if toks[j].val in ("(", "{", "["):
                                j = skip_balanced(
                                    toks, j, toks[j].val,
                                    {"(": ")", "{": "}", "[": "]"}
                                    [toks[j].val])
                                continue
                            j += 1
                        continue
                    sig.append(toks[j])
                    j += 1
                self.classify_declaration(path, toks[i:j] if not sig else sig,
                                          class_path(), in_class,
                                          paren_seen)
                if body_start is not None:
                    i = body_start  # let the '{' handler push a block scope
                elif broke_on_close or (j < n and toks[j].val == "}"):
                    i = j           # the '}' handler pops the scope
                else:
                    i = j + 1 if j < n else n
                continue
            i += 1

    def classify_declaration(self, path, sig, cls, in_class, paren_seen):
        if not sig:
            return
        ids = [t for t in sig if t.kind == "id"]
        if not ids:
            return
        first = sig[0]
        # Function (something with a parameter list).
        if paren_seen:
            # name = identifier immediately before the first '('
            name = None
            for k, t in enumerate(sig):
                if t.val == "(":
                    if k > 0 and sig[k - 1].kind == "id":
                        name = sig[k - 1].val
                    break
            if name is None or name in CXX_KEYWORDS:
                return
            ret_status = first.val in ("Status", "Result")
            if ret_status:
                self.status_funcs.add(name)
            elif first.val not in (name,):  # skip constructors
                self.nonstatus_funcs.add(name)
            key = f"{cls}::{name}" if cls else name
            if key not in self.funcs:
                self.funcs[key] = FuncInfo(key, path, first.line)
                self.method_index[name].append(key)
            return
        if not in_class and first.val != "static":
            # file-scope variable (e.g. "static Mutex log_lock{...};" inside
            # a function body is handled here too via stmt scanning)
            pass
        # Mutex / SharedMutex member?
        type_idx = None
        for k, t in enumerate(sig):
            if t.kind == "id" and t.val in MUTEX_TYPES:
                prev = sig[k - 1].val if k > 0 else ""
                if prev not in (".", "->", "::", "<"):
                    type_idx = k
                break
            if t.kind == "id" and t.val not in ("mutable", "static", "const"):
                break
        if type_idx is not None and type_idx + 1 < len(sig) and \
                sig[type_idx + 1].kind == "id":
            member = sig[type_idx + 1].val
            rank_enum = lock_name = None
            rest = sig[type_idx + 2:]
            for k, t in enumerate(rest):
                if t.val == "LockRank" and k + 2 < len(rest) and \
                        rest[k + 1].val == "::":
                    rank_enum = rest[k + 2].val
                if t.kind == "str" and lock_name is None:
                    lock_name = t.val.strip('"')
            decl = MutexDecl(path, sig[type_idx].line, cls, member,
                             rank_enum, lock_name, sig[type_idx].val)
            self.mutex_decls.append(decl)
            self.mutex_by_member[member].append(decl)
            if cls:
                self.class_mutexes[cls].append(member)
                self.member_types[(cls, member)] = sig[type_idx].val
            return
        # Plain field.
        if in_class and cls:
            # strip trailing SSAGG_GUARDED_BY(...) etc. from the name search
            guarded = any(t.val in ("SSAGG_GUARDED_BY", "SSAGG_PT_GUARDED_BY")
                          for t in sig)
            core = []
            for t in sig:
                if t.val.startswith("SSAGG_"):
                    break
                core.append(t)
            var, type_guess, is_atomic, is_const = decl_var_and_type(core)
            if var is None or var in CXX_KEYWORDS:
                return
            self.member_types[(cls, var)] = type_guess
            self.class_fields[cls][var] = {
                "guarded": guarded,
                "atomic": is_atomic,
                "const": is_const,
                "line": sig[0].line,
                "file": path,
            }

    # -- body pass -----------------------------------------------------------

    def scan_bodies(self, path, toks, flow_checks, lock_checks):
        n = len(toks)
        i = 0
        stack = []
        depth = 0

        def class_path():
            return "::".join(e[1] for e in stack if e[0] == "class")

        while i < n:
            t = toks[i]
            v = t.val
            if v == "{":
                depth += 1
                stack.append(("block", "", depth))
                i += 1
                continue
            if v == "}":
                while stack and stack[-1][2] == depth:
                    stack.pop()
                depth -= 1
                i += 1
                continue
            if t.kind == "id" and v == "namespace":
                j = i + 1
                name = ""
                if j < n and toks[j].kind == "id":
                    name = toks[j].val
                    j += 1
                if j < n and toks[j].val == "{":
                    depth += 1
                    stack.append(("ns", name, depth))
                    i = j + 1
                else:
                    i = j
                continue
            if t.kind == "id" and v == "enum":
                j = i + 1
                while j < n and toks[j].val not in ("{", ";"):
                    j += 1
                if j < n and toks[j].val == "{":
                    j = skip_balanced(toks, j, "{", "}")
                i = j
                continue
            if t.kind == "id" and v in ("class", "struct") and \
                    (i == 0 or toks[i - 1].val not in ("<", ",", "(")):
                j = i + 1
                name = None
                while j < n and toks[j].val not in ("{", ";", "("):
                    if toks[j].kind == "id" and name is None and \
                            toks[j].val not in ("final", "alignas"):
                        name = toks[j].val
                    if toks[j].val == ":":
                        while j < n and toks[j].val != "{":
                            j += 1
                        break
                    j += 1
                if j < n and toks[j].val == "{" and name:
                    depth += 1
                    stack.append(("class", name, depth))
                    i = j + 1
                else:
                    i = j if j > i else i + 1
                continue
            # Function definition: name ( params ) [quals] [: init] {
            if t.kind == "id" and v not in CXX_KEYWORDS and i + 1 < n and \
                    toks[i + 1].val == "(":
                close = skip_balanced(toks, i + 1, "(", ")")
                j = close
                while j < n and (
                        (toks[j].kind == "id" and toks[j].val in
                         ("const", "noexcept", "override", "final",
                          "mutable")) or toks[j].val.startswith("SSAGG_")):
                    if j + 1 < n and toks[j + 1].val == "(":
                        j = skip_balanced(toks, j + 1, "(", ")")
                    else:
                        j += 1
                if j < n and toks[j].val == ":":
                    j += 1
                    while j < n and toks[j].val != "{":
                        if toks[j].val in ("(", "{"):
                            j = skip_balanced(
                                toks, j, toks[j].val,
                                ")" if toks[j].val == "(" else "}")
                            continue
                        if toks[j].val == ";":
                            break
                        j += 1
                if j < n and toks[j].val == "{":
                    body_end = skip_balanced(toks, j, "{", "}")
                    fname = v
                    cls = None
                    if i >= 2 and toks[i - 1].val == "::" and \
                            toks[i - 2].kind == "id":
                        parts = [toks[i - 2].val]
                        k = i - 2
                        while k >= 2 and toks[k - 1].val == "::" and \
                                toks[k - 2].kind == "id":
                            parts.insert(0, toks[k - 2].val)
                            k -= 2
                        cls = "::".join(parts)
                    elif class_path():
                        cls = class_path()
                    key = f"{cls}::{fname}" if cls else fname
                    info = self.funcs.get(key)
                    if info is None:
                        info = FuncInfo(key, path, t.line)
                        self.funcs[key] = info
                        self.method_index[fname].append(key)
                    params = toks[i + 2:close - 1]
                    body = toks[j + 1:body_end - 1]
                    prev_func = self._current_func
                    self._current_func = info
                    try:
                        self.analyze_body(path, info, cls, fname, body,
                                          params, flow_checks, lock_checks)
                    finally:
                        self._current_func = prev_func
                    i = body_end
                    continue
                i = close
                continue
            i += 1

    # -- body analysis helpers ----------------------------------------------

    def resolve_mutex(self, chain_vals, cls, local_types):
        """Receiver token values (e.g. ['candidate', '->', 'lock_']) -> spec
        lock name or None."""
        ids = [x for x in chain_vals
               if x not in (".", "->", "::", "this", "(", ")", "*", "&")]
        if not ids:
            return None
        member = ids[-1]
        decls = self.mutex_by_member.get(member)
        if not decls:
            return None
        if len(decls) == 1:
            d = decls[0]
            return d.name or f"<unranked:{member}>"
        recv_type = None
        if len(ids) >= 2:
            recv = ids[-2]
            recv_type = local_types.get(recv)
            if recv_type is None and cls:
                recv_type = self.member_types.get((cls, recv))
        else:
            recv_type = cls.split("::")[-1] if cls else None
        if recv_type:
            for d in decls:
                last = d.cls.split("::")[-1] if d.cls else ""
                if recv_type == d.cls or recv_type == last:
                    return d.name or f"<unranked:{member}>"
        return None

    def rank_of(self, lock_name):
        return self.spec.get(lock_name)

    def record_acquire(self, held, lock_name, file, line, via_try,
                       lock_checks):
        info = self._current_func
        if info is not None and not via_try:
            info.direct_blocking.add(lock_name)
        for h, _, _h_try in held:
            self.edges.append((h, lock_name, file, line, via_try))
            if not lock_checks or via_try or h == lock_name:
                continue
            hr, ar = self.rank_of(h), self.rank_of(lock_name)
            if hr is None or ar is None:
                continue
            if ar <= hr:
                self.finding(
                    file, line, "lock-order",
                    f"blocking acquisition of {lock_name} (rank {ar}) while "
                    f"holding {h} (rank {hr}); the hierarchy requires "
                    f"strictly increasing ranks (scripts/lock_hierarchy.txt)")

    def analyze_body(self, path, info, cls, fname, body, params, flow_checks,
                     lock_checks):
        n = len(body)
        local_types = {}
        for chunk in split_top_commas(params):
            var, type_guess, _, _ = decl_var_and_type(chunk)
            if var and type_guess:
                local_types[var] = type_guess

        held = []      # (lock_name, scope_depth, via_try)
        guards = {}    # ScopedLock variable -> lock name
        depth = 0
        lambda_depths = []
        is_ctor_or_dtor = cls is not None and (
            cls.split("::")[-1] == fname or fname.startswith("~"))

        def effective_held():
            if lambda_depths:
                cut = lambda_depths[-1]
                return [h for h in held if h[1] >= cut]
            return held

        i = 0
        stmt_start = 0
        while i < n:
            t = body[i]
            v = t.val
            if v == "{":
                k = i - 1
                while k >= 0 and body[k].kind == "id" and body[k].val in (
                        "mutable", "noexcept", "constexpr"):
                    k -= 1
                is_lambda = False
                if k >= 0 and body[k].val == ")":
                    pd = 0
                    m = k
                    while m >= 0:
                        if body[m].val == ")":
                            pd += 1
                        elif body[m].val == "(":
                            pd -= 1
                            if pd == 0:
                                break
                        m -= 1
                    if m > 0 and body[m - 1].val == "]":
                        is_lambda = True
                elif k >= 0 and body[k].val == "]":
                    is_lambda = True
                depth += 1
                if is_lambda:
                    lambda_depths.append(depth)
                i += 1
                stmt_start = i
                continue
            if v == "}":
                held[:] = [h for h in held if h[1] < depth]
                if lambda_depths and lambda_depths[-1] == depth:
                    lambda_depths.pop()
                depth -= 1
                i += 1
                stmt_start = i
                continue

            # Lock-scope constructions.
            if t.kind == "id" and v in ("ScopedLock", "ExclusiveLock",
                                        "SharedLock") and i + 1 < n and \
                    body[i + 1].kind == "id" and i + 2 < n and \
                    body[i + 2].val in ("(", "{"):
                var = body[i + 1].val
                k = i + 2
                closer = ")" if body[k].val == "(" else "}"
                end = skip_balanced(body, k, body[k].val, closer)
                arg_chunks = split_top_commas(body[k + 1:end - 1])
                lock_name = None
                if arg_chunks:
                    lock_name = self.resolve_mutex(
                        [x.val for x in arg_chunks[0]], cls, local_types)
                via_try = any(tok.val in ("adopt_lock", "try_to_lock")
                              for chunk in arg_chunks[1:] for tok in chunk)
                if lock_name:
                    self.record_acquire(effective_held(), lock_name, path,
                                        t.line, via_try, lock_checks)
                    held.append((lock_name, depth, via_try))
                    guards[var] = lock_name
                i = end
                continue

            # Manual lock()/unlock()/try_lock() and guard Unlock().
            if t.kind == "id" and v in ("lock", "unlock", "try_lock",
                                        "lock_shared", "unlock_shared",
                                        "try_lock_shared", "Unlock") and \
                    i + 1 < n and body[i + 1].val == "(" and i > 0 and \
                    body[i - 1].val in (".", "->"):
                k = i - 1
                chain = []
                while k >= 0 and (body[k].val in (".", "->", "::") or
                                  body[k].kind == "id"):
                    chain.insert(0, body[k].val)
                    k -= 1
                if v == "Unlock":
                    gvar = chain[0] if chain else None
                    if gvar in guards:
                        lname = guards.pop(gvar)
                        for idx in range(len(held) - 1, -1, -1):
                            if held[idx][0] == lname:
                                del held[idx]
                                break
                    i = skip_balanced(body, i + 1, "(", ")")
                    continue
                lock_name = self.resolve_mutex(chain[:-1], cls, local_types)
                if lock_name:
                    if v.startswith("unlock"):
                        for idx in range(len(held) - 1, -1, -1):
                            if held[idx][0] == lock_name:
                                del held[idx]
                                break
                    else:
                        via_try = v.startswith("try_")
                        self.record_acquire(effective_held(), lock_name,
                                            path, t.line, via_try,
                                            lock_checks)
                        held.append((lock_name, depth, via_try))
                i = skip_balanced(body, i + 1, "(", ")")
                continue

            # Call sites under held locks (for interprocedural edges).
            if t.kind == "id" and v not in CXX_KEYWORDS and \
                    not CONSUMER_MACRO_RE.match(v) and i + 1 < n and \
                    body[i + 1].val == "(" and v not in (
                        "ScopedLock", "ExclusiveLock", "SharedLock"):
                eh = effective_held()
                if eh:
                    recv_type = None
                    if i >= 2 and body[i - 1].val in (".", "->"):
                        recv = body[i - 2].val
                        recv_type = local_types.get(recv)
                        if recv_type is None and cls:
                            recv_type = self.member_types.get((cls, recv))
                    candidates = []
                    keys = self.method_index.get(v, [])
                    if recv_type:
                        for key in keys:
                            kcls = key.rsplit("::", 1)[0] if "::" in key \
                                else ""
                            if kcls == recv_type or \
                                    kcls.split("::")[-1] == recv_type:
                                candidates.append(key)
                    if not candidates:
                        if len(keys) == 1:
                            candidates = keys
                        elif cls and f"{cls}::{v}" in self.funcs:
                            candidates = [f"{cls}::{v}"]
                    if candidates:
                        info.calls.append((candidates, list(eh), t.line,
                                           path))

            # Statement boundary: flow checks + local decl type capture.
            if v == ";":
                stmt = body[stmt_start:i]
                if stmt:
                    self.capture_local_decl(stmt, local_types)
                    if flow_checks:
                        self.check_statement(path, stmt)
                stmt_start = i + 1
            i += 1

        if cls:
            self.log_field_accesses(cls, body, is_ctor_or_dtor)

    def capture_local_decl(self, stmt, local_types):
        """Record `Type name = ...` / `Type name(...)` local declarations."""
        if stmt[0].kind != "id" or stmt[0].val in CXX_KEYWORDS:
            return
        depth = 0
        eq = None
        for k, t in enumerate(stmt):
            if t.val in ("(", "{", "["):
                depth += 1
            elif t.val in (")", "}", "]"):
                depth -= 1
            elif depth == 0 and t.val == "=" and \
                    (k + 1 >= len(stmt) or stmt[k + 1].val != "="):
                eq = k
                break
        if eq is not None:
            decl_part = stmt[:eq]
        else:
            # `Type name(args);` constructor-style: cut at the paren/brace
            decl_part = []
            for t in stmt:
                if t.val in ("(", "{"):
                    break
                decl_part.append(t)
        # must look like a declaration: no member access or arithmetic
        if any(t.val in (".", "->", "==", "!=", "<=", ">=", "+", "-", "/",
                         "%", "return") for t in decl_part):
            return
        var, type_guess, _, _ = decl_var_and_type(decl_part)
        if var and type_guess and var not in CXX_KEYWORDS:
            local_types.setdefault(var, type_guess)

    def log_field_accesses(self, cls, body, is_ctor_or_dtor):
        if not cls:
            return
        fields = self.class_fields.get(cls) or self.class_fields.get(
            cls.split("::")[-1])
        key_cls = cls if cls in self.class_fields else cls.split("::")[-1]
        if not fields:
            return
        mutexes = set(self.class_mutexes.get(key_cls, []))
        if not mutexes:
            return
        depth = 0
        lock_depths = []
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            v = t.val
            if v == "{":
                depth += 1
            elif v == "}":
                lock_depths[:] = [d for d in lock_depths if d < depth]
                depth -= 1
            elif t.kind == "id" and v in ("ScopedLock", "ExclusiveLock",
                                          "SharedLock") and i + 2 < n and \
                    body[i + 1].kind == "id" and body[i + 2].val in ("(", "{"):
                closer = ")" if body[i + 2].val == "(" else "}"
                end = skip_balanced(body, i + 2, body[i + 2].val, closer)
                args = [x.val for x in body[i + 3:end - 1]]
                if any(a in mutexes for a in args):
                    lock_depths.append(depth)
                i = end
                continue
            elif t.kind == "id" and v in fields:
                prev = body[i - 1].val if i > 0 else ""
                prev2 = body[i - 2].val if i > 1 else ""
                member_of_this = prev not in (".", "->", "::") or (
                    prev == "->" and prev2 == "this")
                if member_of_this:
                    self.field_accesses[(key_cls, v)].append(
                        (bool(lock_depths), is_ctor_or_dtor))
            i += 1

    # -- statement-level flow checks ----------------------------------------

    def check_statement(self, path, stmt):
        vals = [t.val for t in stmt]
        if vals[0] in ("return", "co_return", "if", "for", "while", "switch",
                       "case", "default", "break", "continue", "goto", "do",
                       "else", "delete", "throw", "using", "typedef",
                       "public", "private", "protected"):
            return
        if len(vals) >= 3 and vals[0] == "(" and vals[1] == "void":
            return
        # escaping-pin: Pin(...) temporary consumed via . / -> (except .ok()).
        for i, t in enumerate(stmt):
            if t.kind == "id" and t.val == "Pin" and i + 1 < len(stmt) and \
                    stmt[i + 1].val == "(" and i > 0 and \
                    stmt[i - 1].val in (".", "->"):
                end = skip_balanced(stmt, i + 1, "(", ")")
                if end < len(stmt) and stmt[end].val in (".", "->"):
                    nxt = stmt[end + 1].val if end + 1 < len(stmt) else ""
                    # .MoveValue() as the FINAL chain link moves the pinned
                    # buffer out of the temporary Result; the pin survives in
                    # whatever consumes the statement. Anything chained past
                    # it (e.g. .value().data()) still dies with the line.
                    moved = False
                    if nxt == "MoveValue" and end + 2 < len(stmt) and \
                            stmt[end + 2].val == "(":
                        end2 = skip_balanced(stmt, end + 2, "(", ")")
                        if end2 >= len(stmt) or \
                                stmt[end2].val not in (".", "->"):
                            moved = True
                    if nxt != "ok" and not moved:
                        self.finding(
                            path, t.line, "escaping-pin",
                            "Pin() result used through a temporary: the "
                            "handle (and the pin) dies at the end of this "
                            "statement; bind it to a named variable")
        depth = 0
        for k, t in enumerate(stmt):
            if t.val in ("(", "{", "["):
                depth += 1
            elif t.val in (")", "}", "]"):
                depth -= 1
            elif depth == 0 and t.val == "=":
                return  # assignment or initialized declaration
        if stmt[0].kind != "id" or CONSUMER_MACRO_RE.match(stmt[0].val):
            return
        # Bare call chain: id (:: id)* ((. | ->) id)* '(' args ')' [end].
        j = 0
        nvals = len(stmt)
        call_name = None
        while j < nvals:
            t = stmt[j]
            if t.kind == "id":
                if j + 1 < nvals and stmt[j + 1].val == "(":
                    end = skip_balanced(stmt, j + 1, "(", ")")
                    if end < nvals and stmt[end].val in (".", "->"):
                        j = end  # chained: result is consumed further
                        call_name = None
                        continue
                    if end < nvals:
                        return  # trailing operators: not a bare call
                    call_name = t.val
                    break
                j += 1
            elif t.val in (".", "->", "::"):
                j += 1
            else:
                return
        if call_name is None:
            return
        if call_name == "Pin":
            self.finding(path, stmt[0].line, "escaping-pin",
                         "Pin() result discarded: the page is unpinned "
                         "again before use")
            return
        if call_name in self.status_funcs and \
                call_name not in self.nonstatus_funcs:
            self.finding(
                path, stmt[0].line, "discarded-status",
                f"return value of {call_name}() (Status/Result) is "
                f"discarded; handle it, wrap it in SSAGG_RETURN_NOT_OK, or "
                f"cast to (void) with a reason")

    # -- interprocedural fixpoint -------------------------------------------

    def interprocedural(self):
        for info in self.funcs.values():
            info.trans = set(info.direct_blocking)
        changed = True
        while changed:
            changed = False
            for info in self.funcs.values():
                new = set(info.trans)
                for cand_keys, _, _, _ in info.calls:
                    for ck in cand_keys:
                        callee = self.funcs.get(ck)
                        if callee:
                            new |= callee.trans
                if new != info.trans:
                    info.trans = new
                    changed = True
        for info in self.funcs.values():
            for cand_keys, held, line, path in info.calls:
                may = set()
                for ck in cand_keys:
                    callee = self.funcs.get(ck)
                    if callee:
                        may |= callee.trans
                lock_checks = self.in_lock_dirs(path)
                for lock in sorted(may):
                    for h, _, _h_try in held:
                        if h == lock:
                            continue
                        self.edges.append((h, lock, path, line, False))
                        if not lock_checks:
                            continue
                        hr, ar = self.rank_of(h), self.rank_of(lock)
                        if hr is None or ar is None:
                            continue
                        if ar <= hr:
                            self.finding(
                                path, line, "lock-order",
                                f"call may blocking-acquire {lock} (rank "
                                f"{ar}) while holding {h} (rank {hr}); the "
                                f"hierarchy requires strictly increasing "
                                f"ranks (scripts/lock_hierarchy.txt)")

    # -- mutex construction-site checks -------------------------------------

    def check_mutex_decls(self, enum_values):
        for d in self.mutex_decls:
            if not self.in_lock_dirs(d.file):
                continue
            if d.rank_enum is None or d.name is None:
                self.finding(
                    d.file, d.line, "lock-rank-missing",
                    f"{d.mutex_type} {d.member} constructed without a "
                    f"LockRank; long-lived locks must name a rank from "
                    f"scripts/lock_hierarchy.txt")
                continue
            spec_rank = self.spec.get(d.name)
            enum_rank = enum_values.get(d.rank_enum)
            if spec_rank is None:
                self.finding(d.file, d.line, "lock-rank-mismatch",
                             f"lock name {d.name!r} not in the hierarchy "
                             f"spec")
            elif enum_rank is None:
                self.finding(d.file, d.line, "lock-rank-mismatch",
                             f"LockRank::{d.rank_enum} not defined in the "
                             f"LockRank enum")
            elif spec_rank != enum_rank:
                self.finding(
                    d.file, d.line, "lock-rank-mismatch",
                    f"{d.name}: spec says rank {spec_rank} but "
                    f"LockRank::{d.rank_enum} = {enum_rank}")

    def check_guarded_fields(self):
        for (cls, field), accesses in sorted(self.field_accesses.items()):
            meta = self.class_fields.get(cls, {}).get(field)
            if meta is None or meta["guarded"] or meta["atomic"] or \
                    meta["const"]:
                continue
            # Synchronization primitives are never data guarded by another
            # lock: waiting on a CondVar requires the mutex, but notifying
            # does not, and the guarded-field inference cannot see that.
            if self.member_types.get((cls, field)) in (
                    "Mutex", "SharedMutex", "CondVar", "mutex",
                    "shared_mutex", "condition_variable",
                    "condition_variable_any"):
                continue
            outside = [a for a in accesses if not a[0] and not a[1]]
            under = [a for a in accesses if a[0]]
            if not outside and len(under) >= 2:
                self.finding(
                    meta["file"], meta["line"], "guarded-field",
                    f"{cls}::{field} is only ever accessed with a lock held "
                    f"but is not annotated SSAGG_GUARDED_BY")

    # -- driver ---------------------------------------------------------------

    def run(self, enum_path, list_edges=False):
        spec, spec_findings = parse_spec(self.spec_path)
        self.spec = spec
        for path, line, check, msg in spec_findings:
            self.finding(path, line, check, msg)
        enum_values = {}
        if os.path.exists(enum_path):
            enum_values = parse_lock_rank_enum(enum_path)
            by_rank = {val: k for k, val in enum_values.items()
                       if k != "kUnranked"}
            for name, rank in sorted(spec.items()):
                if rank not in by_rank:
                    self.finding(self.spec_path, 1, "lock-rank-mismatch",
                                 f"spec rank {rank} ({name}) has no LockRank "
                                 f"enum value")
            for val, k in sorted(by_rank.items()):
                if val not in spec.values():
                    self.finding(enum_path, 1, "lock-rank-mismatch",
                                 f"LockRank::{k} = {val} has no entry in the "
                                 f"hierarchy spec")

        all_files = self.collect(sorted(set(self.lock_dirs) |
                                        set(self.flow_dirs)))
        token_cache = {}
        for path in all_files:
            text = open(path, encoding="utf-8", errors="replace").read()
            token_cache[path] = tokenize(text)
            self.check_lines(path, text)
        for path in all_files:
            self.scan_declarations(path, token_cache[path])
        self.check_mutex_decls(enum_values)
        for path in all_files:
            self.scan_bodies(path, token_cache[path], flow_checks=True,
                             lock_checks=self.in_lock_dirs(path))
        self.interprocedural()
        self.check_guarded_fields()

        if list_edges:
            seen = set()
            for h, a, f, line, via_try in sorted(
                    self.edges, key=lambda e: (e[0], e[1], not e[4])):
                key = (h, a, via_try)
                if key in seen:
                    continue
                seen.add(key)
                kind = "try" if via_try else "block"
                rel = os.path.relpath(f, self.root)
                print(f"edge {h} -> {a} [{kind}] first at {rel}:{line}")
        return self.findings


# ---------------------------------------------------------------------------
# Optional libclang front-end probe
# ---------------------------------------------------------------------------


def have_libclang():
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Self-test over the canary corpus
# ---------------------------------------------------------------------------


def self_test(root):
    canary_dir = os.path.join(root, "scripts", "canaries")
    spec = os.path.join(canary_dir, "lock_hierarchy.txt")
    enum_path = os.path.join(canary_dir, "lock_rank_canary.h")
    analyzer = Analyzer(canary_dir, spec, ["."], ["."])
    findings = analyzer.run(enum_path)
    expected = set()
    for base, _, names in os.walk(canary_dir):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(base, name)
            for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
                for m in re.finditer(r"CANARY\(([a-z-]+)\)", line):
                    expected.add((os.path.relpath(path, canary_dir), lineno,
                                  m.group(1)))
    got = {(f, l, c) for f, l, c, _ in findings}
    missed = expected - got
    false_pos = got - expected
    ok = True
    for f, l, c in sorted(missed):
        print(f"self-test: MISSED canary {f}:{l} [{c}]")
        ok = False
    for f, l, c in sorted(false_pos):
        msg = next(m for ff, ll, cc, m in findings
                   if (ff, ll, cc) == (f, l, c))
        print(f"self-test: FALSE POSITIVE {f}:{l} [{c}] {msg}")
        ok = False
    if ok:
        frontend = "libclang+tokenizer" if have_libclang() else "tokenizer"
        print(f"self-test passed: {len(expected)} canaries detected, no "
              f"false positives (front-end: {frontend})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description="ssagg project-specific static analysis")
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's parent)")
    ap.add_argument("--spec", default=None,
                    help="lock hierarchy spec (default: "
                         "scripts/lock_hierarchy.txt)")
    ap.add_argument("--self-test", action="store_true",
                    help="run against the canary corpus and verify every "
                         "planted finding is detected with no false "
                         "positives")
    ap.add_argument("--list-edges", action="store_true",
                    help="print the extracted acquired-while-holding graph")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        sys.exit(self_test(root))

    spec = args.spec or os.path.join(root, "scripts", "lock_hierarchy.txt")
    enum_path = os.path.join(root, "src", "common", "lock_rank.h")
    analyzer = Analyzer(root, spec, lock_dirs=["src"],
                        flow_dirs=["src", "tests", "bench", "examples"])
    findings = analyzer.run(enum_path, list_edges=args.list_edges)
    uniq = sorted(set(findings))
    for f, line, check, msg in uniq:
        print(f"{f}:{line}: [{check}] {msg}")
    if uniq:
        print(f"ssagg-analyze: {len(uniq)} finding(s)", file=sys.stderr)
        sys.exit(1)
    print("ssagg-analyze: clean")


if __name__ == "__main__":
    main()
