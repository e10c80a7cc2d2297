#!/usr/bin/env python3
"""eclipse-lint: AST-level static analysis for EclipseMR project invariants.

Enforces rules the Clang thread-safety analysis and clang-tidy cannot
express (docs/static-analysis.md has the full catalog):

  mutex-rank       every eclipse::Mutex construction names a Rank:: constant
                   and a string name
  lock-order       no MutexLock whose rank is <= an enclosing MutexLock's
                   rank on a straight-line path through one function
  blocking-call    no blocking call (Transport::Call, net::CallWithRetry,
                   sleep_for/sleep_until, thread join) while holding a
                   non-leaf lock (rank < leaf_rank_floor)
  std-mutex        no std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock / std::condition_variable outside
                   src/common (everything else uses the ranked wrappers)
  hotpath-new      no `new` expressions in ECLIPSE_HOT_PATH functions
  hotpath-pushback no push_back/emplace_back without a reserve() in the same
                   ECLIPSE_HOT_PATH function
  hotpath-tostring no std::to_string in ECLIPSE_HOT_PATH functions
  hotpath-required the data-path functions in HOT_PATH_REQUIRED must carry
                   the ECLIPSE_HOT_PATH annotation (so renames/rewrites
                   cannot silently drop the zero-alloc enforcement)
  manifest-*       src/common/lock_rank.h, tools/lock_hierarchy.json, the
                   rank table in docs/static-analysis.md, and every Mutex
                   declaration in the tree must agree

Engines:
  clang  libclang over the CMake compile database (precise; used in CI,
         where python3-clang is installed)
  text   dependency-free lexer/scope-tracker fallback (runs anywhere; this
         is also what the ctest `eclipse_lint_tree` check runs)
  auto   clang when importable, else text (default)

Suppression: append `// eclipse-lint: allow(<rule>)` (or allow(all)) to the
offending line or the line above it.

Exit codes: 0 clean, 1 findings, 2 tool error.
"""

import argparse
import bisect
import json
import os
import re
import sys

REPO_RULES = [
    "mutex-rank",
    "lock-order",
    "blocking-call",
    "std-mutex",
    "hotpath-new",
    "hotpath-pushback",
    "hotpath-tostring",
    "hotpath-required",
    "manifest",
]

# Functions on the per-record data path (docs/performance.md). Each must be
# declared with ECLIPSE_HOT_PATH at the definition matched by `pattern`; the
# hot-path rules above then keep them allocation-free. If a signature changes,
# update the pattern here in the same commit.
HOT_PATH_REQUIRED = [
    {"file": "src/mr/shuffle.cc",
     "pattern": r"Status\s+ShuffleWriter::Add\s*\("},
    {"file": "src/mr/shuffle.cc",
     "pattern": r"std::size_t\s+RouteToRange\s*\("},
    {"file": "src/mr/shuffle.h",
     "pattern": r"bool\s+ForEachGroupViews\s*\("},
    {"file": "src/mr/shuffle.cc",
     "pattern": r"void\s+ChainByKey\s*\("},
    {"file": "src/common/arena.h",
     "pattern": r"void\*\s+Allocate\s*\("},
    {"file": "src/common/arena.h",
     "pattern": r"std::string_view\s+CopyString\s*\("},
]

# Calls that may block indefinitely (RPCs, sleeps, joins). CondVar::wait on
# the *held* lock is the sanctioned wait primitive and is not listed.
BLOCKING_PATTERNS = [
    (re.compile(r"[.>]\s*Call\s*\("), "Transport::Call"),
    (re.compile(r"\bCallWithRetry\s*\("), "net::CallWithRetry"),
    (re.compile(r"\bsleep_for\s*\("), "sleep_for"),
    (re.compile(r"\bsleep_until\s*\("), "sleep_until"),
    (re.compile(r"[.>]\s*join\s*\(\s*\)"), "thread join"),
]

STD_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|condition_variable)\b"
)

ALLOW_RE = re.compile(r"eclipse-lint:\s*allow\(([a-z\-, ]+|all)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Source model: comment/string-blanked text with line mapping.
# --------------------------------------------------------------------------

class Source:
    """One file: raw text plus a `code` view where comments and the contents
    of string/char literals are replaced by spaces (structure and newlines
    preserved, so offsets and line numbers are shared with the raw text)."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.code = _blank_noncode(self.raw)
        self._line_starts = [0]
        for i, ch in enumerate(self.raw):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def line_of(self, offset):
        return bisect.bisect_right(self._line_starts, offset)

    def line_text(self, lineno):
        start = self._line_starts[lineno - 1]
        end = self.raw.find("\n", start)
        return self.raw[start:] if end == -1 else self.raw[start:end]

    def suppressed(self, lineno, rule):
        for ln in (lineno, lineno - 1):
            if ln < 1 or ln > len(self._line_starts):
                continue
            m = ALLOW_RE.search(self.line_text(ln))
            if m:
                allowed = {r.strip() for r in m.group(1).split(",")}
                if "all" in allowed or rule in allowed:
                    return True
        return False


def _blank_noncode(text):
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def _brace_intervals(code):
    """All {...} intervals as (open_offset, close_offset), innermost
    resolvable by smallest containing interval."""
    stack, intervals = [], []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            intervals.append((stack.pop(), i))
    return intervals


def _innermost(intervals, offset):
    best = None
    for a, b in intervals:
        if a < offset < b and (best is None or (b - a) < (best[1] - best[0])):
            best = (a, b)
    return best


# --------------------------------------------------------------------------
# Hierarchy model: enum header + manifest + declarations.
# --------------------------------------------------------------------------

ENUM_ENTRY_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)\s*,")
LEAF_FLOOR_RE = re.compile(r"kLeafRankFloor\s*=\s*(\d+)")
# `Mutex name [ATTR(...)...] {Rank::kX, "string"};` — attributes optional,
# initializer may span lines. MutexLock and type uses are excluded below.
MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*((?:(?:ACQUIRED_AFTER|ACQUIRED_BEFORE|GUARDED_BY)"
    r"\s*\([^)]*\)\s*)*)(\{[^{}]*\})?\s*;",
    re.S,
)
RANK_REF_RE = re.compile(r"Rank::k(\w+)")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+(\w+)\s*[({]\s*([^;)}]*?)\s*[)}]\s*;")
HOT_PATH_RE = re.compile(r"\bECLIPSE_HOT_PATH\b")


class Hierarchy:
    def __init__(self, root):
        self.root = root
        self.errors = []
        self.enum = {}       # rank name -> value (from lock_rank.h)
        self.leaf_floor = None
        self.manifest = None
        enum_path = os.path.join(root, "src/common/lock_rank.h")
        manifest_path = os.path.join(root, "tools/lock_hierarchy.json")
        try:
            enum_src = Source(enum_path, "src/common/lock_rank.h")
        except OSError as e:
            self.errors.append(f"cannot read {enum_path}: {e}")
            return
        for m in ENUM_ENTRY_RE.finditer(enum_src.code):
            self.enum["k" + m.group(1)] = int(m.group(2))
        fm = LEAF_FLOOR_RE.search(enum_src.code)
        self.leaf_floor = int(fm.group(1)) if fm else None
        try:
            with open(manifest_path, "r", encoding="utf-8") as f:
                self.manifest = json.load(f)
        except (OSError, ValueError) as e:
            self.errors.append(f"cannot load {manifest_path}: {e}")

    def rank_value(self, rank_name):
        return self.enum.get(rank_name)


def check_manifest(h, root, decls, full_tree=True):
    """Cross-check enum <-> manifest <-> docs <-> source declarations.
    Declaration-coverage checks only run over the full tree (`full_tree`),
    never against a partial explicit file list."""
    findings = []

    def err(msg):
        findings.append(Finding("tools/lock_hierarchy.json", 1, "manifest", msg))

    if h.manifest is None or not h.enum:
        for e in h.errors:
            err(e)
        return findings

    man_ranks = {e["rank"]: e for e in h.manifest.get("ranks", [])}

    # 1. enum <-> manifest: same names, same values, strictly increasing.
    for name, value in sorted(h.enum.items(), key=lambda kv: kv[1]):
        if name not in man_ranks:
            err(f"rank {name} (={value}) is in lock_rank.h but missing from the manifest")
        elif man_ranks[name]["value"] != value:
            err(f"rank {name}: lock_rank.h says {value}, manifest says {man_ranks[name]['value']}")
    for name in man_ranks:
        if name not in h.enum:
            err(f"rank {name} is in the manifest but missing from lock_rank.h")
    values = [v for _, v in sorted(h.enum.items(), key=lambda kv: kv[1])]
    if len(set(values)) != len(values):
        err("duplicate rank values in lock_rank.h")

    # 2. leaf floor agreement.
    if h.leaf_floor != h.manifest.get("leaf_rank_floor"):
        err(f"leaf_rank_floor mismatch: lock_rank.h kLeafRankFloor={h.leaf_floor}, "
            f"manifest leaf_rank_floor={h.manifest.get('leaf_rank_floor')}")

    # 3. every production manifest entry has >= 1 source declaration using
    #    its rank, and every source declaration's rank exists.
    if full_tree:
        used_ranks = {}
        for d in decls:
            used_ranks.setdefault(d["rank"], []).append(d)
        for name, entry in man_ranks.items():
            if name in ("kTest", "kScratch"):
                continue
            if name not in used_ranks:
                err(f"manifest rank {name} ({entry['mutex']}) has no Mutex declaration using it")
            else:
                files = {d["src"].rel for d in used_ranks[name]}
                if entry["file"] not in files:
                    err(f"manifest rank {name} says its mutex lives in {entry['file']}, "
                        f"but declarations using it are in {sorted(files)}")

    # 4. docs table: every rank name + value appears in docs/static-analysis.md.
    docs_rel = h.manifest.get("docs", "docs/static-analysis.md")
    docs_path = os.path.join(root, docs_rel)
    try:
        with open(docs_path, "r", encoding="utf-8") as f:
            docs = f.read()
    except OSError as e:
        err(f"cannot read {docs_rel}: {e}")
        return findings
    for name, value in h.enum.items():
        row_re = re.compile(rf"\b{re.escape(name)}\b.*\b{value}\b|\b{value}\b.*\b{re.escape(name)}\b")
        if not any(row_re.search(line) for line in docs.splitlines()):
            err(f"docs table out of date: {docs_rel} has no row pairing {name} with {value} "
                f"(regenerate with tools/eclipse_lint.py --print-docs-table)")
    return findings


def docs_table(h):
    """The rank table for docs/static-analysis.md, generated from the manifest."""
    lines = [
        "| Rank | Value | Mutex | File | Notes |",
        "|------|-------|-------|------|-------|",
    ]
    for e in sorted(h.manifest["ranks"], key=lambda e: e["value"]):
        lines.append(
            f"| `{e['rank']}` | {e['value']} | `{e['mutex']}` | {e['file']} | {e['notes']} |")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Text engine.
# --------------------------------------------------------------------------

def collect_decls(sources, h, findings):
    """All Mutex declarations in the tree -> [{src, line, var, rank, name}].
    Emits mutex-rank findings for unranked declarations."""
    decls = []
    for src in sources:
        for m in MUTEX_DECL_RE.finditer(src.code):
            var, init = m.group(1), m.group(3)
            # Exclude words that merely end in Mutex (none today) and the
            # wrapper definition itself.
            if src.rel == "src/common/mutex.h" and var in ("mu_",):
                continue
            line = src.line_of(m.start())
            rank_m = RANK_REF_RE.search(init or "")
            if not rank_m:
                if not src.suppressed(line, "mutex-rank"):
                    findings.append(Finding(
                        src.rel, line, "mutex-rank",
                        f"Mutex `{var}` is constructed without a rank — declare it as "
                        f'`Mutex {var}{{Rank::<kBand>, "<Owner::{var}>"}}` '
                        f"(see tools/lock_hierarchy.json)"))
                continue
            rank = "k" + rank_m.group(1)
            if rank not in h.enum:
                findings.append(Finding(
                    src.rel, line, "mutex-rank",
                    f"Mutex `{var}` uses Rank::{rank}, which is not in src/common/lock_rank.h"))
                continue
            # The name string lives in the raw text (blanked in code view).
            name_m = re.search(r'"([^"]*)"', src.raw[m.start():m.end() + 160])
            decls.append({
                "src": src, "line": line, "var": var, "rank": rank,
                "value": h.enum[rank],
                "name": name_m.group(1) if name_m else "",
            })
    return decls


def _decl_index(decls):
    """var name -> list of decls, plus (file stem, var) -> decls for
    same-module resolution."""
    by_var, by_stem_var = {}, {}
    for d in decls:
        by_var.setdefault(d["var"], []).append(d)
        stem = os.path.splitext(os.path.basename(d["src"].rel))[0]
        by_stem_var.setdefault((stem, d["var"]), []).append(d)
    return by_var, by_stem_var


def resolve_lock_target(expr, src, by_var, by_stem_var):
    """Rank value of the mutex named by a MutexLock ctor argument, or None.

    `expr` is e.g. `mu_`, `state->mu`, `s.mu`, `*log->mu`. We take the
    trailing identifier and resolve it (a) uniquely across the tree, else
    (b) uniquely within this file's module (same basename stem, .h/.cc
    pair). Ambiguous targets are skipped — the clang engine resolves them
    precisely through the AST."""
    m = re.search(r"(\w+)\s*$", expr)
    if not m:
        return None
    var = m.group(1)
    cands = by_var.get(var, [])
    if len(cands) == 1:
        return cands[0]
    stem = os.path.splitext(os.path.basename(src.rel))[0]
    local = by_stem_var.get((stem, var), [])
    if len(local) == 1:
        return local[0]
    return None


def scan_file_text(src, h, decls_index, findings):
    by_var, by_stem_var = decls_index
    code = src.code
    intervals = _brace_intervals(code)

    # Active MutexLock scopes: (end_offset, rank_value, var, target_decl).
    locks = []
    for m in MUTEXLOCK_RE.finditer(code):
        scope = _innermost(intervals, m.start())
        end = scope[1] if scope else len(code)
        target = resolve_lock_target(m.group(2), src, by_var, by_stem_var)
        locks.append((m.start(), end, m.group(1), m.group(2), target))

    # lock-order: a lock constructed inside another's scope must have a
    # strictly greater rank.
    for (s1, e1, v1, _t1, d1) in locks:
        if d1 is None:
            continue
        for (s2, _e2, v2, _t2, d2) in locks:
            if d2 is None or s2 <= s1 or s2 >= e1:
                continue
            if d2["value"] <= d1["value"]:
                line = src.line_of(s2)
                if not src.suppressed(line, "lock-order"):
                    findings.append(Finding(
                        src.rel, line, "lock-order",
                        f"MutexLock {v2} acquires \"{d2['name']}\" (rank {d2['value']}) "
                        f"inside the scope of {v1} holding \"{d1['name']}\" "
                        f"(rank {d1['value']}); ranks must strictly increase inward"))

    # blocking-call: no blocking call inside a non-leaf lock's scope.
    leaf_floor = h.leaf_floor if h.leaf_floor is not None else 900
    nonleaf = [(s, e, v, d) for (s, e, v, _t, d) in locks
               if d is not None and d["value"] < leaf_floor]
    for pat, what in BLOCKING_PATTERNS:
        for m in pat.finditer(code):
            for (s, e, v, d) in nonleaf:
                if s < m.start() < e:
                    line = src.line_of(m.start())
                    if not src.suppressed(line, "blocking-call"):
                        findings.append(Finding(
                            src.rel, line, "blocking-call",
                            f"{what} while {v} holds non-leaf lock \"{d['name']}\" "
                            f"(rank {d['value']} < leaf floor {leaf_floor})"))
                    break

    # std-mutex: only src/common may use the raw primitives.
    if not src.rel.startswith("src/common/"):
        for m in STD_SYNC_RE.finditer(code):
            line = src.line_of(m.start())
            if not src.suppressed(line, "std-mutex"):
                findings.append(Finding(
                    src.rel, line, "std-mutex",
                    f"std::{m.group(1)} outside src/common — use the ranked "
                    f"eclipse::Mutex/MutexLock/CondVar wrappers"))

    # hot-path rules.
    for m in HOT_PATH_RE.finditer(code):
        # The annotated function's body is the next top-of-statement brace
        # after the marker (declarations without bodies have `;` first).
        body_open = code.find("{", m.end())
        semi = code.find(";", m.end())
        if body_open == -1 or (semi != -1 and semi < body_open):
            continue  # pure declaration; the definition is checked where it is
        body = _innermost(intervals, body_open + 1)
        if body is None:
            continue
        b0, b1 = body
        seg = code[b0:b1]
        has_reserve = re.search(r"\breserve\s*\(", seg) is not None
        for nm in re.finditer(r"\bnew\b", seg):
            line = src.line_of(b0 + nm.start())
            if not src.suppressed(line, "hotpath-new"):
                findings.append(Finding(
                    src.rel, line, "hotpath-new",
                    "`new` expression in an ECLIPSE_HOT_PATH function"))
        for pm in re.finditer(r"[.>]\s*(push_back|emplace_back)\s*\(", seg):
            if has_reserve:
                break
            line = src.line_of(b0 + pm.start())
            if not src.suppressed(line, "hotpath-pushback"):
                findings.append(Finding(
                    src.rel, line, "hotpath-pushback",
                    f"{pm.group(1)} without a reserve() in the same "
                    f"ECLIPSE_HOT_PATH function"))
        for tm in re.finditer(r"\bstd::to_string\s*\(", seg):
            line = src.line_of(b0 + tm.start())
            if not src.suppressed(line, "hotpath-tostring"):
                findings.append(Finding(
                    src.rel, line, "hotpath-tostring",
                    "std::to_string allocates; ECLIPSE_HOT_PATH functions may not"))


def check_hot_path_required(sources, findings):
    """Every HOT_PATH_REQUIRED entry whose file is in the scan set must have
    ECLIPSE_HOT_PATH adjacent to the matched definition. A missing pattern is
    itself a finding: it means the function was renamed without updating the
    registry (or the enforcement was dropped)."""
    by_rel = {src.rel: src for src in sources}
    for entry in HOT_PATH_REQUIRED:
        src = by_rel.get(entry["file"])
        if src is None:
            continue
        m = re.search(entry["pattern"], src.code)
        if m is None:
            findings.append(Finding(
                entry["file"], 1, "hotpath-required",
                f"no match for registered hot-path pattern {entry['pattern']!r} — "
                f"update HOT_PATH_REQUIRED in tools/eclipse_lint.py alongside the rename"))
            continue
        window = src.code[max(0, m.start() - 200):m.start()]
        if "ECLIPSE_HOT_PATH" not in window:
            line = src.line_of(m.start())
            if not src.suppressed(line, "hotpath-required"):
                findings.append(Finding(
                    entry["file"], line, "hotpath-required",
                    "data-path function must be annotated ECLIPSE_HOT_PATH "
                    "(registered in HOT_PATH_REQUIRED, tools/eclipse_lint.py)"))


def run_text_engine(root, rel_files, h):
    findings = []
    sources = []
    for rel in rel_files:
        try:
            sources.append(Source(os.path.join(root, rel), rel))
        except OSError as e:
            findings.append(Finding(rel, 1, "manifest", f"unreadable: {e}"))
    decls = collect_decls(sources, h, findings)
    idx = _decl_index(decls)
    for src in sources:
        scan_file_text(src, h, idx, findings)
    check_hot_path_required(sources, findings)
    return findings, decls


# --------------------------------------------------------------------------
# Clang (libclang) engine.
# --------------------------------------------------------------------------

def _import_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    if cindex.Config.loaded:
        return cindex
    import glob
    candidates = []
    for pat in ("libclang-*.so*", "libclang.so*", "libclang-*.dylib"):
        for d in ("/usr/lib/llvm-*/lib", "/usr/lib/x86_64-linux-gnu", "/usr/lib", "/usr/local/lib"):
            candidates.extend(sorted(glob.glob(os.path.join(d, pat)), reverse=True))
    for lib in candidates:
        try:
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            cindex.Config.loaded = False
            continue
    try:
        cindex.Index.create()  # maybe it loads with defaults after all
        return cindex
    except Exception:
        return None


def run_clang_engine(root, rel_files, h, compile_db_dir):
    """Precise engine: walks the AST of each TU in the compile database.

    Checks mutex-rank (FieldDecl/VarDecl of eclipse::Mutex without a rank
    argument), lock-order and blocking-call (lexical MutexLock scopes with
    member-resolved ranks), std-mutex (type references), and the hot-path
    rules (functions carrying the `eclipse_hot_path` annotate attribute).
    """
    cindex = _import_cindex()
    if cindex is None:
        raise RuntimeError("libclang (python3-clang) not available")
    CK = cindex.CursorKind
    findings = []
    wanted = {os.path.normpath(os.path.join(root, r)) for r in rel_files}

    try:
        db = cindex.CompilationDatabase.fromDirectory(compile_db_dir)
    except cindex.CompilationDatabaseError as e:
        raise RuntimeError(f"no compile database in {compile_db_dir}: {e}")

    index = cindex.Index.create()
    leaf_floor = h.leaf_floor if h.leaf_floor is not None else 900
    seen_decl_keys = set()   # (file, line) de-dup across TUs
    seen_files = set()

    def rel_of(cursor):
        f = cursor.location.file
        if f is None:
            return None
        p = os.path.normpath(f.name)
        if p not in wanted:
            return None
        return os.path.relpath(p, root)

    def add(cursor, rule, msg):
        rel = rel_of(cursor)
        if rel is None:
            return
        line = cursor.location.line
        key = (rel, line, rule, msg)
        if key in seen_decl_keys:
            return
        seen_decl_keys.add(key)
        try:
            src = Source(os.path.join(root, rel), rel)
            if src.suppressed(line, rule):
                return
        except OSError:
            pass
        findings.append(Finding(rel, line, rule, msg))

    def type_is(cursor_type, name):
        return cursor_type.spelling.replace("const ", "").replace("&", "").strip().endswith(name)

    def mutex_decl_rank(field_cursor):
        """Rank value from a Mutex field/var's initializer, or None."""
        for c in field_cursor.walk_preorder():
            if c.kind == CK.DECL_REF_EXPR and c.spelling.startswith("k") \
                    and c.spelling in h.enum:
                return h.enum[c.spelling]
        return None

    def check_function(fn):
        """Lexical MutexLock scopes + blocking calls + hot-path rules."""
        # Gather MutexLock var decls with (extent of enclosing compound, rank).
        lock_scopes = []  # (start_off, end_off, rank, lockvar, mutexname)

        def mutex_of_lock(vd):
            # ctor argument: MEMBER_REF_EXPR / DECL_REF_EXPR to the Mutex.
            for c in vd.walk_preorder():
                if c.kind in (CK.MEMBER_REF_EXPR, CK.DECL_REF_EXPR):
                    ref = c.referenced
                    if ref is not None and type_is(ref.type, "Mutex"):
                        return ref
            return None

        def walk(node, enclosing_compound):
            for ch in node.get_children():
                comp = ch if ch.kind == CK.COMPOUND_STMT else enclosing_compound
                if ch.kind == CK.DECL_STMT:
                    for vd in ch.get_children():
                        if vd.kind == CK.VAR_DECL and type_is(vd.type, "MutexLock"):
                            ref = mutex_of_lock(vd)
                            if ref is not None and enclosing_compound is not None:
                                rank = mutex_decl_rank(ref)
                                if rank is not None:
                                    ext = enclosing_compound.extent
                                    lock_scopes.append((
                                        vd.location.offset, ext.end.offset,
                                        rank, vd.spelling, ref.spelling, vd))
                walk(ch, comp)

        walk(fn, None)

        for (s1, e1, r1, v1, n1, _c1) in lock_scopes:
            for (s2, _e2, r2, v2, n2, c2) in lock_scopes:
                if s2 <= s1 or s2 >= e1:
                    continue
                if r2 <= r1:
                    add(c2, "lock-order",
                        f"MutexLock {v2} acquires `{n2}` (rank {r2}) inside the "
                        f"scope of {v1} holding `{n1}` (rank {r1}); ranks must "
                        f"strictly increase inward")

        nonleaf = [(s, e, r, v, n) for (s, e, r, v, n, _c) in lock_scopes
                   if r < leaf_floor]
        if nonleaf:
            for c in fn.walk_preorder():
                if c.kind != CK.CALL_EXPR:
                    continue
                callee = c.spelling or ""
                blocking = None
                if callee == "Call":
                    blocking = "Transport::Call"
                elif callee == "CallWithRetry":
                    blocking = "net::CallWithRetry"
                elif callee in ("sleep_for", "sleep_until"):
                    blocking = callee
                elif callee == "join":
                    blocking = "thread join"
                if blocking is None:
                    continue
                off = c.location.offset
                for (s, e, r, v, n) in nonleaf:
                    if s < off < e:
                        add(c, "blocking-call",
                            f"{blocking} while {v} holds non-leaf lock `{n}` "
                            f"(rank {r} < leaf floor {leaf_floor})")
                        break

        # Hot-path rules.
        is_hot = any(a.kind == CK.ANNOTATE_ATTR and a.spelling == "eclipse_hot_path"
                     for a in fn.get_children())
        if is_hot and fn.is_definition():
            has_reserve = any(
                c.kind == CK.CALL_EXPR and c.spelling == "reserve"
                for c in fn.walk_preorder())
            for c in fn.walk_preorder():
                if c.kind == CK.CXX_NEW_EXPR:
                    add(c, "hotpath-new",
                        "`new` expression in an ECLIPSE_HOT_PATH function")
                elif c.kind == CK.CALL_EXPR and c.spelling in ("push_back", "emplace_back") \
                        and not has_reserve:
                    add(c, "hotpath-pushback",
                        f"{c.spelling} without a reserve() in the same "
                        f"ECLIPSE_HOT_PATH function")
                elif c.kind == CK.CALL_EXPR and c.spelling == "to_string":
                    add(c, "hotpath-tostring",
                        "std::to_string allocates; ECLIPSE_HOT_PATH functions may not")

    def scan_tu(tu):
        for cursor in tu.cursor.walk_preorder():
            rel = rel_of(cursor)
            if rel is None:
                continue
            if rel in seen_files and cursor.kind == CK.TRANSLATION_UNIT:
                continue
            if cursor.kind in (CK.FIELD_DECL, CK.VAR_DECL) and type_is(cursor.type, "Mutex") \
                    and not type_is(cursor.type, "MutexLock"):
                if mutex_decl_rank(cursor) is None:
                    add(cursor, "mutex-rank",
                        f"Mutex `{cursor.spelling}` is constructed without a rank "
                        f"(see tools/lock_hierarchy.json)")
            elif cursor.kind in (CK.FUNCTION_DECL, CK.CXX_METHOD, CK.CONSTRUCTOR,
                                 CK.DESTRUCTOR, CK.FUNCTION_TEMPLATE) and cursor.is_definition():
                check_function(cursor)
            elif cursor.kind in (CK.TYPE_REF, CK.TEMPLATE_REF) \
                    and not rel.startswith("src/common/"):
                m = STD_SYNC_RE.search(cursor.type.spelling or cursor.spelling or "")
                if m:
                    add(cursor, "std-mutex",
                        f"std::{m.group(1)} outside src/common — use the ranked "
                        f"eclipse::Mutex/MutexLock/CondVar wrappers")

    parsed_any = False
    errors = []
    for cmd in db.getAllCompileCommands() or []:
        f = os.path.normpath(os.path.join(cmd.directory, cmd.filename))
        if f not in wanted:
            continue
        args = [a for a in list(cmd.arguments)[1:] if a not in (cmd.filename, "-c", "-o")]
        # Drop the object-file operand left after removing -o.
        args = [a for a in args if not a.endswith(".o")]
        try:
            tu = index.parse(f, args=args)
        except cindex.TranslationUnitLoadError as e:
            errors.append(f"{os.path.relpath(f, root)}: parse failed: {e}")
            continue
        parsed_any = True
        scan_tu(tu)
        for rel in rel_files:
            seen_files.add(rel)
    if not parsed_any:
        raise RuntimeError(
            "clang engine parsed no requested files (compile database mismatch?); "
            + ("; ".join(errors[:3]) if errors else "no parse errors recorded"))
    if errors:
        print(f"eclipse-lint: warning: {len(errors)} TU(s) failed to parse "
              f"(first: {errors[0]})", file=sys.stderr)
    return findings


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def default_files(root):
    rels = []
    for top in ("src", "tests", "bench", "examples"):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            if "lint_fixtures" in dirpath:
                continue  # deliberate-violation fixtures for tests/lint_selftest.py
            for fn in sorted(filenames):
                if fn.endswith((".cc", ".h", ".cpp")):
                    rels.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(rels)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to analyze (default: src, tests, bench, examples)")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--engine", choices=("auto", "clang", "text"), default="auto")
    ap.add_argument("--compile-db", default=None,
                    help="directory containing compile_commands.json (clang engine)")
    ap.add_argument("--check-manifest", action="store_true",
                    help="run only the manifest/docs/source cross-checks")
    ap.add_argument("--print-docs-table", action="store_true",
                    help="print the docs/static-analysis.md rank table and exit")
    ap.add_argument("--report", default=None, help="write findings as JSON to this file")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    h = Hierarchy(root)
    if h.errors and not h.enum:
        for e in h.errors:
            print(f"eclipse-lint: error: {e}", file=sys.stderr)
        return 2

    if args.print_docs_table:
        if h.manifest is None:
            print("eclipse-lint: error: no manifest", file=sys.stderr)
            return 2
        print(docs_table(h))
        return 0

    full_tree = not args.files
    rel_files = args.files or default_files(root)
    rel_files = [os.path.relpath(os.path.abspath(f), root) if os.path.isabs(f) else f
                 for f in rel_files]

    # Declarations and manifest checks always come from the text scan — they
    # are definitionally lexical (a rank is a construction-site token).
    findings, decls = run_text_engine(root, rel_files, h)
    findings += check_manifest(h, root, decls, full_tree=full_tree)

    engine = args.engine
    if args.check_manifest:
        engine_used = "text"
        findings = [f for f in findings if f.rule in ("manifest", "mutex-rank")]
    elif engine in ("auto", "clang"):
        db_dir = args.compile_db or os.path.join(root, "build")
        try:
            clang_findings = run_clang_engine(root, rel_files, h, db_dir)
            # The clang engine supersedes the text engine's scoped rules.
            lexical = {"mutex-rank", "manifest", "hotpath-required"}
            findings = [f for f in findings if f.rule in lexical] + clang_findings
            engine_used = "clang"
        except RuntimeError as e:
            if engine == "clang":
                print(f"eclipse-lint: error: {e}", file=sys.stderr)
                return 2
            print(f"eclipse-lint: note: clang engine unavailable ({e}); "
                  f"using the text engine", file=sys.stderr)
            engine_used = "text"
    else:
        engine_used = "text"

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump({
                "engine": engine_used,
                "files_analyzed": len(rel_files),
                "findings": [{"file": f.path, "line": f.line, "rule": f.rule,
                              "message": f.message} for f in findings],
            }, out, indent=2)
            out.write("\n")
    n = len(findings)
    print(f"eclipse-lint [{engine_used}]: {len(rel_files)} files, "
          f"{n} finding{'s' if n != 1 else ''}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
