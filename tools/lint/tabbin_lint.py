#!/usr/bin/env python3
"""tabbin_lint — repo-invariant linter for the TabBiN codebase.

Enforces repository invariants that neither the compiler nor clang-tidy
can see, because they are contracts between subsystems rather than
language rules. Each rule exists because the mistake it catches has
either happened in this repo or is one refactor away from happening.

Rules
-----
encode-under-lock
    No encoder work (EncoderEngine::Encode*/EncodeAll or the
    Serving*Embedding helpers, which run transformer forward passes)
    inside a region that holds a shard lock. Encoding under the shard
    writer lock serialized the PR-4 scatter path and is one step from
    a lock-order deadlock with the engine's single-flight mutex; the
    serving layer's contract is encode-then-lock (see
    service/shard.cc InsertBatch: forward passes run before the
    writer lock is taken).

raw-row-mutation
    A function that writes through EmbeddingMatrix::mutable_row() or
    ::data() must call RecomputeInvNorms() (or InvalidateQuantized/
    RefreshQuantized for the int8 sidecar) before it returns. The
    matrix caches one inverse norm per row plus an optional quantized
    sidecar; scoring reads the caches, not the floats, so a raw write
    without a recompute silently corrupts every subsequent score.

kernel-bypass
    No hand-rolled float reduction loops (dot / norm accumulation)
    over embedding-row pointers outside src/tensor/. All scoring math
    funnels through tensor/kernels.h so SIMD dispatch, the
    TABBIN_FORCE_SCALAR escape hatch, and the scalar/SIMD equivalence
    tests actually cover it. A bypass loop reintroduces the exact
    drift the PR-5 kernel layer was built to eliminate.

naked-new-sections
    Snapshot sections are created only through PagedSnapshotWriter/
    PagedSnapshotReader (store/paged_snapshot.*, which also defines
    the container magic). Code outside store/paged_snapshot.* must not
    re-derive the magic or hand-roll section framing; the byte format
    is frozen and re-implementations fork it.

raw-mmap
    mmap/munmap calls live only in src/store/ (MappedFile is the RAII
    owner; everything else takes a ByteSpan). A raw mapping elsewhere
    escapes the unmap/keepalive discipline — the exact use-after-unmap
    and truncation-SIGBUS classes the store layer exists to contain —
    and silently skips the read-into-buffer fallback for platforms and
    filesystems where mmap fails.

unbounded-exec-queue
    Executor work is staged ONLY in exec/bounded_queue.h's
    BoundedQueue, whose TryEnqueue sheds overload with
    ResourceExhausted at admission. A raw std::queue/deque/list —
    anywhere in src/exec/, or holding executor Jobs anywhere — grows
    without bound under overload, so the backlog (and every queued
    request's tail latency) climbs until timeouts cascade; that is the
    exact failure mode the admission-controlled executor exists to
    prevent.

test-seam-in-src
    No *ForTesting / *ForTest hooks outside tests/. A test seam in
    production code costs every production call: the executor's pause
    hook made its dispatcher poll every 10 ms and check an atomic before
    each dequeue, only so that tests could park it. Tests drive the
    program through its public interfaces instead (tests/exec_test.cc
    holds the dispatcher with a wrapping TabBinServing).

Suppression
-----------
Findings are suppressed with an explicit, rule-scoped marker on the
same line or the line directly above:

    // tabbin-lint: allow(encode-under-lock)

A file-level opt-out (for fixtures and generated code) goes anywhere
in the first 10 lines:

    // tabbin-lint: allow-file(raw-row-mutation)

Exit codes: 0 clean, 1 findings, 2 usage/IO error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule metadata
# --------------------------------------------------------------------------

RULES = {
    "encode-under-lock": (
        "encoder forward pass inside a shard-lock region "
        "(contract: encode-then-lock)"
    ),
    "raw-row-mutation": (
        "raw embedding-row write without RecomputeInvNorms/sidecar refresh "
        "in the same function"
    ),
    "kernel-bypass": (
        "hand-rolled float reduction over embedding data outside "
        "src/tensor/ (use tensor/kernels.h)"
    ),
    "naked-new-sections": (
        "snapshot container magic / section framing re-derived outside "
        "store/paged_snapshot.*"
    ),
    "raw-mmap": (
        "raw mmap/munmap outside src/store/ (use store/mapped_file.h)"
    ),
    "unbounded-exec-queue": (
        "executor work staged in a raw unbounded FIFO instead of the "
        "admission-controlled BoundedQueue (exec/bounded_queue.h)"
    ),
    "index-distance-bypass": (
        "hand-rolled float distance loop in index-layer code "
        "(src/index/ computes every distance through "
        "EmbeddingMatrix::CosineRows / tensor/kernels.h)"
    ),
    "test-seam-in-src": (
        "test-only hook (*ForTesting / *ForTest) outside tests/ "
        "(drive tests through a public interface)"
    ),
}

# Files a rule never applies to (the rule polices *callers* of these
# subsystems, not their implementations).
RULE_EXCLUDES = {
    "encode-under-lock": [
        # The engine's own implementation runs encodes while touching
        # its cache mutex bookkeeping (never while *holding* it, but
        # lexical analysis cannot tell the difference from inside).
        "src/core/encoder_engine.cc",
    ],
    "raw-row-mutation": [
        # The matrix implements the cache; it writes rows by design.
        "src/tensor/embedding_matrix.h",
        "src/tensor/embedding_matrix.cc",
    ],
    "kernel-bypass": [
        # The kernel layer and elementwise tensor ops are the one
        # sanctioned home for raw float loops.
        "src/tensor/",
    ],
    "naked-new-sections": [
        # The container itself defines the TBSN magic and framing.
        "src/store/paged_snapshot.h",
        "src/store/paged_snapshot.cc",
    ],
    "raw-mmap": [
        # The store layer IS the sanctioned mmap owner.
        "src/store/",
    ],
    "unbounded-exec-queue": [
        # BoundedQueue itself stores items in a std::deque — behind a
        # fixed capacity check; it IS the sanctioned staging container.
        "src/exec/bounded_queue.h",
    ],
    "test-seam-in-src": [
        "tests/",
    ],
}

ALLOW_RE = re.compile(r"tabbin-lint:\s*allow\(([a-z0-9-]+)\)")
ALLOW_FILE_RE = re.compile(r"tabbin-lint:\s*allow-file\(([a-z0-9-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------------
# Source model: strip comments/strings, keep line structure
# --------------------------------------------------------------------------

def strip_code(text):
    """Returns code with comments and string/char literals blanked
    (replaced by spaces), preserving offsets and newlines so line
    numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j, n - 1)
            out.append(" " * (j + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_functions(code_lines):
    """Yields (start_line, end_line) 1-based inclusive ranges that
    approximate function bodies: a line containing ')' followed by '{'
    (or 'try {' / '-> T {') opens a body tracked by brace depth from
    depth 0/1 (namespace/class tolerated via heuristic).

    This is a lexical approximation — good enough for the invariants
    here, which are all 'within one function body' properties."""
    ranges = []
    depth = 0
    body_open_depth = None
    body_start = None
    for idx, line in enumerate(code_lines, start=1):
        for ch in line:
            if ch == "{":
                if body_open_depth is None and _looks_like_fn_open(
                        code_lines, idx):
                    body_open_depth = depth
                    body_start = idx
                depth += 1
            elif ch == "}":
                depth -= 1
                if body_open_depth is not None and depth == body_open_depth:
                    ranges.append((body_start, idx))
                    body_open_depth = None
    return ranges


_FN_OPEN_RE = re.compile(r"\)\s*(const)?\s*(noexcept)?\s*(->\s*[\w:<>,&*\s]+)?\s*\{")
_CTRL_RE = re.compile(r"\b(if|for|while|switch|catch|return)\s*\(")


def _looks_like_fn_open(code_lines, idx):
    """True if the '{' on line idx plausibly opens a function body:
    a ')' precedes it on this or the previous two lines, and the
    nearest '(' is not a control-flow keyword's."""
    window = " ".join(code_lines[max(0, idx - 3):idx])
    if not _FN_OPEN_RE.search(window):
        return False
    # A control-flow '(' directly before the '{' means this is a block,
    # not a function body — but only if no ')({' of a lambda intervenes.
    tail = window[window.rfind("("):] if "(" in window else window
    del tail
    last = None
    for m in _CTRL_RE.finditer(window):
        last = m
    if last is not None and window.rfind(")") > last.start():
        # The closing paren after the keyword belongs to the control
        # expression; treat as block unless a ';' separates them.
        between = window[last.end():]
        if "{" in between and ";" not in between:
            return False
    return True


# --------------------------------------------------------------------------
# Lock-region tracking
# --------------------------------------------------------------------------

LOCK_GUARD_RE = re.compile(
    r"\b(?:WriterMutexLock|ReaderMutexLock|MutexLock|"
    r"std::lock_guard\s*<[^>]*>|std::unique_lock\s*<[^>]*>|"
    r"std::shared_lock\s*<[^>]*>|std::scoped_lock\b[^;(]*)"
    r"\s+\w+\s*[({]")
LOCKED_FN_RE = re.compile(r"\b\w*Locked\s*\(")


def locked_line_mask(code_lines, fn_ranges):
    """Returns a bool per line: True if that line is (lexically) inside
    a region that holds a lock — either below an RAII guard declaration
    within the same brace scope, or anywhere inside a *Locked()
    function body (those require the caller to hold the lock)."""
    n = len(code_lines)
    mask = [False] * n

    # *Locked function bodies: the whole body counts as locked.
    for (start, end) in fn_ranges:
        header = " ".join(code_lines[max(0, start - 3):start])
        if re.search(r"\b\w+Locked\s*\(", header):
            for i in range(start - 1, end):
                mask[i] = True

    # RAII guards: from the declaration to the end of its brace scope.
    depth = 0
    guard_depths = []  # brace depths at which a guard is active
    for idx, line in enumerate(code_lines):
        if LOCK_GUARD_RE.search(line):
            guard_depths.append(depth)
        if guard_depths:
            mask[idx] = True
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while guard_depths and depth <= guard_depths[-1]:
                    guard_depths.pop()
        if guard_depths:
            mask[idx] = True
    return mask


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

ENCODE_CALL_RE = re.compile(
    r"(?:\bengine_?->|\bengine_?\.|\bEncoderEngine::|->|\.)?"
    r"\b(Encode|EncodeBatch|EncodeAll|ServingColumnEmbedding|"
    r"ServingTableEmbedding|ServingEntityEmbedding)\s*\(")


def rule_encode_under_lock(path, code_lines, fn_ranges, mask):
    findings = []
    for idx, line in enumerate(code_lines):
        if not mask[idx]:
            continue
        m = ENCODE_CALL_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "encode-under-lock",
                "'%s' runs encoder forward passes; call it before "
                "taking the shard lock (encode-then-lock)" % m.group(1)))
    return findings


MUTATE_RE = re.compile(r"\b(?:mutable_row|(?<!\.)data)\s*\(\s*[^)]*\)\s*"
                       r"(?:\[[^\]]*\]\s*)?=[^=]")
MUTATE_CALL_RE = re.compile(r"\bmutable_row\s*\(")
RECOMPUTE_RE = re.compile(
    r"\b(RecomputeInvNorms|InvalidateQuantized|RefreshQuantized|"
    r"RecomputeRow)\s*\(")


def rule_raw_row_mutation(path, code_lines, fn_ranges, mask):
    findings = []
    for (start, end) in fn_ranges:
        body = code_lines[start - 1:end]
        mut_line = None
        for off, line in enumerate(body):
            if MUTATE_CALL_RE.search(line) or MUTATE_RE.search(line):
                mut_line = start + off
                break
        if mut_line is None:
            continue
        if any(RECOMPUTE_RE.search(line) for line in body):
            continue
        findings.append(Finding(
            path, mut_line, "raw-row-mutation",
            "embedding rows written without RecomputeInvNorms()/sidecar "
            "refresh in the same function; cached norms (and any int8 "
            "sidecar) now disagree with the floats"))
    return findings


FLOAT_ACC_DECL_RE = re.compile(r"\b(float|double)\s+(\w*(?:sum|acc|dot|norm|prod)\w*)\s*=\s*0")
ROW_PTR_RE = re.compile(r"\b(row|vec|\w*_vecs_?\.row)\s*\(")


def rule_kernel_bypass(path, code_lines, fn_ranges, mask):
    """Flags `float acc = 0; for(...) acc += a[i] * b[i];`-shaped
    reductions in functions that touch embedding-row accessors."""
    findings = []
    for (start, end) in fn_ranges:
        body = code_lines[start - 1:end]
        text = "\n".join(body)
        if not ROW_PTR_RE.search(text):
            continue
        for off, line in enumerate(body):
            m = FLOAT_ACC_DECL_RE.search(line)
            if not m:
                continue
            acc = m.group(2)
            # accumulation of an element product over the next lines
            tail = "\n".join(body[off:off + 8])
            if re.search(re.escape(acc) +
                         r"\s*\+=\s*[^;]*\[[^\]]+\]\s*\*\s*[^;]*\[[^\]]+\]",
                         tail):
                findings.append(Finding(
                    path, start + off, "kernel-bypass",
                    "hand-rolled '%s' reduction over embedding rows; "
                    "use kernels::Dot/DotBatch (tensor/kernels.h) so "
                    "SIMD dispatch and TABBIN_FORCE_SCALAR cover it"
                    % acc))
                break
    return findings


MAGIC_RE = re.compile(r"0x4E534254|0x5442534E|\"TBSN\"|'TBSN'")
SECTION_FRAME_RE = re.compile(
    r"Write(?:U32|U64)\s*\(\s*(?:kSnapshotMagic|0x4E534254)")


def rule_naked_new_sections(path, code_lines, fn_ranges, mask):
    findings = []
    for idx, line in enumerate(code_lines):
        if MAGIC_RE.search(line) or SECTION_FRAME_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "naked-new-sections",
                "snapshot container magic re-derived; go through "
                "PagedSnapshotWriter::AddSection / "
                "PagedSnapshotReader::Section (store/paged_snapshot.h) "
                "— the byte format is frozen"))
    return findings


MMAP_RE = re.compile(r"\b(mmap|mmap64|munmap)\s*\(")


def rule_raw_mmap(path, code_lines, fn_ranges, mask):
    findings = []
    for idx, line in enumerate(code_lines):
        m = MMAP_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "raw-mmap",
                "raw '%s' outside src/store/; go through MappedFile "
                "(store/mapped_file.h) so unmap lifetime, keepalives, "
                "and the no-mmap fallback stay in one place"
                % m.group(1)))
    return findings


UNBOUNDED_QUEUE_RE = re.compile(
    r"\bstd::(queue|deque|priority_queue|list)\s*<([^;{]*)>")


def rule_unbounded_exec_queue(path, code_lines, fn_ranges, mask):
    """Raw FIFO containers are forbidden throughout src/exec/ (where
    every staged item is executor work) and, anywhere else, when the
    element type is the executor's Job."""
    in_exec = path.startswith("src/exec/")
    findings = []
    for idx, line in enumerate(code_lines):
        m = UNBOUNDED_QUEUE_RE.search(line)
        if not m:
            continue
        if in_exec or re.search(r"\bJob\b", m.group(2)):
            findings.append(Finding(
                path, idx + 1, "unbounded-exec-queue",
                "raw std::%s can grow without bound under overload; "
                "stage executor work in BoundedQueue "
                "(exec/bounded_queue.h) so TryEnqueue sheds the excess "
                "with ResourceExhausted at admission" % m.group(1)))
    return findings


INDEX_PATH_RE = re.compile(r"(^|/)index[/_]")
ANY_ACC_DECL_RE = re.compile(r"\b(float|double)\s+(\w+)\s*=\s*0")
ELEM_PRODUCT_RE_TMPL = (r"\s*\+=\s*[^;]*\[[^\]]+\][^;]*\*\s*[^;]*\[[^\]]+\]")
INNER_PRODUCT_RE = re.compile(r"\bstd::inner_product\s*\(")


def rule_index_distance_bypass(path, code_lines, fn_ranges, mask):
    """The index layer's contract is that EVERY distance evaluation is
    a batched kernel call (EmbeddingMatrix::CosineRows, i.e.
    kernels::BatchedCosineRows) — one scalar drift between a graph
    walk's distances and the exact rerank's distances and candidate
    sets stop being reproducible across dispatch levels. Unlike
    kernel-bypass (which polices embedding-row callers everywhere and
    keys on conventional accumulator names), this rule covers
    index-layer sources and flags ANY accumulated element-product
    loop, whatever the accumulator is called, plus std::inner_product."""
    if not INDEX_PATH_RE.search(path):
        return []
    findings = []
    for idx, line in enumerate(code_lines):
        if INNER_PRODUCT_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "index-distance-bypass",
                "std::inner_product in index code; distances go "
                "through EmbeddingMatrix::CosineRows so SIMD "
                "dispatch, TABBIN_FORCE_SCALAR, and bit-determinism "
                "cover the graph walk"))
    for (start, end) in fn_ranges:
        body = code_lines[start - 1:end]
        for off, line in enumerate(body):
            m = ANY_ACC_DECL_RE.search(line)
            if not m:
                continue
            acc = m.group(2)
            tail = "\n".join(body[off:off + 8])
            if re.search(re.escape(acc) + ELEM_PRODUCT_RE_TMPL, tail):
                findings.append(Finding(
                    path, start + off, "index-distance-bypass",
                    "hand-rolled '%s' distance reduction in index "
                    "code; use EmbeddingMatrix::CosineRows (one "
                    "batched kernel call per neighbor expansion) so "
                    "walk distances match the exact rerank bit for "
                    "bit" % acc))
                break
    return findings


TEST_SEAM_RE = re.compile(r"\b(\w+For(?:Testing|Test))\b")


def rule_test_seam_in_src(path, code_lines, fn_ranges, mask):
    findings = []
    for idx, line in enumerate(code_lines):
        m = TEST_SEAM_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "test-seam-in-src",
                "test-only hook '%s' outside tests/; every production "
                "call pays for the seam — drive the behavior from tests "
                "through a public interface (e.g. a wrapping "
                "TabBinServing) instead" % m.group(1)))
    return findings


RULE_FNS = {
    "encode-under-lock": rule_encode_under_lock,
    "raw-row-mutation": rule_raw_row_mutation,
    "kernel-bypass": rule_kernel_bypass,
    "naked-new-sections": rule_naked_new_sections,
    "raw-mmap": rule_raw_mmap,
    "unbounded-exec-queue": rule_unbounded_exec_queue,
    "index-distance-bypass": rule_index_distance_bypass,
    "test-seam-in-src": rule_test_seam_in_src,
}


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_file(path, rel, raw_text):
    raw_lines = raw_text.splitlines()
    code = strip_code(raw_text)
    code_lines = code.splitlines()
    # Pad so raw/code line counts agree even on trailing edge cases.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    file_allows = set()
    for line in raw_lines[:10]:
        m = ALLOW_FILE_RE.search(line)
        if m:
            file_allows.add(m.group(1))

    fn_ranges = split_functions(code_lines)
    mask = locked_line_mask(code_lines, fn_ranges)

    findings = []
    for rule, fn in RULE_FNS.items():
        if rule in file_allows:
            continue
        if any(rel.startswith(p) or rel == p
               for p in RULE_EXCLUDES.get(rule, [])):
            continue
        findings.extend(fn(rel, code_lines, fn_ranges, mask))

    # Line-scoped suppressions (marker on the finding line or the one
    # directly above, in the ORIGINAL text — markers live in comments).
    kept = []
    for f in findings:
        allowed = False
        for lineno in (f.line, f.line - 1):
            if 1 <= lineno <= len(raw_lines):
                m = ALLOW_RE.search(raw_lines[lineno - 1])
                if m and m.group(1) == f.rule:
                    allowed = True
        if not allowed:
            kept.append(f)
    return kept


DEFAULT_ROOTS = ["src", "examples", "bench", "tests"]
SOURCE_EXT = (".cc", ".h", ".cpp", ".hpp")


def collect_files(root, paths):
    out = []
    if paths:
        for p in paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                for dirpath, _, names in os.walk(ap):
                    for name in sorted(names):
                        if name.endswith(SOURCE_EXT):
                            out.append(os.path.join(dirpath, name))
            elif os.path.isfile(ap):
                out.append(ap)
            else:
                raise IOError("no such file or directory: %s" % p)
        return out
    for sub in DEFAULT_ROOTS:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXT):
                    out.append(os.path.join(dirpath, name))
    return out


def main(argv):
    ap = argparse.ArgumentParser(
        prog="tabbin_lint",
        description="Repo-invariant linter for the TabBiN codebase.")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src examples "
                         "bench tests under --root)")
    ap.add_argument("--root", default=".",
                    help="repository root for relative paths/excludes")
    ap.add_argument("--rule", action="append", default=None,
                    metavar="RULE", help="run only this rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-20s %s" % (rule, RULES[rule]))
        return 0

    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            sys.stderr.write("unknown rule(s): %s\n" % ", ".join(unknown))
            return 2
        selected = set(args.rule)
    else:
        selected = set(RULES)

    root = os.path.abspath(args.root)
    try:
        files = collect_files(root, args.paths)
    except IOError as e:
        sys.stderr.write("tabbin_lint: %s\n" % e)
        return 2

    global RULE_FNS
    active_fns = {r: f for r, f in RULE_FNS.items() if r in selected}
    saved = RULE_FNS
    RULE_FNS = active_fns
    all_findings = []
    try:
        for path in files:
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            try:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as fh:
                    text = fh.read()
            except IOError as e:
                sys.stderr.write("tabbin_lint: %s\n" % e)
                return 2
            all_findings.extend(lint_file(path, rel, text))
    finally:
        RULE_FNS = saved

    for f in all_findings:
        print(f)
    if all_findings:
        print("tabbin_lint: %d finding(s)" % len(all_findings))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
