"""Every analyzer rule: per-TU checks and project-wide checks.

Per-TU rules work on a SourceFile's stripped view (regexes cannot
match inside comments or literals; offsets map straight to lines).
Project rules additionally consult the Project's include graph,
symbol tables and call graph.

Suppression: `// vstream:allow(rule-id)` on the finding's line or
the line above silences that rule there; on the line above a
function definition it silences the rule for the whole body.  Every
suppression should carry a reason (docs/ANALYSIS.md).
"""

import re

from .model import Finding, match_lines
from .project import CONTROL_KEYWORDS, FUNC_NAME_RE, find_matching
from . import lexer

# Rule ids, in the order --list-rules prints them.
RULE_IDS = (
    'logging-discipline',
    'no-naked-new',
    'determinism-guard',
    'include-guards',
    'registry-stats',
    'no-null-macro',
    'no-unchecked-io',
    'no-unbounded-retry',
    'no-hotpath-alloc',
    'determinism-source',
    'ordered-iteration',
    'lock-discipline',
    'shard-local',
    'shared-state-guarded',
    'bounded-queue',
    'surface-pool-discipline',
    'unreferenced-function',
)


class Ctx:
    """Finding sink that applies line- and function-level
    suppressions before recording."""

    def __init__(self, project):
        self.project = project
        self.findings = []
        self._fn_spans = {}

    def _function_allows(self, sf, line):
        spans = self._fn_spans.get(sf.rel)
        if spans is None:
            spans = [(f.line, sf.line_of(f.body_end), f.allowed_rules)
                     for f in self.project.functions if f.sf is sf]
            self._fn_spans[sf.rel] = spans
        allowed = set()
        for start, end, rules in spans:
            if start <= line <= end:
                allowed |= rules
        return allowed

    def emit(self, sf, line, rule, message):
        if sf.allowed(line, rule):
            return
        if rule in self._function_allows(sf, line):
            return
        self.findings.append(Finding(sf.rel, line, rule, message))


# ===================================================================
# Ported per-TU rules (from the old vstream_lint)
# ===================================================================

RAW_ASSERT_RE = re.compile(
    r'(?<![A-Za-z0-9_])(?<!vs_)(?<!static_)assert\s*\(')
RAW_ABORT_RE = re.compile(
    r'(?<![A-Za-z0-9_])(?:std\s*::\s*)?(abort|exit|_Exit)\s*\(')
CASSERT_RE = re.compile(r'#\s*include\s*<(cassert|assert\.h)>')


def check_logging_discipline(ctx, sf):
    if sf.rel.startswith('src/sim/logging.'):
        return
    for line, m in match_lines(sf.code, RAW_ASSERT_RE):
        ctx.emit(sf, line, 'logging-discipline',
                 'raw assert(); use vs_assert from sim/logging.hh')
    for line, m in match_lines(sf.code, RAW_ABORT_RE):
        ctx.emit(sf, line, 'logging-discipline',
                 '%s(); use vs_panic/vs_fatal from sim/logging.hh'
                 % m.group(1))
    for line, m in match_lines(sf.code, CASSERT_RE):
        ctx.emit(sf, line, 'logging-discipline',
                 'includes <%s>; use sim/logging.hh instead'
                 % m.group(1))


NAKED_NEW_RE = re.compile(r'(?<![A-Za-z0-9_])new\s+[A-Za-z_:<(]')
NAKED_DELETE_RE = re.compile(r'(?<![A-Za-z0-9_])delete(\s*\[\s*\])?\s')


def check_naked_new(ctx, sf):
    for line, m in match_lines(sf.code, NAKED_NEW_RE):
        ctx.emit(sf, line, 'no-naked-new',
                 'naked new; use std::make_unique or a container')
    for line, m in match_lines(sf.code, NAKED_DELETE_RE):
        # "= delete" (deleted special members) is not a deallocation.
        start = sf.code.rfind('\n', 0, m.start()) + 1
        if sf.code[start:m.start()].rstrip().endswith('='):
            continue
        ctx.emit(sf, line, 'no-naked-new',
                 'naked delete; prefer RAII ownership')


NONDET_RE = re.compile(
    r'(?<![A-Za-z0-9_])(s?rand)\s*\(|'
    r'std\s*::\s*(random_device|mt19937(?:_64)?|minstd_rand0?|'
    r'default_random_engine)|'
    r'#\s*include\s*<random>')


def check_determinism(ctx, sf):
    if sf.rel in ('src/sim/random.cc', 'src/sim/random.hh'):
        return
    for line, m in match_lines(sf.code, NONDET_RE):
        what = m.group(1) or m.group(2) or '<random>'
        ctx.emit(sf, line, 'determinism-guard',
                 '%s breaks seed-reproducibility; draw from '
                 'vstream::Random (sim/random.hh)' % what)


GUARD_RE = re.compile(
    r'#\s*ifndef\s+([A-Za-z0-9_]+)\s*\n\s*#\s*define\s+([A-Za-z0-9_]+)')


def expected_guard(rel):
    # src/mem/dram_bank.hh -> VSTREAM_MEM_DRAM_BANK_HH
    parts = rel.split('/')
    if parts[0] == 'src':
        parts = parts[1:]
    stem = '_'.join(parts)
    return 'VSTREAM_' + re.sub(r'[^A-Za-z0-9]', '_', stem).upper()


def check_include_guard(ctx, sf):
    if not sf.rel.endswith(('.hh', '.h')):
        return
    m = GUARD_RE.search(sf.code)
    want = expected_guard(sf.rel)
    if not m:
        ctx.emit(sf, 1, 'include-guards',
                 'missing #ifndef/#define include guard (expected '
                 '%s)' % want)
        return
    line = sf.line_of(m.start())
    if m.group(1) != m.group(2):
        ctx.emit(sf, line, 'include-guards',
                 '#ifndef %s does not match #define %s'
                 % (m.group(1), m.group(2)))
    if m.group(1) != want:
        ctx.emit(sf, line, 'include-guards',
                 'guard %s should be %s (derived from path)'
                 % (m.group(1), want))


def class_body(code, open_pos):
    """Text of a class/function body given a position before its
    opening brace; '' when the brace structure is surprising."""
    brace = code.find('{', open_pos)
    if brace < 0:
        return ''
    end = find_matching(code, brace)
    if end < 0:
        return ''
    return code[brace:end - 1]


PRINT_STAT_RE = re.compile(
    r'(?<![A-Za-z0-9_])(?:stats\s*::\s*)?printStat\s*\(')


def check_registry_stats(ctx, sf):
    if sf.rel.startswith('src/sim/'):
        return
    for line, m in match_lines(sf.code, PRINT_STAT_RE):
        ctx.emit(sf, line, 'registry-stats',
                 'direct printStat bypasses the StatsRegistry; '
                 'register the stat in regStats so the JSON/CSV '
                 'exporters see it')


NULL_RE = re.compile(r'(?<![A-Za-z0-9_])NULL(?![A-Za-z0-9_])')


def check_null_macro(ctx, sf):
    for line, m in match_lines(sf.code, NULL_RE):
        ctx.emit(sf, line, 'no-null-macro', 'NULL macro; use nullptr')


# Statement position only: the call must open a statement (start of
# line or right after ';'/'{'/'}'), so member calls (.read, ->read)
# and uses of the return value (if (fread(...)), n = fread(...)) do
# not match -- those check or consume the result.  IO reads only:
# fread, std::fread, ::read, and a bare read( only with POSIX read's
# three arguments (a local helper or lambda named read is not IO).
UNCHECKED_IO_RE = re.compile(
    r'(?:^|[;{}])[ \t]*((?:std\s*::\s*)?fread|(?:::\s*)?read)\s*\(',
    re.MULTILINE)


def call_arg_count(code, open_paren):
    """Top-level arguments of the call whose '(' is at @p open_paren."""
    depth = 0
    commas = 0
    empty = True
    for ch in code[open_paren + 1:]:
        if ch in '([{':
            depth += 1
        elif ch in ')]}':
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and ch == ',':
            commas += 1
        if not ch.isspace():
            empty = False
    return 0 if empty else commas + 1


def check_unchecked_io(ctx, sf):
    if sf.rel.startswith('src/sim/'):
        return
    for line, m in match_lines(sf.code, UNCHECKED_IO_RE):
        name = re.sub(r'\s+', '', m.group(1))
        if name == 'read' and call_arg_count(sf.code, m.end() - 1) != 3:
            continue
        ctx.emit(sf, line, 'no-unchecked-io',
                 '%s() return value ignored; a short read must be '
                 'detected and handled (see src/video/trace.cc)'
                 % name)


INF_LOOP_RE = re.compile(
    r'(?<![A-Za-z0-9_])(?:while\s*\(\s*(?:true|1)\s*\)|'
    r'for\s*\(\s*;\s*;\s*\))')
RETRY_TOKEN_RE = re.compile(r'retry|reissue|resend|backoff',
                            re.IGNORECASE)
RETRY_BOUND_RE = re.compile(r'limit|max|cap|budget|attempt',
                            re.IGNORECASE)


def check_unbounded_retry(ctx, sf):
    for m in INF_LOOP_RE.finditer(sf.code):
        body = class_body(sf.code, m.end())
        if not body:
            continue
        if RETRY_TOKEN_RE.search(body) and \
                not RETRY_BOUND_RE.search(body):
            ctx.emit(sf, sf.line_of(m.start()), 'no-unbounded-retry',
                     'infinite loop retries without a bound; cap '
                     'the attempts against a limit/budget and '
                     'abandon (see DramController::burstWithRetry)')


# ===================================================================
# Hot-path allocation (direct body + call-graph propagation)
# ===================================================================

HOT_MARK_RE = re.compile(r'//\s*vstream:hot')
# std::string by value (declaration, temporary, return type) is a
# construction; const std::string & / * / template args are not.
HOT_STRING_RE = re.compile(
    r'(?<![A-Za-z0-9_])std\s*::\s*string\b(?!\s*[&*>])')
MAKE_UNIQUE_RE = re.compile(
    r'std\s*::\s*make_(?:unique|shared)\s*[<(]')
# Growth operations on containers allocate; checked in hot bodies
# and their statically-resolvable callees.
CONTAINER_GROWTH_RE = re.compile(
    r'[.\w>]\s*\b(push_back|emplace_back|resize|assign|reserve)'
    r'\s*\(')

_HOT_DETECTORS = (
    (NAKED_NEW_RE, 'heap allocation (new)'),
    (HOT_STRING_RE, 'std::string construction'),
    (MAKE_UNIQUE_RE, 'std::make_unique/make_shared'),
    (CONTAINER_GROWTH_RE, 'container growth (%s)'),
)


def _hot_alloc_sites(code, start, end):
    """(offset, description) for each allocation in
    code[start:end]."""
    body = code[start:end]
    for regex, what in _HOT_DETECTORS:
        for m in regex.finditer(body):
            desc = what % m.group(1) if '%s' in what else what
            yield start + m.start(), desc


def check_hotpath_alloc(ctx, sf):
    """Direct-body check: works even for functions the definition
    scanner cannot model (operator[] and friends)."""
    for tok in sf.comments():
        if not HOT_MARK_RE.search(tok.text):
            continue
        # The stripper is length-preserving, so find the marker's
        # offset in the raw text and use it in the stripped view.
        mark_off = sf.raw.find(tok.text)
        if mark_off < 0:
            continue
        brace = sf.code.find('{', mark_off + len(tok.text))
        if brace < 0:
            continue
        end = find_matching(sf.code, brace)
        if end < 0:
            continue
        for off, what in _hot_alloc_sites(sf.code, brace, end):
            ctx.emit(sf, sf.line_of(off), 'no-hotpath-alloc',
                     '%s inside a // vstream:hot function; hot '
                     'kernels must be allocation-free' % what)


# ===================================================================
# surface-pool-discipline: hot paths reuse storage they already own
# ===================================================================

# Raw C allocators evade the C++-centric no-hotpath-alloc detectors
# entirely; in this codebase every hot-path buffer is recycled
# storage (a frame-buffer slot, a ring entry) or a member scratch,
# so a malloc-family call in a hot body is always a bypass.
MALLOC_FAMILY_RE = re.compile(
    r'(?<![\w.>:])(malloc|calloc|realloc|aligned_alloc|strdup)\s*\(')
# A hot body declaring an owning local container allocates on every
# call.  References and pointers do not own (the `&`/`*` between the
# template arguments and the name breaks the match), so binding a
# pool slot or member scratch by reference stays clean.
LOCAL_CONTAINER_RE = re.compile(
    r'(?<![:\w])std\s*::\s*'
    r'(vector|deque|string|list|map|set|unordered_map|unordered_set)'
    r'\b\s*(?:<[^;{}&]*>)?\s+[A-Za-z_]\w*\s*[;({=]')


def check_surface_pool(ctx, sf):
    """Zero-alloc serving discipline: a // vstream:hot body must not
    source buffers outside recycled storage or member scratch."""
    for tok in sf.comments():
        if not HOT_MARK_RE.search(tok.text):
            continue
        mark_off = sf.raw.find(tok.text)
        if mark_off < 0:
            continue
        brace = sf.code.find('{', mark_off + len(tok.text))
        if brace < 0:
            continue
        end = find_matching(sf.code, brace)
        if end < 0:
            continue
        body = sf.code[brace:end]
        for m in MALLOC_FAMILY_RE.finditer(body):
            ctx.emit(sf, sf.line_of(brace + m.start()),
                     'surface-pool-discipline',
                     '%s() inside a // vstream:hot function allocates '
                     'on every call; reuse recycled storage (a '
                     'frame-buffer slot, a ring entry) or a member '
                     'scratch' % m.group(1))
        for m in LOCAL_CONTAINER_RE.finditer(body):
            ctx.emit(sf, sf.line_of(brace + m.start()),
                     'surface-pool-discipline',
                     'owning local std::%s in a // vstream:hot '
                     'function allocates on every call; bind '
                     'recycled storage or a member scratch by '
                     'reference instead' % m.group(1))


def check_hotpath_propagation(ctx):
    """Call-graph pass: a hot function's statically-resolvable
    callees must be allocation-free too (closes the one-level blind
    spot of the body-only check)."""
    project = ctx.project
    for root in project.hot_functions():
        seen = {id(root)}
        stack = [(root, [root.qualified])]
        while stack:
            fn, chain = stack.pop()
            for callee in project.callees(fn):
                if id(callee) in seen:
                    continue
                seen.add(id(callee))
                sub_chain = chain + [callee.qualified]
                if 'no-hotpath-alloc' in callee.allowed_rules:
                    continue
                for off, what in _hot_alloc_sites(
                        callee.sf.code, callee.body_start,
                        callee.body_end):
                    ctx.emit(callee.sf, callee.sf.line_of(off),
                             'no-hotpath-alloc',
                             '%s in %s, reachable from '
                             '// vstream:hot %s (call chain: %s)'
                             % (what, callee.qualified,
                                root.qualified,
                                ' -> '.join(sub_chain)))
                if len(sub_chain) < 6:
                    stack.append((callee, sub_chain))


# ===================================================================
# determinism-source: clocks, time, environment, address-as-hash
# ===================================================================

CHRONO_CLOCK_RE = re.compile(
    r'std\s*::\s*chrono\s*::\s*'
    r'(steady_clock|system_clock|high_resolution_clock)')
TIME_FUNC_RE = re.compile(
    r'(?<![A-Za-z0-9_.:>])'
    r'(time|clock|gettimeofday|clock_gettime|localtime|gmtime|'
    r'mktime)\s*\(')
GETENV_RE = re.compile(
    r'(?<![A-Za-z0-9_.:>])(?:std\s*::\s*)?(getenv)\s*\(')
ADDR_HASH_RE = re.compile(r'std\s*::\s*hash\s*<[^>]*\*')


def check_determinism_source(ctx, sf):
    if not sf.rel.startswith('src/'):
        return
    if sf.rel in ('src/sim/random.cc', 'src/sim/random.hh'):
        return
    for line, m in match_lines(sf.code, CHRONO_CLOCK_RE):
        ctx.emit(sf, line, 'determinism-source',
                 'std::chrono::%s is a wall-clock read; simulation '
                 'code must use sim ticks (sim/ticks.hh)'
                 % m.group(1))
    for line, m in match_lines(sf.code, TIME_FUNC_RE):
        ctx.emit(sf, line, 'determinism-source',
                 '%s() reads the wall clock; simulation code must '
                 'use sim ticks (sim/ticks.hh)' % m.group(1))
    for line, m in match_lines(sf.code, GETENV_RE):
        ctx.emit(sf, line, 'determinism-source',
                 'getenv() makes behavior depend on ambient '
                 'environment; plumb configuration explicitly or '
                 'suppress with a reason if the output is proven '
                 'invariant')
    for line, m in match_lines(sf.code, ADDR_HASH_RE):
        ctx.emit(sf, line, 'determinism-source',
                 'hashing a pointer value bakes addresses (ASLR, '
                 'allocator order) into results; hash stable ids '
                 'instead')


# ===================================================================
# ordered-iteration: unordered containers on output paths
# ===================================================================

OUTPUT_HEADERS = frozenset((
    'src/sim/stats_registry.hh',
    'src/sim/json_writer.hh',
    'src/sim/trace_event.hh',
))

UNORDERED_DECL_RE = re.compile(
    r'std\s*::\s*unordered_(map|set|multimap|multiset)\s*<')
REGSTATS_RE = re.compile(r'\bregStats\s*\(')
INTEGRAL_KEY_RE = re.compile(
    r'^(?:const\s+)?(?:std\s*::\s*)?'
    r'(?:u?int(?:8|16|32|64|ptr)?_t|size_t|unsigned|signed|short|'
    r'long|int|char|bool|Tick|Addr)\b[^*]*$')


def _is_output_tu(project, sf):
    return REGSTATS_RE.search(sf.code) is not None or \
        project.reaches_any(sf.rel, OUTPUT_HEADERS)


def _first_template_arg(code, open_angle):
    """First top-level template argument text after '<'."""
    depth = 0
    i = open_angle
    start = open_angle + 1
    while i < len(code):
        c = code[i]
        if c == '<':
            depth += 1
        elif c == '>':
            depth -= 1
            if depth == 0:
                return code[start:i].strip(), i
        elif c == ',' and depth == 1:
            return code[start:i].strip(), _close_angle(code, i, depth)
        i += 1
    return '', -1


def _close_angle(code, pos, depth):
    i = pos
    while i < len(code):
        c = code[i]
        if c == '<':
            depth += 1
        elif c == '>':
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def check_ordered_iteration(ctx, sf):
    project = ctx.project
    if not _is_output_tu(project, sf):
        return
    for m in UNORDERED_DECL_RE.finditer(sf.code):
        kind = m.group(1)
        key, close = _first_template_arg(sf.code, m.end() - 1)
        line = sf.line_of(m.start())
        # Declarator name (skip function return types and
        # parameters; a following '(' means this is not a field or
        # local we can track).
        name = None
        if close > 0:
            dm = re.match(r'\s*&?\s*([A-Za-z_]\w*)\s*[;={]',
                          sf.code[close + 1:close + 120])
            if dm:
                name = dm.group(1)
        if sf.rel.startswith('src/') and key and \
                INTEGRAL_KEY_RE.match(key):
            ctx.emit(sf, line, 'ordered-iteration',
                     'std::unordered_%s keyed by %s in an '
                     'output-path TU; use FlatMap/FlatSet '
                     '(core/flat_table.hh) or a sorted snapshot'
                     % (kind, key))
        if not name:
            continue
        # Iteration over the container anywhere in this TU.
        iter_res = (
            re.compile(r'for\s*\([^;()]*?:\s*%s\s*\)'
                       % re.escape(name)),
            re.compile(r'\b%s\s*\.\s*(?:begin|cbegin)\s*\('
                       % re.escape(name)),
        )
        for it_re in iter_res:
            for it_line, _ in match_lines(sf.code, it_re):
                ctx.emit(sf, it_line, 'ordered-iteration',
                         'iteration over std::unordered_%s %r feeds '
                         'an output path; iteration order is '
                         'hash-dependent, so sort a snapshot or use '
                         'FlatMap/FlatSet' % (kind, name))


# ===================================================================
# lock-discipline / shard-local: annotated fields in parallel lambdas
# ===================================================================

PARALLEL_CALL_RE = re.compile(r'\bparallel(?:For|Map)\s*\(')
LAMBDA_RE = re.compile(r'\[[^\]\n]*\]\s*(?:\([^)]*\)\s*)?'
                       r'(?:mutable\s*)?(?:->\s*[\w:<>&*\s]+?)?\{')


def _parallel_lambda_bodies(code):
    """(body_start, body_end) for each lambda that is an argument of
    a parallelFor/parallelMap call."""
    for m in PARALLEL_CALL_RE.finditer(code):
        close = find_matching(code, m.end() - 1, '(', ')')
        if close < 0:
            continue
        span = code[m.end():close]
        for lm in LAMBDA_RE.finditer(span):
            open_brace = m.end() + lm.end() - 1
            end = find_matching(code, open_brace)
            if end > 0:
                yield open_brace, end


def _has_lock_of(body, guard):
    return re.search(
        r'\b(?:lock_guard|scoped_lock|unique_lock)\b'
        r'(?:\s*<[^;>]*>)?\s*\w*\s*[({][^;)}]*\b%s\b'
        % re.escape(guard), body) is not None


def check_lock_discipline(ctx, sf):
    project = ctx.project
    if not project.annotations:
        return
    for start, end in _parallel_lambda_bodies(sf.code):
        body = sf.code[start:end]
        for field, anns in project.annotations.items():
            for fm in re.finditer(r'\b%s\b' % re.escape(field),
                                  body):
                line = sf.line_of(start + fm.start())
                for ann in anns:
                    if ann.kind == 'shard_local':
                        ctx.emit(
                            sf, line, 'shard-local',
                            'field %s is vstream:shard_local '
                            '(declared %s:%d); workers of '
                            'parallelFor/parallelMap must not touch '
                            'it' % (field, ann.sf.rel, ann.line))
                    elif ann.kind == 'guarded_by' and \
                            not _has_lock_of(body, ann.guard):
                        ctx.emit(
                            sf, line, 'lock-discipline',
                            '%s is vstream:guarded_by(%s) (declared '
                            '%s:%d) but this parallel worker lambda '
                            'takes no std::lock_guard/scoped_lock/'
                            'unique_lock on %s'
                            % (field, ann.guard, ann.sf.rel,
                               ann.line, ann.guard))
                break  # one finding per field per lambda


# ===================================================================
# bounded-queue: waitlists need a deadline or eviction path
# ===================================================================

# A queue-like field whose name says it holds waiting work.  An
# unbounded admission queue hides a livelock: entries that never fit
# wait forever (the fleet brownout/flood scenarios make this real).
QUEUE_FIELD_RE = re.compile(
    r'std\s*::\s*(deque|queue|priority_queue|list)\s*<[^;{}()]*>\s*'
    r'([A-Za-z_]\w*(?:waiting|waitlist|pending|backlog)\w*)\s*[;{=]',
    re.IGNORECASE)
# Evidence of a bound somewhere in the declaring TU: a deadline,
# timeout, expiry, eviction, shedding, or TTL identifier.
QUEUE_BOUND_RE = re.compile(
    r'deadline|timeout|expir|evict|shed|ttl', re.IGNORECASE)


def check_bounded_queue(ctx, sf):
    for line, m in match_lines(sf.code, QUEUE_FIELD_RE):
        if QUEUE_BOUND_RE.search(sf.code):
            # The TU knows about deadlines/eviction; trust it.
            continue
        ctx.emit(sf, line, 'bounded-queue',
                 'std::%s field %s looks like a wait queue but this '
                 'TU has no deadline/timeout/eviction/shed path; '
                 'bound it (see ServeConfig::queue_deadline) or '
                 'suppress with a reason'
                 % (m.group(1), m.group(2)))


# ===================================================================
# shared-state-guarded: cross-session state must declare its guard
# ===================================================================

# A member declaration by the repo's trailing-underscore convention:
# type tokens, a separator, then the field name with an optional
# default initializer.  The mandatory [\s&*] separator before the
# name keeps plain assignments (`field_ = 0;`) from matching.
GUARDED_FIELD_DECL_RE = re.compile(
    r'^[ \t]*(?!return\b|delete\b|using\b|typedef\b|case\b)'
    r'[A-Za-z_][\w:<>,&*\t ]*?[\w>&*][\s&*]+([A-Za-z_]\w*_)\s*'
    r'(?:=[^;=]*|\{[^;]*\})?;',
    re.MULTILINE)
# Outside the shared tier's own TUs, only names that advertise
# cross-session scope are held to the annotation requirement.
SHARED_NAME_RE = re.compile(r'^(?:shared_|global_)\w*$')
SHARED_TIER_TU_RE = re.compile(r'^src/serve/shared_mach\.(?:hh|cc)$')


def _annotated_in_file(project, field, rel):
    for ann in project.annotations.get(field, ()):
        if ann.sf.rel == rel:
            return True
    return False


def check_shared_state_guarded(ctx, sf):
    """The shared MACH tier is the first cross-session state in the
    tree, so every field it declares - and any field elsewhere whose
    name claims shared/global scope - must say how it is safe:
    vstream:guarded_by(mutex) for locked state, vstream:shard_local
    for state confined to one serial domain."""
    tier_tu = SHARED_TIER_TU_RE.match(sf.rel) is not None
    for line, m in match_lines(sf.code, GUARDED_FIELD_DECL_RE):
        field = m.group(1)
        if not tier_tu and not SHARED_NAME_RE.match(field):
            continue
        if _annotated_in_file(ctx.project, field, sf.rel):
            continue
        ctx.emit(sf, line, 'shared-state-guarded',
                 'field %s %s but carries neither '
                 'vstream:guarded_by(mutex) nor vstream:shard_local; '
                 'annotate how it is safe or suppress with a reason'
                 % (field,
                    'is declared in the shared MACH tier' if tier_tu
                    else 'names cross-session shared state'))


# ===================================================================
# unreferenced-function: no library API without a caller
# ===================================================================

IDENT_RE = re.compile(r'(?<![\w])[A-Za-z_]\w*')
NAMESPACE_HEAD_RE = re.compile(r'\bnamespace\b')
CLASS_HEAD_RE = re.compile(
    r'\b(?:class|struct|union)\s+[A-Za-z_]\w*[^()]*$')
ENUM_HEAD_RE = re.compile(r'\benum\b')
# What may follow a declaration's parameter list.
DECL_TRAILER_RE = re.compile(
    r'\s*(?:;|\{|=|->|&|\[\[|const\b|noexcept\b|override\b|'
    r'final\b|volatile\b|requires\b)')
# The token before a declared name ends its return type: a word, a
# pointer or reference mark, or a template's closing bracket.
PREV_TOKEN_RE = re.compile(r'(\w+|[*&>])\s*$')
# Words that end an expression, not a declaration's return type.
NOT_TYPE_WORDS = frozenset(('return', 'new', 'else', 'case', 'throw',
                            'co_return', 'co_yield', 'do'))


def _declaration_scope(code):
    """bytearray: 1 where an offset sits at namespace or class scope
    (outside any function body, initializer, enum, parenthesis or
    preprocessor line), 0 elsewhere."""
    ok = bytearray(len(code))
    closed = []  # per open brace: True unless namespace/class scope
    n_closed = 0
    paren = 0
    stmt_start = 0
    in_pp = False
    line_start = True
    for i, c in enumerate(code):
        if line_start and c not in ' \t':
            in_pp = c == '#'
            line_start = False
        if c == '\n':
            # A preprocessor line continues past a trailing backslash.
            if not (in_pp and code[i - 1:i] == '\\'):
                in_pp = False
            line_start = True
        elif c == '{':
            head = code[stmt_start:i]
            is_open = paren == 0 and not ENUM_HEAD_RE.search(head) and (
                NAMESPACE_HEAD_RE.search(head) or
                CLASS_HEAD_RE.search(head))
            closed.append(not is_open)
            n_closed += 0 if is_open else 1
            stmt_start = i + 1
        elif c == '}':
            if closed and closed.pop():
                n_closed -= 1
            stmt_start = i + 1
        elif c == ';':
            stmt_start = i + 1
        elif c == '(':
            paren += 1
        elif c == ')':
            paren -= 1
        if not in_pp and paren == 0 and n_closed == 0:
            ok[i] = 1
    return ok


def _header_declarations(project, sf):
    """[(class or None, name, offset of the name)] for every function
    a src/ header declares or defines inline, minus constructors,
    destructors, operators, overrides and deleted/defaulted
    members."""
    code = sf.code
    scope = _declaration_scope(code)
    spans = project._class_spans(sf)
    out = []
    for m in FUNC_NAME_RE.finditer(code):
        name = m.group(1)
        if not scope[m.start()] or '::' in name or name.startswith('~'):
            continue
        if name in lexer.KEYWORDS or name in CONTROL_KEYWORDS:
            continue
        prev = PREV_TOKEN_RE.search(code, max(0, m.start() - 256),
                                    m.start())
        if not prev or prev.group(1) in NOT_TYPE_WORDS:
            continue
        close = find_matching(code, m.end() - 1, '(', ')')
        if close < 0 or not DECL_TRAILER_RE.match(code, close):
            continue
        stop = min((p for p in (code.find(';', close),
                                code.find('{', close)) if p >= 0),
                   default=len(code))
        trailer = code[close:stop]
        if re.search(r'\b(?:override|final)\b', trailer) or \
                re.search(r'=\s*(?:delete|default)\b', trailer):
            continue
        cls = project._enclosing_class(spans, m.start())
        if cls == name:
            continue
        out.append((cls, name, m.start()))
    return out


def _name_offset(code, fn):
    m = re.compile(r'\b%s\s*\(' % re.escape(fn.name)).search(
        code, fn.start)
    return m.start() if m else fn.start


def check_unreferenced_function(ctx):
    """A function a src/ header declares must be named somewhere
    other than its own declarations and definitions: in src/, the
    benches, examples, tests, fuzz harnesses, or (references only)
    benchmark/.  Name-based, so overloads and same-named methods
    share their references; it errs toward silence."""
    project = ctx.project
    decls = {}  # (cls, name) -> [(sf, offset)]
    for rel, sf in sorted(project.files.items()):
        if rel.startswith('src/') and rel.endswith('.hh'):
            for cls, name, off in _header_declarations(project, sf):
                decls.setdefault((cls, name), []).append((sf, off))
    if not decls:
        return
    wanted = {name for _, name in decls}
    uses = {}  # name -> {(rel, offset)}
    for table in (project.files, project.ref_files):
        for rel, sf in table.items():
            for m in IDENT_RE.finditer(sf.code):
                if m.group(0) in wanted:
                    uses.setdefault(m.group(0), set()).add(
                        (rel, m.start()))
    for (cls, name), sites in sorted(
            decls.items(),
            key=lambda kv: (kv[1][0][0].rel, kv[1][0][1])):
        own = {(sf.rel, off) for sf, off in sites}
        for fn in project.by_simple.get(name, ()):
            if fn.cls == cls:
                own.add((fn.sf.rel, _name_offset(fn.sf.code, fn)))
        if uses.get(name, set()) - own:
            continue
        sf, off = sites[0]
        ctx.emit(sf, sf.line_of(off), 'unreferenced-function',
                 '%s is declared here but nothing in src/, bench/, '
                 'examples/, tests/, fuzz/ or benchmark/ names it; '
                 'delete it or suppress with a reason'
                 % ('%s::%s' % (cls, name) if cls else name))


# ===================================================================
# Rule sets per directory
# ===================================================================

SRC_CHECKS = [
    check_logging_discipline,
    check_naked_new,
    check_determinism,
    check_include_guard,
    check_registry_stats,
    check_null_macro,
    check_unchecked_io,
    check_unbounded_retry,
    check_hotpath_alloc,
    check_surface_pool,
    check_determinism_source,
    check_ordered_iteration,
    check_lock_discipline,
    check_shared_state_guarded,
    check_bounded_queue,
]

# Tests/benches/examples may use gtest ASSERT_* and ad-hoc printing,
# but determinism and guard naming still apply repo-wide.
AUX_CHECKS = [
    check_determinism,
    check_include_guard,
    check_null_macro,
]

# Benches and examples report numbers users consume, so they must go
# through the registry like src/ does; tests stay exempt because the
# stats package's own unit tests exercise printStat directly.
BENCH_CHECKS = AUX_CHECKS + [
    check_registry_stats,
    check_unchecked_io,
    check_unbounded_retry,
    check_hotpath_alloc,
    check_surface_pool,
    check_ordered_iteration,
    check_lock_discipline,
    check_bounded_queue,
]

SCAN_DIRS = {
    'src': SRC_CHECKS,
    'tests': AUX_CHECKS,
    'bench': BENCH_CHECKS,
    'examples': BENCH_CHECKS,
}

# Project-wide passes (run once, after the per-file rules).
PROJECT_CHECKS = [
    check_hotpath_propagation,
    check_unreferenced_function,
]


def run_all(project, only_rels=None):
    """Run every applicable rule; returns the list of findings."""
    ctx = Ctx(project)
    for rel in sorted(project.files):
        if only_rels is not None and rel not in only_rels:
            continue
        top = rel.split('/')[0]
        checks = SCAN_DIRS.get(top, AUX_CHECKS)
        sf = project.files[rel]
        for check in checks:
            check(ctx, sf)
    for check in PROJECT_CHECKS:
        check(ctx)
    if only_rels is not None:
        ctx.findings = [f for f in ctx.findings
                        if f.path in only_rels]
    ctx.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return ctx.findings
