"""Cross-TU project model: include graph, symbol tables, call graph.

Everything here is a static, heuristic view good enough for lint
rules: function bodies are found by brace matching over the stripped
view, calls are resolved by name against the project's own definition
table (same class first, then unique global name), and the include
graph is built from the quoted includes that resolve to files inside
the repo.  No preprocessor evaluation is attempted.
"""

import os
import re

from . import lexer
from .model import SourceFile

EXTENSIONS = ('.cc', '.hh', '.h', '.cpp')

SCAN_TOPS = ('src', 'tests', 'bench', 'examples', 'fuzz')

# Scanned for references only: no rule reports on these files, but a
# name they use counts as used (unreferenced-function).
REF_TOPS = ('benchmark',)

INCLUDE_RE = re.compile(r'#\s*include\s*(" +")', )
INCLUDE_CODE_RE = re.compile(r'#\s*include\s*"( *)"')

CLASS_RE = re.compile(
    r'\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?'
    r'(?::\s*[^;{]*)?\{')

FUNC_NAME_RE = re.compile(
    r'\b((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*\(')

CONTROL_KEYWORDS = frozenset((
    'if', 'while', 'for', 'switch', 'catch', 'return', 'sizeof',
    'alignof', 'decltype', 'noexcept', 'static_assert', 'new',
    'delete', 'throw', 'assert', 'defined', 'requires', 'alignas',
))

HOT_MARK_RE = re.compile(r'vstream:hot\b')
GUARDED_BY_RE = re.compile(r'vstream:guarded_by\(([A-Za-z_]\w*)\)')
SHARD_LOCAL_RE = re.compile(r'vstream:shard_local\b')

FIELD_DECL_RE = re.compile(
    r'([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;')


def find_matching(code, pos, open_c='{', close_c='}'):
    """Index just past the bracket matching code[pos]; -1 if
    unbalanced."""
    depth = 0
    for i in range(pos, len(code)):
        c = code[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


class FunctionDef:
    """One function definition found in a TU."""

    __slots__ = ('sf', 'name', 'cls', 'start', 'body_start',
                 'body_end', 'line', 'allowed_rules')

    def __init__(self, sf, name, cls, start, body_start, body_end,
                 line):
        self.sf = sf
        self.name = name          # unqualified name
        self.cls = cls            # enclosing/explicit class or None
        self.start = start        # offset of the name
        self.body_start = body_start  # offset of the '{'
        self.body_end = body_end      # offset past the '}'
        self.line = line
        self.allowed_rules = set()

    @property
    def qualified(self):
        return '%s::%s' % (self.cls, self.name) if self.cls \
            else self.name

    def body(self):
        return self.sf.code[self.body_start:self.body_end]


class Annotation:
    """A vstream:guarded_by / vstream:shard_local field annotation."""

    __slots__ = ('field', 'kind', 'guard', 'sf', 'line')

    def __init__(self, field, kind, guard, sf, line):
        self.field = field
        self.kind = kind      # 'guarded_by' | 'shard_local'
        self.guard = guard    # mutex name for guarded_by
        self.sf = sf
        self.line = line


class Project:
    """All scanned files plus the cross-TU derived tables."""

    def __init__(self, root):
        self.root = root
        self.files = {}        # rel -> SourceFile
        self._reach = {}       # rel -> frozenset(transitive includes)
        self.includes = {}     # rel -> [rel]
        self.functions = []    # [FunctionDef]
        self.by_simple = {}    # name -> [FunctionDef]
        self.by_qualified = {}  # Class::name -> [FunctionDef]
        self.annotations = {}  # field name -> [Annotation]
        self.ref_files = {}    # rel -> SourceFile (REF_TOPS)

    # -- loading ---------------------------------------------------------

    @staticmethod
    def _walk(root, tops):
        rels = []
        for top in tops:
            base = os.path.join(root, top)
            if not os.path.isdir(base):
                continue
            for dirpath, _, names in sorted(os.walk(base)):
                for name in sorted(names):
                    if name.endswith(EXTENSIONS):
                        rels.append(os.path.relpath(
                            os.path.join(dirpath, name), root))
        return rels

    @staticmethod
    def _read_into(root, rels, table):
        for rel in rels:
            path = os.path.join(root, rel)
            try:
                with open(path, encoding='utf-8',
                          errors='replace') as f:
                    raw = f.read()
            except OSError:
                continue
            rel = rel.replace(os.sep, '/')
            table[rel] = SourceFile(rel, raw)

    @classmethod
    def load(cls, root, rels=None):
        proj = cls(root)
        if rels is None:
            rels = cls._walk(root, SCAN_TOPS)
        cls._read_into(root, rels, proj.files)
        cls._read_into(root, cls._walk(root, REF_TOPS), proj.ref_files)
        proj._build_includes()
        proj._build_functions()
        proj._build_annotations()
        return proj

    # -- include graph ---------------------------------------------------

    def _resolve_include(self, from_rel, inc):
        # Project headers are included relative to src/ (the include
        # dir) or relative to the including file.
        cands = ['src/' + inc, inc]
        base = os.path.dirname(from_rel)
        if base:
            cands.append(base + '/' + inc)
        for cand in cands:
            cand = os.path.normpath(cand).replace(os.sep, '/')
            if cand in self.files:
                return cand
        return None

    def _build_includes(self):
        for rel, sf in self.files.items():
            incs = []
            for m in INCLUDE_CODE_RE.finditer(sf.code):
                # The path text is blanked in the stripped view;
                # recover it from the raw text at the same offsets
                # (the stripper is length-preserving).
                inc = sf.raw[m.start(1):m.end(1)].strip()
                target = self._resolve_include(rel, inc)
                if target:
                    incs.append(target)
            self.includes[rel] = incs

    def reach(self, rel):
        """Transitive includes of @p rel (not including itself)."""
        cached = self._reach.get(rel)
        if cached is not None:
            return cached
        seen = set()
        stack = list(self.includes.get(rel, ()))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.includes.get(cur, ()))
        result = frozenset(seen)
        self._reach[rel] = result
        return result

    def reaches_any(self, rel, targets):
        if rel in targets:
            return True
        return bool(self.reach(rel) & targets)

    # -- class spans -----------------------------------------------------

    @staticmethod
    def _class_spans(sf):
        """[(name, body_start, body_end)] for each class/struct."""
        spans = []
        for m in CLASS_RE.finditer(sf.code):
            open_pos = m.end() - 1
            end = find_matching(sf.code, open_pos)
            if end > 0:
                spans.append((m.group(1), open_pos, end))
        return spans

    @staticmethod
    def _enclosing_class(spans, pos):
        best = None
        for name, start, end in spans:
            if start < pos < end:
                if best is None or start > best[1]:
                    best = (name, start)
        return best[0] if best else None

    # -- function definitions --------------------------------------------

    def _build_functions(self):
        for sf in self.files.values():
            spans = self._class_spans(sf)
            code = sf.code
            for m in FUNC_NAME_RE.finditer(code):
                name = re.sub(r'\s+', '', m.group(1))
                simple = name.rsplit('::', 1)[-1]
                if simple.lstrip('~') in CONTROL_KEYWORDS or \
                        simple in lexer.KEYWORDS:
                    continue
                close = find_matching(code, m.end() - 1, '(', ')')
                if close < 0:
                    continue
                body_start = self._skip_to_body(code, close)
                if body_start < 0:
                    continue
                body_end = find_matching(code, body_start)
                if body_end < 0:
                    continue
                cls = None
                if '::' in name:
                    cls, simple = name.rsplit('::', 1)
                    cls = cls.rsplit('::', 1)[-1]
                else:
                    cls = self._enclosing_class(spans, m.start())
                fn = FunctionDef(sf, simple, cls, m.start(),
                                 body_start, body_end,
                                 sf.line_of(m.start()))
                self._attach_allows(fn)
                self.functions.append(fn)
                self.by_simple.setdefault(simple, []).append(fn)
                if cls:
                    self.by_qualified.setdefault(
                        '%s::%s' % (cls, simple), []).append(fn)

    @staticmethod
    def _skip_to_body(code, pos):
        """From just past the parameter ')', skip qualifiers and a
        constructor init list; return the offset of the body '{' or
        -1 when this is not a definition."""
        i = pos
        n = len(code)
        while i < n:
            c = code[i]
            if c in ' \t\r\n':
                i += 1
                continue
            if code.startswith(('const', 'noexcept', 'override',
                                'final', 'mutable', 'volatile',
                                'restrict'), i):
                word = re.match(r'[a-z_]+', code[i:]).group(0)
                if word in ('const', 'noexcept', 'override', 'final',
                            'mutable', 'volatile', 'restrict'):
                    i += len(word)
                    continue
                return -1
            if c == '(':  # noexcept(...)
                nxt = find_matching(code, i, '(', ')')
                if nxt < 0:
                    return -1
                i = nxt
                continue
            if code.startswith('->', i):
                # Trailing return type: skip to the '{' at this
                # nesting level.
                j = i + 2
                depth = 0
                while j < n:
                    if code[j] in '(<[':
                        depth += 1
                    elif code[j] in ')>]':
                        depth -= 1
                    elif code[j] == '{' and depth <= 0:
                        return j
                    elif code[j] in ';,' and depth <= 0:
                        return -1
                    j += 1
                return -1
            if c == ':':
                if code.startswith('::', i):
                    return -1
                # Constructor init list: skip initializers up to the
                # body '{' (brace-or-paren initializers both appear).
                j = i + 1
                depth = 0
                while j < n:
                    cj = code[j]
                    if cj == '(':
                        j = find_matching(code, j, '(', ')')
                        if j < 0:
                            return -1
                        continue
                    if cj == '{':
                        if depth == 0:
                            # Either an initializer brace or the
                            # body; an initializer brace is always
                            # followed (after ws) by ',' or '{'.
                            k = find_matching(code, j)
                            if k < 0:
                                return -1
                            t = k
                            while t < n and code[t] in ' \t\r\n':
                                t += 1
                            if t < n and code[t] == ',':
                                j = k
                                continue
                            if t < n and code[t] == '{':
                                return t
                            return j
                        j += 1
                        continue
                    if cj == ';':
                        return -1
                    j += 1
                return -1
            if c == '{':
                return i
            return -1
        return -1

    def _attach_allows(self, fn):
        """Allow comments on the two lines above a definition (or on
        its signature line) suppress those rules in the whole body."""
        for line in range(fn.line - 2, fn.line + 1):
            for rule in fn.sf.allow.get(line, ()):
                fn.allowed_rules.add(rule)
        # Comments may sit above the marker line itself; also honor
        # an allow attached to a vstream:hot marker block.

    # -- call graph ------------------------------------------------------

    CALL_RE = re.compile(r'\b([A-Za-z_]\w*)\s*\(')

    def callees(self, fn):
        """Project-local functions statically resolvable as callees
        of @p fn (same class preferred, else unique simple name)."""
        out = []
        seen = set()
        body = fn.body()
        for m in self.CALL_RE.finditer(body):
            name = m.group(1)
            if name in seen or name in lexer.KEYWORDS or \
                    name in CONTROL_KEYWORDS:
                continue
            seen.add(name)
            target = None
            if fn.cls:
                target = self.by_qualified.get(
                    '%s::%s' % (fn.cls, name))
            if not target:
                cands = self.by_simple.get(name, ())
                # Only unambiguous project-wide names resolve.
                classes = {c.cls for c in cands}
                if len(cands) >= 1 and len(classes) == 1:
                    target = cands
            if target:
                out.extend(t for t in target if t is not fn)
        return out

    # -- hot markers -----------------------------------------------------

    def hot_functions(self):
        """Functions marked // vstream:hot (marker within the three
        lines above the definition)."""
        out = []
        for sf in self.files.values():
            marks = [tok.line for tok in sf.comments()
                     if HOT_MARK_RE.search(tok.text)]
            if not marks:
                continue
            fns = sorted((f for f in self.functions if f.sf is sf),
                         key=lambda f: f.line)
            for mark_line in marks:
                best = None
                for fn in fns:
                    if mark_line <= fn.line <= mark_line + 3:
                        best = fn
                        break
                if best:
                    out.append(best)
        return out

    # -- field annotations -----------------------------------------------

    def _build_annotations(self):
        for sf in self.files.values():
            for tok in sf.comments():
                guarded = GUARDED_BY_RE.search(tok.text)
                shard = SHARD_LOCAL_RE.search(tok.text)
                if not guarded and not shard:
                    continue
                kind = 'guarded_by' if guarded else 'shard_local'
                guard = guarded.group(1) if guarded else None
                field = self._annotated_field(sf, tok)
                if not field:
                    continue
                ann = Annotation(field, kind, guard, sf, tok.line)
                self.annotations.setdefault(field, []).append(ann)

    @staticmethod
    def _annotated_field(sf, tok):
        """The declarator the annotation attaches to: the last
        identifier before ';' on the annotation's line or the next
        code line."""
        lines = sf.code.split('\n')
        span = tok.text.count('\n') + 1
        for ln in range(tok.line, min(tok.line + span + 1,
                                      len(lines)) + 1):
            if ln - 1 >= len(lines):
                break
            text = lines[ln - 1]
            m = FIELD_DECL_RE.search(text)
            if m:
                return m.group(1)
        return None
