"""C++ lexer for the analyzer.

The old vstream_lint stripper mis-handled three constructs:

  * raw string literals: R"(...)" closed at the first '"', so the
    rest of the literal was scanned as code (fabricating findings)
    or real code after it was swallowed (masking findings);
  * line-continuation backslashes inside // comments: the comment
    ended at the newline, so the spliced continuation line was
    scanned as code;
  * digit separators: the ' in 1'000'000 opened a character literal
    that swallowed everything up to the next apostrophe.

This lexer handles all three (regression-tested in selftest.py) and
produces two views of a file:

  strip_comments_and_strings(text)
      a length-preserving text in which comment bodies and
      string/char-literal contents are blanked (newlines kept), so
      regexes over it cannot match inside literals and offsets index
      straight back into the raw text;

  tokenize(text)
      a token stream (identifiers, numbers, strings, comments,
      punctuation) with 1-based line numbers; comments keep their
      text so annotation markers (// vstream:hot, // vstream:allow,
      // vstream:guarded_by) survive for the rules that read them.
"""

KEYWORDS = frozenset('''
    alignas alignof asm auto bool break case catch char char8_t
    char16_t char32_t class concept const consteval constexpr
    constinit const_cast continue co_await co_return co_yield
    decltype default delete do double dynamic_cast else enum explicit
    export extern false float for friend goto if inline int long
    mutable namespace new noexcept nullptr operator private protected
    public register reinterpret_cast requires return short signed
    sizeof static static_assert static_cast struct switch template
    this thread_local throw true try typedef typeid typename union
    unsigned using virtual void volatile wchar_t while
'''.split())

_ID_START = frozenset(
    'abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_')
_ID_CONT = _ID_START | frozenset('0123456789')
_RAW_PREFIXES = ('R"', 'u8R"', 'uR"', 'UR"', 'LR"')


class Token:
    """One lexical token; kind is 'id', 'num', 'str', 'chr',
    'comment', or 'punct'."""

    __slots__ = ('kind', 'text', 'line')

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return 'Token(%r, %r, %d)' % (self.kind, self.text, self.line)


class _Scan:
    """Shared scanning core; emits both the stripped text and the
    token stream in one pass."""

    def __init__(self, text):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.line = 1
        self.out = []     # stripped, length-preserving
        self.tokens = []

    # -- output helpers --------------------------------------------------

    def _keep(self, c):
        self.out.append(c)
        if c == '\n':
            self.line += 1

    def _blank(self, c):
        """Blank @p c in the stripped view, preserving newlines."""
        if c == '\n':
            self.out.append('\n')
            self.line += 1
        else:
            self.out.append(' ')

    # -- sub-scanners ----------------------------------------------------

    def _spliced_newline(self):
        """True when text[i] is a backslash splicing the next line
        (backslash immediately before \\n or \\r\\n)."""
        t, i = self.text, self.i
        if t[i] != '\\':
            return False
        if i + 1 < self.n and t[i + 1] == '\n':
            return True
        return i + 2 < self.n and t[i + 1] == '\r' and t[i + 2] == '\n'

    def _line_comment(self):
        start = self.line
        begin = self.i
        self._blank(' ')
        self._blank(' ')
        self.i += 2
        while self.i < self.n:
            c = self.text[self.i]
            if self._spliced_newline():
                # A backslash-newline splices the next physical line
                # into the comment (the old stripper got this wrong).
                self._blank(c)
                self.i += 1
                while self.i < self.n and self.text[self.i] != '\n':
                    self._blank(self.text[self.i])
                    self.i += 1
                if self.i < self.n:
                    self._blank('\n')
                    self.i += 1
                continue
            if c == '\n':
                break
            self._blank(c)
            self.i += 1
        self.tokens.append(
            Token('comment', self.text[begin:self.i], start))

    def _block_comment(self):
        start = self.line
        begin = self.i
        self._blank(' ')
        self._blank(' ')
        self.i += 2
        while self.i < self.n:
            if self.text.startswith('*/', self.i):
                self._blank(' ')
                self._blank(' ')
                self.i += 2
                break
            self._blank(self.text[self.i])
            self.i += 1
        self.tokens.append(
            Token('comment', self.text[begin:self.i], start))

    def _raw_string(self, prefix_len):
        start = self.line
        begin = self.i
        # Keep the prefix and opening quote visible in the stripped
        # view (they are structure, not content).
        for _ in range(prefix_len):
            self._keep(self.text[self.i])
            self.i += 1
        # Delimiter: everything up to the opening parenthesis.
        dstart = self.i
        while self.i < self.n and self.text[self.i] != '(':
            self._keep(self.text[self.i])
            self.i += 1
        delim = self.text[dstart:self.i]
        closer = ')' + delim + '"'
        if self.i < self.n:  # the '('
            self._keep('(')
            self.i += 1
        end = self.text.find(closer, self.i)
        if end < 0:
            end = self.n
        while self.i < end:
            self._blank(self.text[self.i])
            self.i += 1
        for c in closer:
            if self.i < self.n and self.text[self.i] == c:
                self._keep(c)
                self.i += 1
        self.tokens.append(Token('str', self.text[begin:self.i], start))

    def _quoted(self, quote, kind):
        start = self.line
        begin = self.i
        self._keep(quote)
        self.i += 1
        while self.i < self.n:
            c = self.text[self.i]
            if c == '\\' and self.i + 1 < self.n:
                self._blank(c)
                self._blank(self.text[self.i + 1])
                self.i += 2
                continue
            if c == quote:
                self._keep(c)
                self.i += 1
                break
            if c == '\n':  # unterminated; stop at the line break
                break
            self._blank(c)
            self.i += 1
        self.tokens.append(Token(kind, self.text[begin:self.i], start))

    def _identifier(self):
        start = self.line
        begin = self.i
        while self.i < self.n and self.text[self.i] in _ID_CONT:
            self._keep(self.text[self.i])
            self.i += 1
        word = self.text[begin:self.i]
        # Raw/encoded string literal prefix glued to a quote?
        if self.i < self.n and self.text[self.i] == '"' and \
                word in ('R', 'u8R', 'uR', 'UR', 'LR',
                         'u8', 'u', 'U', 'L'):
            if word.endswith('R'):
                self.tokens.append(Token('id', word, start))
                # Rewind bookkeeping: treat prefix as already kept.
                self._raw_string(1)  # just the quote; prefix is out
                return
            self.tokens.append(Token('id', word, start))
            return
        self.tokens.append(Token('id', word, start))

    def _number(self):
        start = self.line
        begin = self.i
        while self.i < self.n:
            c = self.text[self.i]
            if c in _ID_CONT or c == '.':
                self._keep(c)
                self.i += 1
            elif c == "'" and self.i + 1 < self.n and \
                    self.text[self.i + 1] in _ID_CONT:
                # Digit separator (1'000'000), not a char literal.
                self._keep(c)
                self.i += 1
            elif c in '+-' and self.i > begin and \
                    self.text[self.i - 1] in 'eEpP':
                self._keep(c)
                self.i += 1
            else:
                break
        self.tokens.append(
            Token('num', self.text[begin:self.i], start))

    # -- main loop -------------------------------------------------------

    def run(self):
        while self.i < self.n:
            c = self.text[self.i]
            nxt = self.text[self.i + 1] if self.i + 1 < self.n else ''
            if c == '/' and nxt == '/':
                self._line_comment()
            elif c == '/' and nxt == '*':
                self._block_comment()
            elif c == '"':
                self._quoted('"', 'str')
            elif c == "'":
                self._quoted("'", 'chr')
            elif c in _ID_START:
                self._identifier()
            elif c.isdigit() or (c == '.' and nxt.isdigit()):
                self._number()
            else:
                if c not in ' \t\r\n':
                    self.tokens.append(Token('punct', c, self.line))
                self._keep(c)
                self.i += 1
        return ''.join(self.out), self.tokens


def scan(text):
    """Return (stripped_text, tokens); both from one pass."""
    return _Scan(text).run()


def strip_comments_and_strings(text):
    """Length-preserving stripped view (see module docstring)."""
    return scan(text)[0]


def tokenize(text):
    """Token stream with comments preserved."""
    return scan(text)[1]
