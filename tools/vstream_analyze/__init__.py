"""vstream-analyze: cross-TU determinism & concurrency analyzer.

Grown out of the single-file vstream_lint linter.  The package
splits into:

  lexer.py     a real C++ lexer: raw strings, digit separators,
               line-splices (including inside // comments), and
               comment/string stripping that is length-preserving so
               offsets in the stripped view index straight into the
               raw text.
  model.py     Finding, Token, SourceFile and the vstream:allow()
               suppression machinery.
  project.py   the cross-TU pass: include graph, class/function
               symbol tables, call graph, hot markers, field
               annotations.
  rules.py     every rule, per-TU and project-wide.
  selftest.py  synthetic good/bad projects; every rule must fire on
               the bad inputs and stay silent on the good ones.
  cli.py       the command-line driver (tools/vstream_analyze is
               runnable with python3 directly).

See docs/ANALYSIS.md for the rule catalogue and how to add a rule.
"""

__version__ = '1.0'
