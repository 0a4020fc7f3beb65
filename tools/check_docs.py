#!/usr/bin/env python3
"""Link-and-anchor checker for the repo's markdown documentation.

Enforced rules (registered as the `vstream_docs` ctest and run by
`scripts/check.sh docs`):

 1. Every file under docs/ is referenced from README.md - the README
    is the table of contents, so an unlinked doc is unreachable.
 2. Every relative markdown link in the checked set resolves to an
    existing file or directory in the repo.
 3. Every anchor (`file.md#section` or `#section`) resolves to a
    heading in the target file, using GitHub's slug rules.
 4. Every `VSTREAM_*` name a doc mentions is live: an environment
    variable some source file reads (a quoted "VSTREAM_..." literal
    in C++ or Python outside tools/) or a CMake option / cache
    variable.  Names ending in `_HH` are header guards and exempt.
 5. Every `--flag` that README.md or a docs/*.md file passes to
    vstream_serve, vstream_sim or bench_soak - on a command line in
    a code block, or in an inline code span that names the binary -
    is one that binary accepts: a whole "--flag" string literal in
    its source, or in the body of a shared flag table it calls
    (`sessionFlag`/`fleetFlag` in src/serve/cli_args.cc).
 6. README.md, DESIGN.md and docs/*.md do not name a switch or stat
    kind the code no longer has (REMOVED_NAMES), except on a line
    that records the removal ("removed in PR N").

Checked set: README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and
every docs/*.md.  External links (http/https/mailto) are ignored;
this tool never touches the network.

Usage: tools/check_docs.py [--root DIR]   (exit 0 = clean)
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys
import tempfile

# Inline markdown links: [text](target).  Good enough for this
# repo's hand-written docs; reference-style links are not used.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
KNOB_RE = re.compile(r"\bVSTREAM_[A-Z0-9_]+")
ENV_READ_RE = re.compile(r"[\"'](VSTREAM_[A-Z0-9_]+)[\"']")
CMAKE_KNOB_RE = re.compile(
    r"(?:option\(\s*(VSTREAM_[A-Z0-9_]+))|"
    r"(?:set\(\s*(VSTREAM_[A-Z0-9_]+)\b[^)]*\bCACHE\b)")
# Where env reads live.  tools/ is excluded: its self-tests carry
# fixture names that must not count as live knobs.
CODE_SUFFIXES = (".cc", ".hh", ".cpp", ".h", ".py")
SKIP_DIRS = ("tools",)

CODE_SPAN_RE = re.compile(r"`([^`]+)`")

# Rule 5: the front ends whose flags the docs cite, and the shared
# flag tables they may call.
FLAG_BINARIES = {
    "vstream_serve": pathlib.Path("examples/vstream_serve.cpp"),
    "vstream_sim": pathlib.Path("examples/vstream_sim.cpp"),
    "bench_soak": pathlib.Path("bench/bench_soak.cc"),
}
FLAG_TABLES_SOURCE = pathlib.Path("src/serve/cli_args.cc")
FLAG_TABLES = ("sessionFlag", "fleetFlag")
FLAG_LITERAL_RE = re.compile(r'"(--[a-z0-9][a-z0-9-]*)"')
DOC_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# Where a shell command ends: a pipe, a separator or a comment.
COMMAND_END_RE = re.compile(r"\||;|&&|\s#")

# Rule 6: names deleted from the code, and the marker that lets a
# line record their removal.
REMOVED_NAMES = ("refresh_enabled", "ReplPolicy", "stats::Scalar",
                 "stats::Distribution", "stats::Histogram",
                 "queue_when_full", "verify_display", "ShardSnapshot",
                 "FleetLadder", "FleetHealth", "byte_io",
                 "DisplayCache", "memoHits", "RegionMemo",
                 "CrcKernel", "availableCrc32Kernels", "crc32BatchWith",
                 "write_allocate", "writebackCount", "resetStats",
                 "TracePolicy", "kSkipFrame", "kTraceCorrupt",
                 "refresh_hz", "dram_backoff_base", "LambdaEvent",
                 "SimObject", "setTraceSink", "periodFromFreq",
                 "MabOrigin", "rebuildMab", "insertUnique",
                 "gradientInto", "gradientDigest", "fromGradient",
                 "mc_reach_mabs", "buffer_interval", "frame_age",
                 "BM_GradientTransform", "BlockEntry", "assignBytes",
                 "StoredBlock")
REMOVED_NAME_RE = re.compile(
    r"(?<![\w:])(" + "|".join(re.escape(n) for n in REMOVED_NAMES) +
    r")(?!\w)")
REMOVAL_RECORD_RE = re.compile(r"removed in PR \d+", re.IGNORECASE)

# Root-level docs that participate in link checking.  CHANGES.md is
# an append-only log and ISSUE/PAPER/SNIPPETS are driver-managed
# inputs, so they stay out of the gate.
ROOT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
             "ROADMAP.md")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup-ish punctuation, lowercase,
    spaces to hyphens (consecutive hyphens are preserved)."""
    text = heading.strip().lower()
    # Inline code spans keep their text, drop the backticks.
    text = text.replace("`", "")
    out = []
    for ch in text:
        if ch.isalnum() or ch in "_-":
            out.append(ch)
        elif ch in " ":
            out.append("-")
        # Everything else (punctuation) is dropped.
    return "".join(out)


def md_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = [root / name for name in ROOT_DOCS]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def headings(path: pathlib.Path) -> set[str]:
    """Anchor slugs of every heading in @p path (with GitHub's
    -1/-2 suffixing for duplicates)."""
    seen: dict[str, int] = {}
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def links(path: pathlib.Path) -> list[tuple[int, str]]:
    out = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            out.append((lineno, m.group(1)))
    return out


def source_files(root: pathlib.Path, suffixes) -> list[pathlib.Path]:
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        if pathlib.Path(dirpath) == root:
            # Build trees, VCS metadata and tools/ never count.
            dirnames[:] = [d for d in dirnames
                           if not d.startswith((".", "build"))
                           and d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(suffixes):
                out.append(pathlib.Path(dirpath) / name)
    return out


def live_knobs(root: pathlib.Path) -> set[str]:
    """Env vars read by the code plus CMake options/cache vars."""
    names: set[str] = set()
    for path in source_files(root, CODE_SUFFIXES):
        names.update(ENV_READ_RE.findall(
            path.read_text(encoding="utf-8", errors="replace")))
    for path in source_files(root, ("CMakeLists.txt", ".cmake")):
        for m in CMAKE_KNOB_RE.finditer(path.read_text(
                encoding="utf-8", errors="replace")):
            names.add(m.group(1) or m.group(2))
    return names


def stale_knobs(root: pathlib.Path,
                files: list[pathlib.Path]) -> list[str]:
    errors: list[str] = []
    live = live_knobs(root)
    for f in files:
        rel = f.relative_to(root)
        for lineno, line in enumerate(
                f.read_text(encoding="utf-8").splitlines(), 1):
            for name in KNOB_RE.findall(line):
                if name.endswith("_HH") or name in live:
                    continue
                errors.append(f"{rel}:{lineno}: '{name}' is neither "
                              f"an env var read in the tree nor a "
                              f"CMake option")
    return errors


def removed_names(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    files = [root / "README.md", root / "DESIGN.md"]
    files += sorted((root / "docs").glob("*.md"))
    for f in files:
        if not f.is_file():
            continue
        rel = f.relative_to(root)
        for lineno, line in enumerate(
                f.read_text(encoding="utf-8").splitlines(), 1):
            if REMOVAL_RECORD_RE.search(line):
                continue
            for m in REMOVED_NAME_RE.finditer(line):
                errors.append(f"{rel}:{lineno}: '{m.group(1)}' was "
                              f"removed from the code")
    return errors


def function_body(source: str, name: str) -> str:
    """Text between the braces of the definition of @p name (the
    first `name(...)` followed by `{`), or "" when absent."""
    m = re.search(rf"\b{re.escape(name)}\s*\([^;{{]*?\)\s*\{{",
                  source)
    if not m:
        return ""
    depth, start = 1, m.end()
    for i in range(start, len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                return source[start:i]
    return ""


def accepted_flags(root: pathlib.Path) -> dict[str, set[str]]:
    """Binary -> the flags its handler and flag tables accept; a
    binary whose source is absent is left out."""
    tables = root / FLAG_TABLES_SOURCE
    table_code = tables.read_text(encoding="utf-8") \
        if tables.is_file() else ""
    out: dict[str, set[str]] = {}
    for binary, rel in FLAG_BINARIES.items():
        src = root / rel
        if not src.is_file():
            continue
        code = src.read_text(encoding="utf-8")
        flags = set(FLAG_LITERAL_RE.findall(code))
        for table in FLAG_TABLES:
            if re.search(rf"\b{table}\s*\(", code):
                flags |= set(FLAG_LITERAL_RE.findall(
                    function_body(table_code, table)))
        out[binary] = flags
    return out


def cited_flags(path: pathlib.Path, binaries) -> list[tuple[int, str,
                                                             str]]:
    """(line, binary, flag) for each flag @p path passes to one of
    @p binaries: command lines in fenced blocks (with backslash
    continuations joined), and inline code spans outside them."""
    name_re = re.compile(r"(?<![\w-])(" + "|".join(
        re.escape(b) for b in sorted(binaries)) + r")(?![\w.-])")
    out = []

    def scan(lineno: int, text: str) -> None:
        for m in name_re.finditer(text):
            rest = text[m.end():]
            end = COMMAND_END_RE.search(rest)
            rest = rest[:end.start()] if end else rest
            nxt = name_re.search(rest)
            rest = rest[:nxt.start()] if nxt else rest
            for flag in DOC_FLAG_RE.findall(rest):
                out.append((lineno, m.group(1), flag))

    in_fence = False
    command, start = "", 0
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            for span in CODE_SPAN_RE.findall(line):
                scan(lineno, span)
            continue
        if not command:
            start = lineno
        if line.rstrip().endswith("\\"):
            command += line.rstrip()[:-1] + " "
            continue
        scan(start, command + line)
        command = ""
    return out


def doc_flags(root: pathlib.Path) -> list[str]:
    """Rule 5; silent for binaries whose source is absent."""
    accepted = accepted_flags(root)
    if not accepted:
        return []
    errors = []
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for doc in docs:
        if not doc.is_file():
            continue
        for lineno, binary, flag in cited_flags(doc, accepted):
            if flag not in accepted[binary]:
                errors.append(f"{doc.relative_to(root)}:{lineno}: "
                              f"{binary} does not accept '{flag}'")
    return errors


def check(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    files = md_files(root)
    heading_cache: dict[pathlib.Path, set[str]] = {}

    def anchors_of(path: pathlib.Path) -> set[str]:
        if path not in heading_cache:
            heading_cache[path] = headings(path)
        return heading_cache[path]

    referenced_docs: set[pathlib.Path] = set()

    for f in files:
        rel = f.relative_to(root)
        for lineno, target in links(f):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                frag = target[1:]
                if frag not in anchors_of(f):
                    errors.append(f"{rel}:{lineno}: dead anchor "
                                  f"'#{frag}'")
                continue
            path_part, _, frag = target.partition("#")
            dest = (f.parent / path_part).resolve()
            try:
                dest_rel = dest.relative_to(root.resolve())
            except ValueError:
                errors.append(f"{rel}:{lineno}: link escapes the "
                              f"repo: '{target}'")
                continue
            if not dest.exists():
                errors.append(f"{rel}:{lineno}: dead link "
                              f"'{target}'")
                continue
            if f.name == "README.md" and \
                    str(dest_rel).startswith("docs/"):
                referenced_docs.add(dest_rel)
            if frag:
                if not dest.is_file() or dest.suffix != ".md":
                    errors.append(f"{rel}:{lineno}: anchor on "
                                  f"non-markdown target '{target}'")
                elif frag not in anchors_of(dest):
                    errors.append(f"{rel}:{lineno}: dead anchor "
                                  f"'{target}'")

    # Rule 1: README reaches every doc.
    for doc in sorted((root / "docs").glob("*.md")):
        rel = doc.relative_to(root)
        if rel not in referenced_docs:
            errors.append(f"README.md: docs file '{rel}' is never "
                          f"referenced")

    # Rule 4: no doc names a knob the code no longer has.
    errors += stale_knobs(root, files)
    # Rule 5: every documented flag is one its binary accepts.
    errors += doc_flags(root)
    # Rule 6: no doc names a removed switch or stat kind.
    errors += removed_names(root)
    return errors


def self_test() -> int:
    assert github_slug("Hello World") == "hello-world"
    assert github_slug("The `--shards` flag") == "the---shards-flag"
    assert github_slug("A / B (C)") == "a--b-c"
    assert github_slug("vstream-soak-1") == "vstream-soak-1"

    # Rule 4 on a fixture tree: one live env var, one CMake option,
    # one cache variable, a header guard, and one stale name.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "knob.cc").write_text(
            'const char *v = std::getenv("VSTREAM_LIVE_ENV");\n')
        (root / "CMakeLists.txt").write_text(
            'option(VSTREAM_LIVE_OPT "doc" OFF)\n'
            'set(VSTREAM_LIVE_CACHE 1 CACHE STRING "doc")\n')
        (root / "README.md").write_text(
            "`VSTREAM_LIVE_ENV=1`, `-DVSTREAM_LIVE_OPT=ON`,\n"
            "`VSTREAM_LIVE_CACHE`, `VSTREAM_SRC_KNOB_HH`,\n"
            "and the removed `VSTREAM_STALE_IMPL`.\n")
        errors = check(root)
        assert len(errors) == 1, errors
        assert errors[0].startswith("README.md:3: 'VSTREAM_STALE_IMPL'"), \
            errors

    # Rule 5 on a fixture tree: a handler flag, a table flag, and a
    # deleted flag cited both in a continued command and in a span.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "examples").mkdir()
        (root / "src" / "serve").mkdir(parents=True)
        (root / "examples" / "vstream_serve.cpp").write_text(
            'if (f.is("--sessions")) {} else {\n'
            '    return cli::fleetFlag(f, flags);\n}\n'
            'const char *kUsage = " [--batch N]\\n";\n')
        (root / "src" / "serve" / "cli_args.cc").write_text(
            "bool\nsessionFlag(Flag &f)\n{\n"
            '    return f.is("--verify-on-hit");\n}\n'
            "bool\nfleetFlag(Flag &f, FleetFlags &out)\n{\n"
            '    return f.is("--dedup");\n}\n')
        (root / "README.md").write_text(
            "```sh\n./build/examples/vstream_serve --sessions 3 \\\n"
            "    --dedup=on --batch 4  # not --window\n```\n"
            "Run `vstream_serve --verify-on-hit`; `--window` is "
            "prose.\n")
        errors = check(root)
        assert errors == [
            "README.md:2: vstream_serve does not accept '--batch'",
            "README.md:5: vstream_serve does not accept "
            "'--verify-on-hit'"], errors

    # Rule 6 on a fixture tree: a removed name in prose, the same
    # name on a line that records its removal, and a longer
    # identifier that merely contains one.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "docs").mkdir()
        (root / "README.md").write_text(
            "[stats](docs/STATS.md)\n")
        (root / "docs" / "STATS.md").write_text(
            "Register a `stats::Histogram` here.\n"
            "`ReplPolicy` and FIFO (removed in PR 19).\n"
            "`my_verify_display_flag` is unrelated.\n")
        errors = check(root)
        assert errors == [
            "docs/STATS.md:1: 'stats::Histogram' was removed from "
            "the code"], errors
    print("check_docs self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    errors = check(root)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"check_docs: {len(md_files(root))} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
