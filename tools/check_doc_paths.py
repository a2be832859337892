#!/usr/bin/env python3
"""check_doc_paths.py — fail when a doc cites a repository file that is gone.

Scans the backticked text of README.md and .claude/skills/verify/SKILL.md
(inline code spans and fenced code blocks) for tokens that name a
repo-relative path under one of the source directories below, and reports
every such path that does not exist. A trailing ``:LINE`` or ``:FIRST-LAST``
is ignored; tokens holding a placeholder (``{``, ``*``, ``$``) are skipped.

Usage:
    check_doc_paths.py [--root DIR]

Exit status: 0 when every cited path exists, 1 otherwise.
"""

import argparse
import os
import re
import sys

PREFIXES = ("bench/", "src/", "tests/", "tools/", "examples/", "perfbench/",
            ".github/")
DOCS = ("README.md", ".claude/skills/verify/SKILL.md")
PLACEHOLDER = re.compile(r"[{*$]")
LINE_SUFFIX = re.compile(r":\d+(-\d+)?$")
INLINE_SPAN = re.compile(r"`([^`\n]+)`")


def backticked_text(markdown):
    """Yields every fenced code block and inline code span of `markdown`."""
    parts = markdown.split("```")
    for i, part in enumerate(parts):
        if i % 2:
            yield part
        else:
            yield from INLINE_SPAN.findall(part)


def cited_paths(markdown):
    for text in backticked_text(markdown):
        for token in text.split():
            token = token.strip("\"'(),;")
            if not token.startswith(PREFIXES) or PLACEHOLDER.search(token):
                continue
            yield LINE_SUFFIX.sub("", token)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()

    missing = 0
    for doc in DOCS:
        with open(os.path.join(args.root, doc), encoding="utf-8") as f:
            markdown = f.read()
        for path in sorted(set(cited_paths(markdown))):
            if not os.path.exists(os.path.join(args.root, path)):
                print(f"{doc}: cites missing path {path}")
                missing += 1
    if missing:
        print(f"check_doc_paths: {missing} missing path(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
