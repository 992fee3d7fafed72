#!/usr/bin/env python3
"""Markdown hygiene for README.md, ROADMAP.md, and docs/.

Stdlib-only (CI and verify.sh both run it; no pip installs).  Checks:

  * internal links resolve: [text](RELATIVE/PATH) must name an existing
    file or directory (resolved against the linking file's directory),
    and [text](PATH#anchor) / [text](#anchor) must name a heading that
    GitHub-slugifies to that anchor in the target file;
  * lint: no hard tabs, no trailing whitespace, file ends with exactly
    one trailing newline;
  * code citations resolve: every *.md name in a *.h, *.cpp or
    CMakeLists.txt under src/, tests/, bench/ and examples/ must name an
    existing file relative to the repository root (default run only).

External links (scheme://) are reported as a count but never fetched —
the job must not depend on the network.  Exit 0 iff everything passes.

    python3 scripts/check_markdown.py            # default file set
    python3 scripts/check_markdown.py A.md B.md  # explicit files
"""

import os
import re
import sys

DEFAULT_FILES = ["README.md", "ROADMAP.md"]
DEFAULT_DIRS = ["docs"]
CODE_DIRS = ["src", "tests", "bench", "examples"]

# Inline links: [text](target).  Images share the syntax ("![alt](...)");
# the optional leading "!" is consumed so nested "[" in alt text cannot
# desync the scan.  Reference-style links are rare here and unchecked.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# A markdown file named in source code: "docs/ARCHITECTURE.md", "README.md".
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")


def github_slug(heading):
    """GitHub's anchor algorithm: lowercase, drop everything but word
    characters/spaces/hyphens, spaces to hyphens (markup stripped first)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = re.sub(r"[*_]", "", text)                     # emphasis
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path):
    anchors = {}
    in_fence = False
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            # Duplicate headings get -1, -2, ... suffixes on GitHub.
            n = anchors.get(slug, -1) + 1
            anchors[slug] = n
            if n:
                anchors[f"{slug}-{n}"] = 0
    return set(anchors)


def lint(path, errors):
    with open(path, "r", encoding="utf-8") as f:
        content = f.read()
    for i, line in enumerate(content.splitlines(), 1):
        if "\t" in line:
            errors.append(f"{path}:{i}: hard tab")
        if line != line.rstrip():
            errors.append(f"{path}:{i}: trailing whitespace")
    if content and not content.endswith("\n"):
        errors.append(f"{path}: missing trailing newline")
    if content.endswith("\n\n"):
        errors.append(f"{path}: multiple trailing newlines")


def check_links(path, errors, external):
    base = os.path.dirname(path)
    in_fence = False
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for m in LINK_RE.finditer(line):
                target = m.group(1)
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # scheme://
                    external.append(target)
                    continue
                ref, _, anchor = target.partition("#")
                dest = path if not ref else os.path.normpath(
                    os.path.join(base, ref))
                if ref and not os.path.exists(dest):
                    errors.append(f"{path}:{i}: dead link '{target}' "
                                  f"({dest} does not exist)")
                    continue
                if anchor:
                    if not dest.endswith(".md"):
                        continue  # anchors into non-markdown: unchecked
                    if anchor not in heading_anchors(dest):
                        errors.append(f"{path}:{i}: dead anchor "
                                      f"'{target}' (no heading slugs to "
                                      f"'#{anchor}' in {dest})")


def walk_files(dirs, keep):
    for d in dirs:
        for root, subdirs, names in os.walk(d):
            subdirs.sort()
            yield from (os.path.join(root, n) for n in sorted(names)
                        if keep(n))


def check_code_citations(path, errors):
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            for m in MD_NAME_RE.finditer(line):
                if not os.path.exists(m.group(1)):
                    errors.append(f"{path}:{i}: cites '{m.group(1)}', "
                                  f"which does not exist")


def main(argv):
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    files = argv[1:]
    sources = []
    if not files:
        files = [f for f in DEFAULT_FILES if os.path.exists(f)]
        files.extend(walk_files(DEFAULT_DIRS, lambda n: n.endswith(".md")))
        sources = list(walk_files(
            CODE_DIRS, lambda n: n.endswith((".h", ".cpp")) or
            n == "CMakeLists.txt"))
    errors, external = [], []
    for f in files:
        if not os.path.exists(f):
            errors.append(f"{f}: no such file")
            continue
        lint(f, errors)
        check_links(f, errors, external)
    for f in sources:
        check_code_citations(f, errors)
    for e in errors:
        print(f"check_markdown: {e}", file=sys.stderr)
    print(f"check_markdown: {len(files)} file(s), "
          f"{len(sources)} source file(s), "
          f"{len(external)} external link(s) skipped, "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
