#!/usr/bin/env python3
"""Documentation checks, run by the CI docs job and the docs_check ctest.

1. Every intra-repo markdown link in every tracked .md file must resolve
   to an existing file or directory (http(s)/mailto/pure-anchor links are
   skipped; fragments are stripped before the existence check).
2. Every figure bench binary (bench/bench_*.cpp, minus the bench_merge
   tool and the optional bench_micro) must appear in the README
   reproduction matrix.
3. Every `bench_<name>` mentioned anywhere in the docs must correspond to
   an existing bench source — catches stale binary names left behind by
   renames. CHANGES.md, the history, may still name a retired bench.
4. Handbook docs that other docs are contractually required to link
   (REQUIRED_DOC_LINKS) must exist and be linked from each named page.
5. Every recipe line inside a fenced code block that invokes a
   `build/bench_*` binary must name an existing bench and use only flags
   the shared CLI (or, for bench_micro, google-benchmark's) actually
   accepts — catches handbook recipes that rot as flags are renamed.
6. The backticked column names in the first cells of the Record column
   schema table (docs/ARCHITECTURE.md) must equal the header line of the
   golden CSV fixture, in order; a row marked "(each + `_ci95`)" also
   lists each name's `_ci95` column right after it.
7. Every `*.md` name a comment or string cites in a source file under
   src/, bench/, tests/ or examples/ must resolve from the repo root or
   from docs/ — catches code that points its reader at a doc that does
   not exist.

Usage: check_docs.py [repo-root]   (default: the parent of this script)
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", ".claude", "node_modules"}
# Bench sources that are tools or optional, not figure reproductions.
NON_FIGURE_BENCHES = {"bench_merge", "bench_micro"}
# (doc, bench): the history may name a retired bench.
RETIRED_BENCH_REFS = {("CHANGES.md", "bench_perf")}
# Benches the docs may reference as FUTURE work (ROADMAP items) without a
# source existing yet; remove an entry once its bench lands.
PLANNED_BENCHES = set()

# Doc -> pages that must link to it (paths relative to the repo root).
REQUIRED_DOC_LINKS = {
    "docs/OVERLOAD.md": ["README.md", "docs/ARCHITECTURE.md"],
}

# Flags bench_common.h's parse_args accepts (every figure bench + tools).
KNOWN_BENCH_FLAGS = {"--full", "--threads", "--seed", "--reps", "--duration",
                     "--out", "--format", "--shard", "--help"}
# bench_micro takes google-benchmark's flags.
KNOWN_MICRO_FLAGS = {"--benchmark_filter", "--benchmark_repetitions",
                     "--benchmark_min_time", "--benchmark_out",
                     "--benchmark_out_format", "--help"}

SCHEMA_DOC = "docs/ARCHITECTURE.md"
SCHEMA_HEADING = "### The Record column schema (authoritative)"
SCHEMA_GOLDEN = "tests/golden/report.csv"
CI_NOTE = "(each + `_ci95`)"

# Source trees whose comments and strings may cite docs (rule 7), and
# the directories a cited name may resolve from.
CODE_DIRS = ("src", "bench", "tests", "examples")
CODE_EXTS = (".h", ".cpp", ".py", ".sh")
DOC_BASES = ("", "docs")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_REF_RE = re.compile(r"\b(bench_[a-z0-9_]+)\b")
RECIPE_RE = re.compile(r"(?:^|[\s./])build/(bench_[a-z0-9_]+)(\s[^\n]*)?$")
FLAG_RE = re.compile(r"(--[a-z_-]+)")
CODE_NAME_RE = re.compile(r"`([A-Za-z0-9_]+)`")
MD_CITE_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_links(root):
    errors = []
    for path in md_files(root):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target.split("#")[0])
            )
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def bench_sources(root):
    bench_dir = os.path.join(root, "bench")
    return {
        name[: -len(".cpp")]
        for name in os.listdir(bench_dir)
        if name.startswith("bench_") and name.endswith(".cpp")
    }


def check_readme_matrix(root, benches):
    # Scope the completeness check to the matrix TABLE itself — a bench
    # mentioned only in surrounding prose must still fail the gate.
    errors = []
    readme = os.path.join(root, "README.md")
    with open(readme, encoding="utf-8") as f:
        lines = f.read().splitlines()
    table = [
        line
        for line in lines
        if line.lstrip().startswith("|") and "Paper artifact" not in line
    ]
    if not table:
        return ["README.md: no reproduction-matrix table found "
                "(rows starting with '|')"]
    text = "\n".join(table)
    for bench in sorted(benches - NON_FIGURE_BENCHES):
        if bench not in text:
            errors.append(
                f"README.md: bench binary '{bench}' is missing from the "
                "reproduction matrix table"
            )
    return errors


def check_stale_bench_refs(root, benches):
    errors = []
    for path in md_files(root):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, root)
        for ref in set(BENCH_REF_RE.findall(text)):
            if (
                ref not in benches
                and ref != "bench_common"
                and ref not in PLANNED_BENCHES
                and (rel, ref) not in RETIRED_BENCH_REFS
            ):
                errors.append(f"{rel}: stale bench reference '{ref}' (no "
                              f"bench/{ref}.cpp)")
    return errors


def check_required_doc_links(root):
    errors = []
    for doc, pages in sorted(REQUIRED_DOC_LINKS.items()):
        doc_path = os.path.join(root, doc)
        if not os.path.exists(doc_path):
            errors.append(f"{doc}: required handbook doc does not exist")
            continue
        doc_name = os.path.basename(doc)
        for page in pages:
            page_path = os.path.join(root, page)
            with open(page_path, encoding="utf-8") as f:
                targets = LINK_RE.findall(f.read())
            if not any(t.split("#")[0].endswith(doc_name) for t in targets):
                errors.append(f"{page}: must link to {doc}")
    return errors


def fenced_lines(text):
    """Lines inside ``` fences, with the fence markers themselves skipped."""
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            yield line


def check_recipes(root, benches):
    errors = []
    for path in md_files(root):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, root)
        for line in fenced_lines(text):
            match = RECIPE_RE.search(line)
            if not match:
                continue
            bench, tail = match.group(1), match.group(2) or ""
            if bench not in benches:
                errors.append(
                    f"{rel}: recipe invokes '{bench}' but there is no "
                    f"bench/{bench}.cpp")
                continue
            known = (KNOWN_MICRO_FLAGS if bench == "bench_micro"
                     else KNOWN_BENCH_FLAGS)
            for flag in FLAG_RE.findall(tail):
                if flag not in known:
                    errors.append(
                        f"{rel}: recipe for {bench} uses unknown flag "
                        f"'{flag}' (known: {', '.join(sorted(known))})")
    return errors


def schema_doc_columns(text):
    """Column names listed by the schema table, in order; None if absent."""
    lines = text.splitlines()
    if SCHEMA_HEADING not in lines:
        return None
    names = []
    for line in lines[lines.index(SCHEMA_HEADING) + 1:]:
        if line.startswith("#"):
            break
        if not line.lstrip().startswith("|"):
            if names:
                break  # the paragraph after the table
            continue
        first = line.strip().strip("|").split("|")[0]
        with_ci = CI_NOTE in first
        for name in CODE_NAME_RE.findall(first.replace(CI_NOTE, "")):
            names.append(name)
            if with_ci:
                names.append(name + "_ci95")
    return names


def check_schema_doc(root):
    with open(os.path.join(root, SCHEMA_DOC), encoding="utf-8") as f:
        documented = schema_doc_columns(f.read())
    if documented is None:
        return [f"{SCHEMA_DOC}: no '{SCHEMA_HEADING}' section"]
    with open(os.path.join(root, SCHEMA_GOLDEN), encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    if documented == header:
        return []
    errors = [
        f"{SCHEMA_DOC}: schema table lacks column '{c}' "
        f"(in {SCHEMA_GOLDEN})"
        for c in header if c not in documented
    ] + [
        f"{SCHEMA_DOC}: schema table lists '{c}', which "
        f"{SCHEMA_GOLDEN} does not have"
        for c in documented if c not in header
    ]
    if not errors:
        errors.append(f"{SCHEMA_DOC}: schema table order differs from the "
                      f"{SCHEMA_GOLDEN} header")
    return errors


def check_code_doc_citations(root):
    errors = []
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if not name.endswith(CODE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as f:
                    for lineno, line in enumerate(f, 1):
                        for cited in MD_CITE_RE.findall(line):
                            if not any(
                                os.path.isfile(os.path.join(root, base, cited))
                                for base in DOC_BASES
                            ):
                                errors.append(
                                    f"{rel}:{lineno}: cites {cited}, which "
                                    "resolves from neither the repo root "
                                    "nor docs/")
    return errors


def main():
    root = os.path.abspath(
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir)
    )
    benches = bench_sources(root)
    errors = (
        check_links(root)
        + check_readme_matrix(root, benches)
        + check_stale_bench_refs(root, benches)
        + check_required_doc_links(root)
        + check_recipes(root, benches)
        + check_schema_doc(root)
        + check_code_doc_citations(root)
    )
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        print(f"\n{len(errors)} docs error(s)", file=sys.stderr)
        return 1
    print("docs OK: links resolve, README matrix covers every bench "
          "binary, required handbook links present, recipes runnable, "
          "schema table matches the golden header, code cites existing "
          "docs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
