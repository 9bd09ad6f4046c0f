"""Documentation consistency checks: the docs must not rot.

Verifies that files, modules, examples and CLI commands referenced by
README.md, DESIGN.md and docs/TUTORIAL.md actually exist in the repo.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_referenced_packages_importable(self):
        text = read("README.md")
        for match in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            importlib.import_module(match)

    def test_listed_examples_exist(self):
        text = read("README.md")
        for name in set(re.findall(r"`(\w+\.py)`", text)):
            assert (ROOT / "examples" / name).exists(), name

    def test_named_root_json_files_exist(self):
        for doc in ("README.md", "EXPERIMENTS.md", "docs/ALGORITHMS.md"):
            for name in set(re.findall(r"`([\w.-]+\.json)`", read(doc))):
                assert (ROOT / name).exists(), (doc, name)

    def test_companion_documents_exist(self):
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/TUTORIAL.md",
                    "LICENSE"):
            assert (ROOT / doc).exists(), doc


class TestFilePaths:
    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
            "docs/ALGORITHMS.md", "docs/TUTORIAL.md")
    BASES = (ROOT, ROOT / "src" / "repro", ROOT / "examples",
             ROOT / "tests", ROOT / "bench")

    def test_backticked_python_paths_resolve(self):
        # A deleted or renamed module must not live on in the docs.
        for doc in self.DOCS:
            for name in set(re.findall(r"`([\w./-]+\.py)`", read(doc))):
                assert any((base / name).is_file() for base in self.BASES), \
                    (doc, name)


class TestEnvironmentVariables:
    DOCS = ("README.md", "EXPERIMENTS.md", *sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")),
        ".claude/skills/verify/SKILL.md")

    def test_named_variables_are_read(self):
        # Every REPRO_* variable a document names must appear as a string
        # literal in the code that would read it.
        code = "\n".join(
            path.read_text()
            for top in ("src", "bench", "benchmarks")
            for path in (ROOT / top).rglob("*.py"))
        for doc in self.DOCS:
            if not (ROOT / doc).exists():
                continue
            for name in set(re.findall(r"REPRO_[A-Z_]+", read(doc))):
                assert re.search(rf"[\"']{name}[\"']", code), (doc, name)


class TestDesign:
    def test_bench_targets_exist(self):
        text = read("DESIGN.md")
        for target in set(re.findall(r"`benchmarks/(test_bench_\w+\.py)`",
                                     text)):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_example_targets_exist(self):
        text = read("DESIGN.md")
        for target in set(re.findall(r"`examples/(\w+\.py)`", text)):
            assert (ROOT / "examples" / target).exists(), target

    def test_paper_verification_note_present(self):
        assert "Paper verification" in read("DESIGN.md")


class TestTutorial:
    def test_mentioned_modules_importable(self):
        text = read("docs/TUTORIAL.md")
        for match in set(re.findall(r"from (repro(?:\.\w+)*) import", text)):
            importlib.import_module(match)

    def test_mentioned_symbols_exist(self):
        text = read("docs/TUTORIAL.md")
        imports = re.findall(
            r"from (repro(?:\.\w+)*) import \(([^)]*)\)", text)
        imports += re.findall(
            r"from (repro(?:\.\w+)*) import ([^\n(]+)", text)
        for module_name, symbols in imports:
            module = importlib.import_module(module_name)
            for sym in re.split(r"[,\s]+", symbols.strip()):
                if sym:
                    assert hasattr(module, sym), (module_name, sym)


    def test_flow_config_keywords_are_fields(self):
        from dataclasses import fields

        from repro.core import FlowConfig

        known = {f.name for f in fields(FlowConfig)}
        text = re.sub(r"#[^\n]*", "", read("docs/TUTORIAL.md"))
        calls = re.findall(r"FlowConfig\(([^()]*(?:\([^()]*\)[^()]*)*)\)",
                           text)
        assert calls
        for call in calls:
            for keyword in re.findall(r"(\w+)\s*=(?!=)", call):
                assert keyword in known, keyword


class TestExperimentsDoc:
    def test_results_artifacts_mentioned_exist_after_bench(self):
        """Artifacts named in EXPERIMENTS.md must be produced by some
        benchmark module (the file may not exist before a bench run)."""
        text = read("EXPERIMENTS.md")
        bench_src = "".join(p.read_text()
                            for p in (ROOT / "benchmarks").glob("*.py"))
        for artifact in set(re.findall(r"results/(?:full/|quick/)?([\w.]+\.txt)", text)):
            assert artifact in bench_src, artifact

    def test_all_twelve_circuits_tabulated(self):
        text = read("EXPERIMENTS.md")
        from repro.circuits.library import PAPER_SUITE
        for entry in PAPER_SUITE:
            assert entry.name in text
