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
