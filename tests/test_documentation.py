"""Meta-tests: the documentation deliverable is enforced, not aspirational.

Every public module, class, and function in the library must carry a
docstring; the repo-level documents must exist and reference each other
consistently.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        out.append(info.name)
    return sorted(out)


ALL_MODULES = _walk_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name, None)
            if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, f"{module_name}: undocumented public API {undocumented}"

    def test_public_methods_documented(self):
        """Spot-check the main entry points' methods."""
        from repro import KeywordSpace, SquidSystem
        from repro.core.engine import OptimizedEngine
        from repro.overlay.chord import ChordRing

        for cls in (SquidSystem, KeywordSpace, ChordRing, OptimizedEngine):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestRepoDocuments:
    @pytest.mark.parametrize(
        "filename",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/protocol.md", "docs/api.md", "docs/internals.md",
         "docs/resilience.md", "docs/serving.md", "docs/overload.md",
         "docs/performance.md", "docs/storage.md"],
    )
    def test_document_exists(self, filename):
        path = REPO_ROOT / filename
        assert path.exists(), f"{filename} missing"
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_referenced_documents_exist(self):
        """Every back-ticked ``*.md`` / ``*.json`` / ``*.yml`` path in the
        documents resolves against the repo root or the referencing file's
        own directory (``internals.md`` inside ``docs/``); so does every
        ``*.py`` path that names a directory, which may also start at
        ``src/`` or ``src/repro/`` (bare ``engine.py`` shorthand is exempt)."""
        generated = {"perf/out/report.json"}  # written by perf/run.py
        documents = [
            REPO_ROOT / name
            for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         ".claude/skills/verify/SKILL.md")
        ] + sorted((REPO_ROOT / "docs").glob("*.md"))

        def resolves(doc, ref):
            roots = [REPO_ROOT, doc.parent]
            if ref.endswith(".py"):
                if "/" not in ref:
                    return True
                roots += [REPO_ROOT / "src", REPO_ROOT / "src" / "repro"]
            return any((root / ref).exists() for root in roots)

        dangling = [
            f"{doc.relative_to(REPO_ROOT)}: {ref}"
            for doc in documents
            for ref in re.findall(
                r"`([\w.\-/]+\.(?:md|json|yml|py))`", doc.read_text(encoding="utf-8")
            )
            if ref not in generated and not resolves(doc, ref)
        ]
        assert not dangling, dangling

    def test_design_covers_every_figure(self):
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for i in range(9, 20):
            assert f"fig{i:02d}" in text, f"DESIGN.md misses fig{i:02d}"

    def test_experiments_covers_every_figure_and_extension(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for i in range(9, 20):
            assert f"| {i} " in text or f"fig{i:02d}" in text
        for ext in ("extA", "extB", "extC", "extD", "extE", "extF"):
            assert ext in text

    def test_readme_points_at_experiments(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "EXPERIMENTS.md" in text
        assert "DESIGN.md" in text
