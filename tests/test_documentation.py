"""Meta-tests: the documentation deliverable is enforced, not aspirational.

Every public module, class, and function in the library must carry a
docstring; the repo-level documents must exist and reference each other
consistently.
"""

import ast
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
        ``src/`` or ``src/repro/`` (bare ``engine.py`` shorthand is exempt).
        A ``dir/file.py::Name[::name]`` reference names a class or function
        that file defines (a ``[param]`` suffix is ignored).  Every
        back-ticked dotted ``repro.…`` name is a module, or an attribute
        reached from the longest importable prefix."""
        generated = {"perf/out/report.json"}  # written by perf/run.py
        documents = [
            REPO_ROOT / name
            for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         ".claude/skills/verify/SKILL.md")
        ] + sorted((REPO_ROOT / "docs").glob("*.md"))

        def locate(doc, ref):
            roots = [REPO_ROOT, doc.parent]
            if ref.endswith(".py"):
                roots += [REPO_ROOT / "src", REPO_ROOT / "src" / "repro"]
            return next((root / ref for root in roots if (root / ref).exists()), None)

        def resolves(doc, ref):
            if ref.endswith(".py") and "/" not in ref:
                return True
            return locate(doc, ref) is not None

        def defines(path, names):
            scope = ast.parse(path.read_text(encoding="utf-8")).body
            for name in names:
                node = next((
                    node for node in scope
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == name
                ), None)
                if node is None:
                    return False
                scope = node.body
            return True

        def names_something(dotted):
            parts = dotted.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                for attr in parts[cut:]:
                    if not hasattr(obj, attr):
                        return False
                    obj = getattr(obj, attr)
                return True
            return False

        dangling = []
        for doc in documents:
            text = doc.read_text(encoding="utf-8")
            where = doc.relative_to(REPO_ROOT)
            dangling += [
                f"{where}: {ref}"
                for ref in re.findall(r"`([\w.\-/]+\.(?:md|json|yml|py))`", text)
                if ref not in generated and not resolves(doc, ref)
            ]
            dangling += [
                f"{where}: {name}"
                for name in re.findall(r"`(repro(?:\.\w+)+)`", text)
                if not names_something(name)
            ]
            for ref, names in re.findall(r"`([\w.\-]+/[\w.\-/]+\.py)::([^`\s]+)`", text):
                path = locate(doc, ref)
                names = [re.sub(r"\[[^\]]*\]$", "", name) for name in names.split("::")]
                if path is None or not defines(path, names):
                    dangling.append(f"{where}: {ref}::{'::'.join(names)}")
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
