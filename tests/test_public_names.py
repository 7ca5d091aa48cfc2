"""Every public name has a caller outside the tests, or a reason to stay.

A name in a ``src/repro`` module's ``__all__`` is *referenced* when a file
under ``src/repro``, ``perf/`` or ``examples/`` uses it as a ``Name`` or as
an attribute outside import statements and ``__all__`` assignments, or when
``.github/workflows/ci.yml`` mentions it.  A public name nothing references
is code that only its own tests reach: delete it, or put it on ``ALLOWED``
with a one-line reason.  An allow-listed name that gains a caller, or no
longer exists, fails too, so the list only shrinks.

Matching is on bare names, so the check is conservative: a same-spelled
name elsewhere hides a dead one (``spawn`` would have passed as
``SeedSequence.spawn`` in ``perf/``), but a live name is never flagged.
CLI subcommands are not checked.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CALLER_TREES = ("src/repro", "perf", "examples")
CI_FILE = REPO_ROOT / ".github" / "workflows" / "ci.yml"

_ITEM_12 = "ROADMAP item 12: an extI figure or deletion"

#: Exported names with no caller outside the tests, and why each stays.
ALLOWED = {
    "InvertedIndexSystem": _ITEM_12,
    "InverseSfcCanSystem": _ITEM_12,
    "KeywordSetSystem": _ITEM_12,
    "VirtualNodeManager": "paper §3.5 virtual-node scheme, no figure yet",
    "LoadBalanceProcess": "paper §3.5 runtime scheme, no figure yet",
    "SyncTransport": "the reference twin tests/net compares AsyncioTransport against",
    "clusters_at_level": "oracle for the paper's Figs. 5–7 cluster counts",
    "count_clusters_per_level": "oracle for the paper's Figs. 5–7 cluster counts",
    "average_cluster_count": "sampled clustering number the curve-family tests compare",
}


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@cache
def _scan() -> tuple[dict[str, list[str]], frozenset[str]]:
    """``(exported name -> modules exporting it, every referenced name)``."""
    exported: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for tree_dir in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree_dir).rglob("*.py")):
            stack: list[ast.AST] = [ast.parse(path.read_text(encoding="utf-8"))]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if _is_all_assignment(node):
                    if tree_dir == "src/repro":
                        module = str(path.relative_to(REPO_ROOT))
                        for name in ast.literal_eval(node.value):
                            exported.setdefault(name, []).append(module)
                    continue
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                stack.extend(ast.iter_child_nodes(node))
    ci_text = CI_FILE.read_text(encoding="utf-8")
    referenced.update(
        name for name in exported if re.search(rf"\b{re.escape(name)}\b", ci_text)
    )
    return exported, frozenset(referenced)


def test_every_public_name_has_a_caller():
    exported, referenced = _scan()
    dead = {
        name: modules
        for name, modules in sorted(exported.items())
        if name not in referenced and name not in ALLOWED
    }
    assert not dead, (
        f"public names only tests reach (delete them, or allow-list with a reason): {dead}"
    )


def test_allow_listed_names_are_still_dead():
    _, referenced = _scan()
    revived = sorted(name for name in ALLOWED if name in referenced)
    assert not revived, f"allow-listed names now have a caller, drop them from ALLOWED: {revived}"


def test_allow_listed_names_exist_and_give_a_reason():
    exported, _ = _scan()
    gone = sorted(name for name in ALLOWED if name not in exported)
    assert not gone, f"allow-listed names no longer exported, drop them from ALLOWED: {gone}"
    assert all(reason.strip() for reason in ALLOWED.values())
