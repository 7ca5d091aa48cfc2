"""Every public name, function and method has a caller outside the tests, or a
reason to stay.

A name in a ``src/repro`` module's ``__all__``, and every function or method
a ``src/repro`` module defines (dunders aside), is *referenced* when a file
under ``src/repro``, ``perf/`` or ``examples/`` uses its name as a ``Name``
or as an attribute outside import statements and ``__all__`` assignments, or
when ``.github/workflows/ci.yml`` mentions it.  A name nothing references is
code that only its own tests reach: delete it, or put it on ``ALLOWED`` with
a one-line reason.  An allow-listed name that gains a caller, or no longer
exists, fails too, so the list only shrinks.

``ALLOWED`` keys an exported name or a module-level function by its name and
a method by ``Class.method``.  Matching is on bare names, so the check is
conservative: a same-spelled name elsewhere hides a dead one (``spawn`` would
have passed as ``SeedSequence.spawn`` in ``perf/``, ``Vocabulary.rank_of``
passes as a local of ``sfc/onioncurve.py``), but a live name is never
flagged.  CLI subcommands are not checked.
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
_VIRTUAL_NODES = "ROADMAP item 12, slice 3: paper §3.5 virtual nodes, a fig19 variant or deletion"
_ORACLE = "test oracle: "

#: Names with no caller outside the tests, and why each stays.
ALLOWED = {
    "InvertedIndexSystem": _ITEM_12,
    "VirtualNodeManager": _VIRTUAL_NODES,
    "VirtualNodeManager.adopt": _VIRTUAL_NODES,
    "VirtualNodeManager.physical_peers": _VIRTUAL_NODES,
    "VirtualNodeManager.rebalance": _VIRTUAL_NODES,
    "VirtualNodeManager.split_overloaded": _VIRTUAL_NODES,
    "VirtualNodeManager.virtual_loads": _VIRTUAL_NODES,
    "CanOverlay.join_cost": _ITEM_12 + " (CAN is the next slice)",
    "LoadBalanceProcess": "paper §3.5 runtime scheme, no figure yet",
    "SyncTransport": "the reference twin tests/net compares AsyncioTransport against",
    "SquidSystem.explain": "ROADMAP item 11: the price every query is checked against",
    "FaultPlane.crash_node": "the value a caller passes as ChurnProcess(crash_hook=...)",
    "clusters_at_level": _ORACLE + "the paper's Figs. 5–7 cluster counts",
    "count_clusters_per_level": _ORACLE + "the paper's Figs. 5–7 cluster counts",
    "average_cluster_count": "sampled clustering number the curve-family tests compare",
    "SquidSystem.check_placement_invariant": _ORACLE + "every element at its index's owner",
    "SquidSystem.index_of": _ORACLE + "the per-key index the bulk-publish property checks",
    "ReplicationManager.verify_degree": _ORACLE + "every primary element has its replicas",
    "Cluster.identifier": _ORACLE + "the paper's cluster identifier routing is keyed on",
    "ChordRing.owner_range": _ORACLE + "the key range a Chord node owns",
}


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _definitions(node: ast.AST, prefix: str = ""):
    """The qualified name of every def below ``node``, dunders aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + child.name
            if not isinstance(child, ast.ClassDef) and not (
                child.name.startswith("__") and child.name.endswith("__")
            ):
                yield qualified
            yield from _definitions(child, qualified + ".")
        else:
            yield from _definitions(child, prefix)


@cache
def _scan() -> tuple[dict[str, list[str]], dict[str, list[str]], frozenset[str]]:
    """``(exported name -> modules, qualified def -> modules, referenced names)``."""
    exported: dict[str, list[str]] = {}
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for tree_dir in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree_dir).rglob("*.py")):
            module = str(path.relative_to(REPO_ROOT))
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if tree_dir == "src/repro":
                for qualified in _definitions(tree):
                    defined.setdefault(qualified, []).append(module)
            stack: list[ast.AST] = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if _is_all_assignment(node):
                    if tree_dir == "src/repro":
                        for name in ast.literal_eval(node.value):
                            exported.setdefault(name, []).append(module)
                    continue
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                stack.extend(ast.iter_child_nodes(node))
    ci_text = CI_FILE.read_text(encoding="utf-8")
    bare_names = set(exported) | {_bare(name) for name in defined}
    referenced.update(
        name for name in bare_names if re.search(rf"\b{re.escape(name)}\b", ci_text)
    )
    return exported, defined, frozenset(referenced)


def _bare(name: str) -> str:
    return name.rpartition(".")[2]


def _dead(names: dict[str, list[str]], referenced: frozenset[str]) -> dict[str, list[str]]:
    return {
        name: modules
        for name, modules in sorted(names.items())
        if _bare(name) not in referenced and name not in ALLOWED
    }


def test_every_public_name_has_a_caller():
    exported, _, referenced = _scan()
    dead = _dead(exported, referenced)
    assert not dead, (
        f"public names only tests reach (delete them, or allow-list with a reason): {dead}"
    )


def test_every_function_and_method_has_a_caller():
    _, defined, referenced = _scan()
    dead = _dead(defined, referenced)
    assert not dead, (
        f"functions and methods only tests reach (delete them, or allow-list with a "
        f"reason): {dead}"
    )


def test_allow_listed_names_are_still_dead():
    _, _, referenced = _scan()
    revived = sorted(name for name in ALLOWED if _bare(name) in referenced)
    assert not revived, f"allow-listed names now have a caller, drop them from ALLOWED: {revived}"


def test_allow_listed_names_exist_and_give_a_reason():
    exported, defined, _ = _scan()
    gone = sorted(name for name in ALLOWED if name not in exported and name not in defined)
    assert not gone, f"allow-listed names no longer defined, drop them from ALLOWED: {gone}"
    assert all(reason.strip() for reason in ALLOWED.values())
