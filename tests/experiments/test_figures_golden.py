"""Golden fingerprints of every figure, recorded before the figure table.

``figures_golden.json`` (beside this file) was generated by this module's
``__main__`` at commit ``4f5c7fd`` — the parent of the PR that folded the
eleven per-figure modules, the two growth sweeps and the two system builders
into ``repro.experiments.figures``.  Since then two rows have been
re-recorded on purpose.  ``extG`` twice: when the result cache began to keep
its entries through graceful churn and writes that fail the query, and again
when its eviction came to weigh recent lookups by the messages a run costs
(hit rates, expirations and origins moved; ``stale`` stayed 0).  ``extH``
once, when the adaptive curve selector was deleted: its ``selected`` column
and the note that explained it went, and every other value stayed.  A
figure is fingerprinted by the sha256 of its CSV export plus its notes, so a
generator created, passed or consumed in another order shows up as a moved
digest.  The curve is pinned to the paper's (the recorded rows are Hilbert
rows); the store follows the environment, since every backend must produce
the same rows.

Regenerate (only when a figure is *meant* to change) with
``PYTHONPATH=src python -m tests.experiments.test_figures_golden --write <commit>``;
without ``--write`` the module prints one figure's CSV to diff across commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import Config, using
from repro.experiments import EXTENSIONS, FIGURES, run_figure

GOLDEN = Path(__file__).with_name("figures_golden.json")


def run_pinned(figure: str):
    with using(replace(Config.from_env(), curve="hilbert")):
        return run_figure(figure, scale="small")


def fingerprint(figure: str) -> dict:
    result = run_pinned(figure)
    return {
        "csv_sha256": hashlib.sha256(result.to_csv().encode()).hexdigest(),
        "notes": result.notes,
    }


def test_every_figure_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())["figures"]) == sorted(
        [*FIGURES, *EXTENSIONS]
    )


@pytest.mark.parametrize("figure", sorted([*FIGURES, *EXTENSIONS]))
def test_figure_matches_golden(figure):
    assert fingerprint(figure) == json.loads(GOLDEN.read_text())["figures"][figure]


def test_golden_does_not_depend_on_the_hash_seed():
    """Replay every figure but ``extH`` in one fresh interpreter under a hash
    seed other than the suite's own and compare every fingerprint.

    ``extH`` is left out for time: nearly all of its ~27 s is
    ``cluster_stats``' full resolution, which ``test_figure_matches_golden``
    already runs once.
    """
    root = GOLDEN.resolve().parents[2]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    figures = sorted(figure for figure in [*FIGURES, *EXTENSIONS] if figure != "extH")
    code = (
        "import json, sys\n"
        "from tests.experiments.test_figures_golden import fingerprint\n"
        "print(json.dumps({figure: fingerprint(figure) for figure in sys.argv[1:]}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *figures],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(done.stdout)
    golden = json.loads(GOLDEN.read_text())["figures"]
    assert sorted(got) == figures and len(figures) == len(golden) - 1
    moved = [figure for figure in figures if got[figure] != golden[figure]]
    assert not moved, f"under PYTHONHASHSEED={seed} these differ from the recorded run: {moved}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        rows = [  # one figure per line keeps the file, and its diffs, small
            f" {json.dumps(figure)}: {json.dumps(fingerprint(figure), sort_keys=True)}"
            for figure in sorted([*FIGURES, *EXTENSIONS])
        ]
        GOLDEN.write_text(
            f'{{"generated_at": {json.dumps(sys.argv[2])}, "figures": {{\n'
            + ",\n".join(rows)
            + "\n}}\n"
        )
        print(f"wrote {len(rows)} figures to {GOLDEN}")
    else:
        print(run_pinned(sys.argv[1]).to_csv(), end="")
