"""Reproduction of the paper's evaluation section (Figures 9-19).

:data:`FIGURES` (:mod:`repro.experiments.figures`) and :data:`EXTENSIONS`
(:mod:`repro.experiments.extensions`) map an identifier to its
:class:`~repro.experiments.runner.FigureRow`; calling a row, or
:func:`run_figure`, returns a ``FigureResult``.  ``scale`` is one of
``"small"``, ``"medium"``, ``"full"`` (see
:data:`repro.experiments.runner.SCALES`); ``"full"`` uses the paper's
system sizes.
"""

from repro.experiments.extensions import EXTENSIONS
from repro.experiments.figures import FIGURES
from repro.experiments.runner import SCALES, FigureResult, FigureRow, ScalePreset

__all__ = [
    "FIGURES",
    "EXTENSIONS",
    "SCALES",
    "FigureResult",
    "FigureRow",
    "ScalePreset",
    "figure_row",
    "run_figure",
]


def figure_row(figure: str) -> FigureRow:
    """The table row of a figure (``"fig09"``..) or extension (``"extA"``..)."""
    row = FIGURES.get(figure) or EXTENSIONS.get(figure)
    if row is None:
        raise KeyError(
            f"unknown figure {figure!r}; choose from "
            f"{sorted(FIGURES) + sorted(EXTENSIONS)}"
        )
    return row


def run_figure(figure: str, scale: str = "small", **kwargs) -> FigureResult:
    """Run one reproduced figure or extension at a scale preset."""
    return figure_row(figure)(scale=scale, **kwargs)
