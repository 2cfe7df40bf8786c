"""The Beaker-like notebook substrate.

"Beaker is an implementation of computational notebooks that integrates AI
capabilities into the interactive coding environment ... along with
comprehensive state management that allows users to restore previous
notebook states." (§2.3)

This module provides the document PalimpChat exports: an ordered list of
cells (chat turns, generated code, outputs) and its Jupyter ``.ipynb``
form, which a user can download and keep iterating on.  A session renders
its notebook from its turn log (``PalimpChatSession.notebook``); restoring
a previous state is the session's :meth:`restore`, which refolds the step
log, so the notebook holds no state of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

NBFORMAT_VERSION = 4


@dataclass
class NotebookCell:
    """One notebook cell.

    ``kind`` is ``"markdown"`` (chat turns render as markdown) or
    ``"code"`` (generated pipeline snippets); ``outputs`` holds the textual
    results attached to code cells.
    """

    kind: str
    source: str
    outputs: List[str] = field(default_factory=list)

    def to_ipynb(self) -> Dict[str, Any]:
        if self.kind == "markdown":
            return {
                "cell_type": "markdown",
                "metadata": {},
                "source": self.source.splitlines(keepends=True),
            }
        return {
            "cell_type": "code",
            "execution_count": None,
            "metadata": {},
            "source": self.source.splitlines(keepends=True),
            "outputs": [
                {
                    "output_type": "stream",
                    "name": "stdout",
                    "text": output.splitlines(keepends=True),
                }
                for output in self.outputs
            ],
        }


class Notebook:
    """The cells of one chat session."""

    def __init__(self, title: str = "PalimpChat session"):
        self.title = title
        self.cells: List[NotebookCell] = []

    def add_markdown(self, source: str) -> None:
        self.cells.append(NotebookCell("markdown", source))

    def add_code(self, source: str,
                 outputs: Optional[List[str]] = None) -> None:
        self.cells.append(NotebookCell("code", source, list(outputs or [])))

    def __len__(self) -> int:
        return len(self.cells)

    # -- export -------------------------------------------------------------

    def to_ipynb(self) -> Dict[str, Any]:
        header = NotebookCell(kind="markdown", source=f"# {self.title}")
        return {
            "nbformat": NBFORMAT_VERSION,
            "nbformat_minor": 5,
            "metadata": {
                "kernelspec": {
                    "display_name": "Python 3",
                    "language": "python",
                    "name": "python3",
                },
                "palimpchat": {"generator": "repro", "title": self.title},
            },
            "cells": [header.to_ipynb()]
            + [cell.to_ipynb() for cell in self.cells],
        }

    def save(self, path) -> Path:
        """Write the notebook as a ``.ipynb`` JSON document."""
        path = Path(path)
        path.write_text(json.dumps(self.to_ipynb(), indent=1))
        return path
