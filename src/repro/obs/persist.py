"""The one writer of persisted JSON files.

Run directories (:class:`~repro.obs.registry.RunRegistry`), server session
and tenant files (:class:`~repro.server.store.SessionStore`) and trace
exports (:mod:`repro.obs.export`) all go through :func:`write_json`.

Files are compact, sorted-key JSON: deterministic, and encoded by CPython's
C encoder, which runs only for a one-shot ``json.dumps`` without
``indent``.  ``json.dump`` to a file, or any indented encode, walks the
payload in Python and makes one ``write`` per token.  Readers use
``json.load``, which accepts any layout, so files written indented by
earlier versions still load.
"""

from __future__ import annotations

import json
from os import PathLike
from typing import Any, Union

__all__ = ["write_json"]


def write_json(path: Union[str, PathLike], payload: Any) -> None:
    """Encode ``payload`` once and write it to ``path`` in one call."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
