"""PalimpChat: the chat layer over Palimpzest + Archytas.

"The PalimpChat interface integrates Palimpzest with Archytas by exposing a
series of tools that the LLM-based agent can leverage.  Essentially, these
tools correspond to templated code snippets that can 1. perform fundamental
Palimpzest operations (e.g., registering a dataset, generating schemas,
filtering records) and 2. orchestrate entire pipelines of transformations."
(§2.3)

Pieces:

* :mod:`repro.chat.workspace` — the step log a conversation builds up,
  and the pipeline state folded from it (current dataset, schemas,
  policy, execution options, current result).
* :mod:`repro.chat.tools_pz` — the Palimpzest tool suite exposed to the
  agent (Fig. 2's ``create_schema`` among them).
* :mod:`repro.chat.intent` — the deterministic NL -> tool-call brain that
  replaces the hosted reasoning model (see DESIGN.md substitutions).
* :mod:`repro.chat.codegen` — renders the conversation's pipeline as a
  runnable Palimpzest program (Fig. 6).
* :mod:`repro.chat.notebook` — the Beaker-like notebook substrate: cells
  and ``.ipynb`` export.
* :mod:`repro.chat.session` — ties it all together into a chat session
  whose turn log, beside the step log, is its whole record: the notebook
  renders from it, ``restore`` refolds a prefix of it, and a payload of
  the two resumes the session in another process.
"""

from repro.chat.workspace import PipelineWorkspace, PipelineStep
from repro.chat.tools_pz import build_pz_tools
from repro.chat.intent import PalimpChatBrain, plan_requests
from repro.chat.codegen import generate_program
from repro.chat.notebook import Notebook, NotebookCell
from repro.chat.session import PalimpChatSession, ChatResponse

__all__ = [
    "PipelineWorkspace",
    "PipelineStep",
    "build_pz_tools",
    "PalimpChatBrain",
    "plan_requests",
    "generate_program",
    "Notebook",
    "NotebookCell",
    "PalimpChatSession",
    "ChatResponse",
]
