"""Docs drift check: the backend-choice table lists the registered
backends.

``docs/backends.md`` opens with a "Which backend should I use?" table,
one row per backend. A backend added to (or removed from) the registry
without a row there would leave the guide silently wrong; this test
fails it in tier 1.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.runtime import available_backends

#: repo root (tests/unit/ -> tests/ -> root)
ROOT = Path(__file__).resolve().parents[2]

_HEADING = "## Which backend should I use?"

#: A table row whose first cell is a backticked backend name.
_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def _table_backends() -> set[str]:
    text = (ROOT / "docs" / "backends.md").read_text(encoding="utf-8")
    section = text.split(_HEADING, 1)[1].split("\n## ", 1)[0]
    return {m.group(1) for line in section.splitlines()
            if (m := _ROW_RE.match(line))}


def test_backend_table_matches_the_registry():
    assert _table_backends() == set(available_backends())
