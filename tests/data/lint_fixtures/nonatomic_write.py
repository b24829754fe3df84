"""Seeded regression for the atomic-write rule (pre-PR 6 ``.idx`` write).

Writing the reference index in place means a crash mid-write leaves a
torn artifact that every later reader mmaps; the fix is
``durable.atomic_write``.
"""

import json


def save_index(idx_path: str, payload: dict) -> None:
    with open(idx_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
