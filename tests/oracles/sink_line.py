"""Reference scan-sink line: one detection through ``json.dumps``.

``repro.detection.stream`` writes one line per detection with
:meth:`HomographDetection.as_json`, which spells the JSON field by field.
This module is the renderer that replaced: the detection's
:meth:`~repro.detection.report.HomographDetection.as_dict` through
``json.dumps`` with the default separators.  A property test pins the two
to the same text.
"""

from __future__ import annotations

import json

from repro.detection.report import HomographDetection

__all__ = ["sink_line"]


def sink_line(detection: HomographDetection) -> str:
    """*detection*'s sink line, without its newline."""
    return json.dumps(detection.as_dict(), ensure_ascii=False)
