"""repro-lint: repo-aware static analysis for the invariants PRs 1-8 rely on.

Every fast path in this reproduction is only correct because of a handful
of invariants the code cannot express in types: length-preserving case
folding (the U+0130/ß bug class), config-complete cache/index
fingerprints, artifact writes only through ``repro.durable``,
spawn-picklable worker-pool state, and lock-guarded shared state in the online detector.
PRs 1-8 enforced these by hand-audit; this package machine-checks them so
CI — not reviewer memory — holds the line.

Entry points: the ``repro-lint`` console script, ``python -m repro.lint``,
and :func:`repro.lint.engine.run_lint` for programmatic use.  Rule
catalogue, pragma syntax, and the baseline workflow are documented in
``docs/LINT.md``.

The package is intentionally self-contained (stdlib only, no imports
from the rest of :mod:`repro`) so it can lint a broken tree, and it is
the strict-mypy subset of the repo (see ``[tool.mypy]`` in
``pyproject.toml``).
"""

from __future__ import annotations

from repro.lint.engine import Finding, LintResult, run_lint

__all__ = ["Finding", "LintResult", "run_lint"]
