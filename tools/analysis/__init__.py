"""Repo-specific invariant linter for the BlinkML reproduction.

The serving stack runs on a handful of contracts that ordinary linters and
type checkers cannot see — determinism (no global RNG), frozen shared
arrays, lock discipline, config-knob parity, public-API parity and
typed-def coverage.  This package machine-checks
them: each rule module under :mod:`tools.analysis.rules` encodes exactly
one contract, reads the same annotation comments the source carries
(``# guarded-by: _lock``, ``# repro-lint: frozen-attr`` …) and reports
:class:`~tools.analysis.context.Finding` records.

Run it as ``python -m tools.analysis [--check] [paths…]``; the clean-tree
gate in ``tests/test_tools_analysis.py`` runs the same entry point under
pytest so CI fails the moment an invariant regresses.  Suppress a single
finding with a written reason::

    do_unusual_thing()  # repro-lint: disable=REP002 (why this site is safe)

A disable without a reason is itself an error (``REP000``).  The rules are
documented for humans in ``docs/invariants.md``.
"""

from __future__ import annotations

from tools.analysis.context import Finding, RepoContext
from tools.analysis.runner import run_analysis

__all__ = ["Finding", "RepoContext", "run_analysis"]
