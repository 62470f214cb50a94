"""Rule registry: one module per machine-checked contract.

Per-module rules implement ``check_module(module) -> Iterable[Finding]``;
repo-level rules (config/doc parity) implement
``check_repo(repo) -> Iterable[Finding]``.  A rule may implement both.
"""

from __future__ import annotations

from tools.analysis.rules import (
    rep001_rng,
    rep002_frozen,
    rep003_locks,
    rep005_config,
    rep006_api,
    rep007_typed,
)

ALL_RULES = [
    rep001_rng,
    rep002_frozen,
    rep003_locks,
    rep005_config,
    rep006_api,
    rep007_typed,
]

__all__ = ["ALL_RULES"]
