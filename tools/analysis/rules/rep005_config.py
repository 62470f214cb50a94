"""REP005 — config-knob parity: every DEFAULT_* is env-overridable + documented.

The deployment contract (docs/serving.md) promises that every
``DEFAULT_*`` constant in ``repro/config.py`` can be retuned through a
same-named environment variable.  Env knobs are capacity, concurrency,
latency and path settings; a constant that feeds an answer (n, θ, ε̂) is
a fixed default without the ``DEFAULT_`` prefix and reads no environment
variable.  This rule machine-checks the three-way parity:

* every module-level ``DEFAULT_*`` assignment in config.py must call one
  of the ``_env_int`` / ``_env_float`` helpers;
* the helper's first argument must be the knob's own name (the env var
  *is* the constant name);
* every knob must have a row in the docs/serving.md knob table whose
  env-overridable column says ``**yes**`` — and every ``DEFAULT_*`` row
  in that table must exist in config.py (no stale docs).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable

from tools.analysis.context import Finding, RepoContext

RULE_ID = "REP005"
SUMMARY = "every DEFAULT_* config knob is env-overridable and documented"

_ENV_HELPERS = {"_env_int", "_env_float"}
_CONFIG_RELPATH = "src/repro/config.py"
_DOC_RELPATH = "docs/serving.md"
_ROW_RE = re.compile(r"^\|\s*`(DEFAULT_[A-Z0-9_]+)`\s*\|[^|]*\|\s*([^|]+?)\s*\|")


def check_repo(repo: RepoContext) -> Iterable[Finding]:
    module = repo.module(_CONFIG_RELPATH)
    if module is None:
        yield Finding(_CONFIG_RELPATH, 1, RULE_ID, "config module not analysed")
        return

    knobs: dict[str, int] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if not (
                isinstance(target, ast.Name) and target.id.startswith("DEFAULT_")
            ):
                continue
            name = target.id
            knobs[name] = stmt.lineno
            value = stmt.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _ENV_HELPERS
            ):
                yield Finding(
                    _CONFIG_RELPATH,
                    stmt.lineno,
                    RULE_ID,
                    f"`{name}` is a bare constant: wrap it in _env_int / "
                    "_env_float so deployments can override it",
                )
                continue
            first = value.args[0] if value.args else None
            if not (
                isinstance(first, ast.Constant) and first.value == name
            ):
                yield Finding(
                    _CONFIG_RELPATH,
                    stmt.lineno,
                    RULE_ID,
                    f"`{name}` must use its own name as the env variable "
                    f"(got {ast.unparse(first) if first is not None else 'nothing'})",
                )

    doc_path = repo.root / _DOC_RELPATH
    if not doc_path.exists():
        yield Finding(_DOC_RELPATH, 1, RULE_ID, "knob table document missing")
        return
    documented: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(
        doc_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _ROW_RE.match(line.strip())
        if match:
            documented[match.group(1)] = (lineno, match.group(2))

    for name, lineno in knobs.items():
        if name not in documented:
            yield Finding(
                _CONFIG_RELPATH,
                lineno,
                RULE_ID,
                f"`{name}` has no row in the {_DOC_RELPATH} knob table",
            )
        elif documented[name][1] != "**yes**":
            yield Finding(
                _DOC_RELPATH,
                documented[name][0],
                RULE_ID,
                f"knob-table row for `{name}` must say **yes** in the "
                "env-overridable column",
            )
    for name, (lineno, _) in documented.items():
        if name not in knobs:
            yield Finding(
                _DOC_RELPATH,
                lineno,
                RULE_ID,
                f"knob table documents `{name}` but config.py does not "
                "define it",
            )
