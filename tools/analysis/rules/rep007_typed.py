"""REP007 — typed-def coverage: every function signature is annotated.

The CI gate runs ``mypy --strict`` over ``src/repro`` (it pip-installs
mypy; the local toolchain does not ship it).  This rule is the locally
verifiable core of that contract: every ``def`` in the library must
annotate all of its parameters (``self``/``cls`` aside) and its return
type (``__init__`` may omit the return — it is always ``None``).  It
keeps the tree mypy-ready between CI runs and fails fast on the most
common strict-mode regression, the silently untyped def.
"""

from __future__ import annotations

from collections.abc import Iterable

from tools.analysis.context import Finding, ModuleContext

RULE_ID = "REP007"
SUMMARY = "every def annotates all parameters and its return type"

_RETURN_EXEMPT = {"__init__", "__init_subclass__", "__class_getitem__"}


def check_module(module: ModuleContext) -> Iterable[Finding]:
    for func in module.functions:
        args = func.args
        ordered = list(args.posonlyargs) + list(args.args)
        skip_first = bool(ordered) and ordered[0].arg in ("self", "cls")
        to_check = ordered[1:] if skip_first else ordered
        to_check += list(args.kwonlyargs)
        missing = [arg.arg for arg in to_check if arg.annotation is None]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if missing:
            yield Finding(
                module.relpath,
                func.lineno,
                RULE_ID,
                f"`{func.name}` has unannotated parameter(s): "
                + ", ".join(missing),
            )
        if func.returns is None and func.name not in _RETURN_EXEMPT:
            yield Finding(
                module.relpath,
                func.lineno,
                RULE_ID,
                f"`{func.name}` has no return annotation",
            )
