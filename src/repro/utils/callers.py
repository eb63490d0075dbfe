"""Attribute a library warning to the code that called into the library."""

from __future__ import annotations

import sys


def caller_stacklevel(*modules: str) -> int:
    """The ``warnings.warn`` stacklevel of the first caller outside ``modules``.

    Call it from the function that warns.  Every frame whose module is one
    of ``modules``, or inside one of those packages, is skipped, so the
    warning names the line that entered them (a campaign, a flow, a test)
    however deep in them the warning was raised.
    """
    frame = sys._getframe(1)
    level = 1
    while frame is not None and _inside(frame.f_globals.get("__name__", ""), modules):
        frame = frame.f_back
        level += 1
    return level


def _inside(name: str, modules) -> bool:
    return any(name == module or name.startswith(module + ".") for module in modules)
