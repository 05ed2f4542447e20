"""Reading saved artifacts back: the checks every artifact loader shares.

``trace-report``, ``observe-report``, ``profile``, ``baseline check``
and ``slo-report`` read JSON files a run wrote earlier, or files that
only claim to be one.  Their loaders parse with :func:`read_json` and
check every number they hand to a report with :func:`is_metric_number`,
so a hostile file fails with a :class:`ValueError` naming it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

__all__ = ["read_json", "is_metric_number"]


def read_json(path: Union[str, Path]) -> Any:
    """Parse the JSON file at ``path``.

    Raises
    ------
    OSError
        If the file cannot be read.
    ValueError
        Naming ``path``, if its bytes are not UTF-8, not JSON, or nested
        too deeply to parse.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def is_metric_number(value: Any) -> bool:
    """Whether a loaded JSON value can stand for a metric: a number, not
    a bool, NaN or infinity, within 64 bits."""
    return type(value) in (int, float) and -(2 ** 63) < value < 2 ** 63
