"""JSON serialisation helpers for dataclass-based results.

Experiment results (tables, schedules, exploration outcomes) are plain
dataclasses; these helpers turn them into JSON-compatible structures so the
benchmark harness can archive them next to the printed tables.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Union


def dataclass_to_dict(value: Any) -> Any:
    """Recursively convert dataclasses, enums, tuples and paths to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: dataclass_to_dict(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): dataclass_to_dict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [dataclass_to_dict(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    return value


def content_hash(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of ``payload``.

    Dataclasses, enums, tuples and paths are normalised through
    :func:`dataclass_to_dict`; keys are sorted so the digest is stable
    across processes and interpreter runs.  This is the single hashing
    convention shared by the evaluation engine (:mod:`repro.engine.jobs`)
    and the mapping pipeline (:mod:`repro.mapping.pipeline`).
    """
    return json_hash(dataclass_to_dict(payload))


def json_hash(payload: Any) -> str:
    """:func:`content_hash` of a payload that is already plain JSON types.

    Skips the :func:`dataclass_to_dict` walk, which for such a payload
    returns an equal structure, so the digest is the same.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def to_json(value: Any, indent: int = 2) -> str:
    """Serialise ``value`` (possibly containing dataclasses) to a JSON string."""
    return json.dumps(dataclass_to_dict(value), indent=indent, sort_keys=False)


def from_json(text: Union[str, bytes]) -> Any:
    """Parse a JSON document produced by :func:`to_json`."""
    return json.loads(text)
