"""Self-describing JSON file formats for instances and solutions.

Instances and solutions round-trip losslessly through a canonical form
(sorted keys, no whitespace variation), and every solution file references
its instance by the SHA-256 of that canonical form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .geometry import GknapInstance, Item, MisrInstance, Packing, Placement


class FileFormatError(ValueError):
    """The file exists but does not match the documented schema."""


def canonical_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Mapping[str, Any]) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class InstanceFile:
    """Typed wrapper around one instance payload plus free-form metadata."""

    kind: str  # "misr" | "gknap"
    instance: Union[MisrInstance, GknapInstance]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        if self.kind == "misr":
            body: dict[str, Any] = {
                "type": "misr",
                "rects": [[r.x1, r.y1, r.x2, r.y2] for r in self.instance.rects],
            }
        elif self.kind == "gknap":
            body = {
                "type": "gknap",
                "N": self.instance.N,
                "items": [[it.w, it.h] for it in self.instance.items],
                "rotations": self.instance.rotations,
            }
        else:
            raise FileFormatError(f"unknown instance kind {self.kind!r}")
        if self.metadata:
            body["metadata"] = dict(self.metadata)
        return body

    @property
    def hash(self) -> str:
        return content_hash(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "InstanceFile":
        kind = payload.get("type")
        meta = payload.get("metadata", {})
        if not isinstance(meta, dict):
            raise FileFormatError(f"metadata must be a JSON object, got {type(meta).__name__}")
        try:
            if kind == "misr":
                inst = MisrInstance.from_coords([_exact(v, int, "corner") for v in r] for r in payload["rects"])
            elif kind == "gknap":
                inst = GknapInstance(
                    _exact(payload["N"], int, "N"),
                    tuple(Item(_exact(w, int, "side"), _exact(h, int, "side")) for w, h in payload["items"]),
                    _exact(payload.get("rotations", True), bool, "rotations"),
                )
            else:
                raise FileFormatError(f"unknown instance type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed {kind} instance: {exc}") from exc
        return cls(kind, inst, dict(meta))


@dataclass(frozen=True)
class SolutionFile:
    """A solution or packing, linked to its instance by content hash."""

    kind: str  # "misr-solution" | "gknap-packing"
    instance_hash: str
    selected: Optional[tuple[int, ...]] = None
    packing: Optional[Packing] = None
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        body: dict[str, Any] = {"type": self.kind, "instance_hash": self.instance_hash}
        if self.kind == "misr-solution":
            body["selected"] = list(self.selected or ())
        elif self.kind == "gknap-packing":
            assert self.packing is not None
            body["N"] = self.packing.N
            body["placements"] = [
                [pl.item, _coord_out(pl.x), _coord_out(pl.y), pl.rotated]
                for pl in self.packing.placements
            ]
        else:
            raise FileFormatError(f"unknown solution kind {self.kind!r}")
        if self.provenance:
            body["provenance"] = dict(self.provenance)
        return body

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SolutionFile":
        kind = payload.get("type")
        prov = payload.get("provenance", {})
        try:
            ih = payload["instance_hash"]
            if kind == "misr-solution":
                return cls(kind, ih, tuple(_exact(i, int, "index") for i in payload["selected"]), None, prov)
            if kind == "gknap-packing":
                packing = Packing(
                    _exact(payload["N"], int, "N"),
                    tuple(
                        Placement(_exact(i, int, "item"), _exact(x, int, "x"), _exact(y, int, "y"),
                                  _exact(r, bool, "rotated"))
                        for i, x, y, r in payload["placements"]
                    ),
                )
                return cls(kind, ih, None, packing, prov)
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed {kind} solution: {exc}") from exc
        raise FileFormatError(f"unknown solution type {kind!r}")


def _exact(v: Any, kind: type, what: str):
    """``v`` if its type is ``kind`` itself: no float, string or bool is coerced."""
    if type(v) is not kind:
        raise FileFormatError(f"{what} must be {'an integer' if kind is int else 'true or false'}, got {v!r}")
    return v


def _coord_out(v) -> int:
    if isinstance(v, int):
        return v
    if v == int(v):
        return int(v)
    raise FileFormatError(f"non-integer coordinate {v} cannot be serialized")


def save(obj: Union[InstanceFile, SolutionFile], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(canonical_json(obj.to_payload()) + "\n")
    return path


def load(path: Union[str, Path]) -> Union[InstanceFile, SolutionFile]:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise FileFormatError(f"{path} is missing the type tag")
    if payload["type"] in ("misr", "gknap"):
        return InstanceFile.from_payload(payload)
    return SolutionFile.from_payload(payload)


def load_instance(path: Union[str, Path]) -> InstanceFile:
    obj = load(path)
    if not isinstance(obj, InstanceFile):
        raise FileFormatError(f"{path} holds a solution, expected an instance")
    return obj


def load_solution(path: Union[str, Path]) -> SolutionFile:
    obj = load(path)
    if not isinstance(obj, SolutionFile):
        raise FileFormatError(f"{path} holds an instance, expected a solution")
    return obj
