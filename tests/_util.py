"""Shared helpers for building in-memory registries and on-disk bundles."""

from __future__ import annotations

import os
from pathlib import Path

from scpa_host.chain import BoundUnit
from scpa_host.contract import (
    Layer,
    LayerBinding,
    MANIFEST_FILENAME,
    Manifest,
    ReferenceUnit,
    payload_checksum,
    serialize_manifest,
)
from scpa_host.registry import Discovery, Registry

ZERO_CHECKSUM = "0" * 64

_LAYER_NAMES = {layer.value for layer in Layer}


def layer_for(extension_point: str) -> Layer:
    first = extension_point.split(".")[0]
    return Layer(first) if first in _LAYER_NAMES else Layer.BUSINESS


def reference_manifest(
    name: str,
    version: str,
    priority: int,
    extension_points,
    reentrant: bool = True,
) -> Manifest:
    bindings = tuple(
        LayerBinding(layer_for(ep), ep, "handle") for ep in extension_points
    )
    return Manifest(
        name=name,
        version=version,
        priority=priority,
        reentrant=reentrant,
        bindings=bindings,
        payload_ref="payload.py",
        checksum=ZERO_CHECKSUM,
    )


def unit_discovery(
    unit: ReferenceUnit, priority: int = 100, reentrant: bool = True
) -> Discovery:
    manifest = reference_manifest(
        unit.name, unit.version, priority, sorted(unit.behaviors), reentrant
    )
    return Discovery(name=unit.name, version=unit.version, manifest=manifest)


class MemoryRegistry:
    """Registry over in-memory reference units, no disk involved."""

    def __init__(self, **registry_kwargs):
        self._units: dict[tuple[str, str], ReferenceUnit] = {}
        self.registry = Registry(self._factory, **registry_kwargs)

    def _factory(self, discovery: Discovery, context):
        return self._units[(discovery.name, discovery.version)]

    def add(self, unit: ReferenceUnit, priority: int = 100, reentrant: bool = True):
        self._units[(unit.name, unit.version)] = unit
        return self.registry.activate(unit_discovery(unit, priority, reentrant))

    def bound(self) -> dict[str, BoundUnit]:
        return {
            name: BoundUnit(unit=entry.unit, gate=entry.gate)
            for name, entry in self.registry.active_entries().items()
        }

    @property
    def snapshot(self):
        return self.registry.snapshot


def write_bundle(
    drop_dir: Path,
    name: str,
    version: str,
    payload_source: str,
    bindings,
    priority: int = 100,
    reentrant: bool = True,
    description: str | None = None,
) -> Path:
    """Write a complete bundle under the drop-folder layout.

    bindings: iterable of (layer, extension_point, handler) triples.
    """
    bundle = Path(drop_dir) / name / version
    bundle.mkdir(parents=True, exist_ok=True)
    payload = payload_source.encode("utf-8")
    manifest = Manifest(
        name=name,
        version=version,
        priority=priority,
        reentrant=reentrant,
        bindings=tuple(LayerBinding(Layer(l), ep, h) for l, ep, h in bindings),
        payload_ref="payload.py",
        checksum=payload_checksum(payload),
        description=description,
    )
    (bundle / "payload.py").write_bytes(payload)
    (bundle / MANIFEST_FILENAME).write_text(serialize_manifest(manifest), encoding="utf-8")
    return bundle


def deploy_bundle(drop_dir: Path, name: str, version: str, payload_source: str, bindings, **kwargs) -> Path:
    """Write a bundle into a staging directory beside the drop folder, then
    rename it into place whole, as ``scpa-host deploy`` does: a host scanning
    meanwhile never sees it half written."""
    staged = write_bundle(Path(drop_dir).parent / ".staging", name, version, payload_source, bindings, **kwargs)
    target = Path(drop_dir) / name / version
    target.parent.mkdir(parents=True, exist_ok=True)
    os.rename(staged, target)
    return target


def record_sequence_ok(sequence: list[str]) -> bool:
    """True when a call log is a prefix of load (execute next)*."""
    if not sequence:
        return True
    if sequence[0] != "load":
        return False
    rest = [c for c in sequence[1:] if c != "unload"]
    for i, call in enumerate(rest):
        expected = "execute" if i % 2 == 0 else "next"
        if call != expected:
            return False
    return True
