"""Smoke check of the host on the running interpreter, standard library only.

Starts a host over a temporary drop dir, dispatches, deploys a second
version, pins the first one back and ticks, checking every result:

    PYTHONPATH=src python scripts/smoke.py
"""

from __future__ import annotations

import io
import sys
import tempfile
from pathlib import Path

from scpa_host import Host, HostConfig, Layer, LayerBinding
from scpa_host.demo.bundles import build_bundle
from scpa_host.registry import write_pin

EP = "business.smoke.run"
SOURCE = "def handle(payload, context):\n    return dict(payload, by={version!r})\n"


def deploy(work: Path, version: str) -> None:
    source = work / f"payload-{version}.py"
    source.write_text(SOURCE.format(version=version), encoding="utf-8")
    build_bundle(
        work / "drop" / "smoke" / version,
        name="smoke",
        version=version,
        priority=10,
        source=source,
        bindings=[LayerBinding(Layer.BUSINESS, EP, "handle")],
    )


def expect(what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"smoke: {what}: got {got!r}, want {want!r}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "drop").mkdir()
        deploy(work, "1.0.0")
        config = HostConfig(drop_dir=work / "drop", scan_interval_ms=60_000, diagnostics=io.StringIO())
        host = Host(config)
        host.start()
        try:
            expect("first dispatch", host.dispatch(EP, {"n": 1}), {"n": 1, "by": "1.0.0"})
            deploy(work, "1.1.0")
            expect("deploy tick", host.hot_swap_cycle().activated, (("smoke", "1.1.0"),))
            expect("after deploy", host.dispatch(EP, {})["by"], "1.1.0")
            write_pin(work / "drop" / "smoke", "1.0.0")
            expect("pin tick", host.hot_swap_cycle().activated, (("smoke", "1.0.0"),))
            expect("after pin", host.dispatch(EP, {})["by"], "1.0.0")
            expect("idle tick", host.hot_swap_cycle().changed, False)
        finally:
            host.stop()
    print(f"smoke ok on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
