"""Smoke check of the host on the running interpreter, standard library only.

Starts a host over a temporary drop dir, dispatches through two units,
deploys a second version, rolls it back with ``scpa-host rollback`` and
ticks, then lets a unit call run past its timeout and replaces its version
while the call still runs, has a unit raise an error with no message
under fail-open containment, and redeploys a version whose load failed
once its bundle left the disk, checking every result:

    PYTHONPATH=src python scripts/smoke.py

Under ``-X dev`` a ResourceWarning (an unclosed file or socket) fails it too:
such a warning is raised in a finalizer, where ``-W error`` cannot reach it.
"""

from __future__ import annotations

import gc
import io
import shutil
import sys
import tempfile
import time
from pathlib import Path

from scpa_host import ErrorPolicy, Host, HostConfig, Layer, LayerBinding
from scpa_host.cli import main as cli_main
from scpa_host.demo.bundles import build_bundle

EP = "business.smoke.run"
SOURCE = "def handle(payload, context):\n    return dict(payload, by={version!r})\n"
SECOND = "def handle(payload, context):\n    return dict(payload, second=True)\n"
SLEEPER = "import time\ndef handle(payload, context):\n    time.sleep(0.3)\n    return payload\n"
RAISER = (
    "from scpa_host.contract import UnitExecutionError\n"
    "def handle(payload, context):\n    raise UnitExecutionError()\n"
)
NEEDS_DATA = (
    "from pathlib import Path\n"
    "def load(context):\n"
    "    if not (Path(context.data_dir) / 'ready').exists():\n"
    "        raise RuntimeError('data file missing')\n"
    "def handle(payload, context):\n    return dict(payload, ready=True)\n"
)


def deploy(work: Path, version: str, name: str = "smoke", text: str = SOURCE, priority: int = 10) -> None:
    source = work / f"payload-{name}-{version}.py"
    source.write_text(text.format(version=version), encoding="utf-8")
    build_bundle(
        work / "drop" / name / version,
        name=name,
        version=version,
        priority=priority,
        source=source,
        bindings=[LayerBinding(Layer.BUSINESS, EP, "handle")],
    )


def expect(what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"smoke: {what}: got {got!r}, want {want!r}")


def traces(stream: io.StringIO, start: int) -> list[str]:
    return [line for line in stream.getvalue()[start:].splitlines() if line.startswith("TRACE ")]


def state(host: Host, name: str, version: str) -> str:
    return next(row.state for row in host.status().units if (row.name, row.version) == (name, version))


def check_timeout() -> None:
    """A call past its timeout is an ERROR record, its worker leaves the
    unit's running set once the handler returns, and until then it keeps
    its replaced version draining."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "drop").mkdir()
        deploy(work, "1.0.0", name="sleeper", text=SLEEPER)
        stream = io.StringIO()
        config = HostConfig(
            drop_dir=work / "drop",
            scan_interval_ms=60_000,
            error_policy=ErrorPolicy.FAIL_OPEN,
            unit_timeout_ms=50,
            diagnostics=stream,
        )
        host = Host(config)
        host.start()
        try:
            start = len(stream.getvalue())
            expect("timed-out dispatch", host.dispatch(EP, {"n": 2}), {"n": 2})
            expect("timed-out outcome", [line.split()[5] for line in traces(stream, start)], ["error"])
            running = host.registry.snapshot.bound["sleeper"].running  # the unit's one BoundUnit
            deploy(work, "1.0.1", name="sleeper", text=SLEEPER)
            expect("replacing tick", host.hot_swap_cycle().activated, (("sleeper", "1.0.1"),))
            expect("while the abandoned call runs", state(host, "sleeper", "1.0.0"), "draining")
            deadline = time.monotonic() + 2
            while running and time.monotonic() < deadline:
                time.sleep(0.01)
            expect("running calls after the handler returned", len(running), 0)
            host.hot_swap_cycle()
            expect("after the call returned and a tick", state(host, "sleeper", "1.0.0"), "retired")
        finally:
            host.stop()


def check_containment() -> None:
    """Under fail-open, a unit that raises UnitExecutionError() with no
    message is an ERROR record, and the next unit's output still comes back."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "drop").mkdir()
        deploy(work, "1.0.0", name="raiser", text=RAISER, priority=10)
        deploy(work, "1.0.0", name="second", text=SECOND, priority=20)
        stream = io.StringIO()
        config = HostConfig(
            drop_dir=work / "drop",
            scan_interval_ms=60_000,
            error_policy=ErrorPolicy.FAIL_OPEN,
            diagnostics=stream,
        )
        host = Host(config)
        host.start()
        try:
            start = len(stream.getvalue())
            expect("contained dispatch", host.dispatch(EP, {"n": 3}), {"n": 3, "second": True})
            expect(
                "contained dispatch traces",
                [(line.split()[3], line.split()[5]) for line in traces(stream, start)],
                [("raiser@1.0.0", "error"), ("second@1.0.0", "ok")],
            )
        finally:
            host.stop()


def check_redeploy_after_failure() -> None:
    """A version whose load failed is not retried while its bundle stays on
    disk; removed and redeployed with the same bytes, it loads again."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "drop").mkdir()
        deploy(work, "1.0.0", name="needs-data", text=NEEDS_DATA)
        config = HostConfig(drop_dir=work / "drop", scan_interval_ms=60_000, diagnostics=io.StringIO())
        host = Host(config)
        host.start()
        try:
            expect("without its data file", state(host, "needs-data", "1.0.0"), "failed")
            expect("failed dispatch", host.dispatch(EP, {}), {})
            (work / "drop" / ".scpa" / "data" / "needs-data" / "ready").touch()
            expect("same bytes on disk", host.hot_swap_cycle().changed, False)
            shutil.rmtree(work / "drop" / "needs-data")
            host.hot_swap_cycle()
            expect("status after removal", host.status().units, ())
            deploy(work, "1.0.0", name="needs-data", text=NEEDS_DATA)
            expect("redeploy tick", host.hot_swap_cycle().activated, (("needs-data", "1.0.0"),))
            expect("after redeploy", host.dispatch(EP, {}), {"ready": True})
        finally:
            host.stop()


def main() -> int:
    unraisable = []
    sys.unraisablehook = unraisable.append
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "drop").mkdir()
        deploy(work, "1.0.0")
        deploy(work, "1.0.0", name="second", text=SECOND, priority=20)
        stream = io.StringIO()
        config = HostConfig(drop_dir=work / "drop", scan_interval_ms=60_000, diagnostics=stream)
        host = Host(config)
        host.start()
        try:
            start = len(stream.getvalue())
            expect("first dispatch", host.dispatch(EP, {"n": 1}), {"n": 1, "by": "1.0.0", "second": True})
            expect(
                "first dispatch traces",
                [line.split()[3] for line in traces(stream, start)],
                ["smoke@1.0.0", "second@1.0.0"],
            )
            deploy(work, "1.1.0")
            expect("deploy tick", host.hot_swap_cycle().activated, (("smoke", "1.1.0"),))
            expect("after deploy", host.dispatch(EP, {})["by"], "1.1.0")
            expect("rollback exit", cli_main(["rollback", "smoke", "--drop-dir", str(work / "drop")]), 0)
            expect("rollback tick", host.hot_swap_cycle().activated, (("smoke", "1.0.0"),))
            expect("after rollback", host.dispatch(EP, {})["by"], "1.0.0")
            expect("idle tick", host.hot_swap_cycle().changed, False)
        finally:
            host.stop()
    check_timeout()
    check_containment()
    check_redeploy_after_failure()
    gc.collect()
    expect("warnings raised in finalizers", [str(u.exc_value) for u in unraisable], [])
    print(f"smoke ok on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
