"""Operator command surface: run the host, inspect and mutate the drop
folder, and produce impact/metrics reports.

All drop-folder mutations go through the filesystem; a running host picks
them up on its next watcher tick, so no control socket is needed.  Exit
codes: 0 success, 1 operational error, 2 usage error.  Human-readable
output goes to stdout; machine diagnostic lines go to stderr.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import shutil
import sys
import tempfile
import threading
from pathlib import Path

from .chain import ChainError
from .contract import (
    MANIFEST_FILENAME,
    NAME_RE,
    ManifestError,
    ChecksumMismatch,
    parse_manifest,
    parse_version,
    verify_payload,
)
from .demo.app import DemoApp, FixtureError
from .demo.bundles import build_demo_bundles
from .diagnostics import DiagnosticLog
from .host import Host, HostConfig, HostConfigError, load_host_config
from .impact import (
    BASELINE_TABLE,
    ImpactError,
    TREATMENT_TABLE,
    aggregate_metrics,
    align_table,
    closure_comparison,
    format_report,
    load_graph,
    load_metrics_table,
    round_half_up,
)
from .registry import (
    DISABLED_FILENAME,
    RegistryError,
    previous_version,
    resolve_active,
    scan,
    write_pin,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scpa-host",
        description="Drop-folder pipeline-unit host and impact analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start the host over a drop folder")
    run.add_argument("--drop-dir", required=True, type=Path)
    run.add_argument("--config", type=Path, default=None)
    run.add_argument("--demo", action="store_true", help="drive the demo app")
    run.add_argument("--fixtures", type=Path, default=None, help="demo fixture dir")
    run.add_argument("--once", action="store_true", help="scan, render, and exit")
    run.set_defaults(func=cmd_run)

    for name in ("list", "status"):
        lister = sub.add_parser(name, help="list discovered units, states, and pins")
        lister.add_argument("--drop-dir", required=True, type=Path)
        lister.add_argument("--format", choices=("text", "csv"), default="text")
        lister.set_defaults(func=cmd_list)

    deploy = sub.add_parser("deploy", help="copy a bundle into the drop folder")
    deploy.add_argument("bundle", type=Path)
    deploy.add_argument("--drop-dir", required=True, type=Path)
    deploy.set_defaults(func=cmd_deploy)

    disable = sub.add_parser("disable", help="switch a unit off via its marker file")
    disable.add_argument("name")
    disable.add_argument("--drop-dir", required=True, type=Path)
    disable.set_defaults(func=cmd_disable)

    enable = sub.add_parser("enable", help="remove a unit's disabled marker")
    enable.add_argument("name")
    enable.add_argument("--drop-dir", required=True, type=Path)
    enable.set_defaults(func=cmd_enable)

    rollback = sub.add_parser("rollback", help="pin a unit to its previous version")
    rollback.add_argument("name")
    rollback.add_argument("--drop-dir", required=True, type=Path)
    rollback.set_defaults(func=cmd_rollback)

    impact = sub.add_parser("impact", help="rebuild closure for a component change")
    impact.add_argument("--graph", required=True, type=Path)
    impact.add_argument("--changed", required=True)
    impact.add_argument("--format", choices=("text", "csv"), default="text")
    impact.set_defaults(func=cmd_impact)

    metrics = sub.add_parser(
        "paper-metrics", help="aggregate release metrics and report percent changes"
    )
    metrics.add_argument("--baseline", type=Path, default=BASELINE_TABLE)
    metrics.add_argument("--treatment", type=Path, default=TREATMENT_TABLE)
    metrics.add_argument("--format", choices=("text", "csv"), default="text")
    metrics.set_defaults(func=cmd_paper_metrics)

    bundles = sub.add_parser("demo-bundles", help="write the sample bundles to a directory")
    bundles.add_argument("--dest", required=True, type=Path)
    bundles.set_defaults(func=cmd_demo_bundles)

    return parser


def cmd_run(args, stop_event: threading.Event | None = None) -> int:
    if args.config is not None:
        config = load_host_config(args.config, drop_dir=args.drop_dir)
    else:
        config = HostConfig(drop_dir=args.drop_dir)
    host = Host(config)
    host.start()
    try:
        if args.demo:
            app = DemoApp(host, args.fixtures)
            sys.stdout.write(app.render())
            sys.stdout.flush()

            def rerender(_report) -> None:
                sys.stdout.write(app.render())
                sys.stdout.flush()

            host.on_epoch_change(rerender)
        if args.once:
            return 0
        waiter = stop_event if stop_event is not None else threading.Event()
        try:
            while not waiter.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        host.stop()


def cmd_list(args) -> int:
    diag = DiagnosticLog()
    result = scan(args.drop_dir, diag=diag)
    by_name: dict[str, list[str]] = {}
    for discovery in result.discoveries:
        by_name.setdefault(discovery.name, []).append(discovery.version)

    rows: list[tuple[str, str, str, str]] = []
    for name in sorted(by_name):
        versions = sorted(by_name[name], key=parse_version, reverse=True)
        pin = result.pins.get(name)
        try:
            resolved = resolve_active(name, versions, pin)
        except RegistryError:
            resolved = None
        for version in versions:
            if name in result.disabled:
                state = "disabled"
            elif version == resolved:
                state = "active"
            else:
                state = "available"
            rows.append((name, version, state, "yes" if pin == version else ""))

    if args.format == "csv":
        out = io.StringIO()
        writer = csv_module.writer(out)
        writer.writerow(("unit", "version", "state", "pinned"))
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        sys.stdout.write(align_table([("unit", "version", "state", "pinned"), *rows]))
        if result.rejects:
            print()
            print("rejects:")
            for reject in result.rejects:
                print(f"  {reject.path}  {reject.code}  {reject.detail}")
    return 0


def cmd_deploy(args) -> int:
    bundle = Path(args.bundle)
    manifest_path = bundle / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise RegistryError(f"not a bundle (no {MANIFEST_FILENAME}): {bundle}")
    manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"))
    payload_path = bundle / manifest.payload_ref
    verify_payload(manifest, payload_path.read_bytes())

    unit_dir = Path(args.drop_dir) / manifest.name
    target = unit_dir / manifest.version
    existing = target / MANIFEST_FILENAME
    if existing.is_file():
        try:
            current = parse_manifest(existing.read_text(encoding="utf-8"))
        except ManifestError:
            current = None
        if current is not None and current.checksum == manifest.checksum:
            print(f"{manifest.name}@{manifest.version} already deployed (no-op)")
            return 0

    unit_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".deploy-", dir=unit_dir))
    try:
        # payload files land first; the manifest is written last so a half
        # copied bundle can never look complete to a scanning host
        for item in sorted(bundle.iterdir()):
            if item.name == MANIFEST_FILENAME:
                continue
            if item.is_dir():
                shutil.copytree(item, staging / item.name)
            else:
                shutil.copy2(item, staging / item.name)
        shutil.copy2(manifest_path, staging / MANIFEST_FILENAME)
        if target.exists():
            shutil.rmtree(target)
        staging.rename(target)
    finally:
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)
    print(f"deployed {manifest.name}@{manifest.version} to {target}")
    return 0


def _unit_dir(args) -> Path:
    drop = Path(args.drop_dir)
    if not drop.is_dir():
        raise RegistryError(f"drop directory unreadable: {drop}")
    unit_dir = drop / args.name
    if not NAME_RE.fullmatch(args.name) or not unit_dir.is_dir():  # ".." or "a/b" is no unit
        raise RegistryError(f"unknown unit: {args.name}")
    return unit_dir


def cmd_disable(args) -> int:
    unit_dir = _unit_dir(args)
    marker = unit_dir / DISABLED_FILENAME
    if marker.exists():
        print(f"{args.name} already disabled (no-op)")
        return 0
    marker.touch()
    print(f"disabled {args.name}")
    return 0


def cmd_enable(args) -> int:
    unit_dir = _unit_dir(args)
    marker = unit_dir / DISABLED_FILENAME
    if not marker.exists():
        print(f"{args.name} already enabled (no-op)")
        return 0
    marker.unlink()
    print(f"enabled {args.name}")
    return 0


def cmd_rollback(args) -> int:
    result = scan(args.drop_dir)
    versions = [d.version for d in result.discoveries if d.name == args.name]
    if not versions:
        raise RegistryError(f"unknown unit: {args.name}")
    pin = result.pins.get(args.name)
    current = resolve_active(args.name, versions, pin)
    target = previous_version(args.name, current, versions)
    write_pin(Path(args.drop_dir) / args.name, target)
    print(f"rolled back {args.name}: {current} -> {target} (pinned)")
    return 0


def cmd_impact(args) -> int:
    graph = load_graph(Path(args.graph).read_text(encoding="utf-8"))
    comparison = closure_comparison(graph, args.changed)
    if args.format == "csv":
        out = io.StringIO()
        writer = csv_module.writer(out)
        writer.writerow(("changed", "layered_size", "scpa_size", "reduction_percent", "layered_closure"))
        writer.writerow(
            (
                comparison["changed"],
                comparison["layered_size"],
                comparison["scpa_size"],
                f"{round_half_up(comparison['reduction_percent']):.2f}",
                ";".join(comparison["layered_closure"]),
            )
        )
        sys.stdout.write(out.getvalue())
    else:
        members = ", ".join(comparison["layered_closure"])
        print(f"changed: {comparison['changed']}")
        print(f"layered closure ({comparison['layered_size']}): {members}")
        print(f"scpa closure ({comparison['scpa_size']}): {comparison['changed']}")
        print(f"reduction: {round_half_up(comparison['reduction_percent']):.2f}%")
    return 0


def cmd_paper_metrics(args) -> int:
    baseline = load_metrics_table(Path(args.baseline).read_text(encoding="utf-8"))
    treatment = load_metrics_table(Path(args.treatment).read_text(encoding="utf-8"))
    report = aggregate_metrics(baseline, treatment)
    sys.stdout.write(format_report(report, fmt=args.format))
    return 0


def cmd_demo_bundles(args) -> int:
    built = build_demo_bundles(args.dest)
    for (name, version), path in sorted(built.items()):
        print(f"built {name}@{version} at {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (
        ManifestError,
        ChecksumMismatch,
        RegistryError,
        ImpactError,
        HostConfigError,
        ChainError,
        FixtureError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
