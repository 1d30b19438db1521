"""The three benchmark workloads: generated inputs, one op, and its check.

Every input comes from the seed: bundles are written into a fresh drop dir
and fixtures into a fresh fixtures dir, both inside the benchmark's work dir.
The program under test sees only those files and the dispatched payloads.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any

from scpa_host.chain import ErrorPolicy
from scpa_host.contract import Layer, LayerBinding
from scpa_host.demo.app import COMPUTE_EP, READ_EP, RENDER_EP, DemoApp
from scpa_host.demo.bundles import ROUNDING_UNIT, SALES_UNIT, UNITS_SRC, build_bundle
from scpa_host.host import Host, HostConfig

UNITS_DIR = Path(__file__).parent / "units"

# Longer than any run, so the host's own watcher never fires: every tick
# the benchmark measures is one it called itself.
WATCHER_OFF_MS = 3_600_000

# The repository's sample unit payloads as (source, handler).  Every
# bystander bundle is a copy of one of them, so the bundles a tick scans
# and hashes have the sizes of real units (0.5 to 2.2 KB).
SAMPLE_PAYLOADS = (
    (UNITS_SRC / "sales_by_product" / "payload.py", "read_sales"),
    (UNITS_SRC / "price_rounding_fix" / "payload_1_0_0.py", "round_totals"),
    (UNITS_SRC / "price_rounding_fix" / "payload_1_0_1.py", "round_totals"),
)


def write_unit(
    drop: Path,
    work: Path,
    *,
    name: str,
    version: str,
    priority: int,
    bindings,
    template: str | Path,
) -> None:
    """Render a unit source from a template and build its bundle in the drop dir."""
    text = Path(template).read_text(encoding="utf-8").replace("@UNIT@", f"{name}@{version}")
    source = work / "sources" / f"{name}-{version}.py"
    source.parent.mkdir(parents=True, exist_ok=True)
    source.write_text(text, encoding="utf-8")
    build_bundle(
        drop / name / version,
        name=name,
        version=version,
        priority=priority,
        source=source,
        bindings=bindings,
    )


def bystander_writer(drop: Path, rng: random.Random, name: str, ep: str, sample: int):
    """Return a function that writes one version of a bystander unit: sample
    payload number ``sample`` bound to ``ep``, which nobody dispatches, at a
    seed-chosen layer and priority."""
    source, handler = SAMPLE_PAYLOADS[sample % len(SAMPLE_PAYLOADS)]
    layer = rng.choice(list(Layer))
    priority = rng.randrange(0, 10001)

    def write(version: str) -> None:
        build_bundle(
            drop / name / version,
            name=name,
            version=version,
            priority=priority,
            source=source,
            bindings=(LayerBinding(layer, ep, handler),),
        )

    return write


class Churn:
    """Changes one unit through files only, in a fixed four-step cycle:
    deploy a new version, pin the previous one (rollback), drop a
    ``disabled`` marker, remove it again.

    ``apply`` makes the next change and returns what the following tick
    must report: (activated, deactivated) pairs of (name, version).
    """

    STEPS = ("deploy", "pin", "disable", "enable")

    def __init__(self, drop: Path, name: str, first_version: str, write_version):
        self.name = name
        self.unit_dir = drop / name
        self.write_version = write_version
        self.on_disk = [first_version]
        self.active: str | None = first_version
        self.pinned: str | None = None
        self.step = 0
        self._patch = int(first_version.rsplit(".", 1)[1])

    def apply(self) -> tuple[tuple, tuple]:
        kind = self.STEPS[self.step % len(self.STEPS)]
        self.step += 1
        name, prev = self.name, self.active
        if kind == "deploy":
            self._patch += 1
            version = f"1.0.{self._patch}"
            self.write_version(version)
            self.on_disk.append(version)
            if self.pinned is not None:
                (self.unit_dir / "pin").unlink()
                self.pinned = None
            while len(self.on_disk) > 2:
                shutil.rmtree(self.unit_dir / self.on_disk.pop(0))
            self.active = version
            return ((name, version),), ((name, prev),)
        if kind == "pin":
            target = self.on_disk[-2]
            tmp = self.unit_dir / ".pin.tmp"
            tmp.write_text(f"pin: {target}\n", encoding="utf-8")
            os.replace(tmp, self.unit_dir / "pin")
            self.pinned = self.active = target
            return ((name, target),), ((name, prev),)
        if kind == "disable":
            (self.unit_dir / "disabled").write_bytes(b"")
            self.active = None
            return (), ((name, prev),)
        (self.unit_dir / "disabled").unlink()
        self.active = self.pinned
        return ((name, self.pinned),), ()


class Workload:
    """One set of generated inputs plus the op the clients repeat."""

    name = ""
    clients = 1
    policy = ErrorPolicy.FAIL_CLOSED
    setup_reps = 10
    tick_period_s = 0.010
    # share of the run given to dispatch; the rest runs ticks alone
    # (deploy_churn runs both together for the whole run)
    op_share = 0.8
    concurrent_ticks = False

    def __init__(self, work: Path, seed: int, *, tiny: bool = False, faulty: bool = False):
        self.work = work
        self.drop = work / "drop"
        self.drop.mkdir(parents=True)
        self.tiny = tiny
        self.faulty = faulty
        self.rng = random.Random(seed)
        self.diag_stream = open(work / "diagnostics.log", "w", encoding="utf-8")
        self.churn: Churn | None = None
        self.host: Host | None = None

    def new_host(self) -> Host:
        return Host(
            HostConfig(
                drop_dir=self.drop,
                scan_interval_ms=WATCHER_OFF_MS,
                error_policy=self.policy,
                diagnostics=self.diag_stream,
            )
        )

    def churn_bystander(self) -> None:
        """Churn a bystander: ticks then change the registry, never the
        dispatched chain, so an op's cost and output do not depend on
        where the churn cycle stands."""
        write = bystander_writer(self.drop, self.rng, "bystander", "bench.idle.churn", 0)
        write("1.0.0")
        self.churn = Churn(self.drop, "bystander", "1.0.0", write)

    def attach(self, host: Host) -> None:
        self.host = host

    def request(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def call(self, request: Any) -> Any:
        raise NotImplementedError

    def check(self, request: Any, result: Any, started: float, ended: float) -> bool:
        raise NotImplementedError

    def final_failures(self, history) -> int:
        """Failures only visible once the run is over (none by default)."""
        return 0

    def close(self) -> None:
        self.diag_stream.close()


class ChainSmall(Workload):
    """10 tiny units on one extension point, 2 closed-loop clients."""

    name = "chain_small"
    clients = 2
    EP = "bench.small.run"
    CHAIN = 10

    def __init__(self, work, seed, **kw):
        super().__init__(work, seed, **kw)
        priorities = self.rng.sample(range(1, 1000), self.CHAIN)
        for i, priority in enumerate(priorities):
            write_unit(
                self.drop, work, name=f"small-{i:02d}", version="1.0.0", priority=priority,
                bindings=(LayerBinding(Layer.BUSINESS, self.EP, "run"),),
                template=UNITS_DIR / ("wrong.py" if self.faulty and i == 0 else "counter.py"),
            )
        self.churn_bystander()

    def request(self, rng):
        return {
            "counter": 0,
            "request": f"req-{rng.randrange(10**9):09d}",
            "user": rng.randrange(10**6),
            "tags": [rng.choice("abcdefgh") * rng.randint(1, 4) for _ in range(3)],
        }

    def call(self, request):
        return self.host.dispatch(self.EP, request)

    def check(self, request, result, started, ended):
        return result == dict(request, counter=self.CHAIN)


class RenderLarge(Workload):
    """DemoApp.render over seed-generated products and sales, fail-open."""

    name = "render_large"
    clients = 1
    policy = ErrorPolicy.FAIL_OPEN

    def __init__(self, work, seed, **kw):
        super().__init__(work, seed, **kw)
        n_products, n_sales = (20, 80) if self.tiny else (500, 2000)
        self.fixtures = work / "fixtures"
        self.fixtures.mkdir()
        products, sales = generate_fixtures(self.rng, n_products, n_sales)
        write_csv(self.fixtures / "products.csv", ("id", "name", "price"), products)
        write_csv(self.fixtures / "sales.csv", ("product_id", "quantity", "date"), sales)
        self.expected = reference_listing(products, sales)

        build_bundle(
            self.drop / SALES_UNIT / "1.0.0",
            name=SALES_UNIT,
            version="1.0.0",
            priority=100,
            source=UNITS_SRC / "sales_by_product" / "payload.py",
            bindings=(
                LayerBinding(Layer.DATA, READ_EP, "read_sales"),
                LayerBinding(Layer.BUSINESS, COMPUTE_EP, "compute_totals"),
                LayerBinding(Layer.UI, RENDER_EP, "render_sales_column"),
            ),
        )
        build_bundle(
            self.drop / ROUNDING_UNIT / "1.0.1",
            name=ROUNDING_UNIT,
            version="1.0.1",
            priority=200,
            source=(
                UNITS_DIR / "wrong.py" if self.faulty
                else UNITS_SRC / "price_rounding_fix" / "payload_1_0_1.py"
            ),
            bindings=(LayerBinding(Layer.BUSINESS, COMPUTE_EP, "round_totals"),),
        )
        self.churn_bystander()
        self.app: DemoApp | None = None

    def attach(self, host):
        super().attach(host)
        self.app = DemoApp(host, self.fixtures)

    def request(self, rng):
        return None

    def call(self, request):
        return self.app.render()

    def check(self, request, result, started, ended):
        return result == self.expected


class DeployChurn(Workload):
    """~200 bundles; 5 chained on the dispatched extension point, one churned
    by open-loop ticks while one closed-loop client dispatches."""

    name = "deploy_churn"
    clients = 1
    setup_reps = 2
    tick_period_s = 0.250
    op_share = 1.0
    concurrent_ticks = True
    EP = "bench.churn.run"
    CHAIN = 5

    def __init__(self, work, seed, **kw):
        super().__init__(work, seed, **kw)
        n_bundles = 24 if self.tiny else 200
        if self.tiny:
            self.tick_period_s = 0.030
        rng = self.rng
        for i in range(n_bundles - self.CHAIN):
            # the samples in turn, so every seed scans the same bytes
            bystander_writer(self.drop, rng, f"idle-{i:03d}", f"bench.idle.n{i:03d}", i)("1.0.0")
        priorities = rng.sample(range(1, 1000), self.CHAIN)
        self.chain = sorted((p, f"stage-{i}") for i, p in enumerate(priorities))
        self.chain_names = [name for _, name in self.chain]
        churned = rng.randrange(self.CHAIN)
        for i, (priority, name) in enumerate(self.chain):
            template = UNITS_DIR / ("wrong.py" if self.faulty and i == churned else "stamp.py")

            def write(version, name=name, priority=priority, template=template):
                write_unit(
                    self.drop, work, name=name, version=version, priority=priority,
                    bindings=(LayerBinding(Layer.BUSINESS, self.EP, "stamp"),),
                    template=template,
                )

            write("1.0.0")
            if i == churned:
                self.churn = Churn(self.drop, name, "1.0.0", write)
        self.observed: list[tuple[float, float, tuple]] = []

    def stamps(self, churned_version: str | None) -> tuple:
        """The stamps a dispatch must return while the churned unit is at
        the given version (None: disabled)."""
        out = []
        for name in self.chain_names:
            if name == self.churn.name:
                if churned_version is not None:
                    out.append(f"{name}@{churned_version}")
            else:
                out.append(f"{name}@1.0.0")
        return tuple(out)

    def request(self, rng):
        return {"stamps": [], "request": f"req-{rng.randrange(10**9):09d}"}

    def call(self, request):
        return self.host.dispatch(self.EP, request)

    def check(self, request, result, started, ended):
        # which epoch the dispatch saw is settled after the run, against the
        # tick history; here only the shape is checked
        if result.get("request") != request["request"] or not isinstance(result.get("stamps"), list):
            return False
        self.observed.append((started, ended, tuple(result["stamps"])))
        return True

    def final_failures(self, history) -> int:
        """Dispatches whose stamps match no state live while they ran.

        ``history`` lists (tick start, tick end, churned version after the
        tick) for every changing tick, in order, after the initial state.
        A state is possibly live from the start of the tick that made it to
        the end of the tick that replaced it.
        """
        entries = [(float("-inf"), float("-inf"), "1.0.0")] + list(history)
        starts = [t_start for t_start, _, _ in entries]
        # state i is possibly live until the tick that replaced it ended
        untils = [t_end for _, t_end, _ in entries[1:]] + [float("inf")]
        chains = [self.stamps(version) for _, _, version in entries]
        failures = 0
        for started, ended, stamps in self.observed:
            first = bisect.bisect_left(untils, started)
            last = bisect.bisect_right(starts, ended)
            if stamps not in chains[first:last]:
                failures += 1
        return failures


WORKLOADS = {cls.name: cls for cls in (ChainSmall, RenderLarge, DeployChurn)}


# -- render_large fixtures and reference ----------------------------------------

def generate_fixtures(rng: random.Random, n_products: int, n_sales: int):
    products = []
    for i in range(n_products):
        millis = rng.randrange(1, 500_000)
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 12)))
        products.append({"id": f"p{i + 1}", "name": name, "price": f"{millis // 1000}.{millis % 1000:03d}"})
    sales = []
    for _ in range(n_sales):
        sales.append(
            {
                "product_id": rng.choice(products)["id"],
                "quantity": str(rng.randrange(0, 25)),
                "date": f"2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            }
        )
    return products, sales


def write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(row[c] for c in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_listing(products, sales) -> str:
    """The listing a correct render must produce, computed without the host:
    Decimal totals per product, rounded half-up to cents; a product with no
    sales rows shows ``0.0``."""
    price = {p["id"]: Decimal(p["price"]) for p in products}
    totals: dict[str, Decimal] = {}
    for row in sales:
        pid = row["product_id"]
        totals[pid] = totals.get(pid, Decimal(0)) + price[pid] * int(row["quantity"])
    rows = [("id", "name", "price", "total_sales")]
    for p in products:
        total = totals.get(p["id"])
        if total is None:
            shown = "0.0"
        else:
            shown = str(total.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        rows.append((p["id"], p["name"], str(Decimal(p["price"])), shown))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for r in rows:
        out.append("  ".join(cell + " " * (w - len(cell)) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"
