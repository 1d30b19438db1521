"""The benchmark's own checks, run at a tiny size."""

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _run(name, trace=False, faulty=False):
    return harness.run_workload(name, seed=3, seconds=1.2, trace=trace, tiny=True, faulty=faulty)


@pytest.mark.parametrize("name", NAMES)
def test_workload_completes_and_reports_every_end_to_end_metric(name):
    out = _run(name)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["errors"]
    assert result["attempted"] > 0
    assert list(result["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_no_negative_self_time(name):
    out = _run(name, trace=True)
    result = out["result"]
    assert result["correct"], out["errors"]
    assert list(result["metrics"]) == list(harness.PER_LAYER)
    assert out["samples"]["ops_traced"] > 0
    assert out["samples"]["min_self_us"] >= 0


@pytest.mark.parametrize("name", NAMES)
def test_wrong_unit_makes_failed_frac_positive(name):
    result = _run(name, faulty=True)["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_tracing_is_removed_after_a_run():
    import scpa_host.chain as chain_mod
    import scpa_host.host as host_mod

    before = (host_mod.run_chain, chain_mod.copy, host_mod.Host.dispatch)
    _run("chain_small", trace=True)
    assert (host_mod.run_chain, chain_mod.copy, host_mod.Host.dispatch) == before


def test_reference_listing_matches_the_demo_golden_output():
    fixtures = ROOT / "src" / "scpa_host" / "demo" / "fixtures"
    golden = ROOT / "src" / "scpa_host" / "demo" / "golden" / "sales_fix_1_0_1.txt"
    with open(fixtures / "products.csv", newline="", encoding="utf-8") as fh:
        products = list(csv.DictReader(fh))
    with open(fixtures / "sales.csv", newline="", encoding="utf-8") as fh:
        sales = list(csv.DictReader(fh))
    assert workloads.reference_listing(products, sales) == golden.read_text(encoding="utf-8")


def test_generated_inputs_depend_only_on_the_seed():
    import random

    a = workloads.generate_fixtures(random.Random(7), 30, 90)
    b = workloads.generate_fixtures(random.Random(7), 30, 90)
    c = workloads.generate_fixtures(random.Random(8), 30, 90)
    assert a == b and a != c


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
