"""Deliberately wrong handlers, used only to show that the benchmark's
output checks catch a unit that returns a wrong result (@UNIT@)."""

from decimal import ROUND_DOWN, Decimal


def run(payload, context):
    out = dict(payload)
    out["counter"] = out["counter"] + 2
    return out


def stamp(payload, context):
    out = dict(payload)
    out["stamps"] = list(payload["stamps"]) + ["wrong@0.0.0"]
    return out


def round_totals(payload, context):
    totals = payload.get("sales_totals")
    if not isinstance(totals, dict):
        return dict(payload)
    out = dict(payload)
    out["sales_totals"] = {
        pid: str(Decimal(total).quantize(Decimal("0.01"), rounding=ROUND_DOWN))
        for pid, total in totals.items()
    }
    return out
