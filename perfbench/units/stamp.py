"""deploy_churn chain unit: appends its own name@version to the stamps."""

STAMP = "@UNIT@"


def stamp(payload, context):
    out = dict(payload)
    out["stamps"] = list(payload["stamps"]) + [STAMP]
    return out
