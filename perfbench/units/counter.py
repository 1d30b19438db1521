"""chain_small unit @UNIT@: copies its input and increments the counter."""


def run(payload, context):
    out = dict(payload)
    out["counter"] = out["counter"] + 1
    return out
