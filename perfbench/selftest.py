"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N]

For each workload: snapshot every attribute of every rwre module (and of
`RngStream`), run one untraced and one traced pass on the same inputs, then
require that (1) every attribute is the original object again and no
attribute was added or removed, and (2) each call's records from the traced
pass are byte-identical to the untraced ones.  Exit status 0 when both hold
on every workload, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import run


def snapshot():
    """(owner name, attribute) -> object, over every traced namespace."""
    from tracer import LAYERS
    owners = [importlib.import_module("rwre")]
    owners += [importlib.import_module(f"rwre.{layer}") for layer in LAYERS]
    owners.append(importlib.import_module("rwre.rng").RngStream)
    return {(owner.__name__, attr): obj for owner in owners for attr, obj in vars(owner).items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    run.load_rwre()
    import tracer
    import workloads

    ok = True
    for name, build in workloads.WORKLOADS.items():
        wl = build(run.pass_seed(args.seed, 1))
        plain, _ = run.run_pass(wl, 1)
        before = snapshot()
        traced, _, _ = run.traced_pass(tracer.Tracer(), "selftest", wl, 1)
        after = snapshot()
        changed = sorted(f"{o}.{a}" for o, a in before.keys() | after.keys()
                         if before.get((o, a)) is not after.get((o, a)))
        differ = [c.name for c in wl.calls if traced[c.name] != plain[c.name]]
        print(f"{name}: attributes restored: {'yes' if not changed else changed}; "
              f"traced records byte-identical: {'yes' if not differ else differ}")
        ok = ok and not changed and not differ
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
