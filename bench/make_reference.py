#!/usr/bin/env python3
"""Regenerate ``bench/reference.json``: the fingerprints every benchmark run
compares its outputs against.

    python3 bench/make_reference.py

Run it only on a commit whose results are trusted (tier-1 green), and say
in the change that regenerates it why the reference moved.  Each workload's
own invariant check must pass before its fingerprint is recorded.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, import_fpmflow


def main() -> int:
    workloads, mods = import_fpmflow()
    reference = {}
    for profile in ("full", "tiny"):
        for name, wl in workloads.WORKLOADS.items():
            inputs = wl.build(mods, wl.configs[profile], 0)
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT) as workdir:
                output = wl.body(mods, inputs, Path(workdir))
                failures = wl.check(inputs, output)
                if failures:
                    print(f"{profile}/{name}: {failures}", file=sys.stderr)
                    return 1
                reference.setdefault(profile, {})[name] = wl.fingerprint(inputs, output)
            print(f"{profile}/{name}: ok")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
