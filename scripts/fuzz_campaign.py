#!/usr/bin/env python3
"""Long-running fuzz campaign: all three campaign kinds back to back,
writing any counterexample bundles under counterexamples/ of the working
directory.

    python scripts/fuzz_campaign.py [N] [SEED]

It imports mswasm from the checkout it lies in.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mswasm.cli import main

n = sys.argv[1] if len(sys.argv) > 1 else "2000"
seed = sys.argv[2] if len(sys.argv) > 2 else "0"

rc = 0
for extra in ([], ["--attacker"], ["--source"]):
    label = extra[0].lstrip("-") if extra else "module"
    print(f"== {label} campaign ==")
    rc |= main(["fuzz", "--n", n, "--seed", seed] + extra)
sys.exit(rc)
