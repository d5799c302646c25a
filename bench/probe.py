"""Set-up probe: ``python3 -s bench/probe.py SRC``.

Imports hyperchi and hyperchi.cli from SRC, prints ``ready`` and exits.
worker.py times how long a fresh interpreter takes to print that line.
Nothing but sys is imported first, so the probe measures the package.
"""

import sys

sys.path.insert(0, sys.argv[1])

import hyperchi  # noqa: E402,F401
import hyperchi.cli  # noqa: E402,F401

print("ready", flush=True)
