"""Reference sha256 digests of CLI output bytes.

`cli.digest_match` counts outputs whose bytes still equal the ones
recorded here, so a change of CLI bytes shows in the per-layer table. It
is reported, not gated. To record the digests of the checked-out code:

    PYTHONPATH=src python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Seed-independent commands; profile-grid runs these once per traced run.
# The verify-suite compares each `verify` output with the "verify" entry.
CANONICAL = (
    ("profile", "--dim", "7", "--samples", "256"),
    ("profile", "--dim", "6", "--theory", "scalar-canonical", "--bc", "neumann",
     "--format", "json"),
    ("profile", "--dim", "9", "--theory", "scalar-improved", "--length", "2.5"),
    ("profile", "--dim", "6", "--subtracted", "--bc", "mit", "--samples", "32"),
    ("fluctuations", "--dim", "4", "--bc", "metallic", "--format", "json"),
    ("sweep", "--dims", "2:24"),
)
VERIFY = ("verify",)


def key(argv) -> str:
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


if __name__ == "__main__":
    digests = {}
    for argv in CANONICAL + (VERIFY,):
        out = subprocess.run(
            [sys.executable, "-m", "casimir_slab", *argv], capture_output=True, check=True
        ).stdout
        digests[key(argv)] = sha256(out)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
