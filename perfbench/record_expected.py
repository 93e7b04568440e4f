"""Pin the sha256 of every ``emit_series`` payload in ``expected.json``.

    PYTHONPATH=src:perfbench python3 perfbench/record_expected.py

The README promises byte-stable CSV/JSON output, so the pinned digests change
only when the output format is changed on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import harness
from workloads import emit_series

if __name__ == "__main__":
    digests = {}
    for call in emit_series(0, harness.HERE / "out"):
        o = harness.invoke(call)
        if o.error:
            raise SystemExit(f"{call.label}: {o.error}")
        digests[call.label] = harness.digest(o.text)
    Path(harness.EXPECTED).write_text(json.dumps({"emit_series": digests}, indent=2) + "\n")
