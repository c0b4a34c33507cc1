"""Record each workload's report as the reference the benchmark checks against.

    python3 bench/record_reference.py

Run once at a commit whose reports are known to be right; every later run is
compared with reference.json by key subset (see workloads.mismatches).
"""

from __future__ import annotations

import json
import time

from run import HARD_LIMIT_S, child
from workloads import REFERENCE_FILE, WORKLOADS, comparable, config_kwargs


def main():
    reference = {}
    for name in WORKLOADS:
        report = child("run", config_kwargs(name, 0), time.monotonic() + HARD_LIMIT_S)["report"]
        if not report["pass"]:
            raise SystemExit(f"{name}: report does not pass; not recording it")
        reference[name] = comparable(report)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
