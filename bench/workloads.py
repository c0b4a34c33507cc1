"""The benchmark's workloads and the reference-output comparison.

Each workload is the keyword set of one `heckelab.cli.RunConfig`, i.e. one
real CLI invocation; WORKLOADS.md says why each was chosen.  The workload seed
is added as `RunConfig.seed` at run time.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = {
    # heckelab --q 5
    "cli_q5": {"q": 5},
    # heckelab --q 27 --ambient-degree 6 --suite modules --suite scheme
    #   --suite dga --suite endo --window 10 --trunc-degree 16
    "wide_field_q27": {
        "q": 27,
        "ambient_degree": 6,
        "suites": ["modules", "scheme", "dga", "endo"],
        "window": 10,
        "trunc_degree": 16,
    },
}


def config_kwargs(workload, seed):
    """The RunConfig keywords for one run of `workload` with `seed`."""
    return dict(WORKLOADS[workload], seed=seed)


def comparable(report):
    """The report without its seed, which is checked separately."""
    out = json.loads(json.dumps(report))
    out["config"].pop("seed", None)
    return out


def mismatches(reference, actual, path="report"):
    """Paths at which `actual` disagrees with `reference`.

    Comparison is by key subset: every key of a reference object must be
    present in the actual object with a matching value, but the actual object
    may carry extra keys (such as per-suite check counters).  Suite lists are
    matched by suite name.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [path]
        out = []
        for key, want in reference.items():
            if key not in actual:
                out.append(f"{path}.{key} (missing)")
            else:
                out.extend(mismatches(want, actual[key], f"{path}.{key}"))
        return out
    if isinstance(reference, list) and reference and all(
        isinstance(s, dict) and "name" in s for s in reference
    ):
        if not isinstance(actual, list):
            return [path]
        by_name = {s.get("name"): s for s in actual if isinstance(s, dict)}
        out = []
        for s in reference:
            if s["name"] not in by_name:
                out.append(f"{path}[{s['name']}] (missing)")
            else:
                out.extend(mismatches(s, by_name[s["name"]], f"{path}[{s['name']}]"))
        return out
    return [] if reference == actual else [path]


def failed_suites(reference, report, seed):
    """Names of the reference's suites that this report fails.

    A suite fails when it reports `pass` other than true or disagrees with the
    reference.  A report whose config, seed or schema disagrees fails every
    suite.
    """
    names = [s["name"] for s in reference["suites"]]
    outside = [
        m
        for m in mismatches(comparable(reference), comparable(report))
        if not m.startswith(("report.suites", "report.pass"))
    ]
    if outside or report.get("config", {}).get("seed") != seed:
        return names
    suites = {s.get("name"): s for s in report.get("suites", [])}
    return [
        s["name"]
        for s in reference["suites"]
        if suites.get(s["name"], {}).get("pass") is not True
        or mismatches(s, suites[s["name"]])
    ]


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())
