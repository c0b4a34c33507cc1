"""One cold measurement in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py run   '<RunConfig keywords as JSON>'
    python3 bench/worker.py trace '<RunConfig keywords as JSON>'

`run` times one `heckelab.cli.run(config)`, which first builds its own
`TorusCtx(FieldCtx(p, ambient_degree), q)` and then runs the suites, and
reports the suites' share of that time (`verify_s`), the rest (`setup_s`) and
the process's peak resident memory.  `trace` does the same with per-layer spans
installed.  The library is imported from `src/` of the checkout this file lives
in, never from elsewhere.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_heckelab():
    if not (SRC / "heckelab" / "__init__.py").is_file():
        raise SystemExit(f"heckelab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import heckelab

    if Path(heckelab.__file__).resolve().parent != SRC / "heckelab":
        raise SystemExit(f"imported heckelab from {heckelab.__file__}, not {SRC}")


def measure(mode, kwargs):
    import_heckelab()
    from heckelab import cli

    config = cli.RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()})
    out = {}
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        out["absent"] = tracing.install(tracer)
    start = time.perf_counter()
    report, timings = cli.run(config)
    out["wall_s"] = time.perf_counter() - start
    # run() times each suite itself; their sum is the run without set-up, and
    # the rest is the cold TorusCtx(FieldCtx(...)) build run() starts with
    out["verify_s"] = sum(timings.values())
    out["setup_s"] = out["wall_s"] - out["verify_s"]
    out["report"] = report
    if mode == "trace":
        out["layers"] = tracer.metrics()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv):
    if len(argv) != 2 or argv[0] not in ("run", "trace"):
        raise SystemExit(__doc__)
    print(json.dumps(measure(argv[0], json.loads(argv[1]))))


if __name__ == "__main__":
    main(sys.argv[1:])
