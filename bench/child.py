"""One measured process: the `ptdyson` CLI as a batch user runs it.

    python3 bench/child.py MODE SUBCOMMAND CONFIG OUT_DIR RESULT_JSON SPAWN_NS

MODE is one of
  run     import ptdyson.cli, load and validate CONFIG (the set-up), then
          run SUBCOMMAND through cli.main;
  trace   like run, with the outside-in tracer of tracer.py installed;
  micro   warm per-call timings of public functions (micro.py).

SPAWN_NS is the parent's CLOCK_MONOTONIC reading, in nanoseconds, taken just
before it started this process.  CLOCK_MONOTONIC is system-wide on Linux, so
the set-up time includes interpreter start-up.  The result is written as
JSON to RESULT_JSON.
"""

import json
import resource
import sys
import time


def main(argv):
    mode, subcommand, config, out_dir, result_path, spawn_ns = argv
    result = {"mode": mode}

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install_import_spans()

    from ptdyson import cli

    result["module_file"] = cli.__file__
    cfg = cli.load_config(config)
    cli.validate_config(cfg)
    result["setup_s"] = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(spawn_ns)) * 1e-9

    if mode == "micro":
        import micro

        result["metrics"] = micro.measure(cfg)
    elif mode in ("run", "trace"):
        entry = cli.main
        if tracer is not None:
            tracer.wrap_package()
            entry = tracer.wrap("cli", cli.main)
        start, cpu_start = time.perf_counter(), time.process_time()
        result["exit_code"] = entry([subcommand, "--config", config, "--out", out_dir])
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        if tracer is not None:
            result["trace"] = tracer.report()
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
