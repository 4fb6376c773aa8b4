"""One `varharm run` invocation in a fresh interpreter, timed from outside.

Usage: python3 child.py CONFIG OUT_DIR RESULT_JSON [--trace SPANS_JSON]

Times `import varharm` plus config parsing (set-up), then the public
`varharm.cli.main(["run", ...])` call (the run), and writes both with the
exit code and the process's peak RSS to RESULT_JSON. With --trace the
public functions of every layer are wrapped first (see tracer.py) and the
spans go to SPANS_JSON.
"""

import json
import resource
import sys
import time


def main(argv):
    config, out_dir, result_path = argv[:3]
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None

    t0 = time.perf_counter()
    import varharm.cli
    from varharm.harness import parse_config
    with open(config) as fh:
        resolved = vars(parse_config(fh.read()))
    t1 = time.perf_counter()

    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer(resolved["experiment"])
        tracer.install()

    run_argv = ["run", "--config", config, "--out", out_dir]
    t2 = time.perf_counter()
    if tracer is None:
        code = varharm.cli.main(run_argv)
    else:
        code = tracer.run_root(varharm.cli.main, run_argv)
    t3 = time.perf_counter()

    result = {
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in resolved.items()},
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
