"""One benchmark process: set up, say ``ready``, run one pass, report.

Started by ``run.py``, one process per pass, so every pass pays the same
cold-process costs a user of the CLI pays.  The protocol on stdout is one
``ready`` line when set-up is done, then (in ``pass`` mode) one JSON line
with the pass result.  Anything the package prints goes elsewhere.

The pass clock starts at ``ready`` and stops when the last output has been
checked.  A failed operation (it raised, ``cli.main`` returned non-zero, or
an output is outside tolerance) is counted and the pass goes on.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time


def cache_counts():
    """Hits and misses summed over the ``lru_cache`` functions of the
    ``operators`` module (read from ``cache_info``, no wrapper needed)."""
    from magsqueeze import operators

    hits = misses = 0
    for obj in vars(operators).values():
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def run_pass(prepared, tmp_root):
    """Run every operation once; returns the pass record (without spans)."""
    hits0, misses0 = cache_counts()
    tmp = tempfile.mkdtemp(prefix="pass-", dir=tmp_root)
    failed, problems, op_seconds, info = 0, [], [], {}
    cpu0 = time.process_time()
    start = time.perf_counter()
    for op in prepared.operations:
        t0 = time.perf_counter()
        try:
            found, op_info = op.run(tmp)
        except Exception as exc:  # a failed operation is counted, not fatal
            found, op_info = [f"{op.label}: raised {type(exc).__name__}: {exc}"], {}
        op_seconds.append(time.perf_counter() - t0)
        if found:
            failed += 1
            problems.extend(found[:3])
        for name, same in op_info.get("byte_identical", {}).items():
            info.setdefault("byte_identical", {})[f"{op.label}/{name}"] = same
    pass_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    shutil.rmtree(tmp)
    hits1, misses1 = cache_counts()
    return {
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "attempted": len(prepared.operations),
        "failed": failed,
        "problems": problems[:10],
        "op_seconds": op_seconds,
        "cache_hits": hits1 - hits0,
        "cache_misses": misses1 - misses0,
        "info": info,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import workloads
    from spans import Tracer, check_nesting, installed_wrappers, summarize

    workloads.import_package(args.root)
    prepared = workloads.prepare(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    protocol = sys.stdout
    sys.stdout = sys.stderr
    protocol.write("ready\n")
    protocol.flush()
    if args.mode == "setup":
        return 0

    record = run_pass(prepared, args.tmp)
    record["wrappers"] = installed_wrappers()
    record["inputs"] = prepared.inputs
    record["info"].update(prepared.info)
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = summarize(tracer.spans, tracer.extras, record["pass_s"])
        record["nesting_problems"] = check_nesting(tracer.spans)[:5]
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.records(), fh, separators=(",", ":"))
    protocol.write(json.dumps(record) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
