"""magsqueeze benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process at a time runs one pass of the
workload's operations, and the next process starts when it has ended.  Every
pass runs in a fresh process (``child.py``) with BLAS pinned to one thread.
The run first starts one unmeasured process (it compiles and caches the
bytecode), then a few set-up-only processes, then passes until the next one
would end after ``--seconds``; at least one pass always runs.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
(``pass_s``, ``setup_s``, ``peak_rss_mb`` as medians over the run).  With
``--trace 1`` the run alternates untraced and traced passes and the last line
carries the per-layer metrics of the median traced pass, with
``trace.overhead_s`` = its ``pass_s`` minus the median untraced ``pass_s``.
The lines before it print every metric by name with its unit, the failure
ratio, the provenance, and where the full result (and the spans) were saved.

Exit status: 0 when a result was printed (``correct`` says whether every
output matched its reference); 2 when the checkout has no ``magsqueeze``
sources or no ``BENCHMARK.json``; 1 when no pass completed.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from workloads import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"

SETUP_SAMPLES = 6
HARD_LIMIT_S = 170.0  # every process started by a run ends before this
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def _read(fd, deadline, until_newline):
    """Bytes from a pipe up to the first newline (or EOF) before `deadline`."""
    data = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise ChildFailed("timed out")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            return data
        data += chunk
        if until_newline and b"\n" in data:
            return data


def spawn(root, args, mode, trace, tmp, deadline, spans_out=None):
    """Run one child process; returns its sample (set-up time, peak RSS, and
    the pass record for mode ``pass``)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--root", root,
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--mode", mode, "--trace", str(trace), "--tmp", tmp,
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, TMPDIR=tmp, **BLAS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        fd = proc.stdout.fileno()
        head = _read(fd, deadline, until_newline=True)
        setup_s = time.perf_counter() - start
        if not head.startswith(b"ready\n"):
            raise ChildFailed(f"no ready line from the {mode} process")
        rest = head[len(b"ready\n"):] + _read(fd, deadline, until_newline=False)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} process exited with {proc.returncode}")
        sample = {
            "trace": trace,
            "setup_s": setup_s,
            "wall_s": time.perf_counter() - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        if mode == "pass":
            sample["record"] = json.loads(rest.decode().strip().splitlines()[-1])
            sample["spans_file"] = spans_out
        return sample
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def schedule(root, args, tmp, started):
    """Warm-up, set-up samples and passes; returns (setup samples, passes,
    errors)."""
    deadline = started + HARD_LIMIT_S
    errors = []
    spawn(root, args, "setup", 0, tmp, deadline)  # compiles bytecode; unmeasured
    # half the set-up samples before the passes and half after, so that they
    # see the machine at both ends of the run
    setups = [spawn(root, args, "setup", 0, tmp, deadline) for _ in range(SETUP_SAMPLES // 2)]
    cycle = (0, 1) if args.trace else (0,)
    passes = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        done = {flag: sum(1 for p in passes if p["trace"] == flag) for flag in cycle}
        elapsed = time.perf_counter() - begin
        if min(done.values()) >= 1 and (
            elapsed + longest > args.seconds
            or time.perf_counter() + longest > deadline
        ):
            break
        if len(errors) > 2:
            break
        flag = cycle[len(passes) % len(cycle)]
        spans_out = None
        if flag:
            spans_out = os.path.join(
                root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.json")
        try:
            sample = spawn(root, args, "pass", flag, tmp, deadline, spans_out)
        except ChildFailed as exc:
            errors.append(str(exc))
            continue
        longest = max(longest, sample["wall_s"])
        passes.append(sample)
    while len(setups) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
        setups.append(spawn(root, args, "setup", 0, tmp, deadline))
    return setups, passes, errors


def median_sample(samples):
    """The sample with the lower-median ``pass_s``."""
    ranked = sorted(samples, key=lambda s: s["record"]["pass_s"])
    return ranked[(len(ranked) - 1) // 2]


def tail(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or (None, None) when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    return f"p{int(100 * (n - 10) / n)}", sorted(values)[n - 11]


def _git(root, *argv):
    try:
        out = subprocess.run(["git", "-C", root, *argv], capture_output=True, text=True,
                             timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(root, args):
    import numpy

    sha = _git(root, "rev-parse", "HEAD") if os.path.isdir(os.path.join(root, ".git")) else None
    dirty = None
    if sha:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "magsqueeze", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read_text(os.path.join(index, "level"))
        kind = _read_text(os.path.join(index, "type"))
        size = _read_text(os.path.join(index, "size"))
        if level and kind and size:
            caches[f"L{level} {kind}"] = size
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1 per process (" + ", ".join(f"{k}=1" for k in BLAS_ENV) + ")",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def _cache_bytes(text):
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else int(text)


def working_set(workload, inputs, caches):
    """Computed (not measured) size of the workload's largest working set,
    and whether it fits in the last-level cache."""
    if workload == "steady_sweep":
        n = max(inputs["n_qubits"])
        size = 3 * 16 * 16 ** n
        what = f"N={n} Liouvillian, its eigenvectors and the LAPACK copy, 3 x 16 * 16^{n} B"
    elif workload == "oracle_check":
        size = 48_000 * 15 * (8 * 8 + 2 * 16)
        what = ("correlator quadrature at 1 ns: 48000 panels x 15 nodes, about 8 real and "
                "2 complex arrays of that length (abscissae, Bessel-series temporaries, values)")
    else:
        n = inputs.get("n_qubits", 4)
        size = 16 * 16 ** 4 if workload == "figures" else (2 * n + 11) * 16 * 4 ** n
        what = ("N=4 Liouvillian of the default sweep, 16 * 16^4 B" if workload == "figures"
                else f"7 RK stages and up to {2 * n + 4} generator matrices, 16 * 4^{n} B each")
    llc = max((_cache_bytes(v) for k, v in caches.items() if "Instruction" not in k),
              default=None)
    return {
        "computed_bytes": size,
        "what": what,
        "last_level_cache_bytes": llc,
        "fits_in_last_level_cache": None if llc is None else size <= llc,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: the small inputs of the harness self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "magsqueeze", "__init__.py")):
        print("perfbench: no magsqueeze sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("perfbench: no BENCHMARK.json in the current directory", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tmp = os.path.join(root, OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)

    try:
        setups, passes, errors = schedule(root, args, tmp, started)
    except ChildFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    plain = [p for p in passes if p["trace"] == 0]
    traced = [p for p in passes if p["trace"] == 1]
    if not plain or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    records = [p["record"] for p in passes]
    attempted = sum(r["attempted"] for r in records) + len(errors)
    failed = sum(r["failed"] for r in records) + len(errors)
    pass_values = [r["record"]["pass_s"] for r in plain]
    setup_values = [s["setup_s"] for s in setups] + [p["setup_s"] for p in plain]
    rss_values = [p["peak_rss_mb"] for p in plain]
    measured = {
        "pass_s": statistics.median(pass_values),
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": statistics.median(rss_values),
    }
    samples = {"pass_s": pass_values, "setup_s": setup_values, "peak_rss_mb": rss_values}
    spans_file = None
    if args.trace:
        chosen = median_sample(traced)
        spans_file = chosen["spans_file"]
        for other in traced:
            if other is not chosen:
                os.remove(other["spans_file"])
        layers = dict(chosen["record"]["layers"])
        layers["process.cpu_s"] = chosen["record"]["cpu_s"]
        layers["trace.overhead_s"] = chosen["record"]["pass_s"] - measured["pass_s"]
        layers["operators.cache_hits"] = chosen["record"]["cache_hits"]
        layers["operators.cache_misses"] = chosen["record"]["cache_misses"]
        wanted = spec["per_layer"]
        source = layers
    else:
        wanted = spec["end_to_end"]
        source = measured
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    prov = provenance(root, args)
    inputs = records[0]["inputs"]
    info = dict(records[0]["info"])
    info["working_set"] = working_set(args.workload, inputs, prov["caches"])
    problems = [msg for r in records for msg in r["problems"]] + errors
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = dict(result, provenance=prov, inputs=inputs, info=info, samples=samples,
                problems=problems[:20], passes=records, spans_file=spans_file,
                wrappers_in_untraced_passes=sorted({w for r in records if r.get("layers") is None
                                                     for w in r["wrappers"]}))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    saved = os.path.join(root, OUT_DIR,
                         f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(saved, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    print("inputs " + json.dumps(inputs))
    print("info " + json.dumps(info))
    for m in spec["end_to_end"]:
        name = m["name"]
        label, value = tail(samples[name])
        extra = f"  {label} {value:.4f}" if label else "  (tail percentile needs >= 11 samples)"
        print(f"{name:<14} median {measured[name]:.4f} {m['unit']}  samples "
              f"{len(samples[name])}{extra}")
    print(f"{'fail_ratio':<14} {failed / attempted:.4f} ratio  ({failed} of {attempted} "
          "operations failed)")
    for message in problems[:10]:
        print(f"problem: {message}")
    if args.trace:
        for m in wanted:
            print(f"{m['name']:<44} {source[m['name']]:.6g} {m['unit']}")
    print(f"saved {os.path.relpath(saved, root)}")
    if spans_file:
        print(f"spans of the median traced pass: {os.path.relpath(spans_file, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
