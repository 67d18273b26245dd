"""seishet benchmark entry point.

    python3 perfbench/run.py --workload train_self --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; seishet is imported from ./src. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}:
with --trace 0 the metrics are every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric. The line before it is a JSON record
of everything else the run knows: environment stamp, the workload's
named values, tail percentile and sample count, tracing overhead.
See perfbench/README.md for what each metric means on each workload.

The benchmark's own modules (workloads, tracing) import numpy, so they are
imported inside functions, after the timed import of seishet.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def cap_blas_threads():
    """Keep every BLAS/OpenMP pool at or below the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"]), nproc


def import_seishet():
    """Import seishet from this checkout's src/ (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    names = ("numcore", "layers", "attention", "model", "train", "synthgen",
             "segy", "pgm", "metrics")
    mods = {n: importlib.import_module("seishet." + n) for n in names}
    where = os.path.dirname(os.path.dirname(os.path.abspath(mods["model"].__file__)))
    if where != src:
        raise ImportError("seishet found at %s, not in %s" % (where, src))
    return types.SimpleNamespace(**mods)


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank, and never below the median: with fewer than
    2 * TAIL_BEYOND samples it is the 50th percentile, and with
    TAIL_BEYOND samples or fewer the maximum, reported as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100, n
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(threads, nproc, seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {
        "cpu": cpu, "nproc": nproc, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": threads, "git_commit": git_commit(), "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl, seconds, pass_name, tracer=None):
    """Closed loop, one caller: the next call starts when the last ends."""
    from workloads import Record
    wl.pass_name = pass_name
    record = Record()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = index
        wl.call(record, index)
        index += 1
    record.calls = index
    return record


def end_to_end(record, setup_s):
    t, _, _ = tail(record.op_ms) if record.op_ms else (0.0, 0, 0)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (record.attempted - record.failed) / max(record.attempted, 1),
        "work_per_s": median(record.work),
        "op_ms.p50": median(record.op_ms),
        "op_ms.tail": t,
    }


def summarize(record):
    out = {name: median(values) for name, values in sorted(record.named.items())}
    if record.op_ms:
        value, pct, n = tail(record.op_ms)
        out["op_ms.tail"] = {"value": value, "percentile": pct, "samples": n}
    out["calls"] = record.calls
    out["ops"] = record.attempted
    return out


# Per-layer metric -> (kind, span or counter). Times and counts are per
# operation of the traced pass; a layer that runs only in set-up (such as
# real_patches on finetune_se) is reported per set-up instead.
FLOP_LAYERS = ("stage1.conv1", "stage1.conv2", "stage2.conv1", "stage2.conv2",
               "stage3.conv1", "stage3.conv2", "attention", "up1", "up2", "head")
PER_LAYER = {}
for _layer in FLOP_LAYERS:
    PER_LAYER["layers.%s.fwd_ms" % _layer] = ("ms", "layers.%s.fwd" % _layer)
    PER_LAYER["layers.%s.bwd_ms" % _layer] = ("ms", "layers.%s.bwd" % _layer)
    PER_LAYER["layers.%s.fwd_gflops" % _layer] = ("gflops", "layers.%s.fwd" % _layer)
PER_LAYER.update({
    "layers.maxpool.fwd_ms": ("ms", "layers.maxpool.fwd"),
    "layers.maxpool.bwd_ms": ("ms", "layers.maxpool.bwd"),
    "layers.loss.ms": ("ms", "layers.loss"),
    "numcore.gelu.fwd_ms": ("ms", "numcore.gelu.fwd"),
    "numcore.gelu.bwd_ms": ("ms", "numcore.gelu.bwd"),
    "numcore.gelu.elements": ("counter", "numcore.gelu.elements"),
    "attention.rel_attn.fwd_ms": ("ms", "attention.rel_attn.fwd"),
    "attention.rel_attn.bwd_ms": ("ms", "attention.rel_attn.bwd"),
    "train.step_ms": ("step", None),
    "train.adam_step.ms": ("ms", "train.adam_step"),
    "train.evaluate.ms": ("ms", "train.evaluate"),
    "model.loss_and_grads.self_ms": ("self_ms", "model.loss_and_grads"),
    "train.steps": ("calls", "train.adam_step"),
    "train.updated_tensors": ("gauge", "train.updated_tensors"),
    "model.load_checkpoint.ms": ("ms", "model.load_checkpoint"),
    "model.forward.ms": ("ms", "model.forward"),
    "model.flops_per_patch": ("gauge", "model.flops_per_patch"),
    "segy.open_volume.ms": ("ms", "segy.open_volume"),
    "segy.read_section.ms": ("ms", "segy.read_section"),
    "segy.traces_indexed": ("counter", "segy.traces_indexed"),
    "segy.traces_read": ("counter", "segy.traces_read"),
    "segy.bytes_read": ("counter", "segy.bytes_read"),
    "segy.tile_predict.self_ms": ("self_ms", "segy.tile_predict"),
    "segy.export_map.ms": ("ms", "segy.export_map"),
    "pgm.read_pgm.ms": ("ms", "pgm.read_pgm"),
    "metrics.evaluate.ms": ("ms", "metrics.evaluate"),
    "predict.windows": ("windows", None),
    "predict.covered_pixels": ("counter", "predict.covered_pixels"),
    "predict.total_pixels": ("counter", "predict.total_pixels"),
    "synthgen.generate_section.ms": ("ms", "synthgen.generate_section"),
    "synthgen.apply_fold.ms": ("ms", "synthgen.apply_fold"),
    "synthgen.apply_shear.ms": ("ms", "synthgen.apply_shear"),
    "synthgen.apply_faults.ms": ("ms", "synthgen.apply_faults"),
    "synthgen.convolve_traces.ms": ("ms", "synthgen.convolve_traces"),
    "synthgen.add_noise.ms": ("ms", "synthgen.add_noise"),
    "synthgen.extract_patches.ms": ("ms", "synthgen.extract_patches"),
    "synthgen.write_dataset.ms": ("ms", "synthgen.write_dataset"),
    "synthgen.read_dataset.ms": ("ms", "synthgen.read_dataset"),
    "pgm.write_pgm.ms": ("ms", "pgm.write_pgm"),
    "segy.real_patches.ms": ("ms", "segy.real_patches"),
})


def _layer_value(tracer, phase, per, kind, key):
    spans = tracer.summary(phase).get(key)
    if kind in ("ms", "self_ms", "gflops", "calls"):
        if not spans:
            return None
        return {"ms": 1e3 * spans["total"] / per,
                "self_ms": 1e3 * spans["self"] / per,
                "gflops": spans["flops"] / spans["total"] / 1e9,
                "calls": spans["count"] / per}[kind]
    if kind == "counter":
        n = tracer.counters[phase].get(key)
        return n / per if n else None
    if kind == "step":
        steps = tracer.steps(phase)
        return 1e3 * median(steps) if steps else None
    if kind == "windows":
        rows = tracer.children_rows("segy.tile_predict", "model.forward", phase)
        return rows / per if rows else None
    return tracer.gauges.get(key)


def per_layer(tracer, ops):
    """Per-layer values the spans support, and the names taken from set-up."""
    out, from_setup = {}, []
    for metric, (kind, key) in PER_LAYER.items():
        value = _layer_value(tracer, "ops", ops, kind, key)
        if value is None:
            value = _layer_value(tracer, "setup", 1, kind, key)
            if value is not None:
                from_setup.append(metric)
        if value is not None:
            out[metric] = value
    return out, from_setup


def traced_pass(modules, wl, seconds):
    """Set up again and measure, with every span recorded."""
    from tracing import Tracer
    tracer = Tracer(modules)
    tracer.install()
    try:
        wl.pass_name = "traced"
        tracer.op = -1
        wl.setup()
        record = measure(wl, seconds, "traced", tracer)
    finally:
        tracer.uninstall()
    return tracer, record


def probe(modules, seed, workdir):
    """Per-layer values from one traced call of each workload at tiny size,
    for the layers the measured workload never runs."""
    from workloads import TINY, WORKLOADS
    values, records = {}, []
    for name, cls in WORKLOADS.items():
        sub = os.path.join(workdir, "probe-" + name)
        os.makedirs(sub)
        wl = cls(modules, TINY[name], seed, sub)
        wl.write_inputs()
        wl.setup()
        tracer, record = traced_pass(modules, wl, 0.0)
        for metric, value in per_layer(tracer, max(record.attempted, 1))[0].items():
            values.setdefault(metric, value)
        records.append(record)
    return values, records


def untraced_run(args, wl, setup_s):
    record = measure(wl, args.seconds, "untraced")
    info = {"named": summarize(record),
            "failed_frac": record.failed / max(record.attempted, 1)}
    return end_to_end(record, setup_s), info, [record], True


def traced_run(args, spec, modules, wl, workdir, outdir):
    """Half the time untraced, then set-up and half the time traced."""
    base = measure(wl, args.seconds / 2.0, "untraced")
    tracer, traced = traced_pass(modules, wl, args.seconds / 2.0)
    ops = max(traced.attempted, 1)
    metrics, from_setup = per_layer(tracer, ops)
    untraced_e2e, traced_e2e = end_to_end(base, 0.0), end_to_end(traced, 0.0)
    metrics["trace.overhead.op_ms.p50"] = (traced_e2e["op_ms.p50"]
                                           - untraced_e2e["op_ms.p50"])
    metrics["trace.spans_per_op"] = len(tracer.closed("ops")) / ops
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    probe_values, probe_records = ({}, []) if not missing else \
        probe(modules, args.seed, os.path.join(workdir, "probe"))
    filled = [name for name in missing if name in probe_values]
    for name in filled:
        metrics[name] = probe_values[name]
    spans_path = os.path.join(outdir, "spans-%s-seed%d.jsonl"
                              % (args.workload, args.seed))
    tracer.dump(spans_path)
    info = {
        "named_untraced": summarize(base), "named_traced": summarize(traced),
        "trace_overhead": {k: traced_e2e[k] - untraced_e2e[k]
                           for k in ("work_per_s", "op_ms.p50", "op_ms.tail")},
        "trace_outputs_compared": wl.cross_checked,
        "per_setup": from_setup, "filled_from_probe": filled,
        "unmeasured": sorted(tracer.unmeasured),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info, [base, traced] + probe_records, wl.cross_checked > 0


def run(args, spec, modules, import_s, env, workdir, outdir):
    from workloads import FULL, TINY, WORKLOADS
    sizes = TINY if args.size == "tiny" else FULL
    wl = WORKLOADS[args.workload](modules, sizes[args.workload], args.seed, workdir)
    wl.write_inputs()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    if args.trace:
        metrics, info, records, ok = traced_run(args, spec, modules, wl,
                                                workdir, outdir)
        declared = spec["per_layer"]
    else:
        metrics, info, records, ok = untraced_run(args, wl, import_s + median(setups))
        declared = spec["end_to_end"]
    info.update({"workload": args.workload, "size": args.size,
                 "seconds": args.seconds, "trace": args.trace, "env": env,
                 "import_s": import_s, "setup_repeats_s": setups,
                 "errors": [e for r in records for e in r.errors]})
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
           for m in declared if m["name"] in metrics}
    info["not_reported"] = [m["name"] for m in declared if m["name"] not in out]
    print(json.dumps({"perfbench": info}, sort_keys=True, default=str))
    failed = sum(r.failed for r in records)
    return {"correct": bool(ok and failed == 0 and not info["not_reported"]),
            "attempted": sum(r.attempted for r in records), "failed": failed,
            "metrics": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes (self-test)")
    args = parser.parse_args(argv)
    threads, nproc = cap_blas_threads()
    start = time.perf_counter()
    try:
        modules = import_seishet()
    except ImportError as exc:
        print("perfbench: cannot import seishet from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = environment(threads, nproc, args.seed)
    outdir = os.path.join(ROOT, ".perfbench", "out")
    workdir = os.path.join(ROOT, ".perfbench", "work-%s-%d"
                           % (args.workload, os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir)
    try:
        result = run(args, spec, modules, import_s, env, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
