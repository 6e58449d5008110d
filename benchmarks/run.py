"""Benchmark of tagrec: one workload at one seed, one JSON result line.

    python3 benchmarks/run.py --workload offline --seed 1 --seconds 20 --trace 0

Workloads: ``offline``, ``remote`` and ``sweep`` (see README.md).  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of the traced run.  The
outputs are checked after the timed section; a failed check prints
``"correct": false`` and exits with code 1.  A fuller record of the run
(pass figures, quality figures, environment) goes to
``benchmarks/out/<workload>-seed<n>-trace<t>/result.json``, and the traced
run's spans to ``spans.jsonl`` beside it.

The program is imported from ``src/`` of the checkout this file sits in,
never from elsewhere.
"""

from __future__ import annotations

import argparse
import array
import ctypes
import fcntl
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Linux ioctls on a file's attribute flags, and the ext4 "top directory" flag.
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics that ``BENCHMARK.json`` lists in ``section``."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and import tagrec from it."""
    if not (SRC / "tagrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no tagrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tagrec
    if Path(tagrec.__file__).resolve().parent != (SRC / "tagrec").resolve():
        raise SystemExit(f"error: tagrec was imported from {tagrec.__file__}, "
                         f"not from {SRC}")


def blas_threads() -> int | None:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def spread_subdirectories(path: Path) -> bool:
    """Ask the file system to spread the subdirectories of ``path`` over block groups.

    A run creates thousands of cache files, and deletes its work directory
    when it ends.  On ext4 without a journal, a new inode is not taken from
    the inodes freed in the last few minutes: each of them in the block group
    is checked and skipped, one by one.  So a run that creates its files where
    an earlier run has just deleted its own pays system time for every inode
    that run freed: 1.2 to 1.8 ms per cache entry instead of 0.05 ms, an
    amount that grows from run to run and changes with their order.  With
    the "top directory" flag on ``path`` (``chattr +T``), ext4 places each
    new subdirectory as it places top-level directories: in a block group
    with few directories and more free space than average, searched for
    from a hash of the name, and the files under it near it.  Where the flag
    is refused or ignored, the runs go on without it.  Returns whether the
    flag is set.
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("l", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        if not flags[0] & FS_TOPDIR_FL:
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        return bool(flags[0] & FS_TOPDIR_FL)
    except OSError:
        return False
    finally:
        os.close(fd)


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tagrec benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_program()
    import workloads

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = HERE / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # The work directory's name differs from run to run, so that ext4 does
    # not place it where the same name was placed before.
    work_root = HERE / "out" / "work"
    work_root.mkdir(exist_ok=True)
    spread = spread_subdirectories(work_root)
    work = work_root / f"{name}-{os.getpid()}"
    try:
        run = workloads.execute(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        figures, units = run.per_layer(), metric_units("per_layer")
        run.write_spans(out / "spans.jsonl")
    else:
        figures, units = run.end_to_end(), metric_units("end_to_end")
    line = {
        "correct": run.error is None,
        "attempted": sum(p.records for p in run.passes),
        "failed": sum(p.failed for p in run.passes),
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error": run.error, **line,
        "quality": run.quality,
        "setup_s": run.setup_seconds,
        "passes": [{"traced": p.traced, "records": p.records, "wall_s": p.wall_s,
                    "cpu_s": p.cpu_s, "sys_s": p.sys_s, "ranker_calls": p.ranker_calls,
                    "cache_hits": p.cache_hits, "cache_requests": p.cache_requests,
                    "stub": p.stub} for p in run.passes],
        "environment": {**environment(), "work_dirs_spread": spread},
    }
    (out / "result.json").write_text(json.dumps(detail, indent=2) + "\n",
                                     encoding="utf-8")
    if run.error:
        print(f"check failed: {run.error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(run.passes)} passes, "
          f"quality {json.dumps(run.quality, sort_keys=True)}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if run.error is None else 1


if __name__ == "__main__":
    sys.exit(main())
