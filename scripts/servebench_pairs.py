#!/usr/bin/env python3
"""Interleaved parent/change pairs of the serving benchmark.

    python3 scripts/servebench_pairs.py --parent <tree> --change <tree> \
        --workload <name> --seed <n> --pairs <n> [--trace]

Each tree is a checkout of the repository (the parent commit and the
change).  Every pair runs `servebench/run.py --seconds <s> --trace 0` once
in each tree, alternating which side goes first, so drift over the period
falls on both sides alike; <s> is the change tree's BENCHMARK.json
`run_seconds` (10).  Of run.py's output it reads the last line (the
result JSON) and the `served ... wire bytes N` count line, which every
run prints, traced or not; nothing under servebench/ is touched.

Its table header names the host's CPU model and whether /proc/cpuinfo
lists avx512f and avx512vl, the features that select the store filters'
AVX-512 tier at run time (src/common/simd.h), so a table shows which
tier it measured.  For each end-to-end metric of that BENCHMARK.json it
prints
each side's median and quartiles, the change/parent ratio of the medians,
the number of pairs in which the change read better (in the metric's
`better` direction), whether the gap between the medians exceeds the
parent's interquartile range, and that range as a share of the parent's
median.  A metric is marked `unresolved` when that share exceeds the
metric's `bound` and the two sides' runs overlap: the parent's own spread
is then wider than the change the bound allows, and only a change whose
every run lies beyond every parent run can be read.  It then prints each
side's distinct served wire-byte counts and whether the two sides' counts
differ: a change meant to keep the wire bytes should show one value on
each side, the same one.  It exits non-zero
when any run fails, is not `correct`, or reports `failed > 0`.  It gates
nothing: reading the table is the caller's job.

With --trace the pairs run `--trace 1` instead, and the table lists,
for every `per_layer` metric of that BENCHMARK.json and for the figures
a traced run prints without reporting them as metrics (TRACE_FIGURES),
each side's values in run order, each side's median and the
change/parent ratio of the medians.  A figure is read from the result
JSON when it is there and otherwise from the run's `  <name> <value>
<unit>` line.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SERVED_BYTES = re.compile(r"^\s*served\b.*\bwire bytes (\d+)\s*$")

# Figures a traced run prints but does not report as metrics.
TRACE_FIGURES = ["overlay.resolve_us_per_range", "pubsub.subscribe_us",
                 "setup.subscribe_s", "pubsub.full_rescans"]


def served_wire_bytes(lines):
    """The N of the run's `served ... wire bytes N` line, or None."""
    for line in lines:
        m = SERVED_BYTES.match(line)
        if m:
            return int(m.group(1))
    return None


def printed_figures(lines):
    """{name: value} of the run's `  <name> <value> <unit>` lines."""
    figures = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            continue
        try:
            figures[parts[0]] = float(parts[1])
        except ValueError:
            pass
    return figures


def host_cpu():
    """The host's CPU model and whether /proc/cpuinfo lists avx512f and
    avx512vl, as one line."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return f"host CPU {model}; " + ", ".join(
        f"{f} {'yes' if f in flags else 'no'}"
        for f in ("avx512f", "avx512vl"))


def run_once(tree, workload, seed, seconds, trace=False):
    """One run.py invocation in `tree`; returns (result dict, served wire
    bytes, problem).  The result's "figures" holds every printed figure,
    at the JSON's precision where the JSON has it."""
    cmd = [sys.executable, os.path.join("servebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    wire = served_wire_bytes(lines)
    try:
        result = json.loads(lines[-1])
        result["figures"] = printed_figures(lines[:-1])
        result["figures"].update(
            {n: m["value"] for n, m in result["metrics"].items()})
    except (json.JSONDecodeError, IndexError, KeyError, TypeError):
        tail = proc.stderr.strip().split("\n")[-3:]
        return None, wire, (f"exit {proc.returncode}, no result "
                            f"({' | '.join(tail)})")
    if proc.returncode != 0:
        return result, wire, f"exit {proc.returncode}"
    if not result.get("correct", False):
        return result, wire, "not correct"
    if result.get("failed", 0) > 0:
        return result, wire, (f"failed {result['failed']} of "
                              f"{result.get('attempted')}")
    return result, wire, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def benchmark_spec(tree):
    """(run seconds, {end-to-end metric name: (bound, better)}, per-layer
    metric names) from the tree's BENCHMARK.json."""
    path = os.path.join(tree, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        metrics = {m["name"]: (float(m["bound"]), m["better"])
                   for m in spec["end_to_end"]}
        if any(b not in ("lower", "higher") for _, b in metrics.values()):
            raise ValueError("better must be lower or higher")
        return (spec["run_seconds"], metrics,
                [m["name"] for m in spec.get("per_layer", [])])
    except (OSError, KeyError, TypeError, ValueError) as e:
        sys.exit(f"cannot read run_seconds and end_to_end from {path}: {e!r}")


def print_end_to_end(values, spec):
    """Each end-to-end metric's medians, quartiles, pairs won and spread."""
    print(f"{'metric':<16} {'parent median [q1-q3]':<28} "
          f"{'change median [q1-q3]':<28} {'ratio':>7} {'better':>7} "
          f"{'gap>IQR':>8} {'IQR/med':>8} {'bound':>6}")
    for n, (bound, better) in spec.items():
        par, chg = values["parent"][n], values["change"][n]
        if not par or not chg:
            continue
        pm, cm = statistics.median(par), statistics.median(chg)
        pq1, pq3 = quartiles(par)
        cq1, cq3 = quartiles(chg)
        pairs = list(zip(par, chg))
        won = sum(1 for x, y in pairs if (y < x if better == "lower"
                                          else y > x))
        ratio = cm / pm if pm else float("nan")
        gap = abs(cm - pm) > (pq3 - pq1)
        spread = (pq3 - pq1) / abs(pm) if pm else float("inf")
        overlap = max(chg) >= min(par) and min(chg) <= max(par)
        print(f"{n:<16} {f'{pm:.4g} [{pq1:.4g}-{pq3:.4g}]':<28} "
              f"{f'{cm:.4g} [{cq1:.4g}-{cq3:.4g}]':<28} {ratio:>7.3f} "
              f"{f'{won}/{len(pairs)}':>7} {'yes' if gap else 'no':>8} "
              f"{spread:>8.1%} {bound:>6.0%}"
              f"{'  unresolved' if spread > bound and overlap else ''}")


def print_traced(values, names):
    """Each figure's values per side, the medians and their ratio."""
    print(f"{'figure':<40} {'parent med':>11} {'change med':>11} "
          f"{'ratio':>7}  values (parent | change)")
    for n in names:
        par, chg = values["parent"][n], values["change"][n]
        if not par and not chg:
            continue
        pm = statistics.median(par) if par else float("nan")
        cm = statistics.median(chg) if chg else float("nan")
        ratio = cm / pm if pm else float("nan")
        print(f"{n:<40} {pm:>11.4g} {cm:>11.4g} {ratio:>7.3f}  " +
              " ".join(f"{v:.4g}" for v in par) + " | " +
              " ".join(f"{v:.4g}" for v in chg))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent source tree")
    p.add_argument("--change", required=True, help="change source tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--trace", action="store_true",
                   help="run --trace 1 pairs and list the per-layer figures")
    a = p.parse_args()
    trees = {"parent": os.path.abspath(a.parent),
             "change": os.path.abspath(a.change)}
    seconds, spec, per_layer = benchmark_spec(trees["change"])
    names = per_layer + TRACE_FIGURES if a.trace else list(spec)

    # One short run per tree first: it builds the benchmark, so no timed
    # pair pays for a compile, and it fails fast on a wrong answer.
    problems = []
    for side, tree in trees.items():
        _, _, problem = run_once(tree, a.workload, a.seed, 1)
        if problem:
            problems.append(f"{side} warm-up: {problem}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)

    values = {side: {n: [] for n in names} for side in trees}
    wire = {side: set() for side in trees}
    for i in range(a.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        row = []
        for side in order:
            result, served, problem = run_once(trees[side], a.workload,
                                               a.seed, seconds, a.trace)
            if problem:
                problems.append(f"pair {i + 1} {side}: {problem}")
            if served is not None:
                wire[side].add(served)
            if result is None:
                continue
            figures = result["figures"]
            shown = [n for n in names if n in figures]
            for n in shown:
                values[side][n].append(figures[n])
            row.append(f"{side} {len(shown)} figures" if a.trace else
                       f"{side} " + " ".join(f"{n}={figures[n]:.4g}"
                                             for n in shown))
        print(f"pair {i + 1}/{a.pairs} ({order[0]} first): " +
              "; ".join(row), flush=True)

    print(f"\n{a.workload} seed {a.seed}, {a.pairs} pairs, "
          f"--seconds {seconds} --trace {1 if a.trace else 0}")
    print(host_cpu())
    if a.trace:
        print_traced(values, names)
    else:
        print_end_to_end(values, spec)
    print("\nserved wire bytes: " + "; ".join(
        f"{side} {', '.join(str(b) for b in sorted(wire[side])) or 'none'}"
        for side in trees) +
          f" ({'differ' if wire['parent'] != wire['change'] else 'same'})")
    if problems:
        print("\n" + "\n".join(problems), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
