"""Collect benchmark result sets and compare them.

    # seeds 1-10 of every workload into one result set
    python3 perfbench/compare.py collect OUT [--root CHECKOUT] [--trace 1]

    # every metric by name and unit, with its run-to-run spread
    python3 perfbench/compare.py spread OUT

    # parent against change, ten pairs per workload, alternating which
    # side runs first, then the verdict table
    python3 perfbench/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT OUT \
        [--trace 1]

    # verdict table for two result sets already collected
    python3 perfbench/compare.py diff PARENT_SET CHANGE_SET

A result set is a directory of files named ``<workload>.<seed>.out``, each
the standard output of one ``run.py`` run.  Metrics, their direction and
their bounds come from BENCHMARK.json at the root of this checkout.
``diff`` gives no verdict unless every workload has all ten seed-paired
runs.

Verdicts, per workload and metric:

- improved: the change wins at least nine tenths of the seed-paired runs
  (ties count for neither), and the medians differ, in the better
  direction, by more than the parent's interquartile distance;
- unresolved: the parent's interquartile distance is wider than the
  metric's bound, and not every change run reads better than every parent
  run;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median); for a metric without a bound,
  the improved rule in the worse direction;
- same: none of these.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Every result set holds these seeds of every workload; the verdict rule
# needs all ten pairs.
SEEDS = range(1, 11)


def run_one(root, workload, seed, seconds, trace, path):
    spec = load_spec(root)
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    with open(path, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, cwd=root, stdout=fh,
                              stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} in {root}")
    print(f"  {workload} seed {seed} ({root}) -> {path}", file=sys.stderr)


def read_set(directory):
    """{workload: {seed: result}} from a result-set directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        head = dict(kv.split("=", 1) for kv in lines[0][2:].split())
        out.setdefault(head["workload"], {})[int(head["seed"])] = \
            json.loads(lines[-1])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(spec, results):
    """End-to-end metrics for an untraced set, per-layer for a traced one."""
    sample = next(iter(next(iter(results.values())).values()))["metrics"]
    for group in ("end_to_end", "per_layer"):
        if spec[group][0]["name"] in sample:
            return spec[group]
    raise SystemExit("result set matches neither metric group")


def cmd_spread(args):
    """Every metric of every workload by name and unit: the median over the
    set's runs, its quartiles and its spread against the bound."""
    spec = load_spec()
    results = read_set(args.set)
    print("| workload | metric | unit | n | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    worst_share = 0.0
    for workload in sorted(results):
        runs = results[workload]
        for m in metric_specs(spec, results):
            values = [r["metrics"][m["name"]]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst_share = max(worst_share, spread / bound)
                flag = " (over a third)" if spread > bound / 3 else ""
            print(f"| {workload} | {m['name']} | {m['unit']} | {len(values)} "
                  f"| {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.2%}{flag} "
                  f"| {'-' if bound is None else f'{bound:.0%}'} |")
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"| {workload} | failed_frac | - | {len(runs)} "
              f"| {failed / attempted:.5g} | | | | |")
    print(f"\nlargest spread/bound (setup_s excluded): {worst_share:.2f}")


def verdict(m, parent, change):
    """Verdict for one metric; parent and change are seed -> value."""
    lower = m["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    pv, cv = list(parent.values()), list(change.values())
    q1, med_p, q3 = quartiles(pv)
    _, med_c, _ = quartiles(cv)
    wins = sum(better(change[s], parent[s]) for s in SEEDS)
    losses = sum(better(parent[s], change[s]) for s in SEEDS)
    iqr = q3 - q1
    apart = abs(med_c - med_p) > iqr
    bound = m.get("bound")
    if wins >= 0.9 * len(SEEDS) and apart and better(med_c, med_p):
        return "improved", wins, losses
    if bound is None:
        if losses >= 0.9 * len(SEEDS) and apart:
            return "worse", wins, losses
        return "same", wins, losses
    every_better = all(better(c, p) for c in cv for p in pv)
    if med_p and iqr / abs(med_p) > bound and not every_better:
        return "unresolved", wins, losses
    worse_by = (med_c - med_p) / abs(med_p) if lower else \
        (med_p - med_c) / abs(med_p)
    if worse_by > bound:
        return "worse", wins, losses
    return "same", wins, losses


def cmd_diff(args):
    spec = load_spec()
    parent, change = read_set(args.parent), read_set(args.change)
    for w in spec["workloads"]:
        paired = set(parent.get(w["name"], ())) & set(change.get(w["name"], ()))
        if not set(SEEDS) <= paired:
            raise SystemExit(f"no verdict: workload {w['name']} has "
                             f"{len(paired & set(SEEDS))} of the "
                             f"{len(SEEDS)} seed-paired runs")
    print("| workload | metric | unit | parent median [q1, q3] "
          "| change median [q1, q3] | change | wins/losses | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in metric_specs(spec, parent):
            name = m["name"]
            p = {s: parent[workload][s]["metrics"][name]["value"]
                 for s in SEEDS}
            c = {s: change[workload][s]["metrics"][name]["value"]
                 for s in SEEDS}
            pq1, pmed, pq3 = quartiles(list(p.values()))
            cq1, cmed, cq3 = quartiles(list(c.values()))
            rel = (cmed - pmed) / abs(pmed) if pmed else float("nan")
            v, wins, losses = verdict(m, p, c)
            print(f"| {workload} | {name} | {m['unit']} "
                  f"| {pmed:.5g} [{pq1:.5g}, {pq3:.5g}] "
                  f"| {cmed:.5g} [{cq1:.5g}, {cq3:.5g}] | {rel:+.1%} "
                  f"| {wins}/{losses} of {len(SEEDS)} | {v} |")
    for label, res in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for runs in res.values()
                     for r in runs.values())
        attempted = sum(r["attempted"] for runs in res.values()
                        for r in runs.values())
        print(f"{label}: {failed} of {attempted} ops failed")


def cmd_collect(args):
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    for w in spec["workloads"]:
        workload = w["name"]
        for seed in SEEDS:
            run_one(os.path.abspath(args.root), workload, seed,
                    spec["run_seconds"], args.trace,
                    os.path.join(args.out, f"{workload}.{seed}.out"))
    args.set = args.out
    cmd_spread(args)


def cmd_pairs(args):
    spec = load_spec()
    sides = (("parent", os.path.abspath(args.parent)),
             ("change", os.path.abspath(args.change)))
    for label, _ in sides:
        os.makedirs(os.path.join(args.out, label), exist_ok=True)
    for w in spec["workloads"]:
        workload = w["name"]
        for i, seed in enumerate(SEEDS):
            for label, root in (sides if i % 2 == 0 else sides[::-1]):
                run_one(root, workload, seed, spec["run_seconds"], args.trace,
                        os.path.join(args.out, label,
                                     f"{workload}.{seed}.out"))
    args.parent = os.path.join(args.out, "parent")
    args.change = os.path.join(args.out, "change")
    cmd_diff(args)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="collect and compare benchmark result sets")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("collect", help="run every workload for each seed")
    p.add_argument("out")
    p.add_argument("--root", default=ROOT, help="checkout to run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("spread", help="run-to-run spread of one set")
    p.add_argument("set")
    p.set_defaults(fn=cmd_spread)

    p = sub.add_parser("pairs", help="alternating parent/change runs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("out")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_pairs)

    p = sub.add_parser("diff", help="verdict table for two result sets")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=cmd_diff)

    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
