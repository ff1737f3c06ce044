"""Self-test of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the workloads and metrics the
benchmark reports, and, on every workload shape:
- the generators: star-centers writes the demo's CSV bytes, and the
  closed-form join sizes match the program's count and the materialized join;
- the tracer: on a tiny instance every wrapped function records at least one
  call, and the traced result document is byte-identical to the untraced one;
- that every binding site is restored after tracing.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        failures.append(what)


def demo_matches(seed: int, workdir: Path) -> bool:
    spec = importlib.util.spec_from_file_location(
        "demo_pipeline", run.ROOT / "scripts" / "demo_pipeline.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    ours, theirs = workdir / "ours", workdir / "demo"
    ours.mkdir(parents=True, exist_ok=True)
    theirs.mkdir(parents=True, exist_ok=True)
    workloads.star_centers(ours, seed)
    demo.write_instance(theirs, 3, seed)
    names = ["hub.csv", "leaf1.csv", "leaf2.csv", "schema.txt"]
    return all((ours / n).read_bytes() == (theirs / n).read_bytes()
               for n in names)


def main() -> int:
    run.import_program()
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == ours, f"BENCHMARK.json {key} lists the metrics "
              "the benchmark reports", failures)
    check([w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS),
          "BENCHMARK.json workloads are the generators", failures)
    for seed in (0, 3):
        check(demo_matches(seed, run.WORK / f"demo-{seed}"),
              f"star-centers CSVs equal scripts/demo_pipeline.py at seed {seed}",
              failures)
    for name in workloads.GENERATORS:
        prep = run.prepare(name, 0)
        check(not prep.problems,
              f"{name}: closed form, count_scalar and materialize agree "
              f"({prep.n_rows} rows) {'; '.join(prep.problems)}", failures)

    originals = {site: tracing._resolve(site) for _, _, sites in tracing.WRAPPED
                 for site in sites}
    originals = {site: owner.__dict__[leaf]
                 for site, (owner, leaf) in originals.items()}
    labels = {label for _, label, _ in tracing.WRAPPED}
    for name in workloads.GENERATORS:
        res = run.run_traced(name, 0, tiny=True, strict=True)
        check(res["correct"],
              f"{name} (tiny): traced run correct, document byte-identical "
              f"to the untraced one {'; '.join(res['problems'])}", failures)
        missed = sorted(labels - {k for k, v in res["fn_calls"].items() if v})
        check(not missed,
              f"{name} (tiny): every wrapped function called"
              f"{' (missed: ' + ', '.join(missed) + ')' if missed else ''}",
              failures)
    restored = all(owner.__dict__[leaf] is originals[site]
                   for site, (owner, leaf) in
                   ((s, tracing._resolve(s)) for s in originals))
    check(restored, "every binding site restored after tracing", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
