"""Self-test of the benchmark's checks and failure accounting.

    python3 perfbench/selftest.py

Feeds real op outputs, then corrupted copies of them (a dropped logical
mask, a dropped logical state, a shifted energy), through each workload's
check, and runs the measured loop with one corrupted op and one op that
raises to confirm both are counted as failed.  Exits 1 on any miss.
"""

import dataclasses
import io
import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

misses = []


def expect(condition, what):
    print(("ok    " if condition else "MISS  ") + what)
    if not condition:
        misses.append(what)


def without_mask(result, mask):
    entries = [e for e in result.entries if e.config != mask]
    return dataclasses.replace(result, entries=entries)


def item(workload, label):
    return next(i for i in workload.cycle if i.label == label)


def check_metric_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(run.layer_metrics([], 1.0))
    expect(declared == produced, "per-layer metrics match BENCHMARK.json")
    declared = {m["name"] for m in bench["end_to_end"]}
    expect(declared == {name for name, _ in run.END_TO_END},
           "end-to-end metrics match BENCHMARK.json")


def check_gadget(out_dir):
    w = workloads.GadgetVerify(0, out_dir)
    it = item(w, "link:5")
    anchored, masks, result = w.run(it, run.untraced)
    expect(w.check(it, (anchored, masks, result)) == [], "gadget-verify passes a true output")
    dropped = without_mask(result, masks[-1])
    expect(w.check(it, (anchored, masks, dropped)) != [],
           "gadget-verify fails an output with a dropped logical mask")
    expect(w.check(it, (anchored, masks[:-1], result)) != [],
           "gadget-verify fails a gadget with a missing logical state")


def check_ladder(out_dir):
    w = workloads.LadderFront(0, out_dir)
    it = w.prepare(item(w, "K_2"))
    program, instance, logical, w1, w2 = w.run(it, run.untraced)
    expect(w.check(it, (program, instance, logical, w1, w2)) == [],
           "ladder-front passes a true output")
    expect(w.check(it, (program, instance, logical[:-1], w1, w2)) != [],
           "ladder-front fails an output with a dropped logical state")
    twin = logical[:1] + logical[:1] + logical[2:]
    expect(w.check(it, (program, instance, twin, w1, w2)) != [],
           "ladder-front fails two states that decode alike")


def check_spectrum(out_dir):
    w = workloads.SpectrumBlock(0, out_dir)
    it = item(w, "link:37")
    result = w.run(it, run.untraced)
    expect(w.check(it, result) == [], "spectrum-block passes a true output")
    expect(w.check(it, without_mask(result, it.masks[0])) != [],
           "spectrum-block fails an output with a dropped logical mask")
    shifted = [dataclasses.replace(e, energy=e.energy + 1e-6) if e.config == it.masks[-1] else e
               for e in result.entries]
    expect(w.check(it, dataclasses.replace(result, entries=shifted)) != [],
           "spectrum-block fails a logical mask at a wrong energy")


class Corrupting:
    """A workload whose second op drops a logical mask and third op raises."""

    def __init__(self, inner):
        self.inner = inner
        self.cycle = [item(inner, "link:5"), item(inner, "three_body"), item(inner, "fork")]
        self.calls = 0

    def inputs(self):
        return iter(self.cycle * 1000)

    def prepare(self, it):
        return it

    def run(self, it, span):
        self.calls += 1
        anchored, masks, result = self.inner.run(it, span)
        if self.calls == 2:
            result = without_mask(result, masks[0])
        if self.calls == 3:
            raise RuntimeError("injected")
        return anchored, masks, result

    def check(self, it, output):
        return self.inner.check(it, output)


def check_accounting(out_dir):
    w = Corrupting(workloads.GadgetVerify(0, out_dir))
    [got] = run.measure(w, 1e-9, log=io.StringIO())
    expect((got.attempted, got.failed, len(got.latencies)) == (3, 2, 1),
           "the measured loop counts a corrupted op and a raising op as failed")


def main():
    out_dir = run.OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        check_metric_names()
        check_gadget(str(out_dir))
        check_ladder(str(out_dir))
        check_spectrum(str(out_dir))
        check_accounting(str(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
