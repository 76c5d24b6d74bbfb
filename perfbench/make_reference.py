"""Build the System-Run reference the benchmark's ``model_error_pct`` reads.

For every catalog kernel this records two things:

- ``wg``: the work-group sizes of the kernel's default design space that
  analyse without error (the serve workload only requests these, so no
  request fails for a reason the benchmark chose);
- ``designs``: the simulated cycles of each design point that
  ``run_suite(..., designs_per_kernel=8)`` predicts, keyed by design
  signature.

The reference is the repository's own detailed simulator
(``repro.simulator.SystemRun``), not hardware.  It takes about four
minutes on two cores and only needs re-running when the simulator, the
catalog or the design sampling changes.  At run time the benchmark only
reads the file.

Usage, from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "system_run_reference.json"
DESIGNS_PER_KERNEL = 8


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.devices import VIRTEX7
    from repro.dse import DesignSpace
    from repro.evaluation import (default_suite_workloads, make_analyzer,
                                  sample_designs)
    from repro.simulator import SystemRun

    simulator = SystemRun(VIRTEX7)
    kernels = {}
    start = time.perf_counter()
    for workload in default_suite_workloads():
        analyzer = make_analyzer(workload, VIRTEX7)
        space = DesignSpace.default_for(workload.global_size)
        sizes = [wg for wg in space.work_group_sizes
                 if analyzer(wg) is not None]
        designs = sample_designs(workload, VIRTEX7, space,
                                 DESIGNS_PER_KERNEL, analyzer)
        kernels[workload.qualified_name] = {
            "wg": sizes,
            "designs": {
                d.signature(): simulator.run(
                    analyzer(d.work_group_size), d).cycles
                for d in designs},
        }
        print(f"{workload.qualified_name}: {len(designs)} designs "
              f"({time.perf_counter() - start:.0f}s)", flush=True)
    OUT.write_text(json.dumps({
        "reference": "repro.simulator.SystemRun (simulated cycles, "
                     "not hardware)",
        "device": VIRTEX7.name,
        "designs_per_kernel": DESIGNS_PER_KERNEL,
        "kernels": kernels,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
