"""Determinism check for the benchmark's exact counts.

    python3 benchmarks/determinism.py [--seed 1]

For every workload, runs the traced benchmark on its fixed rounds only
(``--seconds 0``) twice with one seed and once with the next seed.  Every
count metric (output terms, CX and RZ gates, verify checks, spectrum states,
call counts) and the digest of the generated inputs must repeat exactly for
the same seed; the other seed must generate different inputs.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def traced_fixed_rounds(workload: str, seed: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("inputs_sha256 "))
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    ok = True
    for workload in WORKLOAD_NAMES:
        (d1, c1), (d2, c2), (d3, _) = (traced_fixed_rounds(workload, s) for s in (seed, seed, seed + 1))
        differing = sorted(k for k in c1 if c1[k] != c2[k])
        repeat = d1 == d2 and not differing
        print(f"{workload:16} same seed repeats: {repeat}  other seed differs: {d1 != d3}  "
              + "  ".join(f"{k}={c1[k]}" for k in ("compiler.out_terms", "circuits.cx_count", "circuits.rz_count",
                                                    "verify.checks", "oracle.spectrum.states")))
        if differing:
            print(f"  differing counts: {differing}")
        ok &= repeat and d1 != d3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
