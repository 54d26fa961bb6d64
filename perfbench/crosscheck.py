"""Cross-check the benchmark's scoring against independently measured values.

    python3 perfbench/crosscheck.py [WORKLOAD ...]     # about 4 minutes for all three

Run from the repository root. Runs each workload once at the default seed
and compares its quality metrics with figures measured for this code by a
separate scorer (true-neighbor fractions to 4 decimals, SSIM to 5, the
median alignment error of cli-default to 0.1 deg). A mismatch points at the
scorer, not at the program. Exits nonzero on any mismatch.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

# metric -> (expected, absolute tolerance)
EXPECTED = {
    "cli-default": {"initial_true_frac": (0.0550, 5e-5), "refined_true_frac": (0.0615, 5e-5),
                    "align_err_med_deg": (47.4, 0.05), "mean_ssim": (0.30964, 5e-6)},
    "classify-n2000": {"initial_true_frac": (0.2451, 5e-5), "refined_true_frac": (0.4087, 5e-5),
                       "mean_ssim": (0.62386, 5e-6)},
    "denoise-snr1": {"initial_true_frac": (0.3633, 5e-5), "refined_true_frac": (0.4383, 5e-5),
                     "mean_ssim": (0.75090, 5e-6)},
}


def main(names):
    mismatches = 0
    for name in names:
        result, _ = run.run(os.getcwd(), name, run.WORKLOADS[name], run.DEFAULT_SEED,
                            seconds=0.0, trace=0)
        for metric, (want, tol) in EXPECTED[name].items():
            got = result["metrics"].get(metric, {}).get("value")
            ok = got is not None and abs(got - want) <= tol
            mismatches += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:15s} {metric:18s} got {got} want {want} +- {tol}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(EXPECTED)))
