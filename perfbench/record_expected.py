"""Record the outputs the benchmark checks against, into expected.json.

Run once at the commit that defines the baseline, from the repository root:

    python3 perfbench/record_expected.py

Re-recording is a change to the benchmark's correctness checks and must be
justified on its own; a change that claims a speed-up never re-records.
"""

import json

import workloads


def main():
    expected = {}
    for name in workloads.WORKLOADS:
        expected[name] = {}
        for size in ("full", "tiny"):
            expected[name].update(
                workloads.run_pass(name, 0, size=size, expected={})["record"])
        print(name, len(expected[name]), flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
