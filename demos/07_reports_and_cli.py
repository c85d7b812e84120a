"""Machine-readable reports, from the library or the command line.

The same run configuration drives both; reports have a fixed key order and
17-significant-digit floats so identical configs give byte-identical output
(timing aside).  Shell equivalent of everything below:

    riggedframes sweep --config config.json --output report.json
    riggedframes classify --config config.json --stages 8,16 --format csv
    riggedframes demo            # all built-in checks, nonzero exit on failure
"""

import json

from riggedframes.reporting import config_from_dict, emit, run

config = config_from_dict(
    {
        "map": {"kind": "weighted_dirac", "weight": "2+sin(x)"},
        "ladder": {"n_max": 32},
        "seed": 7,
    }
)

# ---------------------------------------------------------------------------
# A sweep computes per-stage spectra, taxonomy labels, the canonical dual
# section, and the moment-solvability section in one document.
report = run("sweep", config)
document = json.loads(emit(report).decode())

print("labels:", document["labels"])
# Every stage is summed on one grid, named in the report and chosen from the
# map and the final N: this weight's is a Gauss-Hermite rule of K nodes, the
# first K on which S's last columns stop moving.
grid = document["grid"]
print(f"stage table (one grid: {grid['rule']}, {grid['nodes']} nodes):")
for row in document["stages"]:
    print(f"  N={row['N']:>3} A={row['A']:.6f} B={row['B']:.6f} total={row['total']}")
print("dual section:", document["dual"])
print("moment section:", document["moment"])

# ---------------------------------------------------------------------------
# CSV flattens the stage table, one row per stage.
print("\ncsv form:")
print(emit(run("bounds", config), "csv").decode())
