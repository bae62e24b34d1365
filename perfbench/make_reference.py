"""Write reference.json: the analytic-figures outputs at the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

The gate compares every later run at the default seed with this table, so
regenerate it only when a change to the analytic values is intended.
"""

import json
import re

import workloads


def main():
    wl = workloads.AnalyticFigures(workloads.DEFAULT_SEED, check_reference=False)
    table = wl.run_pass(collect=True)[1]
    table["seed"] = workloads.DEFAULT_SEED
    table["columns"] = ["lambda_bs", "cp", "cp_lower", "cp_upper", "ase", "ase_upper",
                        "ase_lower"]
    text = json.dumps(table, indent=1)
    # one grid row per line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    workloads.REFERENCE_PATH.write_text(text + "\n")


if __name__ == "__main__":
    main()
