"""Record ``reference.json``: every CSV value of one full-size repetition per workload.

Usage (from the repository root): ``python3 perfbench/record_reference.py``.
Re-record only when a change to rdflb moves a bound on purpose, and say why.
"""

import json
import time

from checks import read_csv, ref_key, value_columns
from run import HERE, RUN_DEADLINE_S, Runner
from workloads import WORKLOAD_NAMES, steps


def main() -> None:
    table = {}
    for workload in WORKLOAD_NAMES:
        runner = Runner(workload, time.monotonic() + RUN_DEADLINE_S)
        rep_dir, res = runner.spawn(steps(workload, seed=1))
        values = {}
        for out in res["outputs"]:
            path = rep_dir / f"{out['name']}.csv"
            if out["kind"] != "cli" or not path.exists():
                continue
            header, rows = read_csv(path)
            for row in rows:
                for c in value_columns(header):
                    values[ref_key(out["name"], row["n"], c)] = float(row[c])
        table[workload] = values
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
