"""Check exact work counts in the last JSON line of a traced benchmark run.

    python3 .github/scripts/traced_counts.py traced.json market_data.bars=2880 market_data.windows=40

Exits 1, naming each count that differs from the value given.
"""

import json
import sys

metrics = json.loads(open(sys.argv[1], encoding="utf-8").read())["metrics"]
want = {name: int(value) for name, value in (arg.split("=") for arg in sys.argv[2:])}
got = {name: metrics[name]["value"] for name in want}
problems = [f"{name} {got[name]} != {value}" for name, value in want.items() if got[name] != value]
if problems:
    sys.exit("traced counts: " + "; ".join(problems))
print("traced counts:", got)
