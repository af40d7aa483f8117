"""Cold start of one CLI-like call, run in a fresh interpreter.

Imports zerobounds and its CLI module, then runs one warm-up operation
(compare --methods all --format json on a degree-6 input) and prints the
time of each phase as one JSON line. The parent measures the wall time of
the whole process; these phases break it down.

Run: PYTHONPATH=src python3 benchmark/coldstart.py
"""

import json
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import zerobounds  # noqa: E402

package_done = time.perf_counter()
import zerobounds.cli  # noqa: E402,F401
from zerobounds.report import format_compare_json  # noqa: E402

cli_done = time.perf_counter()
DEGREE6 = "1, 5/4, 4/3, -1/2+1/3i, 2, -3, 4"
format_compare_json(zerobounds.run_compare(zerobounds.parse_polynomial(DEGREE6)))
warmup_done = time.perf_counter()

print(json.dumps({
    "numpy_import_ms": (numpy_done - start) * 1e3,
    "package_import_ms": (package_done - numpy_done) * 1e3,
    "cli_import_ms": (cli_done - package_done) * 1e3,
    "warmup_op_ms": (warmup_done - cli_done) * 1e3,
    "zerobounds_file": zerobounds.__file__,
}))
