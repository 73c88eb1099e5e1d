"""Time a fresh interpreter's ``import cho`` plus the warm-up requests.

    python3 perfbench/setup_probe.py '<JSON list of argv lists>'

Prints the seconds taken.  run.py starts it with PYTHONPATH set to the
checkout's ``src``.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

t0 = perf_counter()
import cho.cli  # noqa: E402

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cho.cli.main(argv)
print(perf_counter() - t0)
