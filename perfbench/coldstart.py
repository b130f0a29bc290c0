"""One cold start of the CLI: import it, then run one toy call of each named command.

    PYTHONPATH=src python3 perfbench/coldstart.py simulate sample
"""

import contextlib
import io
import sys

from multikey_bv import cli  # the import a CLI user pays for

import workloads

for op in workloads.probe(sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(op.argv))
    if code != 0:
        sys.exit(f"cold start: {' '.join(op.argv)} exited with {code}")
