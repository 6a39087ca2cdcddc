"""Measured child for ``setup_s``: what a fresh ``gicap --help`` costs.

The clock reading it reports is taken after interpreter start-up,
``import gicap.cli``, the parser build and the help text, and before
anything else is imported, so the parent's reading before the spawn and
this one bracket exactly that work.  Then the host speed probe runs in
the same process, so the parent can scale the time to the reference host
(see hostspeed.py)::

    python setup_child.py RESULT.json
"""

import sys
import time

import gicap.cli

try:
    rc = gicap.cli.main(["--help"])
except SystemExit as exc:  # argparse ends --help with exit(0)
    rc = exc.code
sys.stdout.flush()
end_ns = time.perf_counter_ns()

import json  # noqa: E402  (after the clock stops)

import hostspeed  # noqa: E402

hostspeed.work()  # the first probe in a process runs cold
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"rc": rc, "end_ns": end_ns, "probe_ns": hostspeed.probe(9)}, fh)
