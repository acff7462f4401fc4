"""Set-up probe: a fresh interpreter imports fbpaths and builds one
workload's task list, then exits.  run.py times it from spawn to exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import fbpaths  # noqa: F401

import workloads

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
