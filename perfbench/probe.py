"""Set-up probe: build one workload's root systems, setups and inputs, then exit.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed> <collections per setup>

Prints the digest of the inputs so the benchmark can check that the
probe built the same inputs as the measured run.  Its wall time, from
spawn to exit, is one `setup_s` sample.
"""

import sys

import inputs

_, digest = inputs.build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
print(digest)
