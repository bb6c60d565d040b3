"""End-to-end and per-layer benchmark for the CFL-Match reproduction.

Run ``python3 cflbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``cflbench/README.md``.
Only :mod:`cflbench.client` imports ``repro``; every other module here
is standard library only, so the entry point can start (and fail
cleanly) without the program on the path.
"""
