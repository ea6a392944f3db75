"""Benchmark for shiftro: end-to-end replicate timing plus a traced run that
times calls into each module from outside the package.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
