"""End-to-end and per-layer benchmark of the repro synthesis system.

Run ``python3 perfbench/run.py --help`` from the repository root; the
metrics, workloads and layer map are described in ``perfbench/README.md``.
"""
