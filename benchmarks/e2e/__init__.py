"""End-to-end benchmark of the iTask serving, scan and streaming paths.

Run ``python -m benchmarks.e2e run`` from the repository root; see
README.md in this directory for the workloads, metrics and rules.
"""
