"""Benchmark harness for the D-VSync reproduction.

The parent side (``runner``) launches one fresh interpreter per repetition;
the child side (``child``, ``workloads``, ``tracing``) imports ``repro``,
runs one workload, and reports timings, counts and an output digest.
``stats`` holds the summary statistics and the comparison rule both sides
and the ``compare`` command share.
"""
