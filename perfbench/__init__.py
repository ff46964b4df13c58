"""The reference benchmark of the INSQ moving-kNN serving system.

Three named workloads (``plane-serve``, ``plane-churn``, ``road-serve``)
drive the public serving API in a closed loop and report client-side
end-to-end metrics; a separate traced run wraps the public functions of
each ``repro`` layer from this package (no program code changes) and
prints a per-layer ledger of self times that sums to the serving wall.

Run ``python3 perfbench/run.py --workload plane-serve`` from the
repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
