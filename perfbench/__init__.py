"""The repository benchmark: three workloads, end-to-end metrics and a
traced run with a per-layer ledger. See ``perfbench/README.md``."""
