"""End-to-end and per-layer benchmark for gradflux; entry point ``perfbench/run.py``."""
