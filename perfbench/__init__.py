"""Seeded serving benchmark of the SDRaD reproduction (see run.py)."""
