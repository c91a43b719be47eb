"""Self-correcting label training for lightweight time-series forecasters."""

__version__ = "0.1.0"
