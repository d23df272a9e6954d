"""Trace-driven edge-cloud caching simulator with a hybrid bandit policy."""
