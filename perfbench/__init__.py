"""DBGC benchmark (see README.md)."""
