"""The oracle-mode table search (pure Python)."""

from .pure import enumerate_operator_tables

__all__ = ["enumerate_operator_tables"]
