"""The performance ledger: one layered, repeatable benchmark (see README.md)."""
