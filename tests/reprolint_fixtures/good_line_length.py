"""Fixture: lines of exactly 100 characters, multi-byte ones included — must be clean."""

EXACT = 1  # xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx
# — em dashes are one character each, three bytes in UTF-8 — xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx
