"""The fixture project's linter table: its strings keep nothing alive."""

BLOCKING_CALLS = {"sleep", "only_tested"}
