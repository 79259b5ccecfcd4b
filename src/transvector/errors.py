"""Shared exception types, mapped to CLI exit codes in one place."""


class ConfigError(ValueError):
    """Bad configuration or unparseable input (CLI exit status 2)."""


class NumericalBreakdown(RuntimeError):
    """Float computation left its domain of validity (CLI exit status 3)."""


class LemmaFalsified(AssertionError):
    """A conclusion bracket escaped s while the hypothesis held.

    This cannot happen if the certified bracket lemma is true.  cli.run
    reports it as a failed run (exit status 1, kind "lemma-falsified", with
    the detail); to a library caller it is an AssertionError, so a test
    suite that triggers it fails.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}
