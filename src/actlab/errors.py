"""Error types shared across the package.

Everything user-facing raises one of these so callers (and the CLI) can tell
a broken precondition from a broken file from a run that blew up.
"""


class ContractViolation(ValueError):
    """A precondition was violated: bad shape, bad range, bad argument."""


class ParseError(ValueError):
    """A file (checkpoint, dataset export, config) could not be parsed."""


class ConfigError(ParseError):
    """A config document is malformed. Carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)

    def __reduce__(self):
        # the default would replay only the formatted text as the one argument
        return type(self), (self.path, self.message)


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss. Carries where, and the last good state."""

    def __init__(self, message, iteration=None, last_loss=None, last_good_params=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_loss = last_loss
        self.last_good_params = last_good_params
