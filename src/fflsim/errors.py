"""Shared error types.

ConfigError marks problems a user can fix by editing the experiment config;
the CLI maps it to exit code 2.  Plain ValueError is used for invalid
arguments to library functions.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""
