"""Property tests run derandomized and without an example database, so every
run of the suite draws the same examples and replays nothing a previous run
stored."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
