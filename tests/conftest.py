"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run (derandomized, so no
# example database either) and are never failed for taking long on a busy
# machine.
settings.register_profile("wgflow", derandomize=True, database=None, deadline=None)
settings.load_profile("wgflow")
