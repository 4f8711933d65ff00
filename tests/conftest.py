"""Hypothesis settings for the test suite.

Under CI (the ``CI`` environment variable set) the ``ci`` profile replays
the same derandomized draws on every run and keeps no example database,
so a run cannot fail on a draw that an earlier run saved.  Local runs keep
random draws and the ``.hypothesis/`` database.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
