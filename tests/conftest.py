"""Hypothesis profiles for the test suite.

``ci`` draws the same examples on every run and prints the blob that replays
a failure, since CI keeps no example database: select it with
``pytest --hypothesis-profile=ci``. Local runs keep the default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
