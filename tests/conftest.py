"""Shared test settings."""

from hypothesis import settings

# a longer search for the property tests, chosen with
# --hypothesis-profile=thorough; the default profile is left as it is
settings.register_profile("thorough", max_examples=2000, deadline=None)
