import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Tier-1 runs the same examples every time: seeds derive from each test, and
# no example database carries failures from one run into the next.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
