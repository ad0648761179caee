import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # the property tests then fail to import on their own
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")
