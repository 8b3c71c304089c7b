# Keeps the tests directory on sys.path so `import helpers` works from anywhere.
from hypothesis import settings

# Every @given test draws the same examples on every run, and no example database is replayed.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
