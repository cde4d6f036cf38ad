from hypothesis import settings

# The property tests draw the same examples on every run and are judged by
# their bounds alone, not by how long one example took on a busy machine.
settings.register_profile("stirlingsum", deadline=None, derandomize=True)
settings.load_profile("stirlingsum")
