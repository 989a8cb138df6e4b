from hypothesis import settings

# every property runs derandomized, with its own max_examples
settings.register_profile("bispinor", deadline=None, derandomize=True, database=None)
settings.load_profile("bispinor")
