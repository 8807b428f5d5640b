from hypothesis import settings

# no per-example deadline, since run times vary on a shared host, and the
# same examples on every run, so a tier-1 result does not depend on the seed
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
