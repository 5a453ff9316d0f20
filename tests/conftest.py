"""One hypothesis profile for every property test: no deadline, since a
shared host's timing says nothing about correctness, and the blob that
reproduces a failure printed with it.  Each test keeps its own
`max_examples`."""

from hypothesis import settings

settings.register_profile("seqtypes", deadline=None, print_blob=True)
settings.load_profile("seqtypes")
