"""Constructive control by deleting voters under 2-approval."""

from comsoc import (
    ControlInstance,
    Election,
    approval_view,
    ccdv_bruteforce,
    ccdv_fpt,
    reduce_instance,
    relevance_split,
)

# Alternative 0 trails alternative 1 by one approval; voter 3 approves
# only alternatives that already lost.
e = Election(
    [
        (0, 1, 2, 3, 4),
        (0, 1, 3, 2, 4),
        (1, 2, 0, 3, 4),
        (3, 4, 0, 1, 2),
    ]
)
view = approval_view(e, d=2)
print("approval scores:", list(view.scores))

split = relevance_split(e, d=2, p=0)
print("irrelevant:", sorted(split.irrelevant), "relevant:", sorted(split.relevant))
print("classes over V_R:", {tuple(sorted(k)): v for k, v in split.classes.items()})

inst = ControlInstance(e, d=2, p=0, k=1)
witness = ccdv_fpt(inst)
print("delete voters:", witness)
assert witness == ccdv_bruteforce(inst)

reduced = reduce_instance(e, d=2, p=0)
print(f"reduction kept {reduced.n} of {e.n} voters (the last one is dead weight)")
