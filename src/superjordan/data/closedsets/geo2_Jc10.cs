[closedset]
label = geo2_Jc10
source = Jc10
targets = Jc8 Jc49
# The published footnote basis (e1, e2, f1, f2) does not satisfy the third
# equation (the half-action sits on e1*f2 there); the graded reordering below
# does, matching the ordering the conditions were evidently written for.
# Recorded in the errata ledger.
status = corrected
basis = e2 e1 f2 f1
condition: c[2,2,1] = 0
condition: c[3,4,1] = 0
condition: c[3,4,2] = 0
condition: 2*c[2,3,3] = c[2,2,2]
